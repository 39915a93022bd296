"""Batch sampling and the training loop.

Batches of 272 mentions are drawn without replacement and seeded so that
every batch carries at least one coreferent and one non-coreferent pair,
which the pairwise loss terms require. After each epoch the model embeds the
validation mentions, the stop threshold is re-tuned, and the checkpoint with
the best validation B3 is retained. All randomness flows from one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clustering import tune_tau
from .corpus import Clustering
from .errors import IntegrityError, SamplerError, TrainingDivergedError
from .network import (
    AdamState,
    LossBreakdown,
    NetParams,
    adam_step,
    backward,
    forward,
    init_params,
    loss_total,
    make_dropout_masks,
)

BATCH_SIZE = 272


@dataclass
class TrainConfig:
    lr: float = 0.00085
    epochs: int = 100
    batch_size: int = BATCH_SIZE
    lambda1: float = 0.0
    lambda2: float = 0.0
    dropout: float = 0.25
    seed: int = 0
    hidden1: int = 1000
    embed: int = 250
    hidden3: int = 1000
    use_cce: bool = True


@dataclass
class Batch:
    inputs: np.ndarray
    class_labels: np.ndarray
    chain_codes: np.ndarray
    dropout_masks: tuple | None = None


def encode_chains(chain_ids) -> np.ndarray:
    """Map chain id strings to dense integer codes (equality-preserving)."""
    seen: dict[str, int] = {}
    return np.array([seen.setdefault(c, len(seen)) for c in chain_ids], dtype=np.int64)


def sample_indices(chain_codes: np.ndarray, rng: np.random.Generator, size: int = BATCH_SIZE) -> np.ndarray:
    """Choose batch members without replacement. When the pool exceeds the
    batch size, two members of one random multi-mention chain plus one member
    of a different chain are seeded first, guaranteeing a same-chain and a
    cross-chain pair; the rest fill uniformly."""
    chain_codes = np.asarray(chain_codes)
    n = len(chain_codes)
    codes, counts = np.unique(chain_codes, return_counts=True)
    if len(codes) < 2 or counts.max() < 2:
        raise SamplerError(
            "need at least one multi-mention chain and two distinct chains"
        )
    if n <= size:
        return rng.permutation(n)

    multi = codes[counts >= 2]
    chain = multi[rng.integers(len(multi))]
    members = np.flatnonzero(chain_codes == chain)
    pair = rng.choice(members, size=2, replace=False)
    others = np.flatnonzero(chain_codes != chain)
    outsider = others[rng.integers(len(others))]

    seeded = np.array([pair[0], pair[1], outsider])
    remaining = np.setdiff1d(np.arange(n), seeded)
    fill = rng.choice(remaining, size=size - 3, replace=False)
    return rng.permutation(np.concatenate([seeded, fill]))


def sample_batch(
    features: np.ndarray,
    class_labels: np.ndarray,
    chain_codes: np.ndarray,
    rng: np.random.Generator,
    size: int = BATCH_SIZE,
    dropout: float = 0.25,
    mask_dims: tuple | None = None,
) -> Batch:
    idx = sample_indices(chain_codes, rng, size)
    masks = None
    if mask_dims is not None:
        masks = make_dropout_masks(rng, len(idx), mask_dims, dropout)
    return Batch(
        inputs=features[idx],
        class_labels=np.asarray(class_labels)[idx],
        chain_codes=np.asarray(chain_codes)[idx],
        dropout_masks=masks,
    )


@dataclass
class EpochLog:
    epoch: int
    loss: LossBreakdown
    val_b3: float | None = None
    tau: float | None = None


@dataclass
class TrainResult:
    params: NetParams
    adam: AdamState
    best_params: NetParams
    best_adam: AdamState
    best_tau: float | None
    best_b3: float | None
    best_epoch: int
    history: list = field(default_factory=list)


def _snapshot(params: NetParams, adam: AdamState, best_params: NetParams, best_adam: AdamState) -> None:
    """Copy the current parameters and Adam state into the best-epoch buffers."""
    for src, dst in zip(
        params.arrays() + adam.m + adam.v, best_params.arrays() + best_adam.m + best_adam.v
    ):
        np.copyto(dst, src)
    best_adam.t = adam.t


def train(
    features: np.ndarray,
    class_labels: np.ndarray,
    chain_ids,
    n_classes: int,
    config: TrainConfig,
    val_features: np.ndarray | None = None,
    val_mention_ids: list[str] | None = None,
    val_gold: Clustering | None = None,
    progress=None,
) -> TrainResult:
    """Run the configured number of epochs; an epoch is ceil(n / batch_size)
    sampled batches. Aborts with diagnostics when the loss goes non-finite.
    With a validation split, tracks the epoch whose embeddings give the best
    tuned-tau B3 and returns those parameters as best_params."""
    features = np.asarray(features, dtype=np.float64)
    n, width = features.shape
    chain_codes = encode_chains(chain_ids)
    rng = np.random.default_rng(config.seed)
    params = init_params(
        rng, width, n_classes, config.hidden1, config.embed, config.hidden3
    )
    adam = AdamState.for_params(params)
    dims = params.dims
    batches_per_epoch = max(1, math.ceil(n / config.batch_size))
    has_val = val_features is not None
    if has_val and (val_mention_ids is None or val_gold is None):
        raise ValueError("validation needs features, mention ids, and gold chains")
    if has_val and len(val_mention_ids) == 0:
        raise IntegrityError("the validation split has no mentions to select an epoch on")

    # allocated once: every step writes its gradients into `grads`, and each
    # new best epoch is copied into `best_params`/`best_adam`
    grads = NetParams(*[np.empty_like(a) for a in params.arrays()])
    history: list[EpochLog] = []
    best_params = params.copy()
    best_adam = AdamState.for_params(params)
    best_tau: float | None = None
    best_b3: float | None = None
    best_epoch = 0

    for epoch in range(1, config.epochs + 1):
        sums = np.zeros(4)  # total, cce, attract, repulse
        for _ in range(batches_per_epoch):
            batch = sample_batch(
                features,
                class_labels,
                chain_codes,
                rng,
                size=config.batch_size,
                dropout=config.dropout,
                mask_dims=dims,
            )
            cache = forward(
                params,
                batch.inputs,
                mode="train",
                masks=batch.dropout_masks,
                dropout=config.dropout,
            )
            breakdown = loss_total(
                cache.probs,
                cache.embeddings,
                batch.class_labels,
                batch.chain_codes,
                config.lambda1,
                config.lambda2,
                use_cce=config.use_cce,
            )
            if not math.isfinite(breakdown.total):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}: cce={breakdown.cce!r} "
                    f"attract={breakdown.attract!r} repulse={breakdown.repulse!r} "
                    f"(lr={config.lr}, lambda1={config.lambda1}, lambda2={config.lambda2})"
                )
            backward(
                params,
                cache,
                batch.class_labels,
                batch.chain_codes,
                config.lambda1,
                config.lambda2,
                use_cce=config.use_cce,
                out=grads,
            )
            adam_step(params, adam, grads, config.lr)
            sums += (breakdown.total, breakdown.cce, breakdown.attract, breakdown.repulse)

        mean = sums / batches_per_epoch
        log = EpochLog(
            epoch=epoch,
            loss=LossBreakdown(
                total=mean[0],
                cce=mean[1],
                attract=mean[2],
                repulse=mean[3],
                lambda1=config.lambda1,
                lambda2=config.lambda2,
            ),
        )
        if has_val:
            val_emb = forward(params, val_features, mode="infer").embeddings
            tau, b3 = tune_tau(val_emb, val_mention_ids, val_gold)
            log.val_b3, log.tau = b3, tau
            if best_b3 is None or b3 > best_b3:
                _snapshot(params, adam, best_params, best_adam)
                best_tau, best_b3, best_epoch = tau, b3, epoch
        else:
            _snapshot(params, adam, best_params, best_adam)
            best_epoch = epoch
        history.append(log)
        if progress is not None:
            progress(log)

    return TrainResult(
        params=params,
        adam=adam,
        best_params=best_params,
        best_adam=best_adam,
        best_tau=best_tau,
        best_b3=best_b3,
        best_epoch=best_epoch,
        history=history,
    )
