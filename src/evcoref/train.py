"""Batch sampling and the training loop.

Batches of 272 mentions are drawn without replacement and seeded so that
every batch carries at least one coreferent and one non-coreferent pair,
which the pairwise loss terms require. After each epoch the model embeds the
validation mentions, the stop threshold is re-tuned, and the checkpoint with
the best validation B3 is retained. All randomness flows from one seed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .clustering import tune_tau
from .config import BATCH_SIZE, TrainConfig
from .corpus import Clustering
from .errors import IntegrityError, SamplerError, TrainingDivergedError
from .network import (
    AdamState,
    LossBreakdown,
    NetParams,
    Runs,
    adam_step,
    forward,
    init_params,
    loss_and_grad,
    make_dropout_masks,
    row_runs,
)

@dataclass
class Batch:
    inputs: np.ndarray
    class_labels: np.ndarray
    chain_codes: np.ndarray
    dropout_masks: tuple


def encode_chains(chain_ids) -> np.ndarray:
    """Map chain id strings to dense integer codes (equality-preserving)."""
    seen: dict[str, int] = {}
    return np.array([seen.setdefault(c, len(seen)) for c in chain_ids], dtype=np.int64)


def class_labels(chain_ids) -> tuple[np.ndarray, int]:
    """Training class of each mention, and the class count: one class per
    multi-mention chain, numbered in sorted chain-id order, plus one shared
    last class for all singletons. A split with no mentions has no classes
    and raises IntegrityError."""
    chain_ids = list(chain_ids)
    if not chain_ids:
        raise IntegrityError("cannot build training classes from a split with no mentions")
    multi = sorted(c for c, size in Counter(chain_ids).items() if size >= 2)
    class_of = {c: i for i, c in enumerate(multi)}
    labels = np.array([class_of.get(c, len(multi)) for c in chain_ids], dtype=np.int64)
    return labels, len(multi) + 1


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
    mask_dims: tuple,
    size: int = BATCH_SIZE,
    dropout: float = 0.25,
) -> Batch:
    """A batch with dropout masks for a network of dims `mask_dims`."""
    idx = sample_indices(chain_codes, rng, size)
    return Batch(
        inputs=features[idx],
        class_labels=np.asarray(class_labels)[idx],
        chain_codes=np.asarray(chain_codes)[idx],
        dropout_masks=make_dropout_masks(rng, len(idx), mask_dims, dropout),
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
    best_tau: float | None
    best_b3: float | None
    best_epoch: int
    history: list = field(default_factory=list)


def movable_w1_rows(features: np.ndarray) -> Runs:
    """The runs of first-layer weight rows that training on `features` can
    move: those of the input columns nonzero in some row (-0.0 counts as
    zero). Any other row gets a gradient of +-0 on every step, so Adam
    leaves it and its moments exactly as initialised. When fewer than two
    columns are nonzero every row is taken, because numpy computes a
    one-row product on another path that sums in another order. A NaN or
    inf entry is refused, naming the first row that holds one."""
    finite = np.isfinite(features)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise IntegrityError(
            f"train feature row {row} (0-based, in mentions.tsv order) has the "
            f"non-finite value {float(features[row, col])!r} in column {col}"
        )
    nonzero = (features != 0.0).any(axis=0)
    if np.count_nonzero(nonzero) < 2:
        nonzero[:] = True
    return row_runs(nonzero)


def _snapshot(params: NetParams, best_params: NetParams, w1_runs: Runs) -> None:
    """Copy the current parameters into the best-epoch buffers; of w1 only
    the rows of `w1_runs`, the only ones training moves."""
    (w1, *rest), (best_w1, *best_rest) = params.arrays(), best_params.arrays()
    for lo, hi in w1_runs:
        np.copyto(best_w1[lo:hi], w1[lo:hi])
    for src, dst in zip(rest, best_rest):
        np.copyto(dst, src)


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
    w1_runs = movable_w1_rows(features)
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

    # allocated once: every step writes its gradients into `grads` (of w1
    # only the movable rows), and each new best epoch is copied into
    # `best_params`, whose other w1 rows stay as initialised
    w1_grad = np.empty((sum(hi - lo for lo, hi in w1_runs), params.w1.shape[1]))
    grads = NetParams(w1_grad, *[np.empty_like(a) for a in params.arrays()[1:]])
    history: list[EpochLog] = []
    best_params = params.copy()
    best_tau: float | None = None
    best_b3: float | None = None
    best_epoch = 0

    for epoch in range(1, config.epochs + 1):
        sums = np.zeros(4)  # total, cce, attract, repulse
        for _ in range(batches_per_epoch):
            batch = sample_batch(
                features, class_labels, chain_codes, rng, dims,
                size=config.batch_size, dropout=config.dropout,
            )
            cache = forward(
                params,
                batch.inputs,
                mode="train",
                masks=batch.dropout_masks,
                dropout=config.dropout,
            )
            breakdown, _ = loss_and_grad(
                params, cache, batch.class_labels, batch.chain_codes,
                config.lambda1, config.lambda2, use_cce=config.use_cce, out=grads,
                w1_runs=w1_runs,
            )
            if not math.isfinite(breakdown.total):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}: cce={breakdown.cce!r} "
                    f"attract={breakdown.attract!r} repulse={breakdown.repulse!r} "
                    f"(lr={config.lr}, lambda1={config.lambda1}, lambda2={config.lambda2})"
                )
            adam_step(params, adam, grads, config.lr, w1_runs=w1_runs)
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
                _snapshot(params, best_params, w1_runs)
                best_tau, best_b3, best_epoch = tau, b3, epoch
        else:
            _snapshot(params, best_params, w1_runs)
            best_epoch = epoch
        history.append(log)
        if progress is not None:
            progress(log)

    return TrainResult(
        params=params,
        adam=adam,
        best_params=best_params,
        best_tau=best_tau,
        best_b3=best_b3,
        best_epoch=best_epoch,
        history=history,
    )
