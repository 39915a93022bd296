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
from dataclasses import dataclass

import numpy as np

from .clustering import tune_tau
from .config import BATCH_SIZE, TrainConfig
from .corpus import Clustering
from .corpus import dense_labels as encode_chains  # chain ids to dense chain codes
from .errors import IntegrityError, ModelMismatchError, SamplerError, TrainingDivergedError
from .network import (
    AdamState,
    LossBreakdown,
    NetParams,
    Runs,
    _packed_runs,
    adam_step,
    embed,
    forward,
    init_params,
    loss_and_grad,
    make_dropout_masks,
    row_runs,
)

@dataclass
class Batch:
    """Members' inputs, labels and chain codes, and the boolean dropout
    masks of the three hidden layers (True keeps a unit)."""

    inputs: np.ndarray
    class_labels: np.ndarray
    chain_codes: np.ndarray
    dropout_masks: tuple


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
    out: Batch | None = None,
) -> Batch:
    """A batch with dropout masks for a network of dims `mask_dims`: its
    rows, labels and chain codes are written into the arrays of `out` (an
    earlier batch of as many members), which is returned and holds the new
    masks, or into new ones when `out` is None."""
    idx = sample_indices(chain_codes, rng, size)
    class_labels, chain_codes = np.asarray(class_labels), np.asarray(chain_codes)
    if out is None:
        return Batch(
            inputs=features[idx],
            class_labels=class_labels[idx],
            chain_codes=chain_codes[idx],
            dropout_masks=make_dropout_masks(rng, len(idx), mask_dims, dropout),
        )
    # mode="clip" writes the rows straight into out.inputs, where the
    # default mode="raise" copies through a batch-sized temporary (idx is
    # always in range). On the learned benchmark (seed 1, 3 corpora) the
    # train stage's median peak RSS is 249.0 MB with "clip" against 252.5 MB
    # with "raise", at about the same minor faults (30.5k against 29.7k);
    # with the full-width batch it had measured 96k faults against 39k
    np.take(features, idx, axis=0, out=out.inputs, mode="clip")
    np.take(class_labels, idx, out=out.class_labels)
    np.take(chain_codes, idx, out=out.chain_codes)
    out.dropout_masks = make_dropout_masks(rng, len(idx), mask_dims, dropout)
    return out


@dataclass
class EpochLog:
    """An epoch's mean losses, and the validation B3 at the tau tuned after it."""

    epoch: int
    loss: LossBreakdown
    val_b3: float
    tau: float


@dataclass
class TrainResult:
    """The parameters of the best epoch, with its tuned tau and validation B3."""

    best_params: NetParams
    best_tau: float
    best_b3: float
    best_epoch: int


@dataclass(frozen=True)
class MovableInputs:
    """Train features in the movable-row space: `packed` holds the input
    columns of `runs` (movable_w1_rows) back to back, out of `width` input
    columns. Runs that are not increasing, disjoint and inside the width,
    or whose total length is not packed's column count, are refused."""

    packed: np.ndarray
    runs: Runs
    width: int

    def __post_init__(self):
        at = 0
        for lo, hi in self.runs:
            if not at <= lo < hi <= self.width:
                raise ValueError(f"run [{lo}, {hi}) after column {at} of {self.width} input columns")
            at = hi
        m = sum(hi - lo for lo, hi in self.runs)
        if self.packed.ndim != 2 or self.packed.shape[1] != m:
            raise ValueError(f"packed inputs of shape {self.packed.shape} for runs of {m} columns")

    @classmethod
    def pack(cls, blocks, n: int, width: int, runs: Runs) -> "MovableInputs":
        """Copy the columns of `runs` out of `blocks`, the row blocks of an
        n x width matrix, into one n x m matrix."""
        columns = np.array([c for lo, hi in runs for c in range(lo, hi)], dtype=np.intp)
        packed = np.empty((n, len(columns)))
        start = 0
        for block in blocks:
            stop = start + len(block)
            np.take(block, columns, axis=1, out=packed[start:stop])
            start = stop
        return cls(packed, runs, width)


def movable_w1_rows(blocks, width: int) -> Runs:
    """The runs of first-layer weight rows that training can move, read
    from `blocks`, the row blocks of the n x width train matrix in row
    order: those of the input columns nonzero in some row (-0.0 counts as
    zero). Any other row gets a gradient of +-0 on every step, so Adam
    leaves it and its moments exactly as initialised. When fewer than two
    columns are nonzero every row is taken, because numpy computes a
    one-row product on another path that sums in another order. A NaN or
    inf entry is refused, naming the first row that holds one."""
    nonzero = np.zeros(width, dtype=bool)
    first = 0
    for block in blocks:
        finite = np.isfinite(block)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise IntegrityError(
                f"train feature row {first + row} (0-based, in mentions.tsv order) has the "
                f"non-finite value {float(block[row, col])!r} in column {col}"
            )
        nonzero |= (block != 0.0).any(axis=0)
        first += len(block)
    if np.count_nonzero(nonzero) < 2:
        nonzero[:] = True
    return row_runs(nonzero)


def _snapshot(params: NetParams, best: NetParams, w1_runs: Runs) -> None:
    """Copy the current parameters into the compact best-epoch buffers; of
    w1 only the rows of `w1_runs`, the only ones training moves."""
    for rows, packed in _packed_runs(w1_runs):
        np.copyto(best.w1[packed], params.w1[rows])
    for src, dst in zip(params.arrays()[1:], best.arrays()[1:]):
        np.copyto(dst, src)


def train(
    features: np.ndarray | MovableInputs,
    class_labels: np.ndarray,
    chain_ids,
    n_classes: int,
    config: TrainConfig,
    *,
    val_features: np.ndarray,
    val_mention_ids: list[str],
    val_gold: Clustering,
    progress=None,
) -> TrainResult:
    """Run the configured number of epochs; an epoch is ceil(n / batch_size)
    sampled batches. Aborts with diagnostics when the loss goes non-finite.
    After each epoch tau is tuned on the validation split; the epoch whose
    embeddings give the best B3 is returned as best_params. Each epoch's
    EpochLog is passed to `progress`, when given.

    Training works in the movable-row space: the m input columns nonzero in
    some train row, and their first-layer rows, packed back to back.
    `features` is either the n x width train matrix, whose movable columns
    are copied once into an n x m matrix (it is never written, and a caller
    that keeps no reference of its own frees it here), or that packed
    matrix as MovableInputs, built from row blocks by movable_w1_rows (which
    refuses a non-finite value) and MovableInputs.pack. Besides
    the parameters, the loop holds the compact gradient, Adam's moments and
    the compact best-epoch snapshot (of w1, each only the movable rows), all
    allocated once, and one compact batch, one full-width forward input and
    one forward cache that every step overwrites. The forward input's other
    columns stay +0.0. Each step draws new boolean dropout masks, and its
    backward pass holds one delta at a time (loss_and_grad). At the end the
    snapshot's rows are copied into params.w1, which becomes
    best_params.w1."""
    if not isinstance(features, MovableInputs):
        features = np.asarray(features, dtype=np.float64)
        n, width = features.shape
        features = MovableInputs.pack([features], n, width, movable_w1_rows([features], width))
    packed_features, w1_runs, width = features.packed, features.runs, features.width
    n = len(packed_features)
    del features
    # the validation split is refused before the first step, not at the first epoch's end
    if len(val_mention_ids) == 0:
        raise IntegrityError("the validation split has no mentions to select an epoch on")
    if val_features.ndim != 2 or val_features.shape[1] != width:
        raise ModelMismatchError(
            f"validation input width {val_features.shape[-1]} != train input width {width}"
        )
    if len(val_features) != len(val_mention_ids):
        raise IntegrityError(
            f"{len(val_features)} validation rows for {len(val_mention_ids)} mentions"
        )
    chain_codes = encode_chains(chain_ids)
    rng = np.random.default_rng(config.seed)
    params = init_params(rng, width, n_classes, config.hidden1, config.embed, config.hidden3)
    dims = params.dims
    batches_per_epoch = max(1, math.ceil(n / config.batch_size))

    # allocated once: every step writes its gradients into `grads` and each
    # new best epoch is copied into `best` (at first the initial parameters),
    # of w1 both only the movable rows; the first step allocates `batch`,
    # `inputs` and `cache`, which later steps overwrite
    compact = lambda: NetParams(
        np.empty((packed_features.shape[1], params.w1.shape[1])),
        *[np.empty_like(a) for a in params.arrays()[1:]],
    )
    grads, best = compact(), compact()
    adam = AdamState.for_params(grads)
    _snapshot(params, best, w1_runs)
    batch = inputs = cache = None
    best_tau = best_b3 = -math.inf  # B3 is in [0, 1]: the first epoch is always kept
    best_epoch = 0

    for epoch in range(1, config.epochs + 1):
        sums = np.zeros(4)  # total, cce, attract, repulse
        for _ in range(batches_per_epoch):
            batch = sample_batch(
                packed_features, class_labels, chain_codes, rng, dims,
                size=config.batch_size, dropout=config.dropout, out=batch,
            )
            if inputs is None:
                inputs = np.zeros((len(batch.inputs), width))
            for cols, packed_cols in _packed_runs(w1_runs):
                inputs[:, cols] = batch.inputs[:, packed_cols]
            cache = forward(
                params,
                inputs,
                mode="train",
                masks=batch.dropout_masks,
                dropout=config.dropout,
                out=cache,
            )
            breakdown, _ = loss_and_grad(
                params, cache, batch.class_labels, batch.chain_codes,
                config.lambda1, config.lambda2, use_cce=config.use_cce, out=grads,
                w1_inputs=batch.inputs,
            )
            if not math.isfinite(breakdown.total):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}: cce={breakdown.cce!r} "
                    f"attract={breakdown.attract!r} repulse={breakdown.repulse!r} "
                    f"(lr={config.lr}, lambda1={config.lambda1}, lambda2={config.lambda2})"
                )
            adam_step(params, adam, grads, config.lr, w1_runs=w1_runs)
            sums += (breakdown.total, breakdown.cce, breakdown.attract, breakdown.repulse)

        tau, b3 = tune_tau(embed(params, val_features), val_mention_ids, val_gold)
        if b3 > best_b3:
            _snapshot(params, best, w1_runs)
            best_tau, best_b3, best_epoch = tau, b3, epoch
        if progress is not None:
            mean = sums / batches_per_epoch
            progress(EpochLog(
                epoch=epoch,
                loss=LossBreakdown(
                    total=mean[0],
                    cce=mean[1],
                    attract=mean[2],
                    repulse=mean[3],
                ),
                val_b3=b3,
                tau=tau,
            ))

    # params.w1 becomes the best epoch's: no second whole w1 is made
    for rows, packed in _packed_runs(w1_runs):
        np.copyto(params.w1[rows], best.w1[packed])
    best_params = NetParams(params.w1, *best.arrays()[1:])
    return TrainResult(best_params, best_tau, best_b3, best_epoch)
