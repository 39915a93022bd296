import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from evcoref.corpus import Clustering
from evcoref.errors import IntegrityError, ModelMismatchError, SamplerError, TrainingDivergedError
from evcoref import network
from evcoref import train as train_module
from evcoref.network import AdamState, NetParams, adam_step, forward, init_params
from oracles import full_row_train, two_call_step
from evcoref.train import (
    MovableInputs,
    TrainConfig,
    encode_chains,
    movable_w1_rows,
    sample_batch,
    sample_indices,
    train,
)


def blob_data(rng, n_per=20, k=3, d=10, noise=0.3):
    centers = rng.normal(size=(k, d)) * 3.0
    x = np.concatenate(
        [centers[i] + noise * rng.normal(size=(n_per, d)) for i in range(k)]
    )
    labels = np.repeat(np.arange(k), n_per)
    chains = [f"c{i}" for i in labels]
    return x, labels, chains


def val_split(rng, n_per=5, noise=0.3, d=10):
    val_x, _, val_chains = blob_data(rng, n_per=n_per, noise=noise, d=d)
    val_ids = [f"v{i}" for i in range(len(val_chains))]
    val_gold = Clustering.from_sets(
        {val_ids[i] for i in range(len(val_chains)) if val_chains[i] == c}
        for c in set(val_chains)
    )
    return val_x, val_ids, val_gold


def validation(rng, **kw):
    """A val_split as train's validation keywords."""
    return dict(zip(("val_features", "val_mention_ids", "val_gold"), val_split(rng, **kw)))


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------


def test_encode_chains_preserves_equality():
    codes = encode_chains(["a", "b", "a", "c", "b"])
    assert codes[0] == codes[2] and codes[1] == codes[4]
    assert len(set(codes.tolist())) == 3


def test_small_pool_returns_whole_set_shuffled(rng):
    codes = encode_chains(["a", "a", "b", "b", "c"])
    idx = sample_indices(codes, rng, size=272)
    assert sorted(idx.tolist()) == [0, 1, 2, 3, 4]


def test_exact_batch_size_pool(rng):
    codes = np.repeat(np.arange(136), 2)  # 272 mentions
    idx = sample_indices(codes, rng, size=272)
    assert sorted(idx.tolist()) == list(range(272))


def test_sampler_is_deterministic_given_seed():
    codes = np.repeat(np.arange(50), 10)
    a = sample_indices(codes, np.random.default_rng(7), size=64)
    b = sample_indices(codes, np.random.default_rng(7), size=64)
    assert np.array_equal(a, b)


def test_sampler_draws_without_replacement(rng):
    codes = np.repeat(np.arange(40), 12)
    for _ in range(50):
        idx = sample_indices(codes, rng, size=100)
        assert len(idx) == 100
        assert len(set(idx.tolist())) == 100


def test_sampler_guarantees_both_pair_kinds(rng):
    # Monte Carlo over many draws: every batch has a same-chain and a
    # cross-chain pair even at small batch sizes
    codes = encode_chains(
        [f"c{i}" for i in range(200)] + ["m1", "m1", "m2", "m2", "m2"]
    )
    for _ in range(10_000):
        idx = sample_indices(codes, rng, size=8)
        picked = codes[idx]
        _, counts = np.unique(picked, return_counts=True)
        assert counts.max() >= 2, "no coreferent pair"
        assert len(counts) >= 2, "no cross-chain pair"


def test_sampler_rejects_degenerate_pools(rng):
    with pytest.raises(SamplerError):
        sample_indices(encode_chains(["a", "a", "a"]), rng)  # one chain only
    with pytest.raises(SamplerError):
        sample_indices(encode_chains(["a", "b", "c"]), rng)  # all singletons


def test_sample_batch_carries_masks_when_requested(rng):
    x, labels, chains = blob_data(rng)
    codes = encode_chains(chains)
    batch = sample_batch(x, labels, codes, rng, size=16, mask_dims=(10, 8, 4, 8, 3))
    assert batch.inputs.shape == (16, 10)
    assert batch.dropout_masks[0].shape == (16, 8)
    assert batch.dropout_masks[1].shape == (16, 4)
    assert set(np.unique(batch.dropout_masks[0])) <= {0.0, 1.0}


def test_a_batch_written_into_an_earlier_one_equals_a_new_one():
    x, labels, chains = blob_data(np.random.default_rng(5))
    codes = encode_chains(chains)
    dims = (10, 8, 4, 8, 3)
    rng_new, rng_reused = np.random.default_rng(9), np.random.default_rng(9)
    buffers = sample_batch(x, labels, codes, rng_reused, dims, size=16)
    sample_batch(x, labels, codes, rng_new, dims, size=16)  # keeps the generators in step
    for _ in range(3):
        fresh = sample_batch(x, labels, codes, rng_new, dims, size=16)
        reused = sample_batch(x, labels, codes, rng_reused, dims, size=16, out=buffers)
        assert reused is buffers
        for a, b in zip(
            (reused.inputs, reused.class_labels, reused.chain_codes, *reused.dropout_masks),
            (fresh.inputs, fresh.class_labels, fresh.chain_codes, *fresh.dropout_masks),
        ):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def tiny_config(**kw):
    base = dict(
        lr=0.002, epochs=10, batch_size=64, hidden1=16, embed=8, hidden3=16, seed=3
    )
    base.update(kw)
    return TrainConfig(**base)


def train_logged(*args, **kwargs):
    """train's result and the EpochLog it passed to `progress` each epoch."""
    log = []
    return train(*args, progress=log.append, **kwargs), log


def copied_state(params, state, grads, w1_runs, whole_w1):
    """Copies of the parameters, with w1 whole: the training network's
    movable rows at their runs and `whole_w1`'s rows elsewhere, which no
    step moves; copies of Adam's compact moments, Adam's step count and the
    step's w1 runs."""
    copies = lambda arrays: [a.copy() for a in arrays]
    w1 = whole_w1.copy()
    at = 0
    for lo, hi in w1_runs:
        w1[lo:hi] = params.w1[at : at + hi - lo]
        at += hi - lo
    return SimpleNamespace(
        params=[w1, *copies(params.arrays()[1:])], m=copies(state.m), v=copies(state.v),
        t=state.t, w1_runs=w1_runs,
    )


class AdamSpy:
    """Stands in for the training loop's Adam update (evcoref.train.adam_step):
    runs the real one, then appends keep(params, state, grads, w1_runs) to
    `steps`, where w1_runs are the runs train took from movable_w1_rows.
    train returns only the best epoch's parameters, so this is how a test
    sees the state after each step. The default keep is copied_state, whose
    rows outside the runs are read off the whole w1 of train's init_params,
    never moved by a step."""

    def __init__(self, monkeypatch, keep=None):
        self.steps = []
        self.runs = self.initial = None
        movable, init = train_module.movable_w1_rows, train_module.init_params

        def runs(blocks, width):
            self.runs = movable(blocks, width)
            return self.runs

        def made(*args):
            self.initial = init(*args)
            return self.initial

        if keep is None:
            keep = lambda params, state, grads, w1_runs: copied_state(
                params, state, grads, w1_runs, self.initial.w1
            )

        def step(params, state, grads, lr):
            adam_step(params, state, grads, lr)
            self.steps.append(keep(params, state, grads, self.runs))

        monkeypatch.setattr(train_module, "movable_w1_rows", runs)
        monkeypatch.setattr(train_module, "init_params", made)
        monkeypatch.setattr(train_module, "adam_step", step)

    @property
    def last(self):
        return self.steps[-1]


def whole_moments(step):
    """A copied_state step's moments, each with w1's expanded to all rows:
    the rows outside its runs hold +0, as they would in a whole-row Adam."""
    whole = []
    for compact in (step.m, step.v):
        w1 = np.zeros(step.params[0].shape)
        at = 0
        for lo, hi in step.w1_runs:
            w1[lo:hi] = compact[0][at : at + hi - lo]
            at += hi - lo
        whole.append([w1, *compact[1:]])
    return whole


def test_training_loss_decreases_on_separable_blobs():
    # full batch without dropout: strictly monotone; with the stochastic
    # defaults the loss must still fall over the first 10 epochs
    strict = net = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        x, labels, chains = blob_data(rng, n_per=20, k=3)
        val = validation(rng)
        _, smooth = train_logged(
            x, labels, chains, n_classes=4,
            config=tiny_config(seed=seed, epochs=10, dropout=0.0), **val,
        )
        totals = [e.loss.total for e in smooth]
        strict += all(b < a for a, b in zip(totals, totals[1:]))
        _, noisy = train_logged(
            x, labels, chains, n_classes=4, config=tiny_config(seed=seed, epochs=10), **val
        )
        net += noisy[-1].loss.total < noisy[0].loss.total
    assert strict >= 19  # 95% of seeds
    assert net >= 19


def test_training_is_deterministic_given_seed(rng, monkeypatch):
    x, labels, chains = blob_data(rng)
    val = validation(rng)
    cfg = tiny_config(epochs=3)
    spy1 = AdamSpy(monkeypatch)
    _, log1 = train_logged(x, labels, chains, n_classes=4, config=cfg, **val)
    spy2 = AdamSpy(monkeypatch)
    _, log2 = train_logged(x, labels, chains, n_classes=4, config=cfg, **val)
    for a, b in zip(spy1.last.params, spy2.last.params):
        assert np.array_equal(a, b)
    assert [e.loss.total for e in log1] == [e.loss.total for e in log2]


def test_training_with_core_terms(rng):
    x, labels, chains = blob_data(rng)
    cfg = tiny_config(lambda1=2.0, lambda2=0.5, epochs=5)
    _, log = train_logged(x, labels, chains, n_classes=4, config=cfg, **validation(rng))
    for entry in log:
        assert 0.0 <= entry.loss.attract <= 1.0
        assert 0.0 <= entry.loss.repulse <= 1.0
    assert log[-1].loss.total < log[0].loss.total


def test_training_tracks_best_validation_b3(rng):
    x, labels, chains = blob_data(rng, n_per=15)
    val_x, val_ids, val_gold = val_split(rng)
    cfg = tiny_config(epochs=6, lambda1=1.0)
    result, log = train_logged(
        x,
        labels,
        chains,
        n_classes=4,
        config=cfg,
        val_features=val_x,
        val_mention_ids=val_ids,
        val_gold=val_gold,
    )
    val_scores = [e.val_b3 for e in log]
    assert result.best_b3 == max(val_scores)
    assert result.best_epoch == val_scores.index(max(val_scores)) + 1
    assert result.best_tau == log[result.best_epoch - 1].tau
    # the retained parameters really are the snapshot from the best epoch
    emb = forward(result.best_params, val_x).embeddings
    from evcoref.clustering import tune_tau

    _, score = tune_tau(emb, val_ids, val_gold)
    assert score == pytest.approx(result.best_b3)


def test_best_epoch_snapshot_equals_a_run_stopped_there(monkeypatch):
    # the snapshot buffers are reused across epochs: the retained parameters
    # must be exactly those at the best epoch, untouched by later steps
    rng = np.random.default_rng(2)
    x, labels, chains = blob_data(rng, n_per=15, noise=2.0)
    val_x, val_ids, val_gold = val_split(rng, n_per=6, noise=2.0)  # best at epoch 2

    def run(epochs):
        return train(
            x, labels, chains, n_classes=4, config=tiny_config(epochs=epochs, lambda1=1.0),
            val_features=val_x, val_mention_ids=val_ids, val_gold=val_gold,
        )

    full_steps = AdamSpy(monkeypatch)
    full = run(8)
    assert 1 < full.best_epoch < 8
    stopped = AdamSpy(monkeypatch)
    run(full.best_epoch)
    for ours, ref in zip(full.best_params.arrays(), stopped.last.params):
        assert ours.tobytes() == ref.tobytes()
    assert not np.array_equal(full.best_params.w1, full_steps.last.params[0])


def test_empty_validation_split_is_refused_before_training(rng):
    x, labels, chains = blob_data(rng)
    seen = []
    with pytest.raises(IntegrityError, match="no mentions"):
        train(
            x, labels, chains, n_classes=4, config=tiny_config(epochs=2),
            val_features=np.zeros((0, x.shape[1])), val_mention_ids=[],
            val_gold=Clustering.from_sets([]), progress=seen.append,
        )
    assert seen == []


@pytest.mark.parametrize(
    "cut, error",
    [(np.s_[:, :-1], ModelMismatchError), (np.s_[:-1], IntegrityError)],
    ids=["narrower", "fewer-rows"],
)
def test_unusable_validation_inputs_are_refused_before_the_first_step(rng, monkeypatch, cut, error):
    x, labels, chains = blob_data(rng)
    val_x, val_ids, val_gold = val_split(rng)
    steps = AdamSpy(monkeypatch, keep=lambda *_: None).steps
    with pytest.raises(error):
        train(
            x, labels, chains, n_classes=4, config=tiny_config(epochs=2),
            val_features=val_x[cut], val_mention_ids=val_ids, val_gold=val_gold,
        )
    assert len(steps) == 0


def test_train_without_the_validation_keywords_is_refused_before_the_first_step(rng, monkeypatch):
    # the epoch is always selected on validation: there is no path without it
    x, labels, chains = blob_data(rng)
    val = val_split(rng)
    steps = AdamSpy(monkeypatch, keep=lambda *_: None).steps
    with pytest.raises(TypeError, match="val_features"):
        train(x, labels, chains, n_classes=4, config=tiny_config(epochs=2))
    with pytest.raises(TypeError):  # keyword-only
        train(x, labels, chains, 4, tiny_config(epochs=2), *val)
    assert steps == []


def test_divergence_aborts_with_diagnostics(rng):
    x, labels, chains = blob_data(rng)
    cfg = tiny_config(lr=1e80, epochs=5)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError, match="non-finite"):
            train(x, labels, chains, n_classes=4, config=cfg, **validation(rng))


def test_epoch_count_and_batching(rng, monkeypatch):
    x, labels, chains = blob_data(rng, n_per=10, k=3)  # n=30
    cfg = tiny_config(epochs=4, batch_size=8)
    spy = AdamSpy(monkeypatch)
    _, log = train_logged(x, labels, chains, n_classes=4, config=cfg, **validation(rng))
    assert len(log) == 4
    assert spy.last.t == 4 * int(np.ceil(30 / 8))


def test_training_equals_the_loop_stepped_with_the_two_call_oracle(rng, monkeypatch):
    x, labels, chains = blob_data(rng, n_per=10, k=3)  # n=30: 2 batches an epoch
    cfg = tiny_config(epochs=2, batch_size=16, lambda1=2.0, lambda2=0.5)
    spy = AdamSpy(monkeypatch)
    _, log = train_logged(x, labels, chains, n_classes=4, config=cfg, **validation(rng))
    moments = whole_moments(spy.last)

    codes = encode_chains(chains)
    step_rng = np.random.default_rng(cfg.seed)
    params = init_params(step_rng, x.shape[1], 4, cfg.hidden1, cfg.embed, cfg.hidden3)
    adam = AdamState.for_params(params)
    totals = []
    for _ in range(cfg.epochs * 2):
        batch = sample_batch(
            x, labels, codes, step_rng, mask_dims=params.dims, size=cfg.batch_size,
            dropout=cfg.dropout,
        )
        cache = forward(params, batch.inputs, mode="train", masks=batch.dropout_masks)
        loss, grads = two_call_step(
            params, cache, batch.class_labels, batch.chain_codes, cfg.lambda1, cfg.lambda2
        )
        adam_step(params, adam, NetParams(*grads), cfg.lr)
        totals.append(loss[0])
    assert spy.last.t == adam.t == 4
    for ours, ref in zip(
        spy.last.params + moments[0] + moments[1],
        params.arrays() + adam.m + adam.v,
    ):
        assert ours.tobytes() == ref.tobytes()
    assert [e.loss.total for e in log] == [
        float(np.mean(totals[:2])), float(np.mean(totals[2:]))
    ]


def test_a_training_step_builds_the_pair_geometry_once(rng, monkeypatch):
    x, labels, chains = blob_data(rng, n_per=10, k=3)
    calls = []
    pairs = network._pairs
    monkeypatch.setattr(network, "_pairs", lambda *a: calls.append(1) or pairs(*a))
    cfg = tiny_config(epochs=1, batch_size=64, lambda1=2.0, lambda2=0.5)  # one step
    spy = AdamSpy(monkeypatch)
    train(x, labels, chains, n_classes=4, config=cfg, **validation(rng))
    assert spy.last.t == 1
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# First-layer rows that no train mention can move
# ---------------------------------------------------------------------------


def test_movable_w1_rows_are_the_runs_of_columns_nonzero_in_train():
    x = np.zeros((4, 9))
    x[0, [1, 2, 5]] = 1.0
    x[3, 8] = -2.0
    x[:, 6] = -0.0  # a zero
    x[2, 3] = 5e-324  # the smallest subnormal is not
    assert movable_w1_rows([x], 9) == ((1, 4), (5, 6), (8, 9))
    assert movable_w1_rows([x[:1], x[1:3], x[3:]], 9) == ((1, 4), (5, 6), (8, 9))
    assert movable_w1_rows([np.ones((2, 3))], 3) == ((0, 3),)
    # fewer than two movable rows: every row, so no product has one row
    one = np.zeros((3, 5))
    one[1, 2] = 1.0
    assert movable_w1_rows([one], 5) == ((0, 5),)
    assert movable_w1_rows([np.zeros((3, 5))], 5) == ((0, 5),)
    assert movable_w1_rows([], 5) == ((0, 5),)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_train_feature_is_refused_naming_its_row(rng, bad):
    x, labels, chains = blob_data(rng)
    val = validation(rng)
    x[7, 3] = bad
    x[9, 0] = bad
    seen = []
    with pytest.raises(IntegrityError, match=r"train feature row 7 .* column 3"):
        train(x, labels, chains, n_classes=4, config=tiny_config(epochs=2), progress=seen.append, **val)
    assert seen == []


def sparse_columns_case(kind):
    """Blob features (12 columns) with some columns zero in every train row,
    and a validation split of the same width; hidden1 = 16."""
    rng = np.random.default_rng({"val-only": 5, "one-mention": 6, "negative-zero": 7,
                                 "all-active": 8, "best-not-last": 6, "one-column": 9}[kind])
    noise = 2.0 if kind == "best-not-last" else 0.3
    x, labels, chains = blob_data(rng, n_per=15, d=12, noise=noise)
    val_x, val_ids, val_gold = val_split(rng, n_per=6, noise=noise, d=12)
    if kind in ("val-only", "best-not-last"):
        x[:, [2, 5, 6, 7]] = 0.0  # inference still reads these rows
    elif kind == "one-mention":
        x[:, [3, 4, 10]] = 0.0
        x[17, 3] = 2.5
    elif kind == "negative-zero":
        x[:, 9] = -0.0
        x[:, 0] = 0.0
    elif kind == "one-column":
        x[:, 1:] = 0.0
    return x, labels, chains, (val_x, val_ids, val_gold)


SPARSE_KINDS = ["val-only", "one-mention", "negative-zero", "all-active", "best-not-last", "one-column"]


def _train_both(case, monkeypatch, **config):
    """train's result, its epoch logs and its last step's state
    (copied_state), and full_row_train's results."""
    x, labels, chains, val = case
    cfg = tiny_config(batch_size=16, lambda1=2.0, lambda2=0.5, **config)  # 3 steps an epoch
    spy = AdamSpy(monkeypatch)
    ours, log = train_logged(
        x, labels, chains, n_classes=4, config=cfg,
        val_features=val[0], val_mention_ids=val[1], val_gold=val[2],
    )
    return ours, log, spy.last, full_row_train(x, labels, chains, 4, cfg, val)


@pytest.mark.parametrize("kind", SPARSE_KINDS)
def test_training_equals_the_full_row_loop(kind, monkeypatch):
    case = sparse_columns_case(kind)
    ours, log, last, ref = _train_both(case, monkeypatch, epochs=6)
    moments = whole_moments(last)
    assert last.t == ref["t"]
    assert (ours.best_epoch, ours.best_b3, ours.best_tau) == (
        ref["best_epoch"], ref["best_b3"], ref["best_tau"]
    )
    pairs = zip(
        last.params + moments[0] + moments[1] + ours.best_params.arrays(),
        ref["params"] + ref["m"] + ref["v"] + ref["best_params"],
    )
    for a, b in pairs:
        assert a.tobytes() == b.tobytes()
    rows = [
        (e.epoch, e.loss.total, e.loss.cce, e.loss.attract, e.loss.repulse, e.val_b3, e.tau)
        for e in log
    ]
    assert [[np.float64(v).tobytes() for v in row] for row in rows] == [
        [np.float64(v).tobytes() for v in row] for row in ref["history"]
    ]
    if kind == "best-not-last":
        assert 1 < ours.best_epoch < 6
    if kind in ("all-active", "one-column"):
        assert movable_w1_rows([case[0]], 12) == ((0, 12),)
    else:
        assert len(movable_w1_rows([case[0]], 12)) > 1


@pytest.mark.parametrize("kind", ["best-not-last", "one-column"])
@pytest.mark.parametrize("block", [1, 7, 45])
def test_training_on_inputs_packed_from_row_blocks_equals_training_on_the_array(kind, block):
    x, labels, chains, (val_x, val_ids, val_gold) = sparse_columns_case(kind)
    blocks = [x[i : i + block] for i in range(0, len(x), block)]
    packed = MovableInputs.pack(blocks, *x.shape, movable_w1_rows(blocks, x.shape[1]))
    assert packed.runs == movable_w1_rows([x], x.shape[1]) and packed.width == x.shape[1]
    val = dict(val_features=val_x, val_mention_ids=val_ids, val_gold=val_gold)
    cfg = tiny_config(batch_size=16, epochs=3)
    (ours, ours_log), (ref, ref_log) = (
        train_logged(features, labels, chains, n_classes=4, config=cfg, **val) for features in (packed, x)
    )
    assert (ours.best_epoch, ours.best_b3, ours.best_tau) == (ref.best_epoch, ref.best_b3, ref.best_tau)
    for a, b in zip(ours.best_params.arrays(), ref.best_params.arrays()):
        assert a.tobytes() == b.tobytes()
    assert [e.loss for e in ours_log] == [e.loss for e in ref_log]


def test_a_non_finite_entry_in_a_later_row_block_is_refused_naming_its_whole_matrix_row(tmp_path, monkeypatch):
    # the train read refuses each row block as the split's files read it
    from evcoref import matio
    from evcoref.cli import SplitFiles
    from evcoref.errors import ParseError

    x = np.ones((6, 4))
    x[4, 2] = np.inf
    files = SplitFiles(tmp_path, "train")
    files.folder.mkdir()
    matio.write_matrix(files.matrix_path, x)
    monkeypatch.setattr(matio, "BLOCK_BYTES", 3 * 4 * 8)  # rows 0-2, then 3-5
    with files.reader() as reader, pytest.raises(ParseError, match=r"train feature row 4 .* value inf in column 2"):
        movable_w1_rows(files.blocks(reader), 4)


@pytest.mark.parametrize(
    "runs, width, m",
    [(((0, 2), (1, 3)), 5, 4), (((3, 2),), 5, 1), (((4, 6),), 5, 2), (((-1, 1),), 5, 2), (((0, 2),), 5, 3)],
)
def test_movable_inputs_whose_runs_do_not_fit_the_width_or_the_packed_columns_are_refused(runs, width, m):
    with pytest.raises(ValueError):
        MovableInputs(np.zeros((3, m)), runs, width)
    MovableInputs(np.zeros((3, 3)), ((0, 2), (4, 5)), 5)  # increasing, disjoint, inside, 3 columns


def test_unmovable_w1_rows_keep_their_initial_weights_and_zero_moments(monkeypatch):
    case = sparse_columns_case("best-not-last")
    ours, _, last, _ = _train_both(case, monkeypatch, epochs=6)
    assert last.w1_runs == ((0, 2), (3, 5), (8, 12))  # Adam holds no moment of a still row
    m, v = (moments[0] for moments in whole_moments(last))
    cfg = tiny_config()
    initial = init_params(np.random.default_rng(cfg.seed), 12, 4, cfg.hidden1, cfg.embed, cfg.hidden3)
    still = [2, 5, 6, 7]
    for w1 in (last.params[0], ours.best_params.w1):
        assert w1[still].tobytes() == initial.w1[still].tobytes()
    assert m[still].tobytes() == v[still].tobytes() == bytes(8 * 4 * 16)
    moved = [0, 1, 3, 4]
    assert np.all(last.params[0][moved] != initial.w1[moved])


def test_every_training_forward_takes_the_packed_batch(monkeypatch):
    # 4 of 12 columns are zero in every train row: each step's forward pass
    # multiplies a batch of the 8 movable columns by the packed first layer
    x, labels, chains, (val_x, val_ids, val_gold) = sparse_columns_case("val-only")
    widths, real = [], train_module.forward

    def spy(params, inputs, **kwargs):
        widths.append((inputs.shape, params.w1.shape))
        return real(params, inputs, **kwargs)

    monkeypatch.setattr(train_module, "forward", spy)
    train(
        x, labels, chains, n_classes=4, config=tiny_config(batch_size=16, epochs=2),
        val_features=val_x, val_mention_ids=val_ids, val_gold=val_gold,
    )
    assert widths == [((16, 8), (8, 16))] * 6  # 3 steps an epoch


@pytest.mark.parametrize("kind", SPARSE_KINDS)
def test_the_split_validation_product_is_the_full_product(kind, monkeypatch):
    # the validation embedding's first layer is the movable columns times
    # the packed rows plus the product of the other columns made before
    # epoch 1: val_x @ w1 in exact arithmetic, whatever the last bits
    x, labels, chains, (val_x, val_ids, val_gold) = sparse_columns_case(kind)
    products, real = [], train_module.embed

    def spy(params, inputs, rest=None):
        products.append(inputs @ params.w1 + (0.0 if rest is None else rest))
        return real(params, inputs, rest)

    monkeypatch.setattr(train_module, "embed", spy)
    steps = AdamSpy(monkeypatch).steps
    train(
        x, labels, chains, n_classes=4, config=tiny_config(batch_size=16, epochs=2),
        val_features=val_x, val_mention_ids=val_ids, val_gold=val_gold,
    )
    assert len(products) == 2
    for epoch, product in enumerate(products, 1):
        w1 = steps[3 * epoch - 1].params[0]  # the whole w1 after the epoch's last step
        np.testing.assert_allclose(product, val_x @ w1, rtol=1e-12)


@pytest.mark.parametrize("kind", SPARSE_KINDS)
def test_the_returned_w1_is_the_initial_still_rows_and_the_best_epochs_movable_rows(kind, monkeypatch):
    # the whole w1 of init_params holds the best epoch: its still rows are
    # never written, and each new best epoch copies the movable rows in
    x, labels, chains, (val_x, val_ids, val_gold) = sparse_columns_case(kind)
    spy = AdamSpy(monkeypatch)
    cfg = tiny_config(batch_size=16, lambda1=2.0, lambda2=0.5, epochs=6)  # 3 steps an epoch
    ours, log = train_logged(
        x, labels, chains, n_classes=4, config=cfg,
        val_features=val_x, val_mention_ids=val_ids, val_gold=val_gold,
    )
    initial = init_params(np.random.default_rng(cfg.seed), 12, 4, cfg.hidden1, cfg.embed, cfg.hidden3)
    moved = np.concatenate([np.arange(lo, hi) for lo, hi in spy.runs])
    still = np.setdiff1d(np.arange(12), moved)
    assert ours.best_params.w1[still].tobytes() == initial.w1[still].tobytes()
    at_best = spy.steps[3 * ours.best_epoch - 1].params[0]
    assert ours.best_params.w1[moved].tobytes() == at_best[moved].tobytes()
    if kind == "best-not-last":
        assert 1 < ours.best_epoch < len(log) and len(still) == 4
        assert not np.array_equal(ours.best_params.w1, spy.last.params[0])


def test_training_holds_one_whole_first_layer_matrix():
    # 30 of 3000 input columns are nonzero, so almost no w1 row can move:
    # besides w1 itself, whole-w1-sized memory is only Adam's two moments
    # (np.zeros, traced at full size though mostly never written). A second
    # whole w1, such as a full best-epoch copy, would add 1.0 to the ratio.
    rng = np.random.default_rng(11)
    width, active = 3000, np.sort(rng.choice(3000, size=30, replace=False))
    x30, labels, chains = blob_data(rng, n_per=20, d=30)  # n = 60
    val30, val_ids, val_gold = val_split(rng, d=30)
    x, val_x = np.zeros((60, width)), np.zeros((len(val_ids), width))
    x[:, active], val_x[:, active] = x30, val30
    cfg = TrainConfig(
        lr=0.002, epochs=3, batch_size=32, hidden1=512, embed=16, hidden3=16, seed=3,
    )
    tracemalloc.start()
    try:
        result = train(
            x, labels, chains, n_classes=4, config=cfg,
            val_features=val_x, val_mention_ids=val_ids, val_gold=val_gold,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.best_params.w1.shape == (width, 512)
    assert peak < 3.75 * result.best_params.w1.nbytes


def test_training_holds_no_other_first_layer_sized_array(monkeypatch):
    # 30 of 3000 input columns are nonzero: the trained first layer, the
    # gradient, Adam's moments, the train features and the batch all hold
    # only those 30 columns or rows, so besides w1 itself, which holds the
    # best epoch, the peak is small arrays. Two whole-w1 moments would add
    # 2.0 to the ratio.
    rng = np.random.default_rng(11)
    width, active = 3000, np.sort(rng.choice(3000, size=30, replace=False))
    x30, labels, chains = blob_data(rng, n_per=20, d=30)  # n = 60
    val30, val_ids, val_gold = val_split(rng, d=30)
    x, val_x = np.zeros((60, width)), np.zeros((len(val_ids), width))
    x[:, active], val_x[:, active] = x30, val30
    given = x.copy()
    cfg = TrainConfig(
        lr=0.002, epochs=3, batch_size=32, hidden1=512, embed=16, hidden3=16, seed=3,
    )
    spy = AdamSpy(monkeypatch, keep=lambda params, state, grads, w1_runs: (grads.w1.shape, state.m[0].shape))
    tracemalloc.start()
    try:
        result = train(
            x, labels, chains, n_classes=4, config=cfg,
            val_features=val_x, val_mention_ids=val_ids, val_gold=val_gold,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spy.last == ((30, 512), (30, 512))
    assert peak < 1.5 * result.best_params.w1.nbytes
    assert x.tobytes() == given.tobytes()  # train copies the columns it keeps


def test_the_training_state_dies_with_train(rng, monkeypatch):
    # a caller that holds only the result holds no gradient and no moments:
    # train keeps nothing of them once it has returned
    x, labels, chains = blob_data(rng)
    val = validation(rng)
    x[:, [2, 5]] = 0.0  # so the gradient and the w1 moments are compact
    spy = AdamSpy(
        monkeypatch,
        keep=lambda params, state, grads, w1_runs: [
            weakref.ref(a) for a in grads.arrays() + state.m + state.v
        ],
    )
    result = train(x, labels, chains, n_classes=4, config=tiny_config(epochs=2), **val)
    assert result.best_params.w1.shape == (10, 16)
    assert len(spy.steps) == 2
    assert [ref() is None for ref in spy.last] == [True] * 24  # 8 gradients, 8 m, 8 v
