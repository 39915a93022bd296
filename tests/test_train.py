import numpy as np
import pytest

from evcoref.corpus import Clustering
from evcoref.errors import IntegrityError, SamplerError, TrainingDivergedError
from evcoref.network import forward
from evcoref.train import (
    TrainConfig,
    encode_chains,
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


def val_split(rng, n_per=5, noise=0.3):
    val_x, _, val_chains = blob_data(rng, n_per=n_per, noise=noise)
    val_ids = [f"v{i}" for i in range(len(val_chains))]
    val_gold = Clustering.from_sets(
        {val_ids[i] for i in range(len(val_chains)) if val_chains[i] == c}
        for c in set(val_chains)
    )
    return val_x, val_ids, val_gold


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
    no_masks = sample_batch(x, labels, codes, rng, size=16)
    assert no_masks.dropout_masks is None


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def tiny_config(**kw):
    base = dict(
        lr=0.002, epochs=10, batch_size=64, hidden1=16, embed=8, hidden3=16, seed=3
    )
    base.update(kw)
    return TrainConfig(**base)


def test_training_loss_decreases_on_separable_blobs():
    # full batch without dropout: strictly monotone; with the stochastic
    # defaults the loss must still fall over the first 10 epochs
    strict = net = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        x, labels, chains = blob_data(rng, n_per=20, k=3)
        smooth = train(
            x, labels, chains, n_classes=4,
            config=tiny_config(seed=seed, epochs=10, dropout=0.0),
        )
        totals = [e.loss.total for e in smooth.history]
        strict += all(b < a for a, b in zip(totals, totals[1:]))
        noisy = train(
            x, labels, chains, n_classes=4, config=tiny_config(seed=seed, epochs=10)
        )
        net += noisy.history[-1].loss.total < noisy.history[0].loss.total
    assert strict >= 19  # 95% of seeds
    assert net >= 19


def test_training_is_deterministic_given_seed(rng):
    x, labels, chains = blob_data(rng)
    cfg = tiny_config(epochs=3)
    r1 = train(x, labels, chains, n_classes=4, config=cfg)
    r2 = train(x, labels, chains, n_classes=4, config=cfg)
    for a, b in zip(r1.params.arrays(), r2.params.arrays()):
        assert np.array_equal(a, b)
    assert [e.loss.total for e in r1.history] == [e.loss.total for e in r2.history]


def test_training_with_core_terms(rng):
    x, labels, chains = blob_data(rng)
    cfg = tiny_config(lambda1=2.0, lambda2=0.5, epochs=5)
    result = train(x, labels, chains, n_classes=4, config=cfg)
    for entry in result.history:
        assert 0.0 <= entry.loss.attract <= 1.0
        assert 0.0 <= entry.loss.repulse <= 1.0
    assert result.history[-1].loss.total < result.history[0].loss.total


def test_training_tracks_best_validation_b3(rng):
    x, labels, chains = blob_data(rng, n_per=15)
    val_x, val_ids, val_gold = val_split(rng)
    cfg = tiny_config(epochs=6, lambda1=1.0)
    result = train(
        x,
        labels,
        chains,
        n_classes=4,
        config=cfg,
        val_features=val_x,
        val_mention_ids=val_ids,
        val_gold=val_gold,
    )
    val_scores = [e.val_b3 for e in result.history]
    assert result.best_b3 == max(val_scores)
    assert result.best_epoch == val_scores.index(max(val_scores)) + 1
    assert result.best_tau is not None
    # the retained parameters really are the snapshot from the best epoch
    emb = forward(result.best_params, val_x).embeddings
    from evcoref.clustering import tune_tau

    _, score = tune_tau(emb, val_ids, val_gold)
    assert score == pytest.approx(result.best_b3)


def test_best_epoch_snapshot_equals_a_run_stopped_there():
    # the snapshot buffers are reused across epochs: the retained state must
    # be exactly the state at the best epoch, untouched by later steps
    rng = np.random.default_rng(2)
    x, labels, chains = blob_data(rng, n_per=15, noise=2.0)
    val_x, val_ids, val_gold = val_split(rng, n_per=6, noise=2.0)  # best at epoch 2

    def run(epochs):
        return train(
            x, labels, chains, n_classes=4, config=tiny_config(epochs=epochs, lambda1=1.0),
            val_features=val_x, val_mention_ids=val_ids, val_gold=val_gold,
        )

    full = run(8)
    assert 1 < full.best_epoch < 8
    stopped = run(full.best_epoch)
    assert full.best_adam.t == stopped.adam.t
    for ours, ref in zip(
        full.best_params.arrays() + full.best_adam.m + full.best_adam.v,
        stopped.params.arrays() + stopped.adam.m + stopped.adam.v,
    ):
        assert ours.tobytes() == ref.tobytes()
    assert not np.array_equal(full.best_params.w1, full.params.w1)


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


def test_divergence_aborts_with_diagnostics(rng):
    x, labels, chains = blob_data(rng)
    cfg = tiny_config(lr=1e80, epochs=5)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError, match="non-finite"):
            train(x, labels, chains, n_classes=4, config=cfg)


def test_epoch_count_and_batching(rng):
    x, labels, chains = blob_data(rng, n_per=10, k=3)  # n=30
    cfg = tiny_config(epochs=4, batch_size=8)
    result = train(x, labels, chains, n_classes=4, config=cfg)
    assert len(result.history) == 4
    assert result.adam.t == 4 * int(np.ceil(30 / 8))