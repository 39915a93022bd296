import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from evcoref import network
from evcoref.errors import ModelMismatchError, ParseError
from evcoref.network import (
    ADAM_BLOCK,
    CHECKPOINT_MAGIC,
    AdamState,
    NetParams,
    adam_step,
    backward,
    core_embedding_grad,
    cosine_distance,
    embed,
    forward,
    init_params,
    load_checkpoint,
    loss_attract,
    loss_cce,
    loss_repulse,
    loss_total,
    make_dropout_masks,
    save_checkpoint,
)
from conftest import gradcheck_case
from oracles import (
    adam_step_expression,
    checkpoint_bytes,
    finite_difference,
    max_relative_error,
    pairwise_loss_loops,
    plain_softmax_cce_grads,
)


def tiny_params(rng, d=5, h1=4, he=3, h3=4, k=3):
    return init_params(rng, d, k, hidden1=h1, embed=he, hidden3=h3)


def zero_params(d, h1, he, h3, k):
    shapes = [(d, h1), (h1,), (h1, he), (he,), (he, h3), (h3,), (h3, k), (k,)]
    return NetParams(*[np.zeros(s) for s in shapes])


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def test_zero_network_gives_uniform_probs(rng):
    params = zero_params(3, 4, 2, 4, 5)
    cache = forward(params, rng.normal(size=(6, 3)))
    assert np.allclose(cache.probs, 1.0 / 5)


def test_identity_network_copies_nonnegative_input():
    params = zero_params(2, 2, 2, 2, 2)
    params.w1[:] = np.eye(2)
    params.w2[:] = np.eye(2)
    x = np.array([[0.5, 1.5], [2.0, 0.0]])
    cache = forward(params, x)
    assert np.array_equal(cache.embeddings, x)


def test_softmax_rows_sum_to_one(rng):
    for _ in range(10):
        params = tiny_params(rng)
        cache = forward(params, rng.normal(size=(7, 5)))
        assert np.allclose(cache.probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(cache.probs >= 0.0)


def test_inference_is_deterministic(rng):
    params = tiny_params(rng)
    x = rng.normal(size=(8, 5))
    assert np.array_equal(embed(params, x), embed(params, x))


def test_forward_rejects_wrong_width(rng):
    params = tiny_params(rng)
    with pytest.raises(ModelMismatchError):
        forward(params, rng.normal(size=(3, 9)))


def test_train_mode_requires_masks(rng):
    params = tiny_params(rng)
    with pytest.raises(ValueError):
        forward(params, rng.normal(size=(3, 5)), mode="train")


def test_dropout_inverted_scaling_preserves_expectation(rng):
    # Monte Carlo mean of the mask-scaled pre-activation ~ infer pre-activation
    params = tiny_params(rng, d=4, h1=8, he=6, h3=6, k=3)
    x = rng.normal(size=(16, 4)) + 1.0
    z2_infer = forward(params, x).z2
    total = np.zeros_like(z2_infer)
    n_masks = 10_000
    for _ in range(n_masks):
        masks = make_dropout_masks(rng, 16, params.dims, 0.25)
        cache = forward(params, x, mode="train", masks=masks, dropout=0.25)
        total += cache.d1 @ params.w2 + params.b2
    mean_z2 = total / n_masks
    rel = np.linalg.norm(mean_z2 - z2_infer) / np.linalg.norm(z2_infer)
    assert rel < 0.01


# ---------------------------------------------------------------------------
# Loss terms
# ---------------------------------------------------------------------------


def test_cce_perfect_predictions():
    probs = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert loss_cce(probs, np.array([0, 1])) == pytest.approx(0.0, abs=1e-11)


def test_cce_uniform_four_classes():
    probs = np.full((3, 4), 0.25)
    assert loss_cce(probs, np.array([0, 1, 2])) == pytest.approx(math.log(4))


def test_cce_hand_value():
    probs = np.array([[0.5, 0.5], [0.25, 0.75]])
    expected = -(math.log(0.5) + math.log(0.75)) / 2
    assert loss_cce(probs, np.array([0, 1])) == pytest.approx(expected)
    assert expected == pytest.approx(0.4904, abs=5e-5)


def test_cosine_distance_basics(rng):
    v = rng.normal(size=6)
    assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)
    assert cosine_distance(v, -v) == pytest.approx(1.0, abs=1e-12)
    assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.5
    assert cosine_distance(np.zeros(3), v[:3]) == 0.5


def embeddings_with_cosines(gram):
    """Rows with prescribed pairwise cosines via Cholesky of the Gram matrix."""
    return np.linalg.cholesky(np.asarray(gram))


def test_attract_identical_embeddings_is_zero():
    e = np.tile([1.0, 2.0, 0.5], (3, 1))
    assert loss_attract(e, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)


def test_attract_single_orthogonal_pair():
    e = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert loss_attract(e, np.zeros(2)) == pytest.approx(0.5)


def test_attract_three_mentions_mean_of_pairs():
    # pairwise cosine distances {0.1, 0.2, 0.3} -> cosines {0.8, 0.6, 0.4}
    e = embeddings_with_cosines([[1, 0.8, 0.6], [0.8, 1, 0.4], [0.6, 0.4, 1]])
    assert cosine_distance(e[0], e[1]) == pytest.approx(0.1)
    assert cosine_distance(e[0], e[2]) == pytest.approx(0.2)
    assert cosine_distance(e[1], e[2]) == pytest.approx(0.3)
    assert loss_attract(e, np.zeros(3)) == pytest.approx(0.2)


def test_repulse_antipodal_pairs_is_zero():
    e = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert loss_repulse(e, np.array([0, 1])) == pytest.approx(0.0, abs=1e-12)


def test_repulse_identical_cross_chain_is_one():
    e = np.tile([0.3, 0.7], (3, 1))
    assert loss_repulse(e, np.array([0, 1, 2])) == pytest.approx(1.0)


def test_repulse_mean_of_two_pairs():
    # chains [a, a, b]; cross distances {0.5, 0.9} -> cosines {0, -0.8}
    e = embeddings_with_cosines([[1, 0.5, 0.0], [0.5, 1, -0.8], [0.0, -0.8, 1]])
    codes = np.array([0, 0, 1])
    assert loss_repulse(e, codes) == pytest.approx(1.0 - 0.7)


def test_empty_pair_sets_warn_and_return_zero():
    e = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.warns(UserWarning):
        assert loss_attract(e, np.array([0, 1])) == 0.0
    with pytest.warns(UserWarning):
        assert loss_repulse(e, np.array([0, 0])) == 0.0


def test_loss_total_reduces_to_cce_when_lambdas_zero(rng):
    probs = np.array([[0.9, 0.1], [0.2, 0.8]])
    e = rng.normal(size=(2, 4))
    labels = np.array([0, 1])
    breakdown = loss_total(probs, e, labels, np.array([0, 1]), 0.0, 0.0)
    assert breakdown.total == loss_cce(probs, labels)
    assert breakdown.attract == 0.0 and breakdown.repulse == 0.0


def test_loss_total_arithmetic():
    # cce = ln(2) with p=0.5; same-chain pair identical, cross pairs orthogonal
    probs = np.array([[0.5, 0.5]] * 3)
    labels = np.zeros(3, dtype=int)
    e = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    codes = np.array([0, 0, 1])
    breakdown = loss_total(probs, e, labels, codes, 1.0, 1.0)
    assert breakdown.attract == pytest.approx(0.0, abs=1e-12)
    assert breakdown.repulse == pytest.approx(0.5)
    assert breakdown.total == pytest.approx(breakdown.cce + 0.5)
    assert breakdown.total == pytest.approx(
        breakdown.cce + breakdown.lambda1 * breakdown.attract + breakdown.lambda2 * breakdown.repulse
    )


def test_matrix_pairwise_terms_equal_explicit_loops(rng):
    for _ in range(40):
        n = int(rng.integers(2, 12))
        e = rng.normal(size=(n, int(rng.integers(1, 6))))
        if rng.random() < 0.3:
            e[rng.integers(n)] = 0.0  # exercise the zero-norm convention
        codes = rng.integers(0, 3, size=n)
        attract, repulse, _ = pairwise_loss_loops(e, codes, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert loss_attract(e, codes) == pytest.approx(attract, abs=1e-10)
            assert loss_repulse(e, codes) == pytest.approx(repulse, abs=1e-10)


def test_pairwise_terms_stay_in_unit_interval(rng):
    for _ in range(200):
        n = int(rng.integers(2, 10))
        e = rng.normal(size=(n, 4)) * float(rng.uniform(0.1, 10))
        codes = rng.integers(0, 4, size=n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert 0.0 <= loss_attract(e, codes) <= 1.0
            assert 0.0 <= loss_repulse(e, codes) <= 1.0


def test_loss_total_computes_the_pair_geometry_once(rng, monkeypatch):
    e = rng.normal(size=(9, 4))
    codes = np.array([0, 0, 1, 1, 1, 2, 3, 3, 0])
    calls = []
    pairs = network._pairs
    monkeypatch.setattr(network, "_pairs", lambda *a: calls.append(1) or pairs(*a))
    breakdown = loss_total(np.full((9, 2), 0.5), e, np.zeros(9, dtype=int), codes, 2.0, 0.5)
    assert len(calls) == 1
    # the shared geometry gives the standalone terms' values bit for bit
    assert breakdown.attract == loss_attract(e, codes)
    assert breakdown.repulse == loss_repulse(e, codes)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def batch_loss_fn(params, x, labels, codes, lam1, lam2, masks=None, use_cce=True):
    mode = "train" if masks is not None else "infer"

    def compute():
        cache = forward(params, x, mode=mode, masks=masks)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return loss_total(
                cache.probs, cache.embeddings, labels, codes, lam1, lam2, use_cce
            ).total

    return compute


def analytic_grads(params, x, labels, codes, lam1, lam2, masks=None, use_cce=True):
    mode = "train" if masks is not None else "infer"
    cache = forward(params, x, mode=mode, masks=masks)
    return backward(params, cache, labels, codes, lam1, lam2, use_cce).arrays()


@pytest.mark.parametrize("lam", [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, 2.0)])
def test_gradient_check_infer_mode(lam, rng):
    params, x, labels, codes, _ = gradcheck_case(rng)
    analytic = analytic_grads(params, x, labels, codes, *lam)
    numeric = finite_difference(
        batch_loss_fn(params, x, labels, codes, *lam), params.arrays()
    )
    assert max_relative_error(analytic, numeric) < 1e-4


def test_gradient_check_with_dropout_masks(rng):
    params, x, labels, codes, masks = gradcheck_case(
        rng, d=4, h1=5, he=3, h3=5, n=5, dropout=0.25
    )
    analytic = analytic_grads(params, x, labels, codes, 1.5, 0.5, masks=masks)
    numeric = finite_difference(
        batch_loss_fn(params, x, labels, codes, 1.5, 0.5, masks=masks), params.arrays()
    )
    assert max_relative_error(analytic, numeric) < 1e-4


def test_gradient_check_core_only(rng):
    params, x, labels, codes, _ = gradcheck_case(rng)
    analytic = analytic_grads(params, x, labels, codes, 2.0, 1.0, use_cce=False)
    numeric = finite_difference(
        batch_loss_fn(params, x, labels, codes, 2.0, 1.0, use_cce=False),
        params.arrays(),
    )
    assert max_relative_error(analytic, numeric) < 1e-4


def test_cce_only_gradients_match_plain_backprop(rng):
    params = tiny_params(rng)
    x = rng.normal(size=(6, 5))
    labels = rng.integers(0, 3, size=6)
    ours = analytic_grads(params, x, labels, np.arange(6), 0.0, 0.0)
    reference = plain_softmax_cce_grads(params.arrays(), x, labels)
    for a, b in zip(ours, reference):
        assert np.allclose(a, b, atol=1e-12)


def test_core_gradient_zero_at_loss_minimum():
    # identical within chains, antipodal across: both terms at their optimum
    u = np.array([0.6, 0.8, 0.0])
    e = np.stack([u, u, -u, -u])
    codes = np.array([0, 0, 1, 1])
    grad = core_embedding_grad(e, codes, 2.0, 2.0)
    assert np.linalg.norm(grad) < 1e-8


def test_full_backward_zero_at_reachable_stationary_point():
    # identity net, two well-separated chains, huge logits, repulsion off:
    # attract = 0 (identical within-chain embeddings) and CCE ~ 0
    params = zero_params(2, 2, 2, 2, 2)
    params.w1[:] = np.eye(2)
    params.w2[:] = np.eye(2)
    params.w3[:] = np.eye(2)
    params.w4[:] = 100.0 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    labels = np.array([0, 0, 1, 1])
    codes = np.array([0, 0, 1, 1])
    cache = forward(params, x)
    grads = backward(params, cache, labels, codes, lambda1=2.0, lambda2=0.0)
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.arrays()))
    assert norm < 1e-8


def test_zero_norm_embedding_rows_get_zero_core_gradient():
    e = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    grad = core_embedding_grad(e, np.array([0, 0, 1]), 1.0, 1.0)
    assert np.all(grad[0] == 0.0)
    assert np.all(np.isfinite(grad))


def test_backward_writes_into_the_given_buffer(rng):
    params, x, labels, codes, masks = gradcheck_case(rng, dropout=0.25)
    cache = forward(params, x, mode="train", masks=masks)
    fresh = backward(params, cache, labels, codes, 1.5, 0.5)
    buffer = NetParams(*[np.full_like(a, np.nan) for a in params.arrays()])
    assert backward(params, cache, labels, codes, 1.5, 0.5, out=buffer) is buffer
    for a, b in zip(fresh.arrays(), buffer.arrays()):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_no_update(rng):
    params = tiny_params(rng)
    before = [a.copy() for a in params.arrays()]
    grads = NetParams(*[np.zeros_like(a) for a in params.arrays()])
    state = AdamState.for_params(params)
    adam_step(params, state, grads, lr=0.1)
    for a, b in zip(params.arrays(), before):
        assert np.array_equal(a, b)


def test_adam_constant_gradient_step_approaches_lr():
    w = np.array([[0.0]])
    params = NetParams(w, *[np.zeros_like(a) for a in zero_params(1, 1, 1, 1, 1).arrays()[1:]])
    grads = NetParams(*[np.full_like(a, 0.37) for a in params.arrays()])
    state = AdamState.for_params(params)
    lr = 0.01
    prev = params.w1.copy()
    for _ in range(300):
        prev = params.w1.copy()
        adam_step(params, state, grads, lr=lr)
    step = abs(float(params.w1[0, 0] - prev[0, 0]))
    assert step == pytest.approx(lr, rel=0.01)


def test_adam_first_step_closed_form():
    g = 0.37
    eps = 1e-8
    params = zero_params(1, 1, 1, 1, 1)
    grads = NetParams(*[np.full_like(a, g) for a in params.arrays()])
    state = AdamState.for_params(params)
    adam_step(params, state, grads, lr=0.5)
    expected = -0.5 * g / (abs(g) + eps)
    assert float(params.w1[0, 0]) == pytest.approx(expected, rel=1e-9)
    assert state.t == 1


def test_adam_step_bit_identical_to_expression_form(rng):
    # sizes straddle the block boundary; one array is 2-d
    sizes = [1, ADAM_BLOCK - 1, ADAM_BLOCK + 1, 3 * ADAM_BLOCK + 7, (7, 5), 2, ADAM_BLOCK, 3]
    arrays = [rng.normal(size=s) for s in sizes]
    params = NetParams(*[a.copy() for a in arrays])
    state = AdamState.for_params(params)
    ref_params = [a.copy() for a in arrays]
    ref_m = [np.zeros_like(a) for a in arrays]
    ref_v = [np.zeros_like(a) for a in arrays]
    for t in range(1, 33):
        grads = []
        for a in arrays:
            g = rng.normal(size=a.shape) * 10.0 ** rng.integers(-8, 3, size=a.shape)
            g[rng.random(a.shape) < 0.2] = 0.0
            g[rng.random(a.shape) < 0.01] *= 1e150  # squares near the float64 limit
            grads.append(g)
        adam_step(params, state, NetParams(*grads), lr=0.003)
        ref_params, ref_m, ref_v = adam_step_expression(
            ref_params, ref_m, ref_v, grads, t, lr=0.003
        )
        assert state.t == t
        for ours, ref in zip(params.arrays() + state.m + state.v, ref_params + ref_m + ref_v):
            assert ours.tobytes() == ref.tobytes()


def test_adam_step_allocates_no_parameter_sized_array(rng):
    params = NetParams(rng.normal(size=(1000, 500)), *[rng.normal(size=3) for _ in range(7)])
    grads = NetParams(*[rng.normal(size=a.shape) for a in params.arrays()])
    state = AdamState.for_params(params)
    tracemalloc.start()
    try:
        adam_step(params, state, grads, lr=0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.w1.nbytes / 4  # two scratch blocks, not 4 MB temporaries


def test_adam_step_refuses_a_non_contiguous_parameter(rng):
    params = NetParams(np.zeros((4, 3)).T, *[np.zeros(2) for _ in range(7)])
    grads = NetParams(*[np.ones_like(a) for a in params.arrays()])
    with pytest.raises(ValueError, match="contiguous"):
        adam_step(params, AdamState.for_params(params), grads, lr=0.01)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path, rng):
    params = tiny_params(rng)
    state = AdamState.for_params(params)
    grads = NetParams(*[rng.normal(size=a.shape) for a in params.arrays()])
    adam_step(params, state, grads, lr=0.01)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, state, epoch=7, seed=42, config_hash=123456789)
    loaded, loaded_state, meta = load_checkpoint(path)
    for a, b in zip(params.arrays(), loaded.arrays()):
        assert np.array_equal(a, b)
    for a, b in zip(state.m + state.v, loaded_state.m + loaded_state.v):
        assert np.array_equal(a, b)
    assert loaded_state.t == 1
    assert meta == {"epoch": 7, "seed": 42, "config_hash": 123456789}


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(Exception):
        load_checkpoint(path)


def stepped_checkpoint_case(rng):
    params = tiny_params(rng)
    state = AdamState.for_params(params)
    grads = NetParams(*[rng.normal(size=a.shape) for a in params.arrays()])
    adam_step(params, state, grads, lr=0.01)
    adam_step(params, state, grads, lr=0.01)
    return params, state


def test_checkpoint_bytes_match_the_documented_layout(tmp_path, rng):
    params, state = stepped_checkpoint_case(rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, state, epoch=4, seed=2**40 + 3, config_hash=2**63 + 5)
    expected = checkpoint_bytes(
        CHECKPOINT_MAGIC, params.dims, 4, 2**40 + 3, 2**63 + 5, 2,
        params.arrays() + state.m + state.v,
    )
    assert path.read_bytes() == expected


def test_truncated_checkpoint_is_a_parse_error(tmp_path, rng):
    params, state = stepped_checkpoint_case(rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, state, epoch=1, seed=0)
    whole = path.read_bytes()
    header = len(CHECKPOINT_MAGIC) + 48
    # inside the magic, the dims, the Adam step count, the first array and
    # the last one
    for keep in (5, len(CHECKPOINT_MAGIC) + 7, header - 1, header + 3, len(whole) - 1):
        cut = tmp_path / f"cut{keep}.ckpt"
        cut.write_bytes(whole[:keep])
        with pytest.raises(ParseError):
            load_checkpoint(cut)


def test_checkpoint_with_corrupt_dims_is_a_parse_error(tmp_path, rng):
    params, state = stepped_checkpoint_case(rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, state, epoch=1, seed=0)
    whole = bytearray(path.read_bytes())
    at = len(CHECKPOINT_MAGIC)
    whole[at : at + 8] = struct.pack("<2I", 2**31, 2**31)  # a 2^62-entry w1
    path.write_bytes(bytes(whole))
    with pytest.raises(ParseError, match="truncated"):
        load_checkpoint(path)
