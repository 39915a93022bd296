import dataclasses
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
    embed,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grad,
    loss_attract,
    loss_cce,
    loss_repulse,
    loss_total,
    make_dropout_masks,
    row_runs,
    save_checkpoint,
)
from conftest import gradcheck_case
from oracles import (
    adam_step_expression,
    checkpoint_bytes,
    core_embedding_grad,
    cosine_distance,
    finite_difference,
    max_relative_error,
    pairwise_loss_loops,
    plain_softmax_cce_grads,
    two_call_step,
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


def test_embed_gives_the_bytes_of_the_infer_forwards_embeddings(rng):
    # embed stops at the embedding layer; the layers above it change no bit
    # of the embeddings, and neither does embed's refusal of another width
    params = tiny_params(rng, d=7, h1=9, he=5, h3=6, k=4)
    x = rng.normal(size=(11, 7))
    assert embed(params, x).tobytes() == forward(params, x).embeddings.tobytes()
    with pytest.raises(ModelMismatchError):
        embed(params, x[:, :6])


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
    z2_infer = forward(params, x).d1 @ params.w2 + params.b2
    total = np.zeros_like(z2_infer)
    n_masks = 10_000
    for _ in range(n_masks):
        masks = make_dropout_masks(rng, 16, params.dims, 0.25)
        cache = forward(params, x, mode="train", masks=masks, dropout=0.25)
        total += cache.d1 @ params.w2 + params.b2
    mean_z2 = total / n_masks
    rel = np.linalg.norm(mean_z2 - z2_infer) / np.linalg.norm(z2_infer)
    assert rel < 0.01


def expression_forward(params, x, masks=None, dropout=0.25):
    """The forward pass as plain expressions, each making a new array:
    (d1, embeddings, d2, d3, probs)."""
    relu = lambda z: np.maximum(z, 0.0)
    drop = (lambda a, m: a * m * (1.0 / (1.0 - dropout))) if masks else (lambda a, m: a)
    masks = masks or (None,) * 3
    z1 = x @ params.w1 + params.b1
    d1 = drop(relu(z1), masks[0])
    z2 = d1 @ params.w2 + params.b2
    emb = relu(z2)
    d2 = drop(emb, masks[1])
    z3 = d2 @ params.w3 + params.b3
    d3 = drop(relu(z3), masks[2])
    z4 = d3 @ params.w4 + params.b4
    e = np.exp(z4 - z4.max(axis=1, keepdims=True))
    return d1, emb, d2, d3, e / e.sum(axis=1, keepdims=True)


def cache_arrays(c):
    return (c.d1, c.embeddings, c.d2, c.d3, c.probs)


def test_a_reused_forward_cache_equals_a_fresh_one(rng):
    # two train-mode passes on different batches and masks through one
    # workspace: every array of each equals a fresh pass and the plain
    # expressions, byte for byte, so nothing of the first pass leaks into
    # the second
    params = tiny_params(rng, d=7, h1=9, he=5, h3=6, k=4)
    ws = None
    for _ in range(2):
        x = rng.normal(size=(11, 7))
        masks = make_dropout_masks(rng, 11, params.dims, 0.3)
        fresh = forward(params, x, mode="train", masks=masks, dropout=0.3)
        ws = forward(params, x, mode="train", masks=masks, dropout=0.3, out=ws)
        expected = expression_forward(params, x, masks, 0.3)
        for got, ref, plain in zip(cache_arrays(ws), cache_arrays(fresh), expected):
            assert got.tobytes() == ref.tobytes() == plain.tobytes()
        assert np.array_equal(ws.inputs, x) and ws.masks is masks and ws.dropout == 0.3


def test_infer_forward_equals_the_plain_expressions(rng):
    # no dropout: d1, d2 and d3 are the activations, and d2 is the embeddings
    params = tiny_params(rng, d=7, h1=9, he=5, h3=6, k=4)
    x = rng.normal(size=(11, 7))
    cache = forward(params, x)
    for got, plain in zip(cache_arrays(cache), expression_forward(params, x)):
        assert got.tobytes() == plain.tobytes()
    assert cache.d2 is cache.embeddings and cache.masks is None


def test_dropout_masks_are_boolean_draws_of_the_generator():
    dims = (5, 13, 4, 9, 3)
    masks = make_dropout_masks(np.random.default_rng(4), 17, dims, 0.3)
    plain_rng = np.random.default_rng(4)
    assert len(masks) == 3
    for mask, width in zip(masks, dims[1:4]):
        assert mask.dtype == bool
        assert np.array_equal(mask, plain_rng.random((17, width)) < 1 - 0.3)


def test_boolean_masks_give_the_bytes_of_float_masks(rng):
    # a float times a bool is the float times 1.0 or 0.0: the train-mode
    # forward and the step read the same bits off either kind of mask
    params = tiny_params(rng, d=7, h1=9, he=5, h3=6, k=4)
    x = rng.normal(size=(11, 7))
    labels, codes = rng.integers(0, 4, size=11), rng.integers(0, 3, size=11)
    masks = make_dropout_masks(rng, 11, params.dims, 0.3)
    runs = []
    for kind in (masks, tuple(m.astype(np.float64) for m in masks)):
        cache = forward(params, x, mode="train", masks=kind, dropout=0.3)
        loss, grads = loss_and_grad(params, cache, labels, codes, 2.0, 0.5)
        runs.append([*cache_arrays(cache), np.array(dataclasses.astuple(loss)), *grads.arrays()])
    for got, ref in zip(*runs, strict=True):
        assert got.tobytes() == ref.tobytes()


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
    lam1, lam2 = 1.0, 1.0
    breakdown = loss_total(probs, e, labels, codes, lam1, lam2)
    assert breakdown.attract == pytest.approx(0.0, abs=1e-12)
    assert breakdown.repulse == pytest.approx(0.5)
    assert breakdown.total == pytest.approx(breakdown.cce + 0.5)
    assert breakdown.total == pytest.approx(
        breakdown.cce + lam1 * breakdown.attract + lam2 * breakdown.repulse
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


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def assert_step_equals_two_call_step(params, cache, labels, codes, lam1, lam2, use_cce=True):
    buffer = NetParams(*[np.full_like(a, np.nan) for a in params.arrays()])
    breakdown, grads = loss_and_grad(
        params, cache, labels, codes, lam1, lam2, use_cce=use_cce, out=buffer
    )
    assert grads is buffer
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the oracle itself never warns
        (total, cce, attract, repulse), reference = two_call_step(
            params, cache, labels, codes, lam1, lam2, use_cce
        )
    fields = (breakdown.total, breakdown.cce, breakdown.attract, breakdown.repulse)
    assert [_bits(v) for v in fields] == [_bits(v) for v in (total, cce, attract, repulse)]
    for ours, ref in zip(grads.arrays(), reference):
        assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("lam1", [0.0, 2.0])
@pytest.mark.parametrize("lam2", [0.0, 0.5])
@pytest.mark.parametrize("use_cce", [True, False])
@pytest.mark.parametrize("dropout", [None, 0.25])
def test_loss_and_grad_equals_the_two_call_step(rng, lam1, lam2, use_cce, dropout):
    for _ in range(5):
        params, x, labels, codes, masks = gradcheck_case(rng, n=9, dropout=dropout)
        mode = "train" if masks is not None else "infer"
        cache = forward(params, x, mode=mode, masks=masks, dropout=dropout or 0.25)
        assert_step_equals_two_call_step(params, cache, labels, codes, lam1, lam2, use_cce)


@pytest.mark.parametrize("lam", [(2.0, 0.5), (0.0, 0.5), (2.0, 0.0)])
def test_loss_and_grad_with_zero_norm_embedding_rows(rng, lam):
    params = tiny_params(rng)
    x = rng.normal(size=(8, 5))
    x[[0, 3]] = 0.0  # zero biases: these rows embed to the zero vector
    codes = np.array([0, 0, 1, 1, 2, 0, 1, 2])
    cache = forward(params, x)
    assert np.all(cache.embeddings[[0, 3]] == 0.0)
    assert np.count_nonzero(np.linalg.norm(cache.embeddings, axis=1)) >= 4  # and others not
    labels = rng.integers(0, 3, size=8)
    assert_step_equals_two_call_step(params, cache, labels, codes, *lam)


def test_loss_and_grad_without_a_same_chain_pair_warns_once(rng):
    params, x, labels, _, masks = gradcheck_case(rng, n=6, dropout=0.25)
    codes = np.arange(6)  # every mention its own chain
    cache = forward(params, x, mode="train", masks=masks)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_step_equals_two_call_step(params, cache, labels, codes, 2.0, 0.5)
    assert [str(w.message) for w in caught] == [
        "no same-chain pair in batch; attractive term is 0"
    ]


def test_row_runs():
    assert row_runs(np.array([0, 1, 1, 0, 1], dtype=bool)) == ((1, 3), (4, 5))
    assert row_runs(np.ones(4, dtype=bool)) == ((0, 4),)
    assert row_runs(np.zeros(3, dtype=bool)) == ()


W1_RUNS = [((0, 40),), ((3, 4), (10, 12)), ((0, 1), (39, 40)), ((5, 6), (7, 8), (20, 33))]


@pytest.mark.parametrize("runs", W1_RUNS)
@pytest.mark.parametrize("dropout", [None, 0.25])
def test_compact_w1_gradient_is_the_rows_of_the_full_gradient(rng, runs, dropout):
    # the packed network of the training loop (w1's rows of some input
    # columns, back to back) on the same activations: each row of its w1
    # gradient still sums over the whole batch. It equals the full row where
    # the BLAS computes a row of a product independently of how many rows
    # the product has; OpenBLAS 0.3.31's Haswell kernels do when hidden1 is
    # a multiple of 8 and two or more rows are taken
    params = init_params(rng, 40, 3, hidden1=16, embed=8, hidden3=16)
    x = rng.normal(size=(9, 40))
    labels, codes = rng.integers(0, 3, size=9), rng.integers(0, 3, size=9)
    masks = make_dropout_masks(rng, 9, params.dims, dropout) if dropout else None
    cache = forward(params, x, mode="train" if masks else "infer", masks=masks)
    full_loss, full = loss_and_grad(params, cache, labels, codes, 2.0, 0.5)
    rows = np.concatenate([np.arange(lo, hi) for lo, hi in runs])
    packed = NetParams(params.w1[rows], *params.arrays()[1:])
    loss, compact = loss_and_grad(
        packed, dataclasses.replace(cache, inputs=x[:, rows]), labels, codes, 2.0, 0.5
    )
    assert compact.w1.shape == (len(rows), 16)
    assert compact.w1.tobytes() == full.w1[rows].tobytes()
    for ours, ref in zip(compact.arrays()[1:], full.arrays()[1:]):
        assert ours.tobytes() == ref.tobytes()
    assert loss == full_loss


def test_loss_and_grad_holds_one_delta_at_a_time(rng):
    # a second call into the first call's gradients holds one batch x
    # hidden1 delta at a time (its peak is about 1.6 such arrays, the
    # expressions d * mask * scale * (z > 0) would make 6.8), and writes
    # none of what it reads
    params = init_params(rng, 300, 5, hidden1=512, embed=32, hidden3=512)
    x = rng.normal(size=(64, 300))
    labels, codes = rng.integers(0, 5, size=64), rng.integers(0, 8, size=64)
    masks = make_dropout_masks(rng, 64, params.dims, 0.25)
    cache = forward(params, x, mode="train", masks=masks, dropout=0.25)
    _, grads = loss_and_grad(params, cache, labels, codes, 2.0, 0.5)
    read = [*cache_arrays(cache), cache.inputs, *masks, *params.arrays()]
    before = [a.tobytes() for a in read]
    tracemalloc.start()
    try:
        loss_and_grad(params, cache, labels, codes, 2.0, 0.5, out=grads)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 64 * 512 * 8
    assert [a.tobytes() for a in read] == before


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


def test_row_run_adam_step_equals_the_full_step_over_zero_gradient_rows(rng):
    # the w1 rows outside the runs get +0.0 or -0.0 gradients on every step,
    # so the full step leaves them as they were, and the step of the packed
    # network (the runs' rows back to back) moves the others as the full
    # step does; a run of 60 rows of 700 spans two Adam blocks
    runs = ((1, 3), (6, 66), (70, 71))
    rows = np.concatenate([np.arange(lo, hi) for lo, hi in runs])
    arrays = [rng.normal(size=(80, 700))] + [rng.normal(size=s) for s in (7, (7, 5), 5, 3, 4, (4, 2), 2)]
    arrays[0][75] = -0.0
    others = np.setdiff1d(np.arange(80), rows)
    full = NetParams(*[a.copy() for a in arrays])
    packed = NetParams(arrays[0][rows], *[a.copy() for a in arrays[1:]])
    full_state, state = AdamState.for_params(full), AdamState.for_params(packed)
    for _ in range(6):
        grads = [rng.normal(size=a.shape) for a in arrays]
        grads[0][others] = 0.0
        grads[0] *= np.where(rng.random((80, 1)) < 0.5, -1.0, 1.0)  # signed zeros
        adam_step(full, full_state, NetParams(*grads), lr=0.003)
        adam_step(packed, state, NetParams(grads[0][rows], *grads[1:]), lr=0.003)
        assert state.t == full_state.t
        assert full.w1[others].tobytes() == arrays[0][others].tobytes()
        for ours, ref in zip(packed.arrays(), [full.w1[rows], *full.arrays()[1:]]):
            assert ours.tobytes() == ref.tobytes()
        for ours, ref in zip(state.m + state.v, full_state.m + full_state.v):
            ref = ref[rows] if ref.shape == arrays[0].shape else ref
            assert ours.tobytes() == ref.tobytes()
        for moment in (full_state.m[0], full_state.v[0]):
            assert moment[others].tobytes() == bytes(8 * len(others) * 700)
    assert np.signbit(full.w1[75]).all()


def test_adam_step_allocates_no_parameter_sized_array(rng):
    params = NetParams(rng.normal(size=(1000, 500)), *[rng.normal(size=3) for _ in range(7)])
    grads = NetParams(*[rng.normal(size=a.shape) for a in params.arrays()])
    state = AdamState.for_params(grads)
    tracemalloc.start()
    try:
        adam_step(params, state, grads, lr=0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.w1.nbytes / 4  # two scratch blocks, not 4 MB temporaries


def test_adam_step_refuses_moments_of_other_shapes_than_the_gradients(rng):
    params = NetParams(rng.normal(size=(6, 4)), *[rng.normal(size=2) for _ in range(7)])
    grads = NetParams(rng.normal(size=(2, 4)), *[rng.normal(size=2) for _ in range(7)])
    with pytest.raises(ValueError, match="shape"):
        adam_step(params, AdamState.for_params(params), grads, lr=0.01)


def test_adam_step_refuses_a_non_contiguous_parameter(rng):
    params = NetParams(np.zeros((4, 3)).T, *[np.zeros(2) for _ in range(7)])
    grads = NetParams(*[np.ones_like(a) for a in params.arrays()])
    with pytest.raises(ValueError, match="contiguous"):
        adam_step(params, AdamState.for_params(params), grads, lr=0.01)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def random_params(rng):
    """tiny_params' shapes, every entry (biases too) drawn at random."""
    return NetParams(*[rng.normal(size=a.shape) for a in tiny_params(rng).arrays()])


def test_checkpoint_roundtrip(tmp_path, rng):
    params = random_params(rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, epoch=7, seed=42, config_hash=123456789)
    loaded, meta = load_checkpoint(path)
    for a, b in zip(params.arrays(), loaded.arrays()):
        assert a.tobytes() == b.tobytes()
    assert meta == {"epoch": 7, "seed": 42, "config_hash": 123456789}


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(Exception):
        load_checkpoint(path)


def test_checkpoint_bytes_match_the_documented_layout(tmp_path, rng):
    params = random_params(rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, epoch=4, seed=2**40 + 3, config_hash=2**63 + 5)
    expected = checkpoint_bytes(
        CHECKPOINT_MAGIC, params.dims, 4, 2**40 + 3, 2**63 + 5, params.arrays()
    )
    assert path.read_bytes() == expected


def test_truncated_checkpoint_is_a_parse_error(tmp_path, rng):
    params = random_params(rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, epoch=1, seed=0)
    whole = path.read_bytes()
    header = len(CHECKPOINT_MAGIC) + 40
    # inside the magic, the dims, the epoch/seed/hash, the first array and
    # the last one (the directory's name holds "truncated" too)
    for keep in (5, len(CHECKPOINT_MAGIC) + 7, header - 1, header + 3, len(whole) - 1):
        cut = tmp_path / f"cut{keep}.ckpt"
        cut.write_bytes(whole[:keep])
        message = "bad magic" if keep < len(CHECKPOINT_MAGIC) else ":1: truncated checkpoint"
        with pytest.raises(ParseError, match=message):
            load_checkpoint(cut)


def test_checkpoint_with_trailing_bytes_is_a_parse_error(tmp_path, rng):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, random_params(rng), epoch=1, seed=0)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ParseError, match=":1: oversized checkpoint"):
        load_checkpoint(path)


def test_checkpoint_with_corrupt_dims_is_a_parse_error(tmp_path, rng):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, random_params(rng), epoch=1, seed=0)
    whole = bytearray(path.read_bytes())
    at = len(CHECKPOINT_MAGIC)
    whole[at : at + 8] = struct.pack("<2I", 2**31, 2**31)  # a 2^62-entry w1
    path.write_bytes(bytes(whole))
    with pytest.raises(ParseError, match="truncated"):
        load_checkpoint(path)
