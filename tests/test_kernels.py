import itertools
import tracemalloc

import numpy as np
import pytest

from evcoref import kernels
from evcoref.clustering import cosine_similarity_matrix
from oracles import dense_merge_sequence, naive_merge_sequence, union_find_components

MERGE_IMPLS = [kernels.merge_sequence]
LSAP_IMPLS = [kernels.lsap_min]


def random_sim(rng, n):
    s = rng.random((n, n))
    s = (s + s.T) / 2
    np.fill_diagonal(s, 1.0)
    return s


@pytest.mark.parametrize("impl", MERGE_IMPLS)
def test_merge_sequence_matches_naive_oracle(impl, rng):
    for _ in range(60):
        n = int(rng.integers(2, 9))
        sims = random_sim(rng, n)
        got = list(zip(*impl(sims.copy())))
        expected = naive_merge_sequence(sims)
        assert len(got) == len(expected) == n - 1
        for (gs, gi, gj), (es, ei, ej) in zip(got, expected):
            assert gs == pytest.approx(es, abs=0)
            assert (gi, gj) == (ei, ej)


def test_merge_sequence_tie_breaking_lowest_pair():
    # every similarity identical: merges must walk (0,1), (0,2), (0,3)
    sims = np.full((4, 4), 0.5)
    np.fill_diagonal(sims, 1.0)
    for impl in MERGE_IMPLS:
        _, lefts, rights = impl(sims.copy())
        assert list(lefts) == [0, 0, 0]
        assert list(rights) == [1, 2, 3]


def test_merge_sims_are_non_increasing(rng):
    for impl in MERGE_IMPLS:
        for _ in range(20):
            sims, _, _ = (lambda s: (impl(s)[0], None, None))(random_sim(rng, 12))
            assert np.all(np.diff(sims) <= 1e-15)


def test_merge_sequence_trivial_sizes():
    for impl in MERGE_IMPLS:
        sims, lefts, rights = impl(np.zeros((1, 1)))
        assert len(sims) == len(lefts) == len(rights) == 0
        sims, lefts, rights = impl(np.zeros((0, 0)))
        assert len(sims) == 0


def tied_similarities(rng, n, kind):
    """n x n similarities whose merge levels tie: cosines of rows of which
    some are zero (cosine exactly 0 to every row) or repeat another row
    (cosine clipped to 1.0), or entries quantized to 2-4 values."""
    if kind == "quantized":
        levels = int(rng.integers(2, 5))
        q = rng.integers(0, levels, size=(n, n))
        sims = np.maximum(q, q.T) / (levels - 1)
        np.fill_diagonal(sims, 1.0)
        return sims
    x = rng.normal(size=(n, 8))
    if kind == "zero-rows":
        x[rng.random(n) < 0.2] = 0.0
    else:
        x = x[rng.integers(0, n // 3, size=n)]
    return cosine_similarity_matrix(x)


@pytest.mark.parametrize("kind", ["zero-rows", "duplicate-rows", "quantized"])
def test_merge_sequence_matches_dense_kernel_on_tied_levels(kind, rng):
    # equal cosines are one level, -0.0 and 0.0 included, in both kernels
    for _ in range(3):
        n = int(rng.integers(100, 401))
        sims = tied_similarities(rng, n, kind)
        got = kernels.merge_sequence(sims)
        assert len(np.unique(got[0])) < n - 1  # some level holds several merges
        for g, e in zip(got, dense_merge_sequence(sims)):
            assert g.dtype == e.dtype
            assert np.array_equal(g, e)


def test_merge_sequence_matches_dense_kernel_when_every_entry_ties():
    for n in (2, 3, 50):
        for value in (0.0, 0.5, 1.0):
            sims = np.full((n, n), value)
            got = kernels.merge_sequence(sims)
            assert list(got[1]) == [0] * (n - 1) and list(got[2]) == list(range(1, n))
            for g, e in zip(got, dense_merge_sequence(sims)):
                assert np.array_equal(g, e)


def test_merge_sequence_reads_the_matrix_without_a_copy(rng):
    # untied cosines: no level is replayed
    x = rng.normal(size=(600, 16))
    sims = cosine_similarity_matrix(x)
    before = sims.copy()
    tracemalloc.start()
    try:
        got = kernels.merge_sequence(sims)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(np.unique(got[0])) == 599
    assert peak < sims.nbytes
    assert np.array_equal(sims, before)


def _components(n, edges):
    edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return kernels.components(n, edges[:, 0], edges[:, 1]).tolist()


def _by_first_member(roots):
    """The union-find oracle's roots renumbered 0.. by first member."""
    number = {}
    return [number.setdefault(root, len(number)) for root in roots]


@pytest.mark.parametrize(
    "n, edges",
    [
        (1, []),
        (1, [(0, 0)]),
        (5, []),
        (4, [(2, 2), (3, 3)]),
        (4, [(1, 3), (3, 1), (1, 3), (1, 3)]),
        (6, [(5, 4), (4, 3), (3, 2), (2, 1), (1, 0)]),
        (6, [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]),
        (7, [(6, 5), (5, 3), (3, 6), (2, 1)]),
    ],
    ids=[
        "single-node", "single-self-loop", "no-edges", "self-loops", "repeated-edges",
        "descending-path", "ascending-path", "cycle-and-pair",
    ],
)
def test_components_small_cases_match_union_find(n, edges):
    assert _components(n, edges) == _by_first_member(union_find_components(n, edges))


def test_components_long_descending_path():
    # the minimum sits at the far end of a path labelled high to low
    n = 257
    edges = [(i, i - 1) for i in range(n - 1, 0, -1)]
    order = np.random.default_rng(5).permutation(n)
    shuffled = [(int(order[a]), int(order[b])) for a, b in edges]
    assert _components(n, edges) == [0] * n
    assert _components(n, shuffled) == union_find_components(n, shuffled)


def test_components_match_union_find_on_random_graphs(rng):
    for _ in range(200):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(0, 2 * n))
        edges = [tuple(int(v) for v in rng.integers(0, n, size=2)) for _ in range(m)]
        assert _components(n, edges) == _by_first_member(union_find_components(n, edges))


def brute_force_min_cost(cost):
    r, c = cost.shape
    return min(
        sum(cost[i, p[i]] for i in range(r))
        for p in itertools.permutations(range(c), r)
    )


@pytest.mark.parametrize("impl", LSAP_IMPLS)
def test_lsap_matches_brute_force(impl, rng):
    for _ in range(80):
        n = int(rng.integers(1, 7))
        cost = rng.normal(size=(n, n))
        assignment = impl(cost)
        assert sorted(assignment) == list(range(n))
        total = cost[np.arange(n), assignment].sum()
        assert total == pytest.approx(brute_force_min_cost(cost), abs=1e-10)


@pytest.mark.parametrize("impl", LSAP_IMPLS)
def test_lsap_with_ties_and_integers(impl):
    cost = np.array([[1.0, 1.0], [1.0, 1.0]])
    assignment = impl(cost)
    assert sorted(assignment) == [0, 1]
    cost = np.array([[4, 1, 3], [2, 0, 5], [3, 2, 2]], dtype=float)
    total = cost[np.arange(3), impl(cost)].sum()
    assert total == 5.0


@pytest.mark.parametrize("r", range(1, 7))
def test_lsap_rectangular_matches_brute_force(r, rng):
    # small integer costs tie often; an all-zero row can take any column
    for c in range(r, 9):
        for trial in range(4):
            cost = rng.integers(-2, 3, size=(r, c)).astype(float)
            if trial % 2:
                cost[rng.integers(r)] = 0.0
            assignment = kernels.lsap_min(cost)
            assert len(assignment) == r and len(set(assignment.tolist())) == r
            assert 0 <= assignment.min() and assignment.max() < c
            total = cost[np.arange(r), assignment].sum()
            assert total == brute_force_min_cost(cost)


def test_lsap_rejects_non_square():
    # more rows than columns has no assignment of every row; callers transpose
    with pytest.raises(ValueError):
        kernels.lsap_min(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        kernels.lsap_min(np.zeros(3))
