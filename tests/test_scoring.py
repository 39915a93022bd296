import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evcoref.corpus import Clustering
from evcoref.errors import IntegrityError, ScoringMismatchError
from evcoref.scoring import (
    MetricScore,
    report,
    score_b3,
    score_blanc,
    score_ceaf,
    score_muc,
    within_doc_projection,
    write_report,
)
from oracles import (
    oracle_b3, oracle_blanc, oracle_ceaf, oracle_muc, square_lsap_min, union_find_components,
)


def C(*chains):
    return Clustering.from_sets(chains)


def labels_to_clustering(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(f"m{i}")
    return Clustering.from_sets(groups.values())


partition_labels = st.integers(2, 9).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
    )
)


# ---------------------------------------------------------------------------
# MUC
# ---------------------------------------------------------------------------


def test_muc_perfect():
    gold = C({"a", "b", "c"}, {"d"})
    assert score_muc(gold, gold) == MetricScore(1.0, 1.0, 1.0)


def test_muc_all_singletons_scores_zero():
    gold = C({"a"}, {"b"}, {"c"})
    sys = C({"a", "b"}, {"c"})
    assert score_muc(gold, sys).recall == 0.0
    assert score_muc(gold, gold) == MetricScore(0.0, 0.0, 0.0)


def test_muc_hand_counted_half():
    gold = C({"a", "b", "c"}, {"d"})
    sys = C({"a", "b"}, {"c", "d"})
    got = score_muc(gold, sys)
    assert got == MetricScore(0.5, 0.5, 0.5)


# ---------------------------------------------------------------------------
# B3
# ---------------------------------------------------------------------------


def test_b3_perfect():
    gold = C({"a", "b"}, {"c"})
    assert score_b3(gold, gold) == MetricScore(1.0, 1.0, 1.0)


def test_b3_singleton_system():
    n = 5
    gold = C(set(f"m{i}" for i in range(n)))
    sys = C(*[{f"m{i}"} for i in range(n)])
    got = score_b3(gold, sys)
    assert got.precision == 1.0
    assert got.recall == pytest.approx(1.0 / n)


def test_b3_hand_value():
    gold = C({"a", "b"}, {"c"})
    sys = C({"a", "b", "c"})
    got = score_b3(gold, sys)
    assert got.recall == 1.0
    assert got.precision == pytest.approx(5.0 / 9.0)


# ---------------------------------------------------------------------------
# CEAF
# ---------------------------------------------------------------------------


def test_ceaf_perfect_both_variants():
    gold = C({"a", "b"}, {"c"})
    assert score_ceaf(gold, gold, "mention") == MetricScore(1.0, 1.0, 1.0)
    assert score_ceaf(gold, gold, "entity") == MetricScore(1.0, 1.0, 1.0)


def test_ceaf_refuses_an_unknown_variant():
    gold = C({"a", "b"}, {"c"})
    with pytest.raises(ValueError, match="unknown CEAF variant 'chain'"):
        score_ceaf(gold, gold, "chain")


def test_ceaf_mention_precision_equals_recall(rng):
    for _ in range(25):
        n = int(rng.integers(2, 9))
        gold = labels_to_clustering(rng.integers(0, 4, size=n).tolist())
        sys = labels_to_clustering(rng.integers(0, 4, size=n).tolist())
        got = score_ceaf(gold, sys, "mention")
        assert got.precision == got.recall


def test_ceaf_mention_crossed_pairs():
    gold = C({"a", "b"}, {"c", "d"})
    sys = C({"a", "c"}, {"b", "d"})
    assert score_ceaf(gold, sys, "mention") == MetricScore(0.5, 0.5, 0.5)


def test_ceaf_matches_exhaustive_alignment(rng):
    for _ in range(40):
        n = int(rng.integers(2, 11))
        gold = labels_to_clustering(rng.integers(0, 5, size=n).tolist())
        sys = labels_to_clustering(rng.integers(0, 5, size=n).tolist())
        if len(gold.chains) > 6 or len(sys.chains) > 6:
            continue
        for phi in ("mention", "entity"):
            got = score_ceaf(gold, sys, phi)
            r, p, f = oracle_ceaf(list(gold.chains), list(sys.chains), phi)
            assert got.recall == pytest.approx(r, abs=1e-12)
            assert got.precision == pytest.approx(p, abs=1e-12)
            assert got.f1 == pytest.approx(f, abs=1e-12)


# ---------------------------------------------------------------------------
# BLANC
# ---------------------------------------------------------------------------


def test_blanc_perfect_with_both_link_types():
    gold = C({"a", "b"}, {"c"})
    assert score_blanc(gold, gold) == MetricScore(1.0, 1.0, 1.0)


def test_blanc_three_mention_hand_case():
    gold = C({"a", "b"}, {"c"})
    sys = C({"a"}, {"b"}, {"c"})
    got = score_blanc(gold, sys)
    # coref type: R=0, P=0, F=0; non-coref: R=1, P=2/3, F=4/5
    assert got.recall == pytest.approx(0.5)
    assert got.precision == pytest.approx(1.0 / 3.0)
    assert got.f1 == pytest.approx(0.4)


def test_blanc_degenerate_only_noncoref_links():
    gold = C({"a"}, {"b"})
    got = score_blanc(gold, gold)
    assert got == MetricScore(1.0, 1.0, 1.0)  # the one present type's values


def test_blanc_degenerate_only_coref_links():
    gold = C({"a", "b"})
    assert score_blanc(gold, gold) == MetricScore(1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Agreement with brute-force oracles on random partitions
# ---------------------------------------------------------------------------


def test_all_measures_match_oracles_on_random_partitions(rng):
    for _ in range(60):
        n = int(rng.integers(2, 11))
        gold = labels_to_clustering(rng.integers(0, 4, size=n).tolist())
        sys = labels_to_clustering(rng.integers(0, 4, size=n).tolist())
        pairs = [
            (score_muc(gold, sys), oracle_muc(list(gold.chains), list(sys.chains))),
            (score_b3(gold, sys), oracle_b3(list(gold.chains), list(sys.chains))),
            (score_blanc(gold, sys), oracle_blanc(list(gold.chains), list(sys.chains))),
        ]
        for got, (r, p, f) in pairs:
            assert got.recall == pytest.approx(r, abs=1e-12)
            assert got.precision == pytest.approx(p, abs=1e-12)
            assert got.f1 == pytest.approx(f, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(partition_labels)
def test_swap_duality_and_ranges(pair):
    gold = labels_to_clustering(pair[0])
    sys = labels_to_clustering(pair[1])
    for scorer in (
        score_muc,
        score_b3,
        lambda g, s: score_ceaf(g, s, "mention"),
        lambda g, s: score_ceaf(g, s, "entity"),
    ):
        ab = scorer(gold, sys)
        ba = scorer(sys, gold)
        assert ab.recall == pytest.approx(ba.precision, abs=1e-12)
        assert ab.precision == pytest.approx(ba.recall, abs=1e-12)
        for v in (ab.recall, ab.precision, ab.f1):
            assert 0.0 <= v <= 1.0
    blanc = score_blanc(gold, sys)
    for v in (blanc.recall, blanc.precision, blanc.f1):
        assert 0.0 <= v <= 1.0


def test_mention_mismatch_raises():
    gold = C({"a", "b"})
    sys = C({"a", "c"})
    for scorer in (score_muc, score_b3, score_blanc):
        with pytest.raises(ScoringMismatchError):
            scorer(gold, sys)


# ---------------------------------------------------------------------------
# Projection and report
# ---------------------------------------------------------------------------


def test_within_doc_projection_splits_by_document():
    clustering = C({"a1", "a2", "b1"})
    doc_of = {"a1": "A", "a2": "A", "b1": "B"}
    projected = within_doc_projection(clustering, doc_of)
    assert {frozenset(c) for c in projected.chains} == {
        frozenset({"a1", "a2"}),
        frozenset({"b1"}),
    }


def test_within_doc_projection_identity_for_single_doc_chains():
    clustering = C({"a1", "a2"}, {"b1"})
    doc_of = {"a1": "A", "a2": "A", "b1": "B"}
    assert within_doc_projection(clustering, doc_of) == clustering


def test_within_doc_projection_names_the_smallest_unknown_mention():
    clustering = C({f"m{i}" for i in range(1, 10)})
    with pytest.raises(IntegrityError, match="no document known for mention 'm2'"):
        within_doc_projection(clustering, {"m1": "A"})


def test_projection_never_decreases_chain_count(rng):
    for _ in range(20):
        n = int(rng.integers(2, 12))
        labels = rng.integers(0, 4, size=n).tolist()
        clustering = labels_to_clustering(labels)
        doc_of = {f"m{i}": f"d{rng.integers(3)}" for i in range(n)}
        projected = within_doc_projection(clustering, doc_of)
        assert len(projected.chains) >= len(clustering.chains)
        assert projected.mention_ids() == clustering.mention_ids()


def test_report_perfect_scores_and_conll():
    gold = C({"a", "b"}, {"c", "d"}, {"e"})
    rep = report(gold, gold)
    for name in ("muc", "b3", "ceaf_m", "ceaf_e", "blanc"):
        assert getattr(rep, name).f1 == 1.0
    assert rep.conll == 1.0


def test_conll_is_exact_mean(rng):
    for _ in range(20):
        n = int(rng.integers(2, 10))
        gold = labels_to_clustering(rng.integers(0, 3, size=n).tolist())
        sys = labels_to_clustering(rng.integers(0, 3, size=n).tolist())
        rep = report(gold, sys)
        assert rep.conll == (rep.muc.f1 + rep.b3.f1 + rep.ceaf_e.f1) / 3.0


def test_report_file_format(tmp_path):
    gold = C({"a", "b"}, {"c"})
    rep = report(gold, gold)
    path = tmp_path / "report.tsv"
    write_report(rep, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "measure\tR\tP\tF"
    assert lines[1] == "muc\t1.0000\t1.0000\t1.0000"
    assert lines[-1].startswith("conll\t")

# ---------------------------------------------------------------------------
# Determinism and the per-component CEAF alignment
# ---------------------------------------------------------------------------


def shuffled(clustering, rng):
    """The same partition with its chain tuple and each chain's members in
    another order."""
    chains = [sorted(c) for c in clustering.chains]
    rng.shuffle(chains)
    for chain in chains:
        rng.shuffle(chain)
    return Clustering.from_sets(chains)


def test_report_is_bit_identical_under_chain_and_member_order(rng):
    # float sums in chain or set order round differently; a score on a
    # 4-decimal rounding tie then prints differently from run to run
    for _ in range(5):
        n = 200
        gold = labels_to_clustering(rng.integers(0, 30, size=n).tolist())
        sys = labels_to_clustering(rng.integers(0, 45, size=n).tolist())
        first = report(gold, sys)
        for _ in range(2):
            assert report(shuffled(gold, rng), shuffled(sys, rng)) == first


def test_ceaf_components_match_one_padded_assignment(rng):
    # beyond the brute-force oracle's reach: 50-200 chains per side, scored
    # against one run of the square Kuhn-Munkres oracle over the full
    # zero-padded matrix
    for _ in range(6):
        n = int(rng.integers(150, 400))
        k = int(rng.integers(60, 201))
        gold_labels = rng.integers(0, k, size=n)
        # the system keeps most gold links and moves the rest at random:
        # one large overlap component, or many small ones
        moved = rng.random(n) < rng.choice([0.03, 0.3])
        sys_labels = np.where(moved, rng.integers(0, k, size=n), gold_labels)
        gold = labels_to_clustering(gold_labels.tolist())
        sys = labels_to_clustering(sys_labels.tolist())
        ng, ns = len(gold.chains), len(sys.chains)
        assert 50 <= ng <= 200 and 50 <= ns <= 200
        size = max(ng, ns)
        for phi in ("mention", "entity"):
            full = np.zeros((size, size))
            for i, g in enumerate(gold.chains):
                for j, s in enumerate(sys.chains):
                    inter = len(g & s)
                    full[i, j] = inter if phi == "mention" else 2.0 * inter / (len(g) + len(s))
            best = full[np.arange(size), square_lsap_min(-full)].sum()
            r_den, p_den = (n, n) if phi == "mention" else (ng, ns)
            got = score_ceaf(gold, sys, phi)
            assert got.recall == pytest.approx(best / r_den, abs=1e-12)
            assert got.precision == pytest.approx(best / p_den, abs=1e-12)


def split_and_merge(rng, n_gold, moved):
    """Gold chains of 1-5 mentions, and a system that splits some gold chains
    into up to 3 parts (a 1 x c overlap component), merges runs of 2-4 whole
    gold chains (r x 1) and keeps the others (1 x 1); then the share `moved`
    of mentions goes to random system chains, which joins some components
    into larger ones."""
    gold = np.repeat(np.arange(n_gold), rng.integers(1, 6, size=n_gold))
    sys = np.empty_like(gold)
    g = label = 0
    while g < n_gold:
        kind = rng.integers(3)
        if kind == 0:  # split
            members = np.flatnonzero(gold == g)
            sys[members] = label + rng.integers(0, 3, size=len(members))
            label, g = label + 3, g + 1
        else:  # merge 2-4 chains, or keep 1
            r = int(rng.integers(2, 5)) if kind == 1 else 1
            sys[(gold >= g) & (gold < g + r)] = label
            label, g = label + 1, g + r
    sys = np.where(rng.random(len(gold)) < moved, rng.integers(0, label, size=len(gold)), sys)
    order = rng.permutation(len(gold))
    return labels_to_clustering(gold[order].tolist()), labels_to_clustering(sys[order].tolist())


def per_component_ceaf(gold, sys, phi):
    """CEAF with the square Kuhn-Munkres oracle run on each overlap
    component's block, zero-padded to a square, its best cell per gold chain
    summed in the scorer's chain order (chains numbered by first mention)."""
    ids = sorted(gold.mention_ids())
    g, s = gold.labels(ids), sys.labels(ids)
    ng, ns = g.max() + 1, s.max() + 1
    inter = np.zeros((ng, ns))
    np.add.at(inter, (g, s), 1.0)
    sizes = np.bincount(g)[:, None] + np.bincount(s)[None, :]
    weights = inter if phi == "mention" else 2.0 * inter / sizes
    rows, cols = np.nonzero(inter)
    comp = np.array(union_find_components(ng + ns, list(zip(rows.tolist(), (ng + cols).tolist()))))
    best_of_row = np.zeros(ng)
    for root in np.unique(comp):
        r, c = np.flatnonzero(comp[:ng] == root), np.flatnonzero(comp[ng:] == root)
        block = np.zeros((max(len(r), len(c)),) * 2)
        block[: len(r), : len(c)] = weights[np.ix_(r, c)]
        best_of_row[r] = block[np.arange(len(r)), square_lsap_min(-block)[: len(r)]]
    best = float(best_of_row.sum())
    r_den, p_den = (len(ids), len(ids)) if phi == "mention" else (ng, ns)
    recall, precision = best / r_den, best / p_den
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricScore(recall, precision, f1)


@pytest.mark.parametrize("moved", [0.0, 0.03])
def test_ceaf_one_row_and_one_column_components_match_the_square_oracle_exactly(rng, moved):
    # with no moved mention every overlap component is 1 x c or r x 1, and
    # a tied r x 1 component gives its column to the first tied gold chain
    # in both, so both CEAFs are bit-identical; moved mentions add larger
    # components, whose equally good alignments may sum in another order,
    # so there only the integer-weighted mention CEAF is compared exactly
    for _ in range(40):
        gold, sys = split_and_merge(rng, int(rng.integers(5, 80)), moved)
        rep = report(gold, sys)
        assert rep.ceaf_m == per_component_ceaf(gold, sys, "mention")
        expected_e = per_component_ceaf(gold, sys, "entity")
        if moved == 0.0:
            assert rep.ceaf_e == expected_e
        else:
            assert rep.ceaf_e.recall == pytest.approx(expected_e.recall, abs=1e-12)
            assert rep.ceaf_e.precision == pytest.approx(expected_e.precision, abs=1e-12)
