import numpy as np
import pytest

from conftest import corpus_from_docs, toks
from evcoref.clustering import (
    agglomerate,
    agglomerate_indices,
    build_merge_run,
    cosine_similarity_matrix,
    head_lemma,
    lemma_delta_init,
    lemma_partition,
    tune_delta,
    tune_tau,
    write_chains,
    read_chains,
)
from evcoref.corpus import Clustering, Corpus
from evcoref.errors import IntegrityError
from evcoref.features import fit_tfidf
from oracles import naive_single_linkage


def random_sim(rng, n):
    s = rng.random((n, n))
    s = (s + s.T) / 2
    np.fill_diagonal(s, 1.0)
    return s


def is_coarsening(coarse, fine):
    return all(any(f <= c for c in coarse) for f in fine)


# ---------------------------------------------------------------------------
# agglomerate
# ---------------------------------------------------------------------------


def test_tau_one_keeps_distinct_singletons(rng):
    e = rng.normal(size=(5, 4))
    parts = agglomerate_indices(cosine_similarity_matrix(e), 1.0)
    assert sorted(map(sorted, parts)) == [[0], [1], [2], [3], [4]]


def test_tau_zero_merges_everything(rng):
    e = rng.normal(size=(6, 4))
    parts = agglomerate_indices(cosine_similarity_matrix(e), 0.0)
    assert len(parts) == 1 and parts[0] == set(range(6))


def test_four_point_merge_trace():
    sims = np.array(
        [
            [1.0, 0.9, 0.2, 0.3],
            [0.9, 1.0, 0.1, 0.2],
            [0.2, 0.1, 1.0, 0.8],
            [0.3, 0.2, 0.8, 1.0],
        ]
    )
    parts = agglomerate_indices(sims, 0.5)
    assert sorted(map(sorted, parts)) == [[0, 1], [2, 3]]
    run = build_merge_run(sims)
    assert list(run.sims[:2]) == [0.9, 0.8]


def test_agglomerate_respects_init_partition():
    sims = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.95],
            [0.0, 0.95, 1.0],
        ]
    )
    init = [{0, 1}, {2}]
    parts = agglomerate_indices(sims, 0.9, init=init)
    # single linkage: cluster {0,1} reaches 2 through mention 1's 0.95
    assert sorted(map(sorted, parts)) == [[0, 1, 2]]
    parts = agglomerate_indices(sims, 0.99, init=init)
    assert sorted(map(sorted, parts)) == [[0, 1], [2]]


def test_agglomerate_mention_id_wrapper(rng):
    e = np.array([[1.0, 0.0], [0.99, 0.1], [0.0, 1.0]])
    ids = ["m1", "m2", "m3"]
    clustering = agglomerate(ids, 0.9, embeddings=e)
    assert {frozenset(c) for c in clustering.chains} == {
        frozenset({"m1", "m2"}),
        frozenset({"m3"}),
    }
    init = Clustering.from_sets([{"m1", "m3"}, {"m2"}])
    merged = agglomerate(ids, 1.1, embeddings=e, init=init)
    assert {frozenset(c) for c in merged.chains} == {
        frozenset({"m1", "m3"}),
        frozenset({"m2"}),
    }


def test_init_partition_must_cover_everything():
    sims = np.eye(3)
    with pytest.raises(IntegrityError):
        agglomerate_indices(sims, 0.5, init=[{0, 1}])
    with pytest.raises(IntegrityError):
        agglomerate_indices(sims, 0.5, init=[{0, 1}, {1, 2}])


def test_merge_matches_naive_oracle_with_inits(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        sims = random_sim(rng, n)
        tau = float(rng.random())
        if rng.random() < 0.5:
            init = None
        else:
            labels = rng.integers(0, max(1, n // 2), size=n)
            init = [set(np.flatnonzero(labels == g)) for g in np.unique(labels)]
        got = sorted(map(sorted, agglomerate_indices(sims, tau, init)))
        expected = sorted(map(sorted, naive_single_linkage(sims, tau, init)))
        assert got == expected


def test_tau_monotone_coarsening(rng):
    for _ in range(30):
        n = int(rng.integers(3, 12))
        sims = random_sim(rng, n)
        run = build_merge_run(sims)
        t1, t2 = sorted(rng.random(2))
        coarse = run.partition_at(t1)
        fine = run.partition_at(t2)
        assert is_coarsening(coarse, fine)


def test_partition_is_valid_for_any_tau(rng):
    sims = random_sim(rng, 10)
    run = build_merge_run(sims)
    for tau in np.linspace(0, 1, 17):
        parts = run.partition_at(float(tau))
        flat = sorted(i for p in parts for i in p)
        assert flat == list(range(10))


def test_tau_above_max_similarity_returns_init(rng):
    sims = random_sim(rng, 6) * 0.8
    np.fill_diagonal(sims, 1.0)
    init = [{0, 3}, {1}, {2, 4, 5}]
    parts = agglomerate_indices(sims, 0.999, init=init)
    assert sorted(map(sorted, parts)) == sorted(map(sorted, init))


def test_cosine_similarity_matrix_properties(rng):
    x = rng.normal(size=(7, 3))
    x[2] = 0.0
    sims = cosine_similarity_matrix(x)
    assert np.array_equal(sims, sims.T)
    assert np.all(np.isfinite(sims))
    assert np.all(sims <= 1.0) and np.all(sims >= -1.0)
    assert np.all(sims[2, :3] == 0.0)  # zero rows are similar to nothing


# ---------------------------------------------------------------------------
# Lemma partitions
# ---------------------------------------------------------------------------


def lemma_corpus():
    # two documents sharing the lemma "crash", one stray lemma
    return corpus_from_docs(
        [
            (
                "d1",
                "1",
                toks("The", "crash", "yesterday"),
                [("m1", "c1", (1,))],
            ),
            (
                "d2",
                "1",
                toks("Another", "crash", "report"),
                [("m2", "c1", (1,)), ("m3", "c2", (2,))],
            ),
            (
                "d3",
                "2",
                toks("crash", "again", "crash"),
                [("m4", "c1", (0,)), ("m5", "c1", (2,))],
            ),
        ]
    )


def test_head_lemma_is_final_token():
    corpus = corpus_from_docs(
        [("d1", "1", toks("checked", "into"), [("m1", "c1", (0, 1))])]
    )
    doc = corpus.documents[0]
    assert head_lemma(doc.mentions[0], doc) == "into"


def test_lemma_partition_merges_across_documents():
    clustering = lemma_partition(lemma_corpus())
    chains = {frozenset(c) for c in clustering.chains}
    assert frozenset({"m1", "m2", "m4", "m5"}) in chains
    assert frozenset({"m3"}) in chains


def test_lemma_delta_one_merges_within_document_only():
    corpus = lemma_corpus()
    tfidf = fit_tfidf(corpus)
    clustering = lemma_delta_init(corpus, tfidf, 1.0)
    chains = {frozenset(c) for c in clustering.chains}
    # cross-document similarity can never exceed 1, so only d3's pair merges
    assert frozenset({"m4", "m5"}) in chains
    assert frozenset({"m1"}) in chains
    assert frozenset({"m2"}) in chains


def test_lemma_delta_zero_equals_plain_lemma_when_docs_share_terms():
    corpus = lemma_corpus()
    tfidf = fit_tfidf(corpus)
    with_delta = lemma_delta_init(corpus, tfidf, 0.0)
    plain = lemma_partition(corpus)
    assert {frozenset(c) for c in with_delta.chains} == {
        frozenset(c) for c in plain.chains
    }


def test_lemma_delta_closure_is_transitive():
    # d1~d2 and d2~d3 pass delta but d1~d3 does not: closure still joins all
    corpus = corpus_from_docs(
        [
            ("d1", "1", toks("crash", "alpha", "alpha"), [("m1", "c", (0,))]),
            ("d2", "1", toks("crash", "alpha", "beta"), [("m2", "c", (0,))]),
            ("d3", "1", toks("crash", "beta", "beta"), [("m3", "c", (0,))]),
        ]
    )
    tfidf = fit_tfidf(corpus)
    vecs = {d.doc_id: tfidf.doc_vector(d) for d in corpus.documents}
    unit = {k: v / np.linalg.norm(v) for k, v in vecs.items()}
    s12 = float(unit["d1"] @ unit["d2"])
    s13 = float(unit["d1"] @ unit["d3"])
    assert s13 < s12  # pick delta between them
    delta = (s13 + s12) / 2
    clustering = lemma_delta_init(corpus, tfidf, delta)
    assert {frozenset(c) for c in clustering.chains} == {frozenset({"m1", "m2", "m3"})}


# ---------------------------------------------------------------------------
# Threshold tuning
# ---------------------------------------------------------------------------


def separated_embeddings(rng, groups=3, per=4, margin=(0.5, 0.95)):
    """Unit vectors with within-group cosine > margin[1], cross < margin[0]."""
    base = np.eye(groups)
    rows, ids, chains = [], [], []
    for g in range(groups):
        for i in range(per):
            noise = rng.normal(scale=0.02, size=groups)
            v = base[g] + noise
            rows.append(v / np.linalg.norm(v))
            ids.append(f"g{g}m{i}")
            chains.append(f"g{g}")
    gold = Clustering.from_sets(
        {ids[k] for k in range(len(ids)) if chains[k] == f"g{g}"} for g in range(groups)
    )
    return np.array(rows), ids, gold


def test_tune_tau_lands_in_separating_margin(rng):
    emb, ids, gold = separated_embeddings(rng)
    sims = cosine_similarity_matrix(emb)
    within = min(
        sims[i, j]
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
        if ids[i][:2] == ids[j][:2]
    )
    cross = max(
        sims[i, j]
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
        if ids[i][:2] != ids[j][:2]
    )
    assert cross < within
    tau, score = tune_tau(emb, ids, gold)
    assert score == 1.0
    assert cross < tau <= within


def test_tune_tau_prefers_larger_tau_on_ties(rng):
    # two identical points: every tau in (0, 1] scores the same
    emb = np.array([[1.0, 0.0], [0.0, 1.0]])
    gold = Clustering.from_sets([{"a"}, {"b"}])
    tau, score = tune_tau(emb, ["a", "b"], gold)
    assert score == 1.0
    assert tau == 1.0


def test_tune_tau_with_init(rng):
    emb, ids, gold = separated_embeddings(rng)
    init = Clustering.from_sets([set(ids[:2])] + [{m} for m in ids[2:]])
    tau, score = tune_tau(emb, ids, gold, init=init)
    assert score == 1.0


def test_tau_and_delta_searches_refuse_a_split_without_mentions():
    # at zero mentions every threshold scores the same empty B3; there is
    # nothing to select
    with pytest.raises(IntegrityError, match="no mentions"):
        tune_tau(np.zeros((0, 4)), [], Clustering.from_sets([]))
    tfidf = fit_tfidf(lemma_corpus())
    with pytest.raises(IntegrityError, match="no mentions"):
        tune_delta(Corpus(()), tfidf, Clustering.from_sets([]))


def test_tune_delta_baseline_and_zero_grid():
    corpus = lemma_corpus()
    tfidf = fit_tfidf(corpus)
    gold = Clustering.from_sets([{"m1", "m2", "m4", "m5"}, {"m3"}])
    delta, tau, score = tune_delta(corpus, tfidf, gold)
    assert tau is None
    assert score == 1.0  # plain-lemma partition (delta small) is exactly gold


def test_tune_delta_with_embeddings(rng):
    corpus = lemma_corpus()
    tfidf = fit_tfidf(corpus)
    ids = [m.id for m in corpus.mentions()]
    gold = Clustering.from_sets([{"m1", "m2", "m4", "m5"}, {"m3"}])
    emb = rng.normal(size=(len(ids), 4))
    delta, tau, score = tune_delta(corpus, tfidf, gold, emb, ids, n_values=20)
    assert tau is not None
    assert 0.0 <= delta <= 1.0
    assert 0.0 <= score <= 1.0


# ---------------------------------------------------------------------------
# Chain file round-trip
# ---------------------------------------------------------------------------


def test_chain_file_roundtrip(tmp_path):
    clustering = Clustering.from_sets([{"b", "a"}, {"c"}, {"e", "d"}])
    path = tmp_path / "out.chains"
    write_chains(clustering, path, meta={"tau": 0.8, "seed": 3})
    text = path.read_text()
    assert text.startswith("# tau=0.8\n# seed=3\n")
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines == ["a\tb", "c", "d\te"]  # sorted by smallest member
    assert read_chains(path) == clustering