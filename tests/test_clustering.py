import tracemalloc

import numpy as np
import pytest

from conftest import corpus_from_docs, toks
from evcoref import clustering
from evcoref.clustering import (
    LemmaPairs,
    UnitRows,
    agglomerate,
    agglomerate_indices,
    build_merge_run,
    cosine_similarity_matrix,
    head_lemma,
    lemma_delta_init,
    lemma_partition,
    search_delta,
    tune_delta,
    tune_tau,
    unit_rows,
)
from evcoref.corpus import (
    Clustering,
    Corpus,
    dense_labels,
    gold_clustering,
    loads_corpus,
    read_chains,
    split_by_topics,
    write_chains,
)
from evcoref.errors import IntegrityError, ParseError
from evcoref.features import fit_tfidf
from evcoref.kernels import components
from evcoref.scoring import score_b3
from evcoref.train import encode_chains
from oracles import lemma_delta_chains, naive_single_linkage
from synthcorpus import band_topic_sets, generate


def random_sim(rng, n):
    s = rng.random((n, n))
    s = (s + s.T) / 2
    np.fill_diagonal(s, 1.0)
    return s


def seed_sets(labels):
    """The seed clusters of a label vector (None: no seed), as the oracle's
    index sets."""
    if labels is None:
        return None
    return [set(np.flatnonzero(labels == g).tolist()) for g in np.unique(labels)]


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
    init = np.array([0, 0, 2])  # seed clusters {0, 1} and {2}
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


@pytest.mark.parametrize(
    "chains, fault",
    [
        ([{"m1", "m2"}, {"m3", "m4"}], r"missing \[\], not given \['m4'\]"),
        ([{"m1", "m2"}], r"missing \['m3'\], not given \[\]"),
    ],
    ids=["unknown", "missing"],
)
def test_agglomerate_refuses_init_over_other_mentions(chains, fault):
    init = Clustering.from_sets(chains)
    with pytest.raises(IntegrityError, match=fault):
        agglomerate(["m1", "m2", "m3"], 0.5, embeddings=np.eye(3), init=init)


def test_agglomerate_refuses_duplicate_mention_ids():
    with pytest.raises(IntegrityError, match="duplicate mention ids"):
        agglomerate(["m1", "m2", "m1"], 0.5, embeddings=np.eye(3))


@pytest.mark.parametrize("as_unit_rows", [False, True])
@pytest.mark.parametrize("rows", [3, 5], ids=["fewer", "more"])
@pytest.mark.parametrize("call", ["agglomerate", "tune_tau", "search_delta"])
def test_embedding_rows_must_match_the_mentions(call, rows, as_unit_rows):
    ids = ["a", "b", "c", "d"]
    gold = Clustering.from_sets([{"a", "b"}, {"c", "d"}])
    embeddings = np.eye(5)[:rows]
    if as_unit_rows:
        embeddings = unit_rows(embeddings)
    run = {
        "agglomerate": lambda: agglomerate(ids, 0.5, embeddings),
        "tune_tau": lambda: tune_tau(embeddings, ids, gold),
        "search_delta": lambda: search_delta(LemmaPairs(ids, np.zeros((0, 4))), gold, embeddings),
    }[call]
    with pytest.raises(IntegrityError, match=f"^{rows} embedding rows for 4 mentions$"):
        run()


def test_init_labels_must_be_one_per_row():
    for init in ([0, 0], [0, 0, 1, 1], [[0], [0], [1]]):  # short, long, 2-d
        with pytest.raises(IntegrityError, match="seed labels have shape"):
            agglomerate_indices(np.eye(3), 0.5, init=np.array(init))


def test_merge_matches_naive_oracle_with_inits(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        sims = random_sim(rng, n)
        tau = float(rng.random())
        if rng.random() < 0.5:
            init = None
        else:
            init = rng.integers(0, max(1, n // 2), size=n)
        got = sorted(map(sorted, agglomerate_indices(sims, tau, init)))
        expected = sorted(map(sorted, naive_single_linkage(sims, tau, seed_sets(init))))
        assert got == expected


def test_merge_matches_naive_oracle_with_inits_and_tied_levels(rng):
    # similarities on 2-4 levels tie everywhere, and tau often sits exactly
    # on a level
    for _ in range(150):
        n = int(rng.integers(2, 10))
        levels = int(rng.integers(2, 5))
        q = rng.integers(0, levels, size=(n, n))
        sims = np.maximum(q, q.T) / (levels - 1)
        np.fill_diagonal(sims, 1.0)
        init = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
        tau = float(rng.choice([*np.unique(sims), rng.random()]))
        got = sorted(map(sorted, agglomerate_indices(sims, tau, init)))
        expected = sorted(map(sorted, naive_single_linkage(sims, tau, seed_sets(init))))
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
    init = np.array([7, 1, 4, 7, 4, 4])  # seed clusters {0, 3}, {1} and {2, 4, 5}
    parts = agglomerate_indices(sims, 0.999, init=init)
    assert sorted(map(sorted, parts)) == [[0, 3], [1], [2, 4, 5]]


def eye_with(value):
    sims = np.eye(3)
    sims[0, 2] = sims[2, 0] = value
    return sims


@pytest.mark.parametrize(
    "sims, fault",
    [
        (np.ones((3, 4)), r"similarity matrix has shape \(3, 4\)"),
        (np.ones(3), r"similarity matrix has shape \(3,\)"),
        (eye_with(np.nan), "non-finite similarity entries"),
        (eye_with(np.inf), "non-finite similarity entries"),
        (eye_with(-np.inf), "non-finite similarity entries"),
    ],
    ids=["3x4", "1-d", "nan", "inf", "-inf"],
)
def test_a_similarity_matrix_not_square_or_not_finite_is_refused(sims, fault):
    with pytest.raises(IntegrityError, match=fault):
        build_merge_run(sims)
    with pytest.raises(IntegrityError, match=fault):
        agglomerate_indices(sims, 0.5)


def test_a_nan_tau_is_refused(rng):
    # "merge while sim >= tau" merges nothing for NaN; a cut past every
    # merge would instead join all mentions into one chain
    e = rng.normal(size=(4, 3))
    sims = cosine_similarity_matrix(e)
    nan = float("nan")
    for call in (
        lambda: agglomerate(["a", "b", "c", "d"], nan, e),
        lambda: agglomerate_indices(sims, nan),
        lambda: build_merge_run(sims).partition_at(nan),
        lambda: build_merge_run(sims, np.array([1, 1, 0, 2])).labels_at(np.float64(nan)),
    ):
        with pytest.raises(ValueError, match="tau is NaN"):
            call()


def test_every_label_vector_numbers_its_clusters_by_first_member():
    # clusters {0, 3, 5}, {1}, {2, 6}, {4}: one vector from every producer
    expected = [0, 1, 2, 0, 3, 0, 2]
    ids = [f"m{i}" for i in range(7)]
    sims = np.full((7, 7), 0.1)
    np.fill_diagonal(sims, 1.0)
    linked = sims.copy()
    for i, j in [(5, 3), (3, 0), (6, 2)]:
        linked[i, j] = linked[j, i] = 0.9
    seeded = sims.copy()
    seeded[3, 5] = seeded[5, 3] = seeded[2, 6] = seeded[6, 2] = 0.9
    pairs = np.array([[0, 5, 1.0, 0.0], [3, 5, 0.0, 0.8], [2, 6, 0.0, 0.9], [1, 4, 0.0, 0.2]])
    chain_ids = ["c", "b", "a", "c", "d", "c", "a"]
    got = {
        "components": components(7, np.array([5, 3, 6]), np.array([3, 0, 2])),
        "unseeded cut": build_merge_run(linked).labels_at(0.5),
        "seed alone": build_merge_run(sims, np.array(chain_ids)).labels_at(0.5),
        "seed {0, 5} and merges": build_merge_run(seeded, np.array([7, 4, 1, 3, 9, 7, 8])).labels_at(0.5),
        "lemma pairs": LemmaPairs(ids, pairs).labels_at(0.5),
        "clustering": Clustering.from_labels(ids, chain_ids).labels(ids),
        "encode_chains": encode_chains(chain_ids),
        "dense_labels": dense_labels(chain_ids),
    }
    for name, labels in got.items():
        assert labels.dtype == np.int64, name
        assert labels.tolist() == expected, name


def test_cosine_similarity_matrix_properties(rng):
    x = rng.normal(size=(7, 3))
    x[2] = 0.0
    sims = cosine_similarity_matrix(x)
    assert np.array_equal(sims, sims.T)
    assert np.all(np.isfinite(sims))
    assert np.all(sims <= 1.0) and np.all(sims >= -1.0)
    assert np.all(sims[2, :3] == 0.0)  # zero rows are similar to nothing


def whole_matrix_units(x):
    """Unit rows by one whole-matrix norm and one division."""
    norms = np.linalg.norm(x, axis=1)
    return x / np.where(norms > 0.0, norms, 1.0)[:, None]


def test_unit_rows_scale_in_place_to_the_whole_matrix_bits(rng):
    n = 2 * clustering.NORM_BLOCK + 5  # a last block of 5 rows
    x = rng.normal(size=(n, 9)) * rng.uniform(0.01, 100.0, size=(n, 1))
    x[[0, clustering.NORM_BLOCK, n - 1]] = 0.0
    owned = x.copy()
    units = unit_rows(owned)
    assert units.rows is owned
    assert owned.tobytes() == whole_matrix_units(x).tobytes()
    picked = [n - 1, 3, 3, clustering.NORM_BLOCK + 1]
    assert isinstance(units[picked], UnitRows)
    assert units[picked].rows.tobytes() == owned[picked].tobytes()
    assert cosine_similarity_matrix(units).tobytes() == cosine_similarity_matrix(x).tobytes()


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_similarity_of_unit_rows_makes_no_n_by_d_array(rng):
    n, d = 24, 20000
    # unit rows: only n x n arrays; a plain array: its scaled copy as well
    assert traced_peak(cosine_similarity_matrix, unit_rows(rng.normal(size=(n, d)))) < n * d * 8 / 4
    assert traced_peak(cosine_similarity_matrix, rng.normal(size=(n, d))) >= n * d * 8


def test_plain_arrays_are_left_untouched(rng):
    ids = [f"m{i}" for i in range(30)]
    gold = Clustering.from_labels(ids, [i % 4 for i in range(30)])
    emb = rng.normal(size=(30, 5)) * 3.0
    before = emb.tobytes()
    tau, score = tune_tau(emb, ids, gold)
    chains = agglomerate(ids, tau, emb).sorted_chains()
    assert emb.tobytes() == before
    # and give what the same rows give once scaled in place
    assert tune_tau(unit_rows(emb.copy()), ids, gold) == (tau, score)
    assert agglomerate(ids, tau, unit_rows(emb.copy())).sorted_chains() == chains


def test_tune_delta_selects_unit_rows(rng):
    tfidf, corpus = synthetic_lemma_split()
    gold = gold_clustering(corpus)
    ids = [m.id for m in corpus.mentions()]
    order = rng.permutation(len(ids))
    ids = [ids[i] for i in order]
    emb = rng.normal(size=(len(ids), 6))
    expected = tune_delta(corpus, tfidf, gold, emb, ids, n_values=20)
    assert tune_delta(corpus, tfidf, gold, unit_rows(emb.copy()), ids, n_values=20) == expected


@pytest.mark.parametrize("n_values", [0, -3])
@pytest.mark.parametrize("call", ["search_delta", "tune_delta"])
def test_a_delta_grid_without_values_is_refused(rng, call, n_values):
    tfidf, corpus = synthetic_lemma_split()
    gold = gold_clustering(corpus)
    emb = rng.normal(size=(len(gold.mention_ids()), 6))
    run = {
        "search_delta": lambda: search_delta(LemmaPairs.of(corpus, tfidf), gold, emb, n_values),
        # no corpus and no tf-idf model: the grid is refused before they are read
        "tune_delta": lambda: tune_delta(None, None, gold, emb, n_values=n_values),
    }[call]
    with pytest.raises(ValueError, match=f"got n_values={n_values}$"):
        run()


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


def test_lemma_delta_needs_cosine_strictly_above_delta():
    corpus = lemma_corpus()
    # fitted on unrelated documents, every document vector is zero, so every
    # cross-document cosine is exactly 0.0, which is not above delta 0
    tfidf = fit_tfidf(corpus_from_docs([("x1", "9", toks("other"), []), ("x2", "9", toks("words"), [])]))
    chains = {frozenset(c) for c in lemma_delta_init(corpus, tfidf, 0.0).chains}
    assert chains == {frozenset({"m1"}), frozenset({"m2"}), frozenset({"m3"}), frozenset({"m4", "m5"})}


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


def synthetic_lemma_split():
    """TF-IDF fitted on a generated train band, and the validation band."""
    bands = (2, 2, 2)
    text, _, _ = generate(seed=3, band_topics=bands, docs_per_topic=4, mentions_per_doc=8, n_chains=36)
    train_t, val_t, test_t = band_topic_sets(bands)
    train_c, val_c, _ = split_by_topics(loads_corpus(text), train_t, val_t, test_t)
    return fit_tfidf(train_c), val_c


def test_lemma_delta_init_matches_per_delta_pair_loop():
    tfidf, corpus = synthetic_lemma_split()
    partitions = set()
    for delta in np.linspace(0.0, 1.0, 100):
        chains = lemma_delta_init(corpus, tfidf, float(delta)).sorted_chains()
        assert chains == lemma_delta_chains(corpus, tfidf, float(delta))
        partitions.add(str(chains))
    assert len(partitions) > 3  # the grid crosses several cosine levels


@pytest.mark.parametrize("with_embeddings", [False, True])
def test_tune_delta_matches_per_delta_recomputation(rng, with_embeddings):
    tfidf, corpus = synthetic_lemma_split()
    gold = gold_clustering(corpus)
    ids = [m.id for m in corpus.mentions()]
    emb = rng.normal(size=(len(ids), 6)) if with_embeddings else None
    best = (-1.0, None, -1.0)
    for delta in np.linspace(0.0, 1.0, 100):
        init = Clustering.from_sets(lemma_delta_chains(corpus, tfidf, float(delta)))
        if with_embeddings:
            tau, score = tune_tau(emb, ids, gold, init=init)
        else:
            tau, score = None, score_b3(gold, init).f1
        if score >= best[2]:
            best = (float(delta), tau, float(score))
    assert tune_delta(corpus, tfidf, gold, emb, ids) == best


def test_tune_delta_tunes_each_distinct_partition_once(rng, monkeypatch):
    tfidf, corpus = synthetic_lemma_split()
    gold = gold_clustering(corpus)
    ids = [m.id for m in corpus.mentions()]
    distinct = {
        str(lemma_delta_chains(corpus, tfidf, float(delta)))
        for delta in np.linspace(0.0, 1.0, 100)
    }
    assert len(distinct) > 3
    calls = {"_search_tau": 0, "seed_b3": 0}
    table = clustering.Contingency.from_labels

    def search(run, gold_labels):  # a tau search; its own tables are not seed scorings
        calls["_search_tau"] += 1
        return 0.5, 0.0

    def seed_table(gold_labels, labels):
        calls["seed_b3"] += 1
        return table(gold_labels, labels)

    monkeypatch.setattr(clustering, "_search_tau", search)
    monkeypatch.setattr(clustering.Contingency, "from_labels", staticmethod(seed_table))
    tune_delta(corpus, tfidf, gold, rng.normal(size=(len(ids), 6)), ids)
    assert calls == {"_search_tau": len(distinct), "seed_b3": 0}
    tune_delta(corpus, tfidf, gold)
    assert calls == {"_search_tau": len(distinct), "seed_b3": len(distinct)}


def test_tune_delta_builds_one_merge_run(rng, monkeypatch):
    tfidf, corpus = synthetic_lemma_split()
    gold = gold_clustering(corpus)
    ids = [m.id for m in corpus.mentions()]
    calls = []
    build = clustering.build_merge_run

    def counted(*args, **kwargs):
        calls.append(kwargs.get("init", args[1] if len(args) > 1 else None))
        return build(*args, **kwargs)

    monkeypatch.setattr(clustering, "build_merge_run", counted)
    tune_delta(corpus, tfidf, gold, rng.normal(size=(len(ids), 6)), ids)
    assert calls == [None]


def test_tune_delta_follows_the_embedding_row_order(rng):
    # the lemma labels follow the corpus order; the rows follow mention_ids
    tfidf, corpus = synthetic_lemma_split()
    gold = gold_clustering(corpus)
    ids = [m.id for m in corpus.mentions()]
    emb = rng.normal(size=(len(ids), 6))
    expected = tune_delta(corpus, tfidf, gold, emb, ids)
    for _ in range(3):
        order = rng.permutation(len(ids))
        assert tune_delta(corpus, tfidf, gold, emb[order], [ids[i] for i in order]) == expected


def test_tune_delta_refuses_rows_for_other_mentions(rng):
    tfidf, corpus = synthetic_lemma_split()
    gold = gold_clustering(corpus)
    ids = [m.id for m in corpus.mentions()]
    with pytest.raises(IntegrityError, match="differ"):
        tune_delta(corpus, tfidf, gold, rng.normal(size=(len(ids) - 1, 6)), ids[1:])


@pytest.mark.parametrize("with_ids", [False, True], ids=["corpus_order", "mention_ids"])
@pytest.mark.parametrize("as_unit_rows", [False, True], ids=["array", "unit_rows"])
@pytest.mark.parametrize("extra", [-2, 2], ids=["fewer", "more"])
def test_tune_delta_refuses_a_wrong_embedding_row_count(rng, extra, as_unit_rows, with_ids):
    tfidf, corpus = synthetic_lemma_split()
    ids = [m.id for m in corpus.mentions()]
    embeddings = rng.normal(size=(len(ids) + extra, 6))
    if as_unit_rows:
        embeddings = unit_rows(embeddings)
    with pytest.raises(IntegrityError, match=f"^{len(ids) + extra} embedding rows for {len(ids)} mentions$"):
        tune_delta(corpus, tfidf, gold_clustering(corpus), embeddings, ids if with_ids else None)


@pytest.mark.parametrize("with_embeddings", [False, True])
def test_tune_delta_tie_over_one_partition_takes_largest_delta(rng, with_embeddings):
    corpus = lemma_corpus()
    # every cross-document cosine is 0.0 (see above), so no delta in [0, 1]
    # changes the partition and all 100 deltas tie
    tfidf = fit_tfidf(corpus_from_docs([("x1", "9", toks("other"), []), ("x2", "9", toks("words"), [])]))
    ids = [m.id for m in corpus.mentions()]
    gold = Clustering.from_sets([{"m1", "m2", "m4", "m5"}, {"m3"}])
    emb = rng.normal(size=(len(ids), 4)) if with_embeddings else None
    init = lemma_delta_init(corpus, tfidf, 1.0)
    expected = tune_tau(emb, ids, gold, init=init) if with_embeddings else (None, score_b3(gold, init).f1)
    assert tune_delta(corpus, tfidf, gold, emb, ids) == (1.0, *expected)


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


def brute_force_tau_search(sims, gold_labels, seed):
    """The two-pass grid search of `tune_tau` with each of its 40 cuts
    clustered by a merge run of its own and scored from scratch: the best
    (tau, B3 F1), larger tau on ties, and the distinct partitions cut."""

    def evaluate(tau):
        parts = agglomerate_indices(sims, float(tau), seed)
        labels = np.empty(len(sims), dtype=np.int64)
        for number, part in enumerate(parts):  # numbered by smallest member
            labels[list(part)] = number
        score = clustering.Contingency.from_labels(gold_labels, labels).b3().f1
        return score, frozenset(map(frozenset, parts))

    size = clustering.TAU_GRID_SIZE
    grid1 = np.linspace(0.0, 1.0, size)
    cuts1 = [evaluate(t) for t in grid1]
    best1 = max(range(size), key=lambda i: (cuts1[i][0], grid1[i]))
    lo = grid1[best1 - 1] if best1 > 0 else 0.0
    hi = grid1[best1 + 1] if best1 < size - 1 else 1.0
    grid2 = np.linspace(lo, hi, size)
    taus, cuts = np.concatenate([grid1, grid2]), cuts1 + [evaluate(t) for t in grid2]
    best = max(range(len(taus)), key=lambda i: (cuts[i][0], taus[i]))
    return (float(taus[best]), float(cuts[best][0])), {part for _, part in cuts}


@pytest.mark.parametrize("seeded", [False, True], ids=["unseeded", "seeded"])
@pytest.mark.parametrize("quantized", [False, True], ids=["random", "quantized"])
def test_tune_tau_matches_brute_force_grid_and_scores_each_partition_once(
    rng, monkeypatch, seeded, quantized
):
    # 0/1 embeddings give few cosine values (zero rows give 0 to every row,
    # equal rows 1.0), so whole levels tie and many cuts give one partition
    calls = []
    table = clustering.Contingency.from_labels

    def counted(gold_labels, labels):
        calls.append(1)
        return table(gold_labels, labels)

    for _ in range(15):
        n = int(rng.integers(2, 40))
        ids = [f"m{i}" for i in range(n)]
        if quantized:
            emb = rng.integers(0, 2, size=(n, 3)).astype(float)
        else:
            emb = rng.normal(size=(n, 4))
        gold = Clustering.from_labels(ids, rng.integers(0, max(1, n // 3), size=n).tolist())
        seed = rng.integers(0, max(1, n // 2), size=n) if seeded else None
        init = None if seed is None else Clustering.from_labels(ids, seed.tolist())
        expected, partitions = brute_force_tau_search(
            cosine_similarity_matrix(emb), gold.labels(ids), None if init is None else init.labels(ids)
        )
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(clustering.Contingency, "from_labels", staticmethod(counted))
            assert tune_tau(emb, ids, gold, init=init) == expected
        assert len(calls) == len(partitions)


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


def test_chain_line_repeating_a_mention_is_a_parse_error(tmp_path):
    path = tmp_path / "sys.chains"
    path.write_text("# tau=0.5\na\tb\nc\td\tc\n")
    with pytest.raises(ParseError, match="repeats") as err:
        read_chains(path)
    assert err.value.line_no == 3
