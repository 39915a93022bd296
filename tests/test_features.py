import math
import tracemalloc

import numpy as np
import pytest

from conftest import corpus_from_docs, toks
from evcoref.corpus import loads_corpus, split_by_topics
from evcoref.errors import IntegrityError, ParseError
from evcoref.matio import MatrixWriter, write_matrix
from evcoref.features import (
    LEMMA_OOV_SLOT,
    LEMMA_VOCAB_SIZE,
    MentionView,
    WordVectors,
    build_lemma_vocab,
    comparative_features,
    contextual_features,
    doc_features,
    extract_split,
    feature_dim,
    fit_feature_models,
    fit_pca,
    fit_tfidf,
    load_word_vectors,
)
from oracles import comparative_block
from synthcorpus import band_topic_sets, generate


def wv_table(entries, dim):
    return WordVectors(dimension=dim, table={w: np.array(v, float) for w, v in entries.items()})


# ---------------------------------------------------------------------------
# Word-vector file loading
# ---------------------------------------------------------------------------


def test_load_vectors_with_header(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("2 3\ncat 1 2 3\ndog 4 5 6\n")
    wv = load_word_vectors(path)
    assert wv.dimension == 3
    assert np.array_equal(wv.lookup("cat"), [1, 2, 3])


def test_load_vectors_without_header(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("cat 1 2 3\ndog 4 5 6\n")
    wv = load_word_vectors(path)
    assert wv.dimension == 3 and len(wv.table) == 2


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("5 4\ncat 1 2 3\ndog 4 5 6\n", 2, "vector length 3 != 4 from the header"),
        ("2 3\ncat 1 2 3\ndog 4 5\n", 3, "vector length 2 != 3 from the header"),
        ("5 3\ncat 1 2 3\ndog 4 5 6\n", 1, "header count 5 != the file's 2 entries"),
        ("1 3\ncat 1 2 3\ncat 4 5 6\n", 1, "header count 1 != the file's 2 entries"),
    ],
    ids=["dim", "dim-of-a-later-entry", "count", "count-with-a-repeated-word"],
)
def test_load_vectors_refuses_entries_disagreeing_with_the_header(tmp_path, text, line, message):
    path = tmp_path / "vecs.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=message) as err:
        load_word_vectors(path)
    assert err.value.line_no == line


def test_load_vectors_dimension_mismatch(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("cat 1 2 3\ndog 4 5\n")
    with pytest.raises(ParseError, match=":2:"):
        load_word_vectors(path)


def test_lookup_falls_back_to_lowercase():
    wv = wv_table({"cat": [1.0]}, 1)
    assert wv.lookup("Cat")[0] == 1.0
    assert wv.lookup("horse") is None


# ---------------------------------------------------------------------------
# Lemma vocabulary
# ---------------------------------------------------------------------------


def test_vocab_small_corpus_keeps_oov_slot():
    corpus = corpus_from_docs([("d1", "1", toks("a", "b", "c"), [])])
    vocab = build_lemma_vocab(corpus)
    assert len(vocab.index_of) == 3
    assert vocab.slot("zzz") == LEMMA_OOV_SLOT


def test_vocab_frequency_ties_break_lexicographically():
    corpus = corpus_from_docs([("d1", "1", toks("b", "a", "b", "a", "c"), [])])
    vocab = build_lemma_vocab(corpus)
    assert vocab.slot("a") == 0  # a and b tie at 2, a sorts first
    assert vocab.slot("b") == 1
    assert vocab.slot("c") == 2


def test_vocab_caps_at_499(rng):
    tokens = [(f"w{i}", f"l{i}", 0) for i in range(600)]
    docs = [("d1", "1", [(w, l, s) for (w, l, s) in tokens[:300]], []),
            ("d2", "1", [(w, l, s) for (w, l, s) in tokens[300:]], [])]
    # contiguity: rebuild token index per doc via corpus_from_docs
    corpus = corpus_from_docs(docs)
    vocab = build_lemma_vocab(corpus)
    assert len(vocab.index_of) == LEMMA_OOV_SLOT
    assert max(vocab.index_of.values()) == LEMMA_OOV_SLOT - 1


# ---------------------------------------------------------------------------
# Contextual blocks
# ---------------------------------------------------------------------------

E = 4
BLOCK = E + LEMMA_VOCAB_SIZE


def block(vec, i):
    return vec[i * BLOCK : (i + 1) * BLOCK]


def simple_doc():
    words = ["Alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    return corpus_from_docs(
        [("d1", "1", toks(*words), [("m1", "c1", (0,)), ("m2", "c2", (4, 5))])]
    ).documents[0]


def test_mention_at_document_start_has_zero_preceding_blocks():
    doc = simple_doc()
    wv = wv_table({w.lower(): [1.0, 2.0, 3.0, 4.0] for w in "abgdez"}, E)
    corpus = corpus_from_docs([("dv", "1", toks(*[t.word for t in doc.tokens]), [])])
    vocab = build_lemma_vocab(corpus)
    vec = contextual_features(doc.mentions[0], doc, wv, vocab)
    assert np.all(block(vec, 3) == 0.0)  # two preceding
    assert np.all(block(vec, 5) == 0.0)  # five preceding
    assert np.any(block(vec, 4) != 0.0)  # two following is populated


def test_first_token_block_is_exact_word_vector():
    doc = simple_doc()
    wv = wv_table({"epsilon": [1.0, -1.0, 2.0, 0.5], "zeta": [0.0, 1.0, 0.0, 0.0]}, E)
    vocab = build_lemma_vocab(corpus_from_docs([("dv", "1", toks("x"), [])]))
    vec = contextual_features(doc.mentions[1], doc, wv, vocab)
    assert np.array_equal(block(vec, 0)[:E], [1.0, -1.0, 2.0, 0.5])
    assert np.array_equal(block(vec, 1)[:E], [0.0, 1.0, 0.0, 0.0])
    # whole-span mean word vector
    assert np.allclose(block(vec, 2)[:E], [0.5, 0.0, 1.0, 0.25])


def test_repeated_lemma_counts_twice_in_span_block():
    corpus = corpus_from_docs(
        [("d1", "1", [("run", "run", 0), ("Run", "run", 0)], [("m1", "c1", (0, 1))])]
    )
    doc = corpus.documents[0]
    vocab = build_lemma_vocab(corpus)
    wv = wv_table({}, E)
    vec = contextual_features(doc.mentions[0], doc, wv, vocab)
    lemma_block = block(vec, 2)[E:]
    assert lemma_block[vocab.slot("run")] == 2.0
    assert lemma_block.sum() == 2.0


def test_oov_lemma_hits_slot_499():
    doc = simple_doc()
    vocab = build_lemma_vocab(corpus_from_docs([("dv", "1", toks("other"), [])]))
    vec = contextual_features(doc.mentions[0], doc, wv_table({}, E), vocab)
    assert block(vec, 0)[E + LEMMA_OOV_SLOT] == 1.0


def test_oov_words_dilute_the_mean():
    # two-token span, one word known: mean divides by 2 regardless
    corpus = corpus_from_docs(
        [("d1", "1", [("known", "known", 0), ("miss", "miss", 0)], [("m1", "c1", (0, 1))])]
    )
    doc = corpus.documents[0]
    wv = wv_table({"known": [2.0, 2.0, 2.0, 2.0]}, E)
    vocab = build_lemma_vocab(corpus)
    vec = contextual_features(doc.mentions[0], doc, wv, vocab)
    assert np.allclose(block(vec, 2)[:E], [1.0, 1.0, 1.0, 1.0])


def test_sentence_block_spans_only_own_sentence():
    tokens = [("a", "a", 0), ("b", "b", 0), ("c", "c", 1), ("d", "d", 1)]
    corpus = corpus_from_docs([("d1", "1", tokens, [("m1", "c1", (2,))])])
    doc = corpus.documents[0]
    vocab = build_lemma_vocab(corpus)
    vec = contextual_features(doc.mentions[0], doc, wv_table({}, E), vocab)
    sent = block(vec, 7)[E:]
    assert sent.sum() == 2.0  # c and d only
    assert sent[vocab.slot("c")] == 1.0 and sent[vocab.slot("d")] == 1.0


def test_lemma_blocks_are_counts_matching_set_sizes(rng):
    doc = simple_doc()
    vocab = build_lemma_vocab(corpus_from_docs([("dv", "1", toks("x"), [])]))
    for mention in doc.mentions:
        vec = contextual_features(mention, doc, wv_table({}, E), vocab)
        first, last = mention.first_index, mention.last_index
        n = len(doc.tokens)
        sizes = [
            1,
            1,
            len(mention.token_indices),
            len(range(max(0, first - 2), first)),
            len(range(last + 1, min(n, last + 3))),
            len(range(max(0, first - 5), first)),
            len(range(last + 1, min(n, last + 6))),
            sum(1 for t in doc.tokens if t.sentence_id == doc.tokens[first].sentence_id),
        ]
        for i, size in enumerate(sizes):
            lemma_block = block(vec, i)[E:]
            assert lemma_block.min() >= 0.0
            assert np.all(lemma_block == np.round(lemma_block))
            assert lemma_block.sum() == size


# ---------------------------------------------------------------------------
# TF-IDF
# ---------------------------------------------------------------------------


def test_idf_lemma_in_every_doc():
    corpus = corpus_from_docs(
        [(f"d{i}", "1", toks("shared", f"only{i}"), []) for i in range(4)]
    )
    model = fit_tfidf(corpus)
    col = model.lemma_index["shared"]
    assert model.idf[col] == pytest.approx(math.log(2.0))


def test_tf_single_occurrence_is_one():
    corpus = corpus_from_docs([("d1", "1", toks("once"), []), ("d2", "1", toks("other"), [])])
    model = fit_tfidf(corpus)
    vec = model.doc_vector(corpus.documents[0])
    col = model.lemma_index["once"]
    # TF = 1 + ln(1) = 1, entry = IDF alone
    assert vec[col] == pytest.approx(model.idf[col])


def test_tfidf_formula_f7_n10_nt2():
    docs = [("d0", "1", toks(*(["term"] * 7)), []), ("d1", "1", toks("term"), [])]
    docs += [(f"d{i}", "1", toks("filler"), []) for i in range(2, 10)]
    corpus = corpus_from_docs(docs)
    model = fit_tfidf(corpus)
    vec = model.doc_vector(corpus.documents[0])
    col = model.lemma_index["term"]
    assert vec[col] == pytest.approx((1 + math.log(7)) * math.log(6.0))


def test_unseen_lemmas_ignored_at_transform():
    corpus = corpus_from_docs([("d1", "1", toks("a"), []), ("d2", "1", toks("b"), [])])
    model = fit_tfidf(corpus)
    unseen = corpus_from_docs([("dx", "9", toks("novel"), [])]).documents[0]
    assert np.all(model.doc_vector(unseen) == 0.0)


def test_idf_all_positive(rng):
    corpus = corpus_from_docs(
        [(f"d{i}", "1", toks(*[f"w{rng.integers(6)}" for _ in range(5)]), []) for i in range(6)]
    )
    model = fit_tfidf(corpus)
    assert np.all(model.idf > 0.0)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


def test_pca_on_white_data_is_isometry(rng):
    x = rng.normal(size=(400, 100))
    model = fit_pca(x, n_components=100)
    a, b = x[0] - model.mean, x[1] - model.mean
    ta, tb = model.transform(x[0]), model.transform(x[1])
    assert np.linalg.norm(ta - tb) == pytest.approx(np.linalg.norm(a - b), rel=1e-9)


def test_pca_rank1_pads_with_zero_components(rng):
    direction = rng.normal(size=30)
    x = np.outer(rng.normal(size=10), direction)
    model = fit_pca(x, n_components=5)
    assert np.any(model.components[0] != 0.0)
    assert np.all(model.components[1:] == 0.0)
    # the one live component carries all variance
    centered = x - model.mean
    projected = centered @ model.components[0]
    assert projected @ projected == pytest.approx(np.sum(centered**2), rel=1e-9)


def test_pca_truncation_error_decreases(rng):
    x = rng.normal(size=(200, 500)) @ np.diag(np.linspace(2, 0.1, 500))

    def recon_error(k):
        model = fit_pca(x, n_components=k)
        centered = x - model.mean
        coords = centered @ model.components.T
        return float(np.sum((centered - coords @ model.components) ** 2))

    assert recon_error(100) <= recon_error(50) + 1e-9


def test_pca_components_orthonormal(rng):
    x = rng.normal(size=(50, 40))
    model = fit_pca(x, n_components=30)
    gram = model.components @ model.components.T
    assert np.allclose(gram, np.eye(30), atol=1e-10)


def test_pca_sign_convention(rng):
    x = rng.normal(size=(60, 20))
    model = fit_pca(x, n_components=10)
    for row in model.components:
        if np.any(row != 0.0):
            assert row[np.argmax(np.abs(row))] > 0.0


def test_pca_needs_two_docs():
    with pytest.raises(IntegrityError, match="the train split has 1"):
        fit_pca(np.ones((1, 4)))


def test_doc_features_composition(rng):
    corpus = corpus_from_docs(
        [(f"d{i}", "1", toks(*[f"w{rng.integers(8)}" for _ in range(6)]), []) for i in range(12)]
    )
    tfidf = fit_tfidf(corpus)
    matrix = np.stack([tfidf.doc_vector(d) for d in corpus.documents])
    pca = fit_pca(matrix)
    out = doc_features(corpus.documents[0], tfidf, pca)
    assert out.shape == (100,)
    # an empty document projects -mean
    empty = corpus_from_docs([("de", "9", toks("novel"), [])]).documents[0]
    assert np.allclose(doc_features(empty, tfidf, pca), pca.components @ (-pca.mean))
    # a document sitting exactly at the mean projects to zero
    mean_vec = pca.mean
    assert np.allclose(pca.components @ (mean_vec - pca.mean), 0.0)


# ---------------------------------------------------------------------------
# Positional and comparative entries
# ---------------------------------------------------------------------------


def view(mention_id, words, rank, n, doc="d1", topic="1"):
    return MentionView(
        mention_id=mention_id,
        doc_id=doc,
        topic_id=topic,
        words=tuple(words),
        lemmas=tuple(w.lower() for w in words),
        rank=rank,
        n_in_doc=n,
    )


def test_positional_third_of_five():
    views = [view(f"m{r}", ["hit"], rank=r, n=5) for r in range(1, 6)]
    vec = comparative_features(views, "global")[2]
    assert list(vec[:3]) == [0.0, 3 / 5, 0.0]


def test_sole_mention_position_and_empty_averages():
    for pool in ("global", "topic"):
        vec = comparative_features([view("m", ["hit"], rank=1, n=1)], pool)[0]
        assert list(vec[:3]) == [1.0, 1.0, 1.0]
        assert list(vec[3:]) == [0.0, 0.0, 0.0, 0.0]


def test_identical_multisets_overlap_one():
    def doc_w(a, b):
        return comparative_features([view("a", a, 1, 2), view("b", b, 2, 2)], "global")[0, 3]

    assert doc_w(["a", "b"], ["a", "b"]) == 1.0
    assert doc_w(["a"], ["b"]) == 0.0
    assert doc_w([], []) == 0.0
    # multiset, not set: repeated tokens count
    assert doc_w(["a", "a"], ["a"]) == pytest.approx(2 / 3)


def test_comparative_averages_exclude_self():
    a = view("a", ["hit"], rank=1, n=2)
    b = view("b", ["hit"], rank=2, n=2)
    c = view("c", ["miss"], rank=1, n=1, doc="d2")
    vec = comparative_features([a, b, c], "global")[0]
    assert vec[3] == 1.0  # word overlap with b only
    assert vec[5] == pytest.approx((1.0 + 0.0) / 2)  # pool: b and c


def random_views(rng, n_topics, docs_per_topic, max_mentions):
    """Views of a random split: documents of 1..max_mentions mentions whose
    spans draw 0-3 tokens (so counts up to 3) from a small vocabulary."""
    vocab = ["a", "b", "c", "d", "e"]
    views = []
    for t in range(n_topics):
        for d in range(int(rng.integers(1, docs_per_topic + 1))):
            n = int(rng.integers(1, max_mentions + 1))
            for rank in range(1, n + 1):
                words = [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(0, 4))]
                words = [w.upper() if rng.random() < 0.3 else w for w in words]
                views.append(view(f"t{t}d{d}m{rank}", words, rank, n, doc=f"t{t}d{d}", topic=str(t)))
    return views


@pytest.mark.parametrize("pool", ["global", "topic"])
def test_comparative_features_match_per_mention_oracle(rng, pool):
    shapes = [(1, 1, 1), (1, 1, 4), (3, 1, 1), (4, 3, 5), (6, 4, 7)]
    for n_topics, docs, mentions in shapes * 4:
        views = random_views(rng, n_topics, docs, mentions)
        # rank/n, Dice quotients and left-to-right means: equal bit for bit
        assert np.array_equal(comparative_features(views, pool), comparative_block(views, pool))


def test_comparative_features_reject_unknown_pool():
    with pytest.raises(ValueError, match="pool"):
        comparative_features([view("m", ["hit"], rank=1, n=1)], "corpus")


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def test_feature_dim_arithmetic():
    assert feature_dim(4) == 4139
    assert feature_dim(300) == 6507


def tiny_split(n_docs=3):
    docs = []
    for d in range(n_docs):
        docs.append(
            (
                f"d{d}",
                str(d % 2 + 1),
                toks("The", "storm", "hit", "the", "coast"),
                [(f"m{d}a", "c1", (1,)), (f"m{d}b", f"s{d}", (2,))],
            )
        )
    return corpus_from_docs(docs)


def make_models(corpus):
    wv = wv_table(
        {w: list(np.arange(E) + hash(w) % 5) for w in ["the", "storm", "hit", "coast"]},
        E,
    )
    return fit_feature_models(corpus, wv)


def test_extract_split_shape_and_determinism():
    corpus = tiny_split()
    models = make_models(corpus)
    x1, mentions1 = extract_split(corpus, models)
    x2, mentions2 = extract_split(corpus, models)
    assert x1.shape == (6, feature_dim(E))
    assert np.array_equal(x1, x2)
    assert [m.id for m in mentions1] == [m.id for m in mentions2]
    assert np.all(np.isfinite(x1))


def test_identical_mentions_identical_rows():
    corpus = tiny_split(n_docs=2)
    models = make_models(corpus)
    x, mentions = extract_split(corpus, models)
    # docs 0 and 1 differ only in topic/chain ids, not token content;
    # contextual blocks must agree exactly
    width = 8 * (E + LEMMA_VOCAB_SIZE)
    assert np.array_equal(x[0][:width], x[2][:width])


def test_topic_pool_changes_pool_entries_only():
    corpus = tiny_split(n_docs=3)
    models = make_models(corpus)
    x_global, _ = extract_split(corpus, models, pool="global")
    x_topic, _ = extract_split(corpus, models, pool="topic")
    assert x_global.shape == x_topic.shape
    # positions + same-doc entries identical, pool entries may differ
    assert np.array_equal(x_global[:, :-2], x_topic[:, :-2])
    assert not np.array_equal(x_global[:, -2:], x_topic[:, -2:])


@pytest.mark.parametrize("pool", ["global", "topic"])
def test_extract_split_writes_the_rows_it_returns(tmp_path, pool):
    corpus = tiny_split(n_docs=3)
    models = make_models(corpus)
    x, mentions = extract_split(corpus, models, pool=pool)
    with MatrixWriter(tmp_path / "x.mat", len(x), models.dim) as writer:
        out, streamed = extract_split(corpus, models, pool=pool, out=writer)
    assert out is writer and len(out) == len(x) and streamed == mentions
    write_matrix(tmp_path / "whole.mat", x)
    assert (tmp_path / "x.mat").read_bytes() == (tmp_path / "whole.mat").read_bytes()


def test_extract_split_peak_is_the_matrix_plus_pairwise_temporaries():
    bands = (2, 1, 6)
    text, vec_text, _ = generate(
        seed=1, band_topics=bands, docs_per_topic=5, mentions_per_doc=10, n_chains=72,
        wv_dim=E, n_signals=48,
    )
    train, _, test = split_by_topics(loads_corpus(text), *band_topic_sets(bands))
    entries = [line.split(" ") for line in vec_text.splitlines()[1:]]
    table = {word: [float(v) for v in vec] for word, *vec in entries}
    models = fit_feature_models(train, wv_table(table, E))
    for pool in ("global", "topic"):
        tracemalloc.start()
        try:
            x, mentions = extract_split(test, models, pool=pool)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = len(mentions)
        assert n == 300
        # one output matrix (no row list to stack) and a few n x n arrays
        assert peak < x.nbytes + 6 * n * n * 8
