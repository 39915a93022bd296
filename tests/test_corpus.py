import pytest

from conftest import corpus_from_docs, toks
from evcoref.corpus import (
    Clustering,
    ecbplus_default_split,
    gold_clustering,
    load_corpus,
    loads_corpus,
    split_by_topics,
)
from evcoref.errors import ConfigError, IntegrityError, ParseError
from evcoref.train import class_labels
from oracles import save_corpus


def test_minimal_wellformed_corpus():
    corpus = loads_corpus(
        "DOC\td1\t1\n"
        "TOK\t0\t0\tStorm\tstorm\n"
        "TOK\t1\t0\thit\thit\n"
        "MEN\tm1\tc1\t1\n"
    )
    assert len(corpus.documents) == 1
    doc = corpus.documents[0]
    assert [t.word for t in doc.tokens] == ["Storm", "hit"]
    assert len(doc.mentions) == 1
    assert doc.mentions[0].token_indices == (1,)


def test_mention_referencing_missing_token_is_integrity_error():
    text = (
        "DOC\td1\t1\n"
        "TOK\t0\t0\ta\ta\nTOK\t1\t0\tb\tb\nTOK\t2\t0\tc\tc\n"
        "MEN\tm1\tc1\t99\n"
    )
    with pytest.raises(IntegrityError, match="99"):
        loads_corpus(text)


def test_parse_error_names_line_number():
    with pytest.raises(ParseError, match=":2:"):
        loads_corpus("DOC\td1\t1\nTOK\t0\t0\n")


@pytest.mark.parametrize("mention_id", ["#m1", "#", " "])
def test_blank_or_comment_like_mention_id_is_parse_error(mention_id):
    text = "DOC\td1\t1\nTOK\t0\t0\ta\ta\nMEN\tm0\tc1\t0\n" f"MEN\t{mention_id}\tc1\t0\n"
    with pytest.raises(ParseError, match=":4: mention id .* is blank or starts with '#'"):
        loads_corpus(text)


def test_token_and_mention_before_doc_rejected():
    with pytest.raises(ParseError, match="before any DOC"):
        loads_corpus("TOK\t0\t0\ta\ta\n")
    with pytest.raises(ParseError, match="before any DOC"):
        loads_corpus("MEN\tm1\tc1\t0\n")


def test_noncontiguous_token_indices_rejected():
    with pytest.raises(IntegrityError, match="contiguous"):
        loads_corpus("DOC\td1\t1\nTOK\t0\t0\ta\ta\nTOK\t2\t0\tb\tb\n")


def test_duplicate_mention_id_rejected():
    text = (
        "DOC\td1\t1\nTOK\t0\t0\ta\ta\nMEN\tm1\tc1\t0\n"
        "DOC\td2\t1\nTOK\t0\t0\tb\tb\nMEN\tm1\tc2\t0\n"
    )
    with pytest.raises(IntegrityError, match="duplicate mention"):
        loads_corpus(text)


def test_descending_mention_indices_rejected():
    with pytest.raises(ParseError, match="ascending"):
        loads_corpus("DOC\td1\t1\nTOK\t0\t0\ta\ta\nTOK\t1\t0\tb\tb\nMEN\tm1\tc1\t1,0\n")


def test_mentions_sorted_by_first_token():
    corpus = corpus_from_docs(
        [
            (
                "d1",
                "1",
                toks("a", "b", "c"),
                [("m2", "c1", (2,)), ("m1", "c2", (0,))],
            )
        ]
    )
    assert [m.id for m in corpus.documents[0].mentions] == ["m1", "m2"]


def test_comments_and_blank_lines_skipped():
    corpus = loads_corpus("# header\n\nDOC\td1\t1\n# note\nTOK\t0\t0\ta\ta\n")
    assert len(corpus.documents[0].tokens) == 1


def test_roundtrip_through_file(tmp_path, rng):
    docs = []
    for d in range(6):
        n_tok = int(rng.integers(2, 9))
        tokens = [(f"w{rng.integers(5)}", f"l{rng.integers(4)}", int(i // 3)) for i in range(n_tok)]
        mentions = []
        for k in range(int(rng.integers(0, 3))):
            start = int(rng.integers(0, n_tok))
            span = tuple(range(start, min(n_tok, start + int(rng.integers(1, 3)))))
            mentions.append((f"d{d}m{k}", f"ch{rng.integers(3)}", span))
        docs.append((f"doc{d}", str(d % 3), tokens, mentions))
    corpus = corpus_from_docs(docs)
    path = tmp_path / "corpus.tsv"
    save_corpus(corpus, path)
    assert load_corpus(path) == corpus


def test_split_by_topics_basic():
    corpus = corpus_from_docs(
        [
            ("d1", "1", toks("a"), []),
            ("d2", "2", toks("b"), []),
        ]
    )
    train, val, test = split_by_topics(corpus, {"1"}, set(), {"2"})
    assert [d.doc_id for d in train.documents] == ["d1"]
    assert [d.doc_id for d in test.documents] == ["d2"]
    assert val.documents == ()


def test_split_drops_unlisted_topics():
    corpus = corpus_from_docs(
        [("d1", "1", toks("a"), []), ("d9", "9", toks("b"), [])]
    )
    train, _, test = split_by_topics(corpus, {"1"}, set(), {"2"})
    assert len(train.documents) == 1 and len(test.documents) == 0


def test_split_overlap_is_config_error():
    corpus = corpus_from_docs([("d1", "3", toks("a"), [])])
    with pytest.raises(ConfigError, match="overlap"):
        split_by_topics(corpus, {"3"}, set(), {"3"})


def test_default_ecbplus_split():
    train, val, test = ecbplus_default_split()
    assert val == {"2", "5", "12", "18", "21", "23", "34", "35"}
    assert len(val) == 8
    assert train == {str(t) for t in range(1, 36)} - val
    assert test == {str(t) for t in range(36, 46)}
    assert not (train & val) and not (train & test) and not (val & test)


def _label_corpus(chains):
    """chains: {chain_id: n_mentions} on single-token docs."""
    docs = []
    i = 0
    for chain, n in chains.items():
        for _ in range(n):
            docs.append((f"d{i}", "1", toks("w"), [(f"m{i}", chain, (0,))]))
            i += 1
    return corpus_from_docs(docs)


def _class_labels(corpus):
    """The training label scheme: the classes the train stage builds from
    the split's chain ids (`train.class_labels`)."""
    labels, n_classes = class_labels(m.gold_chain for m in corpus.mentions())
    return labels.tolist(), n_classes


def test_label_scheme_one_multi_chain():
    labels, n_classes = _class_labels(_label_corpus({"a": 2, "b": 1}))
    assert n_classes == 2
    assert labels == [0, 0, 1]


def test_label_scheme_all_singletons():
    labels, n_classes = _class_labels(_label_corpus({"a": 1, "b": 1, "c": 1}))
    assert n_classes == 1
    assert set(labels) == {0}


def test_label_scheme_two_multi_one_singleton():
    # enumerating chains by size: a and b are classes, the c singleton merges
    labels, n_classes = _class_labels(_label_corpus({"a": 2, "b": 2, "c": 1}))
    assert n_classes == 3
    assert labels[-1:] == [2]
    assert labels[:2] == [0, 0]
    assert labels[2:4] == [1, 1]


def test_label_scheme_sorted_by_chain_id():
    labels, _ = _class_labels(_label_corpus({"zz": 2, "aa": 2}))
    assert labels == [1, 1, 0, 0]


def test_label_scheme_follows_code_point_order():
    labels, n_classes = class_labels(["é", "a", "Z", "é", "a", "Z"])
    assert n_classes == 4
    assert labels.tolist() == [2, 1, 0, 2, 1, 0]


def test_label_scheme_class_count_property(rng):
    for _ in range(25):
        chains = {f"c{k}": int(rng.integers(1, 5)) for k in range(int(rng.integers(1, 8)))}
        _, n_classes = _class_labels(_label_corpus(chains))
        multi = sum(1 for n in chains.values() if n >= 2)
        assert n_classes == multi + 1


def test_label_scheme_empty_corpus_rejected():
    corpus = corpus_from_docs([("d1", "1", toks("a"), [])])
    with pytest.raises(IntegrityError):
        _class_labels(corpus)


def test_gold_clustering_groups_by_chain():
    corpus = _label_corpus({"a": 2, "b": 1})
    clustering = gold_clustering(corpus)
    sizes = sorted(len(c) for c in clustering.chains)
    assert sizes == [1, 2]


def test_gold_clustering_empty():
    corpus = corpus_from_docs([("d1", "1", toks("a"), [])])
    assert gold_clustering(corpus).chains == ()


def test_gold_clustering_partitions_mention_set(rng):
    for _ in range(20):
        chains = {f"c{k}": int(rng.integers(1, 4)) for k in range(int(rng.integers(1, 6)))}
        corpus = _label_corpus(chains)
        clustering = gold_clustering(corpus)
        ids = [m.id for m in corpus.mentions()]
        assert clustering.mention_ids() == frozenset(ids)
        assert sum(len(c) for c in clustering.chains) == len(ids)


def test_from_labels_keeps_chain_ids_apart_that_differ_in_trailing_nuls():
    clustering = Clustering.from_labels(["m1", "m2", "m3"], ["a", "a\x00", "a"])
    assert clustering.chains == (frozenset({"m1", "m3"}), frozenset({"m2"}))


def test_clustering_rejects_overlap():
    with pytest.raises(IntegrityError, match="overlap"):
        Clustering.from_sets([{"a", "b"}, {"b", "c"}])


def test_clustering_rejects_empty_chain():
    with pytest.raises(IntegrityError, match="empty"):
        Clustering.from_sets([set()])
