"""The comparative features go COMPARE_BLOCK rows at a time, and each
document's means come from its own mentions: equal bit for bit to the
whole-matrix form whatever the split size and row order, in memory linear
in it."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from evcoref import features
from evcoref.features import COMPARE_BLOCK, MentionView, comparative_features
from oracles import whole_matrix_comparative

VOCAB = ["strike", "hit", "quake", "fire", "the", "a", "storm"]


def topic_views(rng, topic: str, n: int) -> list[MentionView]:
    """n mentions of one topic in documents of 1-9 mentions; each span
    draws 0-4 tokens (empty bags and counts up to 4) from a small vocabulary,
    its words sometimes capitalised so words and lemmas differ."""
    views: list[MentionView] = []
    while len(views) < n:
        size = min(int(rng.integers(1, 10)), n - len(views))
        doc = f"{topic}d{len(views)}"
        for rank in range(1, size + 1):
            lemmas = [VOCAB[i] for i in rng.integers(0, len(VOCAB), size=rng.integers(0, 5))]
            words = [w.title() if rng.random() < 0.3 else w for w in lemmas]
            views.append(MentionView(
                mention_id=f"{doc}m{rank}", doc_id=doc, topic_id=topic,
                words=tuple(words), lemmas=tuple(lemmas), rank=rank, n_in_doc=size,
            ))
    return views


def arrange(rng, views: list[MentionView], layout: str) -> list[MentionView]:
    """`views` as `layout` has them: "corpus" as they are, "shuffled" in a
    seeded random order (so a document's mentions lie apart), "lone-docs"
    with every mention a document of its own, "lone-topic" after a
    one-mention topic."""
    if layout == "shuffled":
        return [views[i] for i in rng.permutation(len(views))]
    if layout == "lone-docs":
        return [replace(v, doc_id=v.mention_id, rank=1, n_in_doc=1) for v in views]
    if layout == "lone-topic":
        return topic_views(rng, "0", 1) + views
    return views


# every size in corpus order, and the two-block size in the other layouts
CASES = [pytest.param(size, "corpus", id=str(size))
         for size in (1, COMPARE_BLOCK - 1, COMPARE_BLOCK + 1, 2 * COMPARE_BLOCK + 37)]
CASES += [pytest.param(2 * COMPARE_BLOCK + 37, layout, id=f"{2 * COMPARE_BLOCK + 37}-{layout}")
          for layout in ("shuffled", "lone-docs", "lone-topic")]


@pytest.mark.parametrize("size, layout", CASES)
def test_global_pool_matches_the_whole_matrix_form(rng, size, layout):
    # the pool group is the whole split, spread over three topics
    views = [v for t, n in (("1", size // 2), ("2", size - size // 2 - size // 3), ("3", size // 3))
             for v in topic_views(rng, t, n)]
    assert len(views) == size
    views = arrange(rng, views, layout)
    got = comparative_features(views, "global")
    assert got.tobytes() == whole_matrix_comparative(views, "global").tobytes()


@pytest.mark.parametrize("size, layout", CASES)
def test_topic_pool_matches_the_whole_matrix_form(rng, size, layout):
    # one topic group of `size` mentions beside a small one, interleaved by document
    big, small = topic_views(rng, "1", size), topic_views(rng, "2", 5)
    views = arrange(rng, small[:2] + big + small[2:], layout)
    got = comparative_features(views, "topic")
    assert got.tobytes() == whole_matrix_comparative(views, "topic").tobytes()


@pytest.mark.parametrize("pool", ["global", "topic"])
def test_document_means_take_only_the_documents_own_mentions(monkeypatch, pool):
    # mention i's bags repeat one token i + 1 times, so a call's row sums
    # name the mentions it was given; topics 1 and 2 interleave by document,
    # and a document of topic 1 has one mention
    docs = [("1", "a", 3), ("2", "b", 2), ("1", "c", 1), ("3", "d", 4), ("2", "e", 3)]
    views = []
    for topic, doc, size in docs:
        for rank in range(1, size + 1):
            bag = ("strike",) * (len(views) + 1)
            views.append(MentionView(
                mention_id=f"{doc}{rank}", doc_id=doc, topic_id=topic,
                words=tuple(w.title() for w in bag), lemmas=bag, rank=rank, n_in_doc=size,
            ))
    calls, real = [], features._mean_overlap

    def spy(counts):
        calls.append(tuple(counts.sum(axis=1) - 1))
        return real(counts)

    monkeypatch.setattr(features, "_mean_overlap", spy)
    comparative_features(views, pool)
    members = lambda key: tuple(float(i) for i, v in enumerate(views) if key(v))
    groups = [members(lambda v: pool == "global" or v.topic_id == t) for t in ("1", "2", "3")]
    expected = sorted(set(groups)) + [members(lambda v: v.doc_id == d) for _, d, _ in docs]
    # one call per pool group and one per document, for words and for lemmas
    assert sorted(calls) == sorted(2 * expected)


def test_memory_grows_linearly_in_the_split_size(rng):
    peaks = {}
    for n in (1500, 3000):
        views = topic_views(rng, "1", n)
        tracemalloc.start()
        try:
            comparative_features(views, "global")
            _, peaks[n] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a few B x n scratch arrays; one n x n float64 matrix alone is
        # n * n * 8 bytes, above this bound for n > 8 * COMPARE_BLOCK
        assert peaks[n] < 64 * COMPARE_BLOCK * n, (n, peaks[n])
    assert peaks[3000] < 2.5 * peaks[1500], peaks
