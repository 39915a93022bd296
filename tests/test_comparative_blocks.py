"""The comparative features go COMPARE_BLOCK rows at a time: equal bit for
bit to the whole-matrix form whatever the split size, in memory linear in it."""

import tracemalloc

import numpy as np
import pytest

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


@pytest.mark.parametrize("size", [1, COMPARE_BLOCK - 1, COMPARE_BLOCK + 1, 2 * COMPARE_BLOCK + 37])
def test_global_pool_matches_the_whole_matrix_form(rng, size):
    # the pool group is the whole split, spread over three topics
    views = [v for t, n in (("1", size // 2), ("2", size - size // 2 - size // 3), ("3", size // 3))
             for v in topic_views(rng, t, n)]
    assert len(views) == size
    got = comparative_features(views, "global")
    assert got.tobytes() == whole_matrix_comparative(views, "global").tobytes()


@pytest.mark.parametrize("size", [1, COMPARE_BLOCK - 1, COMPARE_BLOCK + 1, 2 * COMPARE_BLOCK + 37])
def test_topic_pool_matches_the_whole_matrix_form(rng, size):
    # one topic group of `size` mentions beside a small one, interleaved by document
    big, small = topic_views(rng, "1", size), topic_views(rng, "2", 5)
    views = small[:2] + big + small[2:]
    got = comparative_features(views, "topic")
    assert got.tobytes() == whole_matrix_comparative(views, "topic").tobytes()


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
