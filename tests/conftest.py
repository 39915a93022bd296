import numpy as np
import pytest

from evcoref.corpus import loads_corpus
from evcoref.network import forward, init_params, make_dropout_masks


def corpus_from_docs(docs):
    """Build a corpus from [(doc_id, topic, [(word, lemma, sent), ...],
    [(mention_id, chain, (idx, ...)), ...]), ...]."""
    lines = []
    for doc_id, topic, tokens, mentions in docs:
        lines.append(f"DOC\t{doc_id}\t{topic}")
        for i, (word, lemma, sent) in enumerate(tokens):
            lines.append(f"TOK\t{i}\t{sent}\t{word}\t{lemma}")
        for mention_id, chain, indices in mentions:
            idx = ",".join(str(i) for i in indices)
            lines.append(f"MEN\t{mention_id}\t{chain}\t{idx}")
    return loads_corpus("\n".join(lines) + "\n")


def toks(*words, sent=0):
    return [(w, w.lower(), sent) for w in words]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_partition(rng, mentions, max_chains):
    """Random chain assignment over the given mention ids."""
    k = int(rng.integers(1, max_chains + 1))
    labels = rng.integers(0, k, size=len(mentions))
    chains = {}
    for m, lab in zip(mentions, labels):
        chains.setdefault(int(lab), set()).add(m)
    return [frozenset(c) for c in chains.values()]


def gradcheck_case(rng, d=5, h1=4, he=3, h3=4, k=3, n=6, dropout=None):
    """Sample a network/batch configuration at a differentiable point.

    Finite differences are only meaningful away from the ReLU kinks and the
    zero-norm cosine singularity, so resample until every pre-activation is
    at least 1e-4 from zero and every embedding row has norm above 1e-2;
    biases get random values since zero biases park dead samples exactly on
    the kink.
    """
    while True:
        params = init_params(rng, d, k, hidden1=h1, embed=he, hidden3=h3)
        for b in (params.b1, params.b2, params.b3, params.b4):
            b[:] = rng.normal(0.0, 0.3, size=b.shape)
        x = rng.normal(size=(n, d))
        labels = rng.integers(0, k, size=n)
        codes = rng.integers(0, max(2, k), size=n)
        if len(np.unique(codes)) < 2 or np.bincount(codes).max() < 2:
            continue
        masks = make_dropout_masks(rng, n, params.dims, dropout) if dropout else None
        mode = "train" if masks is not None else "infer"
        cache = forward(params, x, mode=mode, masks=masks, dropout=dropout or 0.25)
        pre_acts = np.concatenate([
            (x @ params.w1 + params.b1).ravel(),
            (cache.d1 @ params.w2 + params.b2).ravel(),
            (cache.d2 @ params.w3 + params.b3).ravel(),
        ])
        norms = np.linalg.norm(cache.embeddings, axis=1)
        if np.abs(pre_acts).min() > 1e-4 and norms.min() > 1e-2:
            return params, x, labels, codes, masks
