"""Per-mention input vectors: contextual word/lemma blocks, document
TF-IDF+PCA features, and positional/comparative entries.

All models are fitted on the train split only and are immutable afterwards;
extraction is a pure function of (corpus, fitted models), so repeated runs
are byte-identical and mentions may be processed in parallel.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Document, Mention, _text_lines
from .errors import IntegrityError, ParseError

LEMMA_VOCAB_SIZE = 500
LEMMA_OOV_SLOT = 499
PCA_DIM = 100
N_POSITIONAL = 3
N_COMPARATIVE = 4
COMPARE_BLOCK = 128  # rows per pass of the comparative features' B x n Dice scratch


def feature_dim(embedding_dim: int) -> int:
    return 8 * (embedding_dim + LEMMA_VOCAB_SIZE) + PCA_DIM + N_POSITIONAL + N_COMPARATIVE


# ---------------------------------------------------------------------------
# Word vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WordVectors:
    dimension: int
    table: dict

    def lookup(self, word: str):
        """Exact match first, then lowercase; None when out of vocabulary."""
        vec = self.table.get(word)
        if vec is None:
            vec = self.table.get(word.lower())
        return vec


def load_word_vectors(path) -> WordVectors:
    """Read a text vector file: one `word v1 ... vE` entry per line, with an
    optional `count dim` header (auto-detected). First entry wins on
    duplicate words. A nan or inf component is refused with its line. An
    entry whose length is not the header's dim, or else not the first
    entry's, is refused with its line, and a header whose count is not the
    number of entries with line 1."""
    table: dict = {}
    header = dim = None
    entries = 0
    for line_no, raw in _text_lines(path):
        parts = raw.rstrip("\n").split(" ")
        parts = [p for p in parts if p]
        if not parts:
            continue
        if line_no == 1 and len(parts) == 2:
            try:
                header = int(parts[0]), int(parts[1])
                dim = header[1]
                continue
            except ValueError:
                pass
        word = parts[0]
        try:
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError:
            raise ParseError(path, line_no, "non-numeric vector component")
        if vec.size == 0:
            raise ParseError(path, line_no, "entry has no vector components")
        if not np.isfinite(vec).all():
            raise ParseError(path, line_no, "non-finite vector component")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            source = "the header" if header else "first entry"
            raise ParseError(path, line_no, f"vector length {vec.size} != {dim} from {source}")
        entries += 1
        if word not in table:
            table[word] = vec
    if not entries:
        raise ParseError(path, 1, "empty word-vector file")
    if header and header[0] != entries:
        raise ParseError(path, 1, f"header count {header[0]} != the file's {entries} entries")
    return WordVectors(dimension=int(dim), table=table)


# ---------------------------------------------------------------------------
# Lemma vocabulary (499 most frequent train lemmas + OOV bucket)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaVocab:
    index_of: dict

    def slot(self, lemma: str) -> int:
        return self.index_of.get(lemma, LEMMA_OOV_SLOT)


def build_lemma_vocab(train: Corpus) -> LemmaVocab:
    counts = Counter()
    for doc in train.documents:
        counts.update(t.lemma for t in doc.tokens)
    # frequency ties break lexicographically
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    index_of = {lemma: i for i, (lemma, _) in enumerate(ranked[: LEMMA_OOV_SLOT])}
    return LemmaVocab(index_of=index_of)


# ---------------------------------------------------------------------------
# Document features: lemma TF-IDF compressed by PCA
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TfidfModel:
    lemma_index: dict
    idf: np.ndarray

    @property
    def n_terms(self) -> int:
        return len(self.lemma_index)

    def doc_vector(self, doc: Document) -> np.ndarray:
        """TF-IDF vector over the train lemma vocabulary; unseen lemmas are
        ignored. TF uses log normalization, 1 + ln(f)."""
        vec = np.zeros(self.n_terms)
        counts = Counter(t.lemma for t in doc.tokens)
        for lemma, f in counts.items():
            col = self.lemma_index.get(lemma)
            if col is not None:
                vec[col] = (1.0 + np.log(f)) * self.idf[col]
        return vec


def fit_tfidf(train: Corpus) -> TfidfModel:
    if not train.documents:
        raise IntegrityError("the train split has no documents to fit TF-IDF on")
    doc_freq = Counter()
    for doc in train.documents:
        doc_freq.update({t.lemma for t in doc.tokens})
    lemmas = sorted(doc_freq)
    lemma_index = {lemma: i for i, lemma in enumerate(lemmas)}
    n = len(train.documents)
    # smoothed inverse document frequency, log(1 + N/n_t) > 0
    idf = np.array([np.log(1.0 + n / doc_freq[lemma]) for lemma in lemmas])
    return TfidfModel(lemma_index=lemma_index, idf=idf)


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # (PCA_DIM, n_terms), orthonormal rows, zero-padded

    def transform(self, vec: np.ndarray) -> np.ndarray:
        return self.components @ (vec - self.mean)


def fit_pca(train_doc_vectors: np.ndarray, n_components: int = PCA_DIM) -> PcaModel:
    """Top principal directions of the mean-centered matrix via SVD; each
    component's largest-magnitude coordinate is flipped positive, and ranks
    below n_components are padded with zero vectors."""
    x = np.asarray(train_doc_vectors, dtype=np.float64)
    if len(x) < 2:
        raise IntegrityError(f"PCA needs at least 2 train documents; the train split has {len(x)}")
    mean = x.mean(axis=0)
    centered = x - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    tol = svals[0] * max(centered.shape) * np.finfo(np.float64).eps if svals.size else 0.0
    rank = int(np.sum(svals > tol))
    keep = min(rank, n_components)
    components = np.zeros((n_components, x.shape[1]))
    components[:keep] = vt[:keep]
    for row in components[:keep]:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(mean=mean, components=components)


# ---------------------------------------------------------------------------
# Contextual features: 8 token sets x (mean word vector + lemma counts)
# ---------------------------------------------------------------------------


def _token_sets(mention: Mention, doc: Document) -> list[list[int]]:
    first, last = mention.first_index, mention.last_index
    n = len(doc.tokens)
    before = lambda k: list(range(max(0, first - k), first))
    after = lambda k: list(range(last + 1, min(n, last + 1 + k)))
    sentence = doc.sentence_token_indices(doc.tokens[first].sentence_id)
    return [
        [first],
        [last],
        list(mention.token_indices),
        before(2),
        after(2),
        before(5),
        after(5),
        sentence,
    ]


def contextual_features(
    mention: Mention, doc: Document, wv: WordVectors, vocab: LemmaVocab
) -> np.ndarray:
    """Eight blocks of (mean word vector, summed lemma counts), one per token
    set: first / last / whole span, two and five tokens before and after, and
    the span's sentence. Empty sets and OOV words contribute zero vectors;
    the mean divides by the full set size."""
    e = wv.dimension
    out = np.zeros(8 * (e + LEMMA_VOCAB_SIZE))
    offset = 0
    for indices in _token_sets(mention, doc):
        if indices:
            acc = np.zeros(e)
            for i in indices:
                vec = wv.lookup(doc.tokens[i].word)
                if vec is not None:
                    acc += vec
            out[offset : offset + e] = acc / len(indices)
            for i in indices:
                out[offset + e + vocab.slot(doc.tokens[i].lemma)] += 1.0
        offset += e + LEMMA_VOCAB_SIZE
    return out


def doc_features(doc: Document, tfidf: TfidfModel, pca: PcaModel) -> np.ndarray:
    return pca.transform(tfidf.doc_vector(doc))


# ---------------------------------------------------------------------------
# Positional and comparative features
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MentionView:
    """Mention with its span's word and lemma strings plus its rank inside
    the document."""

    mention_id: str
    doc_id: str
    topic_id: str
    words: tuple[str, ...]
    lemmas: tuple[str, ...]
    rank: int
    n_in_doc: int

    @classmethod
    def of(cls, mention: Mention, doc: Document, rank: int) -> "MentionView":
        return cls(
            mention_id=mention.id,
            doc_id=doc.doc_id,
            topic_id=doc.topic_id,
            words=tuple(doc.tokens[i].word for i in mention.token_indices),
            lemmas=tuple(doc.tokens[i].lemma for i in mention.token_indices),
            rank=rank,
            n_in_doc=len(doc.mentions),
        )


def _count_matrix(bags: list[tuple[str, ...]]) -> np.ndarray:
    """Token counts of each bag (rows) over the bags' own vocabulary."""
    column: dict[str, int] = {}
    cells = [(row, column.setdefault(t, len(column))) for row, bag in enumerate(bags) for t in bag]
    counts = np.zeros((len(bags), len(column)))
    if cells:
        np.add.at(counts, tuple(np.array(cells).T), 1.0)
    return counts


def _mean_overlap(counts: np.ndarray) -> np.ndarray:
    """Each row's mean multiset Dice overlap 2|A&B| / (|A|+|B|) (0 where
    both bags are empty) with the other rows, a bag per row; 0 for a lone row.

    Rows go COMPARE_BLOCK at a time, so the scratch is O(block x n), and no
    entry depends on the block, rows or columns it is made with:
    |A&B| = sum_k (C >= k)(C >= k)^T over k = 1..max count sums 0/1
    products, an exact integer, and so is each quotient. Each mean adds its
    non-negative terms left to right (np.add.accumulate, not the pairwise
    np.sum), the row's own term as +0.0, which adds exactly. So the means
    over a document's rows alone equal the pool-wide sums with the other
    rows' terms set to +0.0, bit for bit, wherever those rows lie.
    """
    n = counts.shape[0]
    if n < 2:
        return np.zeros(n)
    levels = [(counts >= k).astype(np.float64) for k in range(1, int(counts.max(initial=0.0)) + 1)]
    sizes = counts.sum(axis=1)
    means = np.empty(n)
    for start in range(0, n, COMPARE_BLOCK):
        stop = min(start + COMPARE_BLOCK, n)
        inter = np.zeros((stop - start, n))
        for level in levels:
            inter += level[start:stop] @ level.T
        total = sizes[start:stop, None] + sizes[None, :]
        inter *= 2.0  # both bags empty: inter and total are 0, and the entry stays 0
        dice = np.divide(inter, total, out=inter, where=total > 0)
        np.fill_diagonal(dice[:, start:], 0.0)  # each row's own term
        means[start:stop] = np.add.accumulate(dice, axis=1, out=dice)[:, -1] / (n - 1)
    return means


def comparative_features(views: list[MentionView], pool: str) -> np.ndarray:
    """Positional and comparative entries of every mention of a split, in the
    order of `views` (corpus order), as an (n, 7) block:
    [is_first, rank/n, is_last, doc_w, doc_l, pool_w, pool_l].

    doc_* and pool_* average the Dice word/lemma overlap with the other
    mentions of the same document and of the clustering pool: the whole split
    for pool "global", the mentions sharing the document's topic for "topic".
    The mention itself is excluded from both averages; an empty comparison set
    gives 0. Only the pool means need a whole pool group: each document's
    means come from its own mentions (a Corpus document has one topic).
    """
    if pool not in ("global", "topic"):
        raise ValueError(f"unknown pool scope {pool!r}")
    out = np.zeros((len(views), N_POSITIONAL + N_COMPARATIVE))
    rank = np.array([v.rank for v in views], dtype=np.float64)
    n_in_doc = np.array([v.n_in_doc for v in views], dtype=np.float64)
    out[:, 0] = rank == 1
    out[:, 1] = rank / n_in_doc
    out[:, 2] = rank == n_in_doc
    pools: dict[str, tuple[list[int], dict[str, list[int]]]] = {}
    for i, v in enumerate(views):
        rows, docs = pools.setdefault(v.topic_id if pool == "topic" else "", ([], {}))
        docs.setdefault(v.doc_id, []).append(len(rows))  # its positions in the pool group
        rows.append(i)
    for rows, docs in pools.values():
        rows = np.array(rows)
        for col, attr in ((3, "words"), (4, "lemmas")):
            counts = _count_matrix([getattr(views[i], attr) for i in rows])
            out[rows, col + 2] = _mean_overlap(counts)
            for members in docs.values():
                out[rows[members], col] = _mean_overlap(counts[members])
    return out


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureModels:
    word_vectors: WordVectors
    lemma_vocab: LemmaVocab
    tfidf: TfidfModel
    pca: PcaModel

    @property
    def dim(self) -> int:
        return feature_dim(self.word_vectors.dimension)


def fit_feature_models(train: Corpus, word_vectors: WordVectors) -> FeatureModels:
    """Fit every train-side statistic; validation/test corpora never enter."""
    tfidf = fit_tfidf(train)
    doc_matrix = np.stack([tfidf.doc_vector(d) for d in train.documents])
    return FeatureModels(
        word_vectors=word_vectors,
        lemma_vocab=build_lemma_vocab(train),
        tfidf=tfidf,
        pca=fit_pca(doc_matrix),
    )


class _RowArray:
    """extract_split's default row sink: the rows written fill a new array."""

    def __init__(self, rows: int, cols: int):
        self.array, self.written = np.empty((rows, cols)), 0

    def write(self, block: np.ndarray) -> None:
        self.array[self.written : self.written + len(block)] = block
        self.written += len(block)


def extract_split(
    corpus: Corpus, models: FeatureModels, pool: str = "global", out=None
) -> tuple:
    """Feature matrix for every mention of one split, in corpus order, and
    the mentions in that order: `(out, mentions)`.

    `pool` selects the comparison scope for the pool-overlap entries:
    "global" compares against all mentions of the split, "topic" against
    mentions sharing the document's topic.

    The comparative block, whose pool means need each whole pool group, is
    made first; then each document's rows are made in one buffer and
    written to `out`, a row sink of n rows such as a `matio.MatrixWriter`,
    so no whole matrix is held. When `out` is None the rows fill a new
    n x dim array, which is returned in its place.
    """
    views = [
        MentionView.of(mention, doc, rank)
        for doc in corpus.documents
        for rank, mention in enumerate(doc.mentions, start=1)
    ]
    compare = comparative_features(views, pool)
    sink = _RowArray(len(views), models.dim) if out is None else out
    buffer = np.empty((max((len(doc.mentions) for doc in corpus.documents), default=0), models.dim))
    width = 8 * (models.word_vectors.dimension + LEMMA_VOCAB_SIZE)
    mentions: list[Mention] = []
    for doc in corpus.documents:
        first, stop = len(mentions), len(mentions) + len(doc.mentions)
        rows = buffer[: stop - first]
        rows[:, width : width + PCA_DIM] = doc_features(doc, models.tfidf, models.pca)
        for row, mention in zip(rows, doc.mentions):
            row[:width] = contextual_features(mention, doc, models.word_vectors, models.lemma_vocab)
        rows[:, width + PCA_DIM :] = compare[first:stop]
        sink.write(rows)
        mentions.extend(doc.mentions)
    return (sink.array if out is None else out), mentions
