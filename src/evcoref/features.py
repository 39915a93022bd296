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

from .corpus import Corpus, Document, Mention
from .errors import ParseError

LEMMA_VOCAB_SIZE = 500
LEMMA_OOV_SLOT = 499
PCA_DIM = 100
N_POSITIONAL = 3
N_COMPARATIVE = 4


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
    duplicate words."""
    table: dict = {}
    dim = None
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            parts = raw.rstrip("\n").split(" ")
            parts = [p for p in parts if p]
            if not parts:
                continue
            if line_no == 1 and len(parts) == 2:
                try:
                    int(parts[0]), int(parts[1])
                    continue  # header line
                except ValueError:
                    pass
            word = parts[0]
            try:
                vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            except ValueError:
                raise ParseError(path, line_no, "non-numeric vector component")
            if vec.size == 0:
                raise ParseError(path, line_no, "entry has no vector components")
            if dim is None:
                dim = vec.size
            elif vec.size != dim:
                raise ParseError(
                    path, line_no, f"vector length {vec.size} != {dim} from first entry"
                )
            if word not in table:
                table[word] = vec
    if dim is None:
        raise ParseError(path, 1, "empty word-vector file")
    return WordVectors(dimension=int(dim), table=table)


# ---------------------------------------------------------------------------
# Lemma vocabulary (499 most frequent train lemmas + OOV bucket)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LemmaVocab:
    index_of: dict

    size = LEMMA_VOCAB_SIZE

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
    n_docs: int

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
        raise ValueError("fit_tfidf needs a nonempty train corpus")
    doc_freq = Counter()
    for doc in train.documents:
        doc_freq.update({t.lemma for t in doc.tokens})
    lemmas = sorted(doc_freq)
    lemma_index = {lemma: i for i, lemma in enumerate(lemmas)}
    n = len(train.documents)
    # smoothed inverse document frequency, log(1 + N/n_t) > 0
    idf = np.array([np.log(1.0 + n / doc_freq[lemma]) for lemma in lemmas])
    return TfidfModel(lemma_index=lemma_index, idf=idf, n_docs=n)


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
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("fit_pca needs at least 2 train document vectors")
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


def harmonic_overlap(a: Counter, b: Counter) -> float:
    """Dice overlap of two token multisets, 2|A&B| / (|A|+|B|)."""
    total = sum(a.values()) + sum(b.values())
    if total == 0:
        return 0.0
    inter = sum((a & b).values())
    return 2.0 * inter / total


@dataclass(frozen=True)
class MentionView:
    """Mention with resolved token strings plus its rank inside the document."""

    mention_id: str
    doc_id: str
    topic_id: str
    words: Counter
    lemmas: Counter
    rank: int
    n_in_doc: int

    @classmethod
    def of(cls, mention: Mention, doc: Document, rank: int) -> "MentionView":
        return cls(
            mention_id=mention.id,
            doc_id=doc.doc_id,
            topic_id=doc.topic_id,
            words=Counter(doc.tokens[i].word for i in mention.token_indices),
            lemmas=Counter(doc.tokens[i].lemma for i in mention.token_indices),
            rank=rank,
            n_in_doc=len(doc.mentions),
        )


def comparative_features(view: MentionView, same_doc, pool) -> np.ndarray:
    """[is_first, rank/n, is_last] plus average word/lemma overlap against the
    rest of the document and against the whole clustering pool. The mention
    itself is excluded from both averages; an empty comparison set gives 0."""

    def averages(others):
        others = [o for o in others if o.mention_id != view.mention_id]
        if not others:
            return 0.0, 0.0
        w = sum(harmonic_overlap(view.words, o.words) for o in others) / len(others)
        l = sum(harmonic_overlap(view.lemmas, o.lemmas) for o in others) / len(others)
        return w, l

    doc_w, doc_l = averages(same_doc)
    pool_w, pool_l = averages(pool)
    return np.array(
        [
            1.0 if view.rank == 1 else 0.0,
            view.rank / view.n_in_doc,
            1.0 if view.rank == view.n_in_doc else 0.0,
            doc_w,
            doc_l,
            pool_w,
            pool_l,
        ]
    )


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


def extract_split(
    corpus: Corpus, models: FeatureModels, pool: str = "global"
) -> tuple[np.ndarray, list[Mention]]:
    """Feature matrix for every mention of one split, in corpus order.

    `pool` selects the comparison scope for the pool-overlap entries:
    "global" compares against all mentions of the split, "topic" against
    mentions sharing the document's topic.
    """
    if pool not in ("global", "topic"):
        raise ValueError(f"unknown pool scope {pool!r}")
    mentions: list[Mention] = []
    views: list[MentionView] = []
    by_doc: dict[str, list[MentionView]] = {}
    by_topic: dict[str, list[MentionView]] = {}
    for doc in corpus.documents:
        for rank, mention in enumerate(doc.mentions, start=1):
            view = MentionView.of(mention, doc, rank)
            mentions.append(mention)
            views.append(view)
            by_doc.setdefault(doc.doc_id, []).append(view)
            by_topic.setdefault(doc.topic_id, []).append(view)

    doc_cache = {
        doc.doc_id: doc_features(doc, models.tfidf, models.pca)
        for doc in corpus.documents
    }
    rows = []
    for mention, view in zip(mentions, views):
        doc = corpus.doc(mention.doc_id)
        pool_views = views if pool == "global" else by_topic[view.topic_id]
        contextual = contextual_features(
            mention, doc, models.word_vectors, models.lemma_vocab
        )
        comparative = comparative_features(view, by_doc[view.doc_id], pool_views)
        rows.append(np.concatenate([contextual, doc_cache[mention.doc_id], comparative]))
    if not rows:
        return np.zeros((0, models.dim)), mentions
    matrix = np.stack(rows)
    if matrix.shape[1] != models.dim:
        raise RuntimeError(
            f"internal error: feature width {matrix.shape[1]}, expected {models.dim}"
        )
    return matrix, mentions
