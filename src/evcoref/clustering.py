"""Single-linkage agglomerative clustering over mention embeddings.

Similarity is the raw cosine; clusters merge greedily while the best
cluster-pair similarity stays at or above the threshold tau. Because single
linkage makes merge similarities non-increasing, the mention-level merge
sequence is computed once per similarity matrix, and every partition, seeded
or not, is the connected components of the merges at or above tau taken
over the seed's clusters. That makes the tau grid search and the delta
search cheap: a tau search scores each distinct partition of its grid once.
Seeds and partitions alike are label vectors numbered 0.. by each cluster's
first mention, the form `Contingency.from_labels` reads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import Clustering, Corpus, LemmaPairs, dense_labels, head_lemma
from .errors import IntegrityError
from .kernels import _find, components, merge_sequence
from .scoring import Contingency

TAU_GRID_SIZE = 20
DELTA_GRID_SIZE = 100


NORM_BLOCK = 16  # rows per row-norm pass: the pass's scratch is NORM_BLOCK x d


@dataclass(frozen=True)
class UnitRows:
    """Row vectors of unit length (zero rows stay zero), as `unit_rows`
    leaves them: the similarity reads them as they are. A row selection is
    unit rows again."""

    rows: np.ndarray

    def __getitem__(self, index) -> "UnitRows":
        return UnitRows(self.rows[index])


def unit_rows(x: np.ndarray) -> UnitRows:
    """Scale the rows of the float64 matrix `x` to unit length in place
    (zero-norm rows stay as they are) and return them as UnitRows; the
    caller gives `x` up. Each row's norm reduces along that row alone, so
    taking the norms NORM_BLOCK rows at a time gives the bits of one
    whole-matrix np.linalg.norm without its n x d temporaries."""
    for start in range(0, len(x), NORM_BLOCK):
        block = x[start : start + NORM_BLOCK]
        norms = np.linalg.norm(block, axis=1)
        block /= np.where(norms > 0.0, norms, 1.0)[:, None]
    return UnitRows(x)


def cosine_similarity_matrix(vectors: np.ndarray | UnitRows) -> np.ndarray:
    """Symmetric cosine similarities; zero-norm rows get similarity 0. Unit
    rows are used as they are; a plain array is left untouched and its
    scaled copy is the one n x d array made."""
    if not isinstance(vectors, UnitRows):
        vectors = unit_rows(np.array(vectors, dtype=np.float64))
    units = vectors.rows
    sims = units @ units.T
    sims += sims.T
    sims /= 2.0
    np.clip(sims, -1.0, 1.0, out=sims)
    return sims


# ---------------------------------------------------------------------------
# Merge sequence over an initial partition
# ---------------------------------------------------------------------------


def _groups(labels: np.ndarray) -> list[set[int]]:
    """Mention indices of each label, in label order."""
    order = np.argsort(labels, kind="stable")
    bounds = np.flatnonzero(np.diff(labels[order])) + 1
    return [set(part.tolist()) for part in np.split(order, bounds)] if len(order) else []


@dataclass(frozen=True)
class MergeRun:
    """Full single-linkage merge sequence over the mentions, and the seed
    partition that every cut starts from. A merge (sim, i, j) joins the
    clusters of mentions i and j. The merges are the edges of a maximum
    spanning tree of the similarities in non-increasing order, a level of
    tied edges replayed so that (i, j) name the pair the lowest-pair tie
    rule merges (`kernels.merge_sequence`: O(k^2), and it reads the matrix
    without copying it). Single linkage from a seed is the closure of the
    seed and the pairs at or above tau (Gower & Ross 1969), so the seed does
    not change the merge sequence, and a cut joins the seed's clusters that
    the merges at or above tau connect."""

    seed: np.ndarray  # seed cluster of each mention, numbered 0.. by first mention
    sims: np.ndarray  # merge similarities, non-increasing
    lefts: np.ndarray
    rights: np.ndarray

    @property
    def init_sets(self) -> list[set[int]]:
        """The seed partition: the mention indices of each seed cluster."""
        return _groups(self.seed)

    def labels_at(self, tau: float) -> np.ndarray:
        """Cluster label of each mention, numbered 0.. by each cluster's
        first mention: the components, over the seed's clusters, of the
        merges with similarity >= tau. A NaN tau compares with no
        similarity and is refused."""
        if np.isnan(tau):
            raise ValueError("tau is NaN: no similarity is at or above it")
        m = int(np.searchsorted(-self.sims, -tau, side="right"))
        seed = self.seed
        n_seeds = int(seed.max(initial=-1)) + 1
        return components(n_seeds, seed[self.lefts[:m]], seed[self.rights[:m]])[seed]

    def joined(self) -> np.ndarray:
        """For m = 0 .. len(sims), how many of the first m merges join two
        clusters of the seed and the earlier merges (the rest fall inside
        one). The cuts are nested, so two cuts give one partition exactly
        when they join the same number."""
        parent = list(range(len(self.seed)))  # union-find over the seed labels, all below n
        counts = [0]
        for i, j in zip(self.seed[self.lefts].tolist(), self.seed[self.rights].tolist()):
            i, j = _find(parent, i), _find(parent, j)
            if i != j:
                parent[max(i, j)] = min(i, j)
            counts.append(counts[-1] + (i != j))
        return np.array(counts)

    def partition_at(self, tau: float) -> list[set[int]]:
        """The clusters of labels_at(tau) as index sets, in label order."""
        return _groups(self.labels_at(tau))


def build_merge_run(sims: np.ndarray, init: np.ndarray | None = None) -> MergeRun:
    """Run the merge kernel on the mention similarities down to one cluster,
    and keep `init` (one label per row, equal labels forming one seed
    cluster; default: all singletons) as the seed of every cut. A matrix
    that is not square, or holds a non-finite entry, is refused."""
    sims = np.asarray(sims, dtype=np.float64)
    if sims.ndim != 2 or sims.shape[0] != sims.shape[1]:
        raise IntegrityError(f"similarity matrix has shape {sims.shape}, expected a square one")
    if not np.isfinite(sims).all():
        raise IntegrityError("non-finite similarity entries")
    n = len(sims)
    if init is None:
        seed = np.arange(n)
    else:
        init = np.asarray(init)
        if init.shape != (n,):
            raise IntegrityError(f"seed labels have shape {init.shape}, expected ({n},)")
        seed = dense_labels(init.tolist())
    seq_sims, lefts, rights = merge_sequence(sims)
    return MergeRun(seed=seed, sims=seq_sims, lefts=lefts, rights=rights)


def _require_rows(embeddings: np.ndarray | UnitRows, n_mentions: int) -> None:
    """Refuse embeddings that do not have one row per mention."""
    rows = len(embeddings.rows if isinstance(embeddings, UnitRows) else embeddings)
    if rows != n_mentions:
        raise IntegrityError(f"{rows} embedding rows for {n_mentions} mentions")


def _merge_run(embeddings: np.ndarray | UnitRows, n_mentions: int, init=None) -> MergeRun:
    """build_merge_run over the embeddings' cosines, refused unless there
    is one embedding row per mention."""
    _require_rows(embeddings, n_mentions)
    return build_merge_run(cosine_similarity_matrix(embeddings), init)


def agglomerate_indices(
    sims: np.ndarray, tau: float, init: np.ndarray | None = None
) -> list[set[int]]:
    return build_merge_run(sims, init).partition_at(tau)


def agglomerate(
    mention_ids: list[str],
    tau: float,
    embeddings: np.ndarray | UnitRows,
    init: Clustering | None = None,
) -> Clustering:
    """Cluster mentions by the cosine of their embeddings, starting from
    `init` (default: all singletons), merging while the best single-linkage
    similarity is >= tau. Ties break on the lowest cluster index pair, so
    results are deterministic."""
    if len(set(mention_ids)) != len(mention_ids):
        raise IntegrityError("duplicate mention ids")
    seed = None if init is None else init.labels(mention_ids)
    run = _merge_run(embeddings, len(mention_ids), seed)
    return Clustering.from_labels(mention_ids, run.labels_at(tau))


# ---------------------------------------------------------------------------
# Lemma and lemma-delta partitions
# ---------------------------------------------------------------------------


def lemma_partition(corpus: Corpus) -> Clustering:
    """Merge all mentions sharing a head lemma, across all documents."""
    heads = [(m.id, head_lemma(m, doc)) for doc in corpus.documents for m in doc.mentions]
    return Clustering.from_labels([m for m, _ in heads], [lemma for _, lemma in heads])


def lemma_delta_init(corpus: Corpus, tfidf, delta: float) -> Clustering:
    """Transitive closure of: same head lemma AND document TF-IDF cosine
    strictly above delta. Same-document mentions with one head lemma always
    merge (a document's self-similarity is 1 > delta for delta < 1)."""
    return LemmaPairs.of(corpus, tfidf).clustering_at(delta)


# ---------------------------------------------------------------------------
# Threshold tuning
# ---------------------------------------------------------------------------


def _search_tau(run: MergeRun, gold_labels: np.ndarray) -> tuple[float, float]:
    """Two-pass grid search over the cuts of one merge run, maximizing B3 F1
    against the gold labels (same mention order). Pass one scans
    TAU_GRID_SIZE equally spaced values in [0, 1]; pass two rescans the
    interval between the best value's neighbors. Ties prefer the larger tau.
    Each distinct partition is scored once: cuts joining the same number of
    clusters give the same one."""
    joined = run.joined()
    f1_of: dict[int, float] = {}  # joined clusters -> B3 F1 of that partition

    def evaluate(taus: np.ndarray) -> list[float]:
        counts = joined[np.searchsorted(-run.sims, -taus, side="right")].tolist()
        for tau, count in zip(taus, counts):
            if count not in f1_of:
                f1_of[count] = Contingency.from_labels(gold_labels, run.labels_at(tau)).b3().f1
        return [f1_of[count] for count in counts]

    grid1 = np.linspace(0.0, 1.0, TAU_GRID_SIZE)
    scores1 = evaluate(grid1)
    best1 = max(range(TAU_GRID_SIZE), key=lambda i: (scores1[i], grid1[i]))
    lo = grid1[best1 - 1] if best1 > 0 else 0.0
    hi = grid1[best1 + 1] if best1 < TAU_GRID_SIZE - 1 else 1.0
    grid2 = np.linspace(lo, hi, TAU_GRID_SIZE)
    scores2 = evaluate(grid2)

    taus = np.concatenate([grid1, grid2])
    scores = np.array(scores1 + scores2)
    best = max(range(len(taus)), key=lambda i: (scores[i], taus[i]))
    return float(taus[best]), float(scores[best])


def tune_tau(
    embeddings: np.ndarray | UnitRows,
    mention_ids: list[str],
    gold: Clustering,
    init: Clustering | None = None,
) -> tuple[float, float]:
    """The stop threshold maximizing B3 F1 against the gold clustering, by
    the two-pass grid search of `_search_tau`. A split with no mentions has
    nothing to tune on and raises IntegrityError."""
    if len(mention_ids) == 0:
        raise IntegrityError("cannot tune tau on a split with no mentions")
    seed = None if init is None else init.labels(mention_ids)
    run = _merge_run(embeddings, len(mention_ids), seed)
    return _search_tau(run, gold.labels(mention_ids))


def tune_delta(
    corpus: Corpus,
    tfidf,
    gold: Clustering,
    embeddings: np.ndarray | UnitRows | None = None,
    mention_ids: list[str] | None = None,
    n_values: int = DELTA_GRID_SIZE,
) -> tuple[float, float | None, float]:
    """`search_delta` on the lemma pairs of `corpus`; embedding rows follow `mention_ids`."""
    if n_values < 1:
        raise ValueError(f"the delta grid needs at least one value, got n_values={n_values}")
    pairs = LemmaPairs.of(corpus, tfidf)
    if embeddings is not None:
        # the lemma rows follow the corpus order: put the embedding rows in it too
        given = pairs.mention_ids if mention_ids is None else mention_ids
        _require_rows(embeddings, len(given))
        row_of = {m: i for i, m in enumerate(given)}
        if len(row_of) != len(given) or row_of.keys() != set(pairs.mention_ids):
            raise IntegrityError("embedding mention ids differ from the corpus mentions")
        embeddings = embeddings[[row_of[m] for m in pairs.mention_ids]]
    return search_delta(pairs, gold, embeddings, n_values)


def search_delta(
    pairs: LemmaPairs, gold: Clustering, embeddings: np.ndarray | UnitRows | None = None,
    n_values: int = DELTA_GRID_SIZE,
) -> tuple[float, float | None, float]:
    """Scan `n_values` delta thresholds for the lemma-delta partition on the
    tuning split against the gold clustering. With embeddings (rows in the
    pairs' mention order), each delta seeds agglomeration and tau is
    re-tuned on top (returns (delta, tau, B3)); without, the partition
    itself is scored (returns (delta, None, B3)). Ties prefer the larger
    delta. A split with no mentions raises IntegrityError, as in tune_tau.

    The seed does not change the merge sequence, so one merge run serves
    every delta, and each distinct partition (nearby deltas often give the
    same one) is tuned once."""
    if n_values < 1:
        raise ValueError(f"the delta grid needs at least one value, got n_values={n_values}")
    if len(pairs.mention_ids) == 0:
        raise IntegrityError("cannot tune delta on a split with no mentions")
    gold_labels = gold.labels(pairs.mention_ids)
    if embeddings is not None:
        run = _merge_run(embeddings, len(pairs.mention_ids))
    tuned: dict[bytes, tuple[float | None, float]] = {}
    best = (-1.0, None, -1.0)
    for delta in np.linspace(0.0, 1.0, n_values):
        labels = pairs.labels_at(float(delta))
        key = labels.tobytes()
        if key not in tuned:
            if embeddings is not None:
                tuned[key] = _search_tau(replace(run, seed=labels), gold_labels)
            else:
                tuned[key] = (None, Contingency.from_labels(gold_labels, labels).b3().f1)
        tau, score = tuned[key]
        if score >= best[2]:
            best = (float(delta), tau, float(score))
    return best
