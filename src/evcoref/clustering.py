"""Single-linkage agglomerative clustering over mention embeddings.

Similarity is the raw cosine; clusters merge greedily while the best
cluster-pair similarity stays at or above the threshold tau. Because single
linkage makes merge similarities non-increasing, the full merge sequence is
computed once and every tau clustering is read off as a prefix, which is what
makes the two-pass tau grid search and the 100-value delta search cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Clustering, Corpus, Document, Mention
from .errors import IntegrityError, ParseError
from .kernels import merge_sequence
from .scoring import Contingency, score_b3

TAU_GRID_SIZE = 20
DELTA_GRID_SIZE = 100


def cosine_similarity_matrix(vectors: np.ndarray) -> np.ndarray:
    """Symmetric cosine similarities; zero-norm rows get similarity 0."""
    x = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    units = x / safe[:, None]
    sims = units @ units.T
    sims = np.clip((sims + sims.T) / 2.0, -1.0, 1.0)
    if not np.all(np.isfinite(sims)):
        raise IntegrityError("non-finite similarity entries")
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
    """Full single-linkage merge sequence from an initial partition.

    Slots are initial clusters ordered by their smallest mention index; a
    merge (sim, i, j) folds slot j into slot i. labels_at(tau) replays the
    prefix with similarity >= tau.
    """

    slot_of: np.ndarray  # initial cluster (slot) of each mention
    sims: np.ndarray
    lefts: np.ndarray
    rights: np.ndarray

    @property
    def init_sets(self) -> list[set[int]]:
        """The initial partition: the mention indices of each slot."""
        return _groups(self.slot_of)

    def labels_at(self, tau: float) -> np.ndarray:
        """Cluster label of each mention, numbered by each cluster's smallest
        mention. A merge folds slot j into the smaller, still active slot i,
        so following the folds leads every slot to its cluster's first slot."""
        n_merges = int(np.searchsorted(-self.sims, -tau, side="right"))
        into = np.arange(len(self.sims) + 1)  # k slots merge k - 1 times
        into[self.rights[:n_merges]] = self.lefts[:n_merges]
        while True:
            nxt = into[into]
            if np.array_equal(nxt, into):
                break
            into = nxt
        return np.unique(into, return_inverse=True)[1][self.slot_of]

    def partition_at(self, tau: float) -> list[set[int]]:
        """The clusters of labels_at(tau) as index sets, in label order."""
        return _groups(self.labels_at(tau))


def _init_slots(n: int, init: list[set[int]] | None) -> np.ndarray:
    if init is None:
        return np.arange(n)
    covered: set[int] = set()
    for part in init:
        if not part:
            raise IntegrityError("empty cluster in init partition")
        if covered & part:
            raise IntegrityError("init partition has overlapping clusters")
        covered |= part
    if covered != set(range(n)):
        raise IntegrityError("init partition must cover all mention indices")
    slot_of = np.empty(n, dtype=np.int64)
    for slot, part in enumerate(sorted(init, key=min)):
        slot_of[list(part)] = slot
    return slot_of


def build_merge_run(sims: np.ndarray, init: list[set[int]] | None = None) -> MergeRun:
    """Aggregate mention similarities to cluster level (single linkage: the
    max cross pair) and run the merge kernel down to one cluster."""
    sims = np.asarray(sims, dtype=np.float64)
    slot_of = _init_slots(sims.shape[0], init)
    # sort mentions by slot, then take the max over each slot's run of
    # rows and then of columns
    order = np.argsort(slot_of, kind="stable")
    starts = np.flatnonzero(np.diff(slot_of[order], prepend=-1))
    slot_rows = np.maximum.reduceat(sims[order], starts, axis=0)
    cluster_sims = np.maximum.reduceat(slot_rows[:, order], starts, axis=1)
    seq_sims, lefts, rights = merge_sequence(cluster_sims)
    return MergeRun(slot_of=slot_of, sims=seq_sims, lefts=lefts, rights=rights)


def agglomerate_indices(
    sims: np.ndarray, tau: float, init: list[set[int]] | None = None
) -> list[set[int]]:
    return build_merge_run(sims, init).partition_at(tau)


def agglomerate(
    mention_ids: list[str],
    tau: float,
    embeddings: np.ndarray | None = None,
    sims: np.ndarray | None = None,
    init: Clustering | None = None,
) -> Clustering:
    """Cluster mentions from embeddings (or a precomputed similarity matrix),
    starting from `init` (default: all singletons), merging while the best
    single-linkage similarity is >= tau. Ties break on the lowest cluster
    index pair, so results are deterministic."""
    if (embeddings is None) == (sims is None):
        raise ValueError("pass exactly one of embeddings or sims")
    if sims is None:
        sim_matrix = cosine_similarity_matrix(embeddings)
    else:
        sim_matrix = np.asarray(sims, dtype=np.float64)
    index_of = {m: i for i, m in enumerate(mention_ids)}
    if len(index_of) != len(mention_ids):
        raise IntegrityError("duplicate mention ids")
    if init is not None:
        unknown = init.mention_ids() - index_of.keys()
        if unknown:
            raise IntegrityError(f"init partition names unknown mentions {sorted(unknown)[:3]}")
    run = build_merge_run(sim_matrix, _index_sets(init, index_of))
    return Clustering.from_labels(mention_ids, run.labels_at(tau))


def _index_sets(init: Clustering | None, index_of: dict) -> list[set[int]] | None:
    if init is None:
        return None
    return [{index_of[m] for m in chain} for chain in init.chains]


# ---------------------------------------------------------------------------
# Lemma and lemma-delta partitions
# ---------------------------------------------------------------------------


def head_lemma(mention: Mention, doc: Document) -> str:
    """Lemma of the span's final token, the approximate syntactic head."""
    return doc.tokens[mention.last_index].lemma


def lemma_partition(corpus: Corpus) -> Clustering:
    """Merge all mentions sharing a head lemma, across all documents."""
    groups: dict[str, set[str]] = {}
    for doc in corpus.documents:
        for m in doc.mentions:
            groups.setdefault(head_lemma(m, doc), set()).add(m.id)
    return Clustering.from_sets(groups[k] for k in sorted(groups))


def _doc_unit_vectors(corpus: Corpus, tfidf) -> dict[str, np.ndarray]:
    out = {}
    for doc in corpus.documents:
        vec = tfidf.doc_vector(doc)
        norm = np.linalg.norm(vec)
        out[doc.doc_id] = vec / norm if norm > 0 else vec
    return out


def _components(n: int, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Connected components of the graph on n nodes with the given edges, as
    each node's smallest component member.

    Labels only fall (each edge takes the lower of its ends' labels) and stay
    inside the component, and a label's own label is no larger (shortcut), so
    the fixpoint is constant on each component and equal to its minimum.
    """
    labels = np.arange(n, dtype=np.int64)
    while True:
        low = np.minimum(labels[lefts], labels[rights])
        nxt = labels.copy()
        np.minimum.at(nxt, lefts, low)
        np.minimum.at(nxt, rights, low)
        nxt = nxt[nxt]
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


@dataclass(frozen=True)
class _LemmaPairs:
    """The mention pairs of one split that share a head lemma, each with its
    documents' TF-IDF cosine; computed once, thresholded per delta."""

    mention_ids: list[str]
    lefts: np.ndarray
    rights: np.ndarray
    same_doc: np.ndarray
    cosines: np.ndarray  # 0 for same-document pairs, which always merge

    @classmethod
    def of(cls, corpus: Corpus, tfidf) -> "_LemmaPairs":
        doc_vecs = _doc_unit_vectors(corpus, tfidf)
        mention_ids, by_lemma = [], {}
        for doc in corpus.documents:
            for m in doc.mentions:
                by_lemma.setdefault(head_lemma(m, doc), []).append((len(mention_ids), m.doc_id))
                mention_ids.append(m.id)
        pairs = [
            (i, j, di == dj, 0.0 if di == dj else float(doc_vecs[di] @ doc_vecs[dj]))
            for group in by_lemma.values()
            for a, (i, di) in enumerate(group)
            for j, dj in group[a + 1 :]
        ]
        lefts, rights, same_doc, cosines = zip(*pairs) if pairs else ((), (), (), ())
        return cls(
            mention_ids=mention_ids,
            lefts=np.array(lefts, dtype=np.int64),
            rights=np.array(rights, dtype=np.int64),
            same_doc=np.array(same_doc, dtype=bool),
            cosines=np.array(cosines, dtype=np.float64),
        )

    def labels_at(self, delta: float) -> np.ndarray:
        """Each mention's smallest component member at this delta: equal
        partitions give equal label vectors."""
        keep = self.same_doc | (self.cosines > delta)
        return _components(len(self.mention_ids), self.lefts[keep], self.rights[keep])

    def init_at(self, delta: float) -> Clustering:
        return Clustering.from_labels(self.mention_ids, self.labels_at(delta))


def lemma_delta_init(corpus: Corpus, tfidf, delta: float) -> Clustering:
    """Transitive closure of: same head lemma AND document TF-IDF cosine
    strictly above delta. Same-document mentions with one head lemma always
    merge (a document's self-similarity is 1 > delta for delta < 1)."""
    return _LemmaPairs.of(corpus, tfidf).init_at(delta)


# ---------------------------------------------------------------------------
# Threshold tuning
# ---------------------------------------------------------------------------


def tune_tau(
    embeddings: np.ndarray | None,
    mention_ids: list[str],
    gold: Clustering,
    init: Clustering | None = None,
    sims: np.ndarray | None = None,
    grid_size: int = TAU_GRID_SIZE,
) -> tuple[float, float]:
    """Two-pass grid search for the stop threshold, maximizing B3 F1 against
    the gold clustering. Pass one scans `grid_size` equally spaced values in
    [0, 1]; pass two rescans the interval between the best value's neighbors.
    Ties prefer the larger tau. A split with no mentions has nothing to tune
    on and raises IntegrityError."""
    if len(mention_ids) == 0:
        raise IntegrityError("cannot tune tau on a split with no mentions")
    if sims is None:
        sims = cosine_similarity_matrix(embeddings)
    index_of = {m: i for i, m in enumerate(mention_ids)}
    run = build_merge_run(sims, _index_sets(init, index_of))
    gold_labels = gold.labels(mention_ids)

    def evaluate(tau: float) -> float:
        return Contingency.from_labels(gold_labels, run.labels_at(tau)).b3().f1

    grid1 = np.linspace(0.0, 1.0, grid_size)
    scores1 = [evaluate(t) for t in grid1]
    best1 = max(range(grid_size), key=lambda i: (scores1[i], grid1[i]))
    lo = grid1[best1 - 1] if best1 > 0 else 0.0
    hi = grid1[best1 + 1] if best1 < grid_size - 1 else 1.0
    grid2 = np.linspace(lo, hi, grid_size)
    scores2 = [evaluate(t) for t in grid2]

    taus = np.concatenate([grid1, grid2])
    scores = np.array(scores1 + scores2)
    best = max(range(len(taus)), key=lambda i: (scores[i], taus[i]))
    return float(taus[best]), float(scores[best])


def tune_delta(
    corpus: Corpus,
    tfidf,
    gold: Clustering,
    embeddings: np.ndarray | None = None,
    mention_ids: list[str] | None = None,
    n_values: int = DELTA_GRID_SIZE,
) -> tuple[float, float | None, float]:
    """Scan `n_values` delta thresholds for the lemma-delta partition on the
    tuning split. With embeddings, each delta seeds agglomeration and tau is
    re-tuned on top (returns (delta, tau, B3)); without, the partition itself
    is scored (returns (delta, None, B3)). Ties prefer the larger delta. A
    split with no mentions raises IntegrityError, as in tune_tau.

    Nearby deltas often give the same partition, and the same partition
    gives the same (tau, B3), so each distinct partition is tuned once."""
    if mention_ids is None:
        mention_ids = [m.id for m in corpus.mentions()]
    if len(mention_ids) == 0:
        raise IntegrityError("cannot tune delta on a split with no mentions")
    sims = cosine_similarity_matrix(embeddings) if embeddings is not None else None
    pairs = _LemmaPairs.of(corpus, tfidf)
    tuned: dict[bytes, tuple[float | None, float]] = {}
    best = (-1.0, None, -1.0)
    for delta in np.linspace(0.0, 1.0, n_values):
        labels = pairs.labels_at(float(delta))
        key = labels.tobytes()
        if key not in tuned:
            init = Clustering.from_labels(pairs.mention_ids, labels)
            if sims is not None:
                tuned[key] = tune_tau(None, mention_ids, gold, init=init, sims=sims)
            else:
                tuned[key] = (None, score_b3(gold, init).f1)
        tau, score = tuned[key]
        if score >= best[2]:
            best = (float(delta), tau, float(score))
    return best


# ---------------------------------------------------------------------------
# Chain file IO: one line per chain, tab-separated mention ids
# ---------------------------------------------------------------------------


def write_chains(clustering: Clustering, path, meta: dict | None = None) -> None:
    """Chains ordered by smallest member id, members sorted; `meta` entries
    are embedded as leading `# key=value` comment lines."""
    with open(path, "w", encoding="utf-8") as out:
        for key, value in (meta or {}).items():
            out.write(f"# {key}={value}\n")
        for chain in clustering.sorted_chains():
            out.write("\t".join(chain) + "\n")


def read_chains(path) -> Clustering:
    chains = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            members = line.split("\t")
            chain = set(members)
            if len(chain) != len(members):
                repeated = sorted(m for m in chain if members.count(m) > 1)
                raise ParseError(path, line_no, f"chain repeats mention(s) {repeated[:3]}")
            chains.append(chain)
    return Clustering.from_sets(chains)
