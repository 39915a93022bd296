"""Coreference chain scorers: MUC, B3, mention- and entity-based CEAF, BLANC,
and their CoNLL average, plus within-document link projection.

All scorers require gold and system clusterings over the identical mention
set (mentions are pre-annotated here, so twinless-mention extensions are not
needed). Empty denominators score 0; BLANC omits a link type from its average
only when neither side has links of that type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import Clustering
from .errors import IntegrityError, ScoringMismatchError
from .kernels import components, lsap_min


@dataclass(frozen=True)
class MetricScore:
    recall: float
    precision: float
    f1: float


@dataclass(frozen=True)
class MetricReport:
    muc: MetricScore
    b3: MetricScore
    ceaf_m: MetricScore
    ceaf_e: MetricScore
    blanc: MetricScore
    conll: float


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _score(r_num, r_den, p_num, p_den) -> MetricScore:
    r = _ratio(r_num, r_den)
    p = _ratio(p_num, p_den)
    return MetricScore(recall=r, precision=p, f1=_f1(p, r))


def _check_mentions(gold: Clustering, sys: Clustering) -> None:
    g, s = gold.mention_ids(), sys.mention_ids()
    if g != s:
        missing = sorted(g - s)[:5]
        extra = sorted(s - g)[:5]
        raise ScoringMismatchError(
            f"mention sets differ: missing from system {missing}, unexpected {extra}"
        )


def _pairs(sizes) -> int:
    return int((sizes * (sizes - 1) // 2).sum())


# ---------------------------------------------------------------------------
# The gold x system contingency table: every measure is read off it
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Contingency:
    """Overlap counts of a gold and a system partition of one mention set:
    the nonzero cells (gold chain `rows`, system chain `cols`, shared mention
    `counts`) in row-major order, and the chain sizes of each side."""

    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray
    gold_sizes: np.ndarray
    sys_sizes: np.ndarray

    @classmethod
    def from_labels(cls, gold: np.ndarray, sys: np.ndarray) -> "Contingency":
        """From two label vectors over the same mention order, each using
        every label in 0..k-1: the package's one partition form, which
        numbers chains by their first mention (`corpus.dense_labels`)."""
        gold_sizes, sys_sizes = np.bincount(gold), np.bincount(sys)
        cells, counts = np.unique(gold * len(sys_sizes) + sys, return_counts=True)
        rows, cols = np.divmod(cells, len(sys_sizes))
        return cls(rows, cols, counts, gold_sizes, sys_sizes)

    @classmethod
    def between(cls, gold: Clustering, sys: Clustering) -> "Contingency":
        _check_mentions(gold, sys)
        ids = sorted(gold.mention_ids())
        return cls.from_labels(gold.labels(ids), sys.labels(ids))

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def muc(self) -> MetricScore:
        """Minimum-link-edit measure: a chain of size s split into p parts by
        the other side keeps s - p of its s - 1 links; summed over the chains
        of one side that is (n - cells) / (n - chains)."""
        n, cells = self.n, len(self.counts)
        return _score(n - cells, n - len(self.gold_sizes), n - cells, n - len(self.sys_sizes))

    def b3(self) -> MetricScore:
        n = self.n
        if n == 0:
            return MetricScore(0.0, 0.0, 0.0)
        squares = self.counts * self.counts
        recall = (np.bincount(self.rows, squares) / self.gold_sizes).sum()
        precision = (np.bincount(self.cols, squares) / self.sys_sizes).sum()
        return _score(float(recall), n, float(precision), n)

    @cached_property
    def _components(self) -> list[np.ndarray]:
        """Cell indices of each connected component of the overlap graph
        (chains are nodes, cells are edges), in order of each component's
        smallest gold chain; chains in different components share no
        mention, so an alignment pairing them scores 0."""
        ng = len(self.gold_sizes)
        comp = components(ng + len(self.sys_sizes), self.rows, ng + self.cols)[self.rows]
        order = np.argsort(comp, kind="stable")
        return np.split(order, np.flatnonzero(np.diff(comp[order])) + 1)

    def ceaf(self, phi: str) -> MetricScore:
        """Optimal one-to-one chain alignment, solved by the assignment
        kernel inside each component of the overlap graph, over the
        component's real r x c block with its shorter side as rows."""
        ng, ns = len(self.gold_sizes), len(self.sys_sizes)
        if ng == 0 or ns == 0:
            return MetricScore(0.0, 0.0, 0.0)
        if phi == "mention":
            weights = self.counts.astype(np.float64)
            r_den, p_den = float(self.n), float(self.n)
        else:
            weights = 2.0 * self.counts / (self.gold_sizes[self.rows] + self.sys_sizes[self.cols])
            r_den, p_den = float(ng), float(ns)
        best_of_row = np.zeros(ng)
        for cells in self._components:
            row_ids, r = np.unique(self.rows[cells], return_inverse=True)
            col_ids, c = np.unique(self.cols[cells], return_inverse=True)
            block = np.zeros((len(row_ids), len(col_ids)))
            block[r, c] = weights[cells]
            if len(row_ids) <= len(col_ids):
                best_of_row[row_ids] = block[np.arange(len(row_ids)), lsap_min(-block)]
            else:  # a gold chain for each system chain; the other gold chains score 0
                assigned = lsap_min(-block.T)
                best_of_row[row_ids[assigned]] = block[assigned, np.arange(len(col_ids))]
        best = float(best_of_row.sum())
        return _score(best, r_den, best, p_den)

    def blanc(self) -> MetricScore:
        """Coreference and non-coreference links, each scored like a
        retrieval task; BLANC averages the link types either side has."""
        total = self.n * (self.n - 1) // 2
        coref_gold = _pairs(self.gold_sizes)
        coref_sys = _pairs(self.sys_sizes)
        coref_both = _pairs(self.counts)
        noncoref_gold = total - coref_gold
        noncoref_sys = total - coref_sys
        noncoref_both = total - coref_gold - coref_sys + coref_both

        coref = _score(coref_both, coref_gold, coref_both, coref_sys)
        noncoref = _score(noncoref_both, noncoref_gold, noncoref_both, noncoref_sys)

        have_coref = coref_gold > 0 or coref_sys > 0
        have_noncoref = noncoref_gold > 0 or noncoref_sys > 0
        if have_coref and have_noncoref:
            return MetricScore(
                recall=(coref.recall + noncoref.recall) / 2.0,
                precision=(coref.precision + noncoref.precision) / 2.0,
                f1=(coref.f1 + noncoref.f1) / 2.0,
            )
        if have_coref:
            return coref
        if have_noncoref:
            return noncoref
        return MetricScore(0.0, 0.0, 0.0)


# Each scorer takes the pair's table when the caller already built it, as
# `report` does once for all five measures.


def _table(gold: Clustering, sys: Clustering, table: Contingency | None) -> Contingency:
    return table if table is not None else Contingency.between(gold, sys)


def score_muc(gold: Clustering, sys: Clustering, table: Contingency | None = None) -> MetricScore:
    """Singleton chains contribute nothing, and an all-singleton side yields
    0 for the affected ratio."""
    return _table(gold, sys, table).muc()


def score_b3(gold: Clustering, sys: Clustering, table: Contingency | None = None) -> MetricScore:
    return _table(gold, sys, table).b3()


def score_ceaf(
    gold: Clustering, sys: Clustering, phi: str = "mention", table: Contingency | None = None
) -> MetricScore:
    """phi="mention" scores |K & S| per aligned pair; phi="entity" scores the
    Dice value 2|K & S| / (|K| + |S|)."""
    if phi not in ("mention", "entity"):
        raise ValueError(f"unknown CEAF variant {phi!r}")
    return _table(gold, sys, table).ceaf(phi)


def score_blanc(gold: Clustering, sys: Clustering, table: Contingency | None = None) -> MetricScore:
    return _table(gold, sys, table).blanc()


# ---------------------------------------------------------------------------
# Within-document projection and the full report
# ---------------------------------------------------------------------------


def within_doc_projection(clustering: Clustering, doc_of: dict[str, str]) -> Clustering:
    """Cut every cross-document link: each chain splits into its per-document
    parts. `doc_of` maps each mention id to its document id."""
    chain_of = {m: c for c, chain in enumerate(clustering.chains) for m in chain}
    unknown = chain_of.keys() - doc_of.keys()
    if unknown:
        raise IntegrityError(f"no document known for mention {min(unknown)!r}")
    return Clustering.from_labels(list(chain_of), [(c, doc_of[m]) for m, c in chain_of.items()])


def report(gold: Clustering, sys: Clustering) -> MetricReport:
    """All six measures from one contingency table; CoNLL is the mean of the MUC, B3, and CEAF-entity
    F-scores."""
    table = Contingency.between(gold, sys)
    muc = score_muc(gold, sys, table)
    b3 = score_b3(gold, sys, table)
    ceaf_m = score_ceaf(gold, sys, "mention", table)
    ceaf_e = score_ceaf(gold, sys, "entity", table)
    blanc = score_blanc(gold, sys, table)
    conll = (muc.f1 + b3.f1 + ceaf_e.f1) / 3.0
    return MetricReport(
        muc=muc, b3=b3, ceaf_m=ceaf_m, ceaf_e=ceaf_e, blanc=blanc, conll=conll
    )


_MEASURES = ("muc", "b3", "ceaf_m", "ceaf_e", "blanc")


def format_report(rep: MetricReport) -> str:
    """Tab-separated rows (measure, R, P, F) plus the CoNLL line, 4 decimals."""
    lines = ["measure\tR\tP\tF"]
    for name in _MEASURES:
        s: MetricScore = getattr(rep, name)
        lines.append(f"{name}\t{s.recall:.4f}\t{s.precision:.4f}\t{s.f1:.4f}")
    lines.append(f"conll\t\t\t{rep.conll:.4f}")
    return "\n".join(lines) + "\n"


def write_report(rep: MetricReport, path) -> None:
    with open(path, "w", encoding="utf-8") as out:
        out.write(format_report(rep))
