"""The loop kernels: the agglomerative merge loop, connected
components (every partition the package builds is a `components` call), and
the optimal-assignment solver. Everything else is BLAS-bound plain numpy.
"""

from __future__ import annotations

import numpy as np

# There is one numpy path for each kernel. Run records read this flag to
# name the kernel path (pipebench's environment report and trace files).
USE_NUMBA = False


# ---------------------------------------------------------------------------
# Single-linkage merge sequence
#
# Input: dense cluster-similarity matrix S (symmetric, k x k). The loop
# repeatedly merges the most similar active pair, recording (sim, i, j);
# under single linkage the merged cluster's similarity to the rest is the
# elementwise max of its parts, so merge similarities are non-increasing and
# any threshold clustering is a prefix of the full sequence. Ties resolve to
# the lexicographically smallest (i, j); the surviving cluster keeps slot i.
# ---------------------------------------------------------------------------


def merge_sequence(S: np.ndarray):
    S = np.array(S, dtype=np.float64)
    k = S.shape[0]
    if k < 2:
        return (
            np.empty(0),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    sims = np.empty(k - 1)
    lefts = np.empty(k - 1, dtype=np.int64)
    rights = np.empty(k - 1, dtype=np.int64)
    # upper triangle only; dead slots and the diagonal sit at -inf (filled
    # row by row: an index mask would hold two int64 arrays of k(k+1)/2)
    for row in range(k):
        S[row, : row + 1] = -np.inf
    for step in range(k - 1):
        flat = np.argmax(S)
        bi, bj = divmod(flat, k)
        sims[step] = S[bi, bj]
        lefts[step] = bi
        rights[step] = bj
        merged_row = np.maximum(S[bi, :], S[bj, :])
        merged_col = np.maximum(S[:, bi], S[:, bj])
        merged = np.maximum(merged_row, merged_col)
        S[bi, :] = -np.inf
        S[:, bi] = -np.inf
        S[bi, bi + 1 :] = merged[bi + 1 :]
        S[:bi, bi] = merged[:bi]
        S[bj, :] = -np.inf
        S[:, bj] = -np.inf
    return sims, lefts, rights


# ---------------------------------------------------------------------------
# Connected components by min-label propagation
# ---------------------------------------------------------------------------


def components(n: int, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# Optimal assignment (shortest augmenting paths over the short side, O(r^2 c))
#
# Minimizes total cost over an r x c matrix with r <= c, so every row gets a
# column and c - r columns stay free; no dummy rows are added. Each row is
# assigned by one Dijkstra search over reduced costs for the shortest path to
# a free column, and the row/column potentials (u, v) are updated once per
# augmentation (Crouse 2016, "On implementing 2D rectangular assignment
# algorithms"). Callers maximize by negating and pass the transpose of a
# matrix with more rows than columns.
# ---------------------------------------------------------------------------


def lsap_min(cost: np.ndarray) -> np.ndarray:
    """Column index assigned to each row of a finite r x c cost matrix with
    r <= c, distinct across rows and minimizing the total cost."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] > cost.shape[1]:
        raise ValueError(f"lsap expects a 2-d cost matrix, rows <= columns; got {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("lsap expects finite costs")
    r, c = cost.shape
    col_of_row = np.full(r, -1, dtype=np.int64)
    row_of_col = np.full(c, -1, dtype=np.int64)
    if r == 0:
        return col_of_row
    # every column is free for row 0, so its search would end at once, at
    # its (first) cheapest column, with that cost as its potential
    col_of_row[0] = first = np.argmin(cost[0])
    row_of_col[first] = 0
    u = np.zeros(r)
    u[0] = cost[0, first]
    v = np.zeros(c)
    path = np.empty(c, dtype=np.int64)  # row before each column on its shortest path
    for start in range(1, r):
        dist = np.full(c, np.inf)
        done = np.zeros(c, dtype=bool)  # columns whose shortest distance is final
        i, reach = start, 0.0
        while True:
            reduced = reach + cost[i] - u[i] - v
            closer = ~done & (reduced < dist)
            dist[closer] = reduced[closer]
            path[closer] = i
            open_dist = np.where(done, np.inf, dist)
            reach = open_dist.min()
            # nearest open column; a free one on ties ends the path sooner
            ties = np.flatnonzero(open_dist == reach)
            free = ties[row_of_col[ties] < 0]
            j = free[0] if len(free) else ties[0]
            done[j] = True
            if row_of_col[j] < 0:
                break
            i = row_of_col[j]
        # the final columns other than the free one at the end are those of
        # the rows the search passed through
        u[start] += reach
        done[j] = False
        gain = reach - dist[done]
        u[row_of_col[done]] += gain
        v[done] -= gain
        while True:  # flip the path's edges back to `start`
            i = path[j]
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == start:
                break
    return col_of_row
