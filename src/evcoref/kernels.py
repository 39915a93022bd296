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
    # upper triangle only; dead slots and the diagonal sit at -inf
    iu = np.tril_indices(k)
    S[iu] = -np.inf
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
# Optimal assignment (Kuhn-Munkres via shortest augmenting paths, O(n^3))
#
# Minimizes total cost over a square matrix. Callers maximize by negating
# and handle rectangular inputs by zero-padding. Column/row potentials (u, v)
# follow the classic formulation with a virtual 0th column.
# ---------------------------------------------------------------------------


def lsap_min(cost: np.ndarray) -> np.ndarray:
    """Column index assigned to each row, minimizing total cost."""
    cost = np.array(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError("lsap expects a square cost matrix")
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.int64)
    way = np.zeros(n + 1, dtype=np.int64)
    cols = np.arange(1, n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = cols[~used[1:]]
            cur = cost[i0 - 1, free - 1] - u[i0] - v[free]
            better = cur < minv[free]
            improved = free[better]
            minv[improved] = cur[better]
            way[improved] = j0
            pos = np.argmin(minv[free])
            j1 = free[pos]
            delta = minv[j1]
            u[p[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    col_of_row = np.empty(n, dtype=np.int64)
    for j in range(1, n + 1):
        col_of_row[p[j] - 1] = j - 1
    return col_of_row
