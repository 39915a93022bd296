"""The loop kernels: the single-linkage merge sequence (a maximum spanning
tree), connected components (every partition the package builds is a
`components` call), and the optimal-assignment solver. Everything else is
BLAS-bound plain numpy.
"""

from __future__ import annotations

import numpy as np

# There is one numpy path for each kernel. Run records read this flag to
# name the kernel path (pipebench's environment report and trace files).
USE_NUMBA = False


# ---------------------------------------------------------------------------
# Single-linkage merge sequence from a maximum spanning tree
#
# Input: dense similarity matrix S (symmetric and finite, k x k), only read.
# Output: the k - 1 merges (sim, i, j) of single linkage over the k rows.
# Merging repeatedly the most similar pair of clusters, where a cluster pair's
# similarity is the largest entry between them, gives non-increasing merge
# similarities, so any threshold clustering is a prefix of the sequence. Ties
# resolve to the lexicographically smallest cluster pair, a cluster is named
# by its smallest member, and the merged cluster keeps the smaller name.
#
# The merge similarities are the weights of a maximum spanning tree, and the
# clusters at any threshold are the components of the tree edges at or above
# it (Gower & Ross 1969; Muellner 2011). Prim's algorithm finds the tree in
# O(k^2) and only reads S. A level (one tree weight) with one tree edge is
# one merge, of its two ends' clusters: every other entry of that value lies
# inside a cluster or between the same two. A level with several tree edges
# is replayed from the entries of that value, gathered a row block at a time;
# the replays compare each pair of rows at most once. So the kernel is O(k^2)
# in time and, besides S, O(k) in memory (REPLAY_BLOCK x k for a replay).
# ---------------------------------------------------------------------------

REPLAY_BLOCK = 64  # rows of S gathered at a time by a tie replay


def _find(parent: list, a: int) -> int:
    """Root of `a` in the union-find forest `parent` (a list of each node's
    parent, a root its own), halving the path on the way."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _spanning_tree(S: np.ndarray):
    """Weights and ends of a maximum spanning tree of S (Prim), in the order
    the tree takes its vertices."""
    k = S.shape[0]
    outside = np.arange(1, k)  # vertices not yet in the tree, first m live
    best = S[0, 1:].copy()  # largest entry between each and the tree
    near = np.zeros(k - 1, dtype=np.int64)  # the tree vertex it joins
    weights = np.empty(k - 1)
    ends = np.empty((2, k - 1), dtype=np.int64)
    for step in range(k - 1):
        m = k - 1 - step
        t = int(np.argmax(best[:m]))
        v = outside[t]
        weights[step], ends[0, step], ends[1, step] = best[t], near[t], v
        m -= 1  # the last live slot moves into v's
        outside[t], best[t], near[t] = outside[m], best[m], near[m]
        if m:
            sims = S[v, outside[:m]]
            closer = sims > best[:m]
            np.maximum(best[:m], sims, out=best[:m])
            np.copyto(near[:m], v, where=closer)
    return weights, ends[0], ends[1]


def _neighbours(S: np.ndarray, s: float, own: np.ndarray, ahead: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The `at` entries of the `ahead` rows with an entry of value s against
    a row of `own`, comparing REPLAY_BLOCK rows of the shorter side with the
    whole other side at a time."""
    found = [at[:0]]
    if len(own) <= len(ahead):
        for start in range(0, len(own), REPLAY_BLOCK):
            block = S.take(own[start : start + REPLAY_BLOCK], axis=0).take(ahead, axis=1)
            found.append(at[np.nonzero(block == s)[1]])
    else:
        for start in range(0, len(ahead), REPLAY_BLOCK):
            block = S.take(ahead[start : start + REPLAY_BLOCK], axis=0).take(own, axis=1)
            found.append(at[start : start + REPLAY_BLOCK][(block == s).any(axis=1)])
    return np.concatenate(found)


def _replay_level(S: np.ndarray, s: float, pairs: list, parent: list) -> list:
    """The merges of one tied level s, in order, from the (i, j) cluster names
    of the level's tree edges at its start and the union-find `parent` then.

    Call two clusters neighbours when an entry of value s lies between them.
    Merging the lexicographically smallest pair of neighbours until none is
    left merges each group the tree edges join, in order of its smallest name,
    into the cluster of that name, the smallest neighbour at a time: that
    name stays the smallest one with neighbours and is kept. So each group is
    searched from its smallest name, and a cluster it reaches is compared with
    the rows of the group's clusters not yet reached. Two rows are compared
    at most once over all levels, since afterwards they share a cluster."""
    labels = np.array(parent)
    while True:  # each row's cluster name, by pointer jumping
        up = labels[labels]
        if np.array_equal(up, labels):
            break
        labels = up
    group = {name: name for pair in pairs for name in pair}  # union-find over the names
    for i, j in pairs:
        i, j = _find(group, i), _find(group, j)
        group[max(i, j)] = min(i, j)
    groups = {}
    for name in sorted(group):
        groups.setdefault(_find(group, name), []).append(name)
    merges = []
    for first in sorted(groups):
        names = groups[first]  # ascending, so `first` is at 0
        place = np.full(len(labels), -1)
        place[names] = np.arange(len(names))
        at_of = place[labels]  # each row's cluster in `names`, -1 outside the group
        rows = np.flatnonzero(at_of >= 0)
        row_at = at_of[rows]
        ahead, ahead_at = rows[row_at > 0], row_at[row_at > 0]
        waiting = np.zeros(len(names), dtype=bool)  # reached and not yet merged
        at = 0
        while True:
            hit = _neighbours(S, s, rows[row_at == at], ahead, ahead_at)
            if len(hit):
                waiting[hit] = True
                keep = ~waiting[ahead_at]  # a row leaves `ahead` once its cluster is reached
                ahead, ahead_at = ahead[keep], ahead_at[keep]
            if not waiting.any():
                break
            at = int(np.argmax(waiting))
            waiting[at] = False
            merges.append((first, names[at]))
    return merges


def merge_sequence(S: np.ndarray):
    S = np.asarray(S, dtype=np.float64)
    k = S.shape[0]
    if k < 2:
        return (
            np.empty(0),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
    weights, ends_a, ends_b = _spanning_tree(S)
    # Python's sort, not numpy's: numpy's float sort code faults about 190 KB
    # of pages into a stage process that sorts no other floats
    order = sorted(range(k - 1), key=weights.tolist().__getitem__, reverse=True)
    sims = weights[order]
    levels, ends_a, ends_b = sims.tolist(), ends_a[order].tolist(), ends_b[order].tolist()
    lefts = np.empty(k - 1, dtype=np.int64)
    rights = np.empty(k - 1, dtype=np.int64)
    parent = list(range(k))  # union-find; a cluster's root is its smallest member
    step = 0
    while step < k - 1:
        end = step + 1
        while end < k - 1 and levels[end] == levels[step]:
            end += 1
        merges = [
            tuple(sorted((_find(parent, a), _find(parent, b))))
            for a, b in zip(ends_a[step:end], ends_b[step:end])
        ]
        if len(merges) > 1:
            merges = _replay_level(S, levels[step], merges, parent)
        for a, b in merges:
            lefts[step], rights[step] = a, b
            parent[b] = a
            step += 1
    return sims, lefts, rights


# ---------------------------------------------------------------------------
# Connected components by min-label propagation
# ---------------------------------------------------------------------------


def components(n: int, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """Connected components of the graph on n nodes with the given edges, as
    labels 0.. numbered in order of each component's smallest node.

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
            return (np.cumsum(labels == np.arange(n)) - 1)[labels]
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
