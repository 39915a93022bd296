"""Independent brute-force oracles the real implementations are checked against.

Everything here favors obviousness over speed: explicit pair loops, exhaustive
alignment enumeration, from-scratch similarity recomputation, and numeric
differentiation. None of it shares code with the package, except that the
reference training loop draws its batches, runs its forward passes and tunes
tau with the package's own functions, which are not what it checks.
"""

from __future__ import annotations

import itertools
import struct
from collections import Counter

import numpy as np


# ---------------------------------------------------------------------------
# Clustering: naive single-linkage that recomputes every cluster pair each
# step, and a union-find for connected components
# ---------------------------------------------------------------------------


def naive_merge_sequence(sims: np.ndarray, init=None):
    """Merge sequence with the same slot/tie conventions as the kernel:
    slots are initial clusters ordered by smallest member, a merge keeps the
    lower slot, ties pick the lexicographically smallest slot pair."""
    n = sims.shape[0]
    if init is None:
        clusters = {i: {i} for i in range(n)}
    else:
        ordered = sorted((set(c) for c in init), key=min)
        clusters = dict(enumerate(ordered))
    seq = []
    while len(clusters) > 1:
        best = None
        for i, j in itertools.combinations(sorted(clusters), 2):
            s = max(sims[a, b] for a in clusters[i] for b in clusters[j])
            if best is None or s > best[0]:
                best = (s, i, j)
        s, i, j = best
        seq.append((s, i, j))
        clusters[i] = clusters[i] | clusters[j]
        del clusters[j]
    return seq


def dense_merge_sequence(S: np.ndarray):
    """The merge sequence by the dense cubic loop: each step takes the argmax
    over the k x k cluster-similarity matrix (upper triangle; dead slots and
    the diagonal at -inf), records it, and writes the merged cluster's row as
    the elementwise max of its parts into the lower slot. Returns the
    kernel's (sims, lefts, rights) arrays."""
    S = np.array(S, dtype=np.float64)
    k = S.shape[0]
    if k < 2:
        return np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    sims = np.empty(k - 1)
    lefts = np.empty(k - 1, dtype=np.int64)
    rights = np.empty(k - 1, dtype=np.int64)
    for row in range(k):
        S[row, : row + 1] = -np.inf
    for step in range(k - 1):
        bi, bj = divmod(int(np.argmax(S)), k)
        sims[step], lefts[step], rights[step] = S[bi, bj], bi, bj
        merged = np.maximum(np.maximum(S[bi, :], S[bj, :]), np.maximum(S[:, bi], S[:, bj]))
        S[bi, :] = -np.inf
        S[:, bi] = -np.inf
        S[bi, bi + 1 :] = merged[bi + 1 :]
        S[:bi, bi] = merged[:bi]
        S[bj, :] = -np.inf
        S[:, bj] = -np.inf
    return sims, lefts, rights


def naive_single_linkage(sims: np.ndarray, tau: float, init=None):
    """Partition after merging while similarity >= tau."""
    n = sims.shape[0]
    if init is None:
        clusters = [set([i]) for i in range(n)]
    else:
        clusters = sorted((set(c) for c in init), key=min)
    clusters = {i: c for i, c in enumerate(clusters)}
    while len(clusters) > 1:
        best = None
        for i, j in itertools.combinations(sorted(clusters), 2):
            s = max(sims[a, b] for a in clusters[i] for b in clusters[j])
            if best is None or s > best[0]:
                best = (s, i, j)
        s, i, j = best
        if s < tau:
            break
        clusters[i] = clusters[i] | clusters[j]
        del clusters[j]
    return sorted(clusters.values(), key=min)


def union_find_components(n: int, edges) -> list[int]:
    """Each node's smallest component member, by union-find over (a, b)
    edge pairs; the root of a set is always its smallest member."""
    root = list(range(n))

    def find(a):
        while root[a] != a:
            a = root[a]
        return a

    for a, b in edges:
        ra, rb = find(a), find(b)
        root[max(ra, rb)] = min(ra, rb)
    return [find(a) for a in range(n)]


# ---------------------------------------------------------------------------
# Scorers over chain lists (lists of frozensets of mention ids)
# ---------------------------------------------------------------------------


def _f1(p, r):
    return 2 * p * r / (p + r) if p + r else 0.0


def oracle_muc(gold, sys):
    def half(base, other):
        num = den = 0
        for chain in base:
            parts = set()
            for m in chain:
                for k, o in enumerate(other):
                    if m in o:
                        parts.add(k)
            num += len(chain) - len(parts)
            den += len(chain) - 1
        return num, den

    rn, rd = half(gold, sys)
    pn, pd = half(sys, gold)
    r = rn / rd if rd else 0.0
    p = pn / pd if pd else 0.0
    return r, p, _f1(p, r)


def oracle_b3(gold, sys):
    mentions = sorted(set().union(*gold))
    if not mentions:
        return 0.0, 0.0, 0.0

    def chain_of(chains, m):
        for c in chains:
            if m in c:
                return c

    r = p = 0.0
    for m in mentions:
        g = chain_of(gold, m)
        s = chain_of(sys, m)
        # pair-counting form: count co-members agreeing in both partitions
        agree = sum(1 for x in mentions if (x in g) and (x in s))
        r += agree / len(g)
        p += agree / len(s)
    r /= len(mentions)
    p /= len(mentions)
    return r, p, _f1(p, r)


def oracle_ceaf(gold, sys, phi):
    """Exhaustive one-to-one alignment over all injections (<= 6 chains)."""

    def phi_val(a, b):
        inter = len(a & b)
        if phi == "mention":
            return float(inter)
        return 2.0 * inter / (len(a) + len(b))

    small, large, transposed = (
        (gold, sys, False) if len(gold) <= len(sys) else (sys, gold, True)
    )
    best = 0.0
    for perm in itertools.permutations(range(len(large)), len(small)):
        total = sum(phi_val(small[i], large[perm[i]]) for i in range(len(small)))
        best = max(best, total)
    if phi == "mention":
        r_den = sum(len(c) for c in gold)
        p_den = sum(len(c) for c in sys)
    else:
        r_den, p_den = len(gold), len(sys)
    r = best / r_den if r_den else 0.0
    p = best / p_den if p_den else 0.0
    return r, p, _f1(p, r)


def square_lsap_min(cost: np.ndarray) -> np.ndarray:
    """Column index assigned to each row of a square cost matrix, minimizing
    total cost: the package's Kuhn-Munkres before it solved rectangular
    matrices (shortest augmenting paths, potentials updated on every
    step, a virtual 0th column). Callers zero-pad a rectangular input."""
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


def oracle_blanc(gold, sys):
    """Explicit pair sets for both link types."""

    def coref_pairs(chains):
        out = set()
        for c in chains:
            out |= {frozenset(p) for p in itertools.combinations(sorted(c), 2)}
        return out

    mentions = sorted(set().union(*gold))
    all_pairs = {frozenset(p) for p in itertools.combinations(mentions, 2)}
    cg, cs = coref_pairs(gold), coref_pairs(sys)
    ng, ns = all_pairs - cg, all_pairs - cs

    def prf(inter, gold_links, sys_links):
        r = inter / len(gold_links) if gold_links else 0.0
        p = inter / len(sys_links) if sys_links else 0.0
        return r, p, _f1(p, r)

    coref = prf(len(cg & cs), cg, cs)
    noncoref = prf(len(ng & ns), ng, ns)
    have_c = bool(cg or cs)
    have_n = bool(ng or ns)
    if have_c and have_n:
        return tuple((a + b) / 2 for a, b in zip(coref, noncoref))
    if have_c:
        return coref
    if have_n:
        return noncoref
    return 0.0, 0.0, 0.0


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def finite_difference(loss_fn, arrays, h=1e-6):
    """Central differences for every entry of every array, in place."""
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn()
            flat[idx] = orig - h
            down = loss_fn()
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * h)
        grads.append(grad)
    return grads


def max_relative_error(analytic, numeric, floor=1e-5):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def plain_softmax_cce_grads(params_arrays, inputs, labels):
    """Reference CCE-only backprop for the 4-layer ReLU net, written straight
    from the textbook update rules (no dropout, no pairwise terms)."""
    w1, b1, w2, b2, w3, b3, w4, b4 = params_arrays
    n = inputs.shape[0]
    z1 = inputs @ w1 + b1
    a1 = np.maximum(z1, 0)
    z2 = a1 @ w2 + b2
    a2 = np.maximum(z2, 0)
    z3 = a2 @ w3 + b3
    a3 = np.maximum(z3, 0)
    z4 = a3 @ w4 + b4
    e = np.exp(z4 - z4.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)

    delta4 = probs.copy()
    delta4[np.arange(n), labels] -= 1.0
    delta4 /= n
    g_w4, g_b4 = a3.T @ delta4, delta4.sum(0)
    delta3 = (delta4 @ w4.T) * (z3 > 0)
    g_w3, g_b3 = a2.T @ delta3, delta3.sum(0)
    delta2 = (delta3 @ w3.T) * (z2 > 0)
    g_w2, g_b2 = a1.T @ delta2, delta2.sum(0)
    delta1 = (delta2 @ w2.T) * (z1 > 0)
    g_w1, g_b1 = inputs.T @ delta1, delta1.sum(0)
    return [g_w1, g_b1, g_w2, g_b2, g_w3, g_b3, g_w4, g_b4]


def cosine_distance(e1: np.ndarray, e2: np.ndarray) -> float:
    """(1 - cos)/2 in [0, 1]; a zero-norm operand makes the cosine 0 and the
    distance the neutral 1/2."""
    n1 = np.linalg.norm(e1)
    n2 = np.linalg.norm(e2)
    if n1 == 0.0 or n2 == 0.0:
        return 0.5
    cos = float(np.dot(e1, e2) / (n1 * n2))
    return 0.5 * (1.0 - max(-1.0, min(1.0, cos)))


def pairwise_loss_loops(embeddings, chain_ids, lam1, lam2):
    """Attract/repulse by explicit double loops over unordered pairs."""
    n = len(chain_ids)
    same = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if chain_ids[i] == chain_ids[j]
    ]
    diff = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if chain_ids[i] != chain_ids[j]
    ]
    attract = (
        sum(cosine_distance(embeddings[i], embeddings[j]) for i, j in same) / len(same)
        if same
        else 0.0
    )
    repulse = (
        1.0 - sum(cosine_distance(embeddings[i], embeddings[j]) for i, j in diff) / len(diff)
        if diff
        else 0.0
    )
    return attract, repulse, lam1 * attract + lam2 * repulse


def pair_geometry(embeddings, codes):
    """(unit rows, norms, cosine matrix, same-chain and different-chain
    masks with zero diagonal, and the number of unordered pairs of each)."""
    codes = np.asarray(codes)
    norms = np.linalg.norm(embeddings, axis=1)
    units = embeddings / np.where(norms > 0.0, norms, 1.0)[:, None]
    diff = codes[:, None] != codes[None, :]
    same = ~diff
    np.fill_diagonal(same, False)
    return units, norms, units @ units.T, same, diff, int(same.sum()) // 2, int(diff.sum()) // 2


def core_embedding_grad(embeddings, codes, lam1, lam2):
    """Gradient of lam1*attract + lam2*repulse with respect to the
    embeddings, from its own pair geometry; zero-norm rows get 0."""
    units, norms, cos, same, diff, n_same, n_diff = pair_geometry(embeddings, codes)
    weights = np.zeros(cos.shape)
    if lam1 != 0.0 and n_same > 0:
        weights[same] += lam1 / n_same
    if lam2 != 0.0 and n_diff > 0:
        weights[diff] -= lam2 / n_diff
    radial = (weights * cos).sum(axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    grad = -(weights @ units - radial[:, None] * units) / (2.0 * safe[:, None])
    grad[norms == 0.0] = 0.0
    return grad


def two_call_step(params, cache, labels, codes, lam1, lam2, use_cce=True, cols=None):
    """The training step as two separate computations, the loss and then the
    gradients, each building its own pair geometry: ((total, cce, attract,
    repulse), [eight gradients]) from a forward cache. Every operation keeps
    the package's floating-point order, so its results are the reference
    for the one-geometry step bit for bit. Empty pair sets give 0 without a
    warning. `cols`, when given, are the input columns whose product the
    forward pass's first layer took (with w1's same rows); the first-layer
    pre-activation is recomputed from them, while the w1 gradient still
    takes every row."""

    # the loss
    n = cache.inputs.shape[0]
    picked = cache.probs[np.arange(n), labels]
    cce = float(-np.mean(np.log(np.maximum(picked, 1e-12)))) if use_cce else 0.0
    attract = repulse = 0.0
    if lam1 != 0.0 or lam2 != 0.0:
        _, _, cos, same, diff, n_same, n_diff = pair_geometry(cache.embeddings, codes)
        if lam1 != 0.0 and n_same > 0:
            attract = float((0.5 * (1.0 - cos[same])).sum() / 2.0 / n_same)
        if lam2 != 0.0 and n_diff > 0:
            repulse = float(1.0 - (0.5 * (1.0 - cos[diff])).sum() / 2.0 / n_diff)
    loss = (float(cce + lam1 * attract + lam2 * repulse), cce, attract, repulse)

    # the gradients, with a second geometry for the pairwise terms
    w1, b1, w2, b2, w3, b3, w4, b4 = params.arrays()
    train = cache.masks is not None
    scale = 1.0 / (1.0 - cache.dropout) if train else 1.0
    d_z4 = cache.probs.copy()
    if use_cce:
        d_z4[np.arange(n), labels] -= 1.0
        d_z4 /= n
    else:
        d_z4[:] = 0.0
    # the pre-activations, recomputed from the cached layer inputs
    z1 = cache.inputs @ w1 + b1 if cols is None else cache.inputs[:, cols] @ w1[cols] + b1
    z2, z3 = cache.d1 @ w2 + b2, cache.d2 @ w3 + b3
    d_d3 = d_z4 @ w4.T
    d_z3 = (d_d3 * cache.masks[2] * scale if train else d_d3) * (z3 > 0.0)
    d_d2 = d_z3 @ w3.T
    d_emb = d_d2 * cache.masks[1] * scale if train else d_d2
    if lam1 != 0.0 or lam2 != 0.0:
        d_emb = d_emb + core_embedding_grad(cache.embeddings, codes, lam1, lam2)
    d_z2 = d_emb * (z2 > 0.0)
    d_d1 = d_z2 @ w2.T
    d_z1 = (d_d1 * cache.masks[0] * scale if train else d_d1) * (z1 > 0.0)
    grads = [
        cache.inputs.T @ d_z1, d_z1.sum(axis=0), cache.d1.T @ d_z2, d_z2.sum(axis=0),
        cache.d2.T @ d_z3, d_z3.sum(axis=0), cache.d3.T @ d_z4, d_z4.sum(axis=0),
    ]
    return loss, grads


# ---------------------------------------------------------------------------
# Adam and checkpoints: whole-array expression forms
# ---------------------------------------------------------------------------


def adam_step_expression(params, m, v, grads, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step (Kingma & Ba 2015) over lists of arrays, written as
    whole-array expressions; returns new (params, m, v) lists."""
    new_params, new_m, new_v = [], [], []
    for param, m_i, v_i, grad in zip(params, m, v, grads):
        m_i = beta1 * m_i + (1.0 - beta1) * grad
        v_i = beta2 * v_i + (1.0 - beta2) * grad * grad
        m_hat = m_i / (1.0 - beta1**t)
        v_hat = v_i / (1.0 - beta2**t)
        new_params.append(param - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m_i)
        new_v.append(v_i)
    return new_params, new_m, new_v


def full_row_train(features, class_labels, chain_ids, n_classes, config, val):
    """The training loop as it was before any first-layer row was skipped,
    except for the first layer's forward products: every step computes the
    whole first-layer gradient (two_call_step), runs the whole-array Adam
    update on every parameter (adam_step_expression) and every new best
    epoch copies every parameter array. The forward pass multiplies only
    the movable columns (those nonzero in some train row, or all of them
    when fewer than two are) by w1's same rows, and the validation
    embedding adds to that product the products of the runs of other
    columns nonzero in some validation row, summed in column order.
    Batches, forward passes, embeddings and the validation tau search are
    the package's (train.sample_batch, network.forward, network.embed,
    clustering.tune_tau), drawn from one generator in the same order as
    train.train, so its results are the reference for the row-restricted
    loop bit for bit. `val` is (features, mention ids, gold clustering).
    Returns a dict of the final parameters and moments (lists of arrays),
    the Adam step count, the best epoch's parameters and one (epoch, total,
    cce, attract, repulse, val_b3, tau) row per epoch."""
    from evcoref.clustering import tune_tau
    from evcoref.network import NetParams, embed, forward, init_params
    from evcoref.train import encode_chains, sample_batch

    features = np.asarray(features, dtype=np.float64)
    movable = np.array([any(x != 0.0 for x in column) for column in features.T])
    if movable.sum() < 2:
        movable[:] = True
    cols = np.flatnonzero(movable)
    val_x, val_ids, val_gold = val
    outside = [not movable[c] and any(x != 0.0 for x in val_x[:, c]) for c in range(len(movable))]
    rest_runs = []
    for c, out in enumerate(outside):
        if out and rest_runs and rest_runs[-1][1] == c:
            rest_runs[-1][1] = c + 1
        elif out:
            rest_runs.append([c, c + 1])
    codes = encode_chains(chain_ids)
    rng = np.random.default_rng(config.seed)
    net = init_params(rng, features.shape[1], n_classes, config.hidden1, config.embed, config.hidden3)
    params = net.arrays()
    m = [np.zeros_like(a) for a in params]
    v = [np.zeros_like(a) for a in params]
    steps = max(1, -(-len(features) // config.batch_size))
    t = 0
    best = None
    history = []
    for epoch in range(1, config.epochs + 1):
        sums = np.zeros(4)
        for _ in range(steps):
            batch = sample_batch(
                features, class_labels, codes, rng, net.dims, size=config.batch_size,
                dropout=config.dropout,
            )
            cache = forward(
                NetParams(params[0][cols], *params[1:]), batch.inputs[:, cols], mode="train",
                masks=batch.dropout_masks, dropout=config.dropout,
            )
            cache.inputs = batch.inputs  # the whole first-layer gradient reads every column
            loss, grads = two_call_step(
                NetParams(*params), cache, batch.class_labels, batch.chain_codes,
                config.lambda1, config.lambda2, config.use_cce, cols=cols,
            )
            t += 1
            params, m, v = adam_step_expression(params, m, v, grads, t, config.lr)
            sums += loss
        mean = sums / steps
        rest = None
        for lo, hi in rest_runs:
            part = val_x[:, lo:hi] @ params[0][lo:hi]
            rest = part if rest is None else rest + part
        emb = embed(NetParams(params[0][cols], *params[1:]), val_x[:, cols], rest)
        tau, val_b3 = tune_tau(emb, val_ids, val_gold)
        if best is None or val_b3 > best["best_b3"]:
            best = {
                "best_params": [a.copy() for a in params], "best_epoch": epoch,
                "best_b3": val_b3, "best_tau": tau,
            }
        history.append((epoch, *mean, val_b3, tau))
    return {"params": params, "m": m, "v": v, "t": t, **best, "history": history}


def checkpoint_bytes(magic, dims, epoch, seed, config_hash, arrays):
    """The checkpoint layout: magic, five uint32 dims, uint32 epoch, uint64
    seed and config hash, then every array as little-endian float64 in C
    order."""
    head = magic + struct.pack("<5I", *dims) + struct.pack("<IQQ", epoch, seed, config_hash)
    return head + b"".join(np.asarray(a, dtype="<f8").tobytes(order="C") for a in arrays)


# ---------------------------------------------------------------------------
# Comparative features: one Counter overlap per mention pair
# ---------------------------------------------------------------------------


def harmonic_overlap(a: Counter, b: Counter) -> float:
    """Dice overlap of two token multisets, 2|A&B| / (|A|+|B|)."""
    total = sum(a.values()) + sum(b.values())
    if total == 0:
        return 0.0
    inter = sum((a & b).values())
    return 2.0 * inter / total


def comparative_row(view, same_doc, pool) -> np.ndarray:
    """[is_first, rank/n, is_last] plus the mean word/lemma overlap of one
    mention view against the rest of its document and of its pool, each mean
    summed left to right in the given order; an empty set gives 0."""

    def averages(others):
        others = [o for o in others if o.mention_id != view.mention_id]
        if not others:
            return 0.0, 0.0
        w = sum(harmonic_overlap(Counter(view.words), Counter(o.words)) for o in others)
        l = sum(harmonic_overlap(Counter(view.lemmas), Counter(o.lemmas)) for o in others)
        return w / len(others), l / len(others)

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


def comparative_block(views, pool: str) -> np.ndarray:
    """comparative_row for every view of a split, in order."""
    rows = []
    for v in views:
        same_doc = [o for o in views if o.doc_id == v.doc_id]
        in_pool = views if pool == "global" else [o for o in views if o.topic_id == v.topic_id]
        rows.append(comparative_row(v, same_doc, in_pool))
    return np.array(rows).reshape(len(views), 7)


# ---------------------------------------------------------------------------
# Comparative features: the whole-matrix form, one n x n Dice matrix per pool
# ---------------------------------------------------------------------------


def whole_matrix_dice(bags) -> np.ndarray:
    """Pairwise multiset Dice overlap 2|A&B| / (|A|+|B|) of token bags as one
    n x n matrix; 0 where both bags are empty. |A&B| = sum_k (C >= k)(C >= k)^T
    over k = 1..max count, exact integers whatever order BLAS adds them in."""
    column: dict = {}
    counts = np.zeros((len(bags), len({t for bag in bags for t in bag})))
    for row, bag in enumerate(bags):
        for token in bag:
            counts[row, column.setdefault(token, len(column))] += 1.0
    n = len(bags)
    inter = np.zeros((n, n))
    for k in range(1, int(counts.max(initial=0.0)) + 1):
        at_least = (counts >= k).astype(np.float64)
        inter += at_least @ at_least.T
    sizes = counts.sum(axis=1)
    total = sizes[:, None] + sizes[None, :]
    inter *= 2.0
    return np.divide(inter, total, out=inter, where=total > 0)


def whole_matrix_mean_over_others(dice: np.ndarray, same: np.ndarray | None) -> np.ndarray:
    """Each row's mean over the other columns (within `same`, or all of
    them), added left to right with the excluded terms as +0.0; 0 for a row
    with no other column."""
    n = dice.shape[0]
    keep = np.ones((n, n), dtype=bool) if same is None else same.copy()
    np.fill_diagonal(keep, False)
    terms = np.where(keep, dice, 0.0)
    sums = np.add.accumulate(terms, axis=1, out=terms)[:, -1]
    counts = keep.sum(axis=1)
    return np.divide(sums, counts, out=np.zeros(n), where=counts > 0)


def whole_matrix_comparative(views, pool: str) -> np.ndarray:
    """The (n, 7) positional and comparative block of a split from whole
    n x n matrices per pool group (the split, or each topic)."""
    out = np.zeros((len(views), 7))
    for i, v in enumerate(views):
        out[i, :3] = [v.rank == 1, v.rank / v.n_in_doc, v.rank == v.n_in_doc]
    groups: dict = {}
    for i, v in enumerate(views):
        groups.setdefault(v.topic_id if pool == "topic" else "", []).append(i)
    for rows in groups.values():
        docs = [views[i].doc_id for i in rows]
        same_doc = np.array([[a == b for b in docs] for a in docs])
        for col, attr in ((3, "words"), (4, "lemmas")):
            dice = whole_matrix_dice([getattr(views[i], attr) for i in rows])
            out[rows, col] = whole_matrix_mean_over_others(dice, same_doc)
            out[rows, col + 2] = whole_matrix_mean_over_others(dice, None)
    return out


# ---------------------------------------------------------------------------
# Lemma-delta partition: the pair loop recomputed for one delta
# ---------------------------------------------------------------------------


def lemma_delta_chains(corpus, tfidf, delta: float) -> list[list[str]]:
    """Sorted chains of the transitive closure of: same head lemma (the
    span's last token) AND (same document OR document TF-IDF cosine > delta)."""
    units = {}
    for doc in corpus.documents:
        vec = tfidf.doc_vector(doc)
        norm = np.linalg.norm(vec)
        units[doc.doc_id] = vec / norm if norm > 0 else vec
    mentions = [
        (m.id, doc.tokens[m.last_index].lemma, doc.doc_id)
        for doc in corpus.documents
        for m in doc.mentions
    ]
    chain = {m_id: {m_id} for m_id, _, _ in mentions}
    for (mi, li, di), (mj, lj, dj) in itertools.combinations(mentions, 2):
        if li == lj and (di == dj or float(units[di] @ units[dj]) > delta):
            merged = chain[mi] | chain[mj]
            for m in merged:
                chain[m] = merged
    unique = {id(c): c for c in chain.values()}.values()
    return sorted(sorted(c) for c in unique)


# ---------------------------------------------------------------------------
# Corpus file: the writer that load_corpus is the inverse of
# ---------------------------------------------------------------------------


def save_corpus(corpus, path) -> None:
    """The corpus file of `corpus` in the format load_corpus reads: a saved
    corpus reloads identically."""
    with open(path, "w", encoding="utf-8") as out:
        for doc in corpus.documents:
            out.write(f"DOC\t{doc.doc_id}\t{doc.topic_id}\n")
            for t in doc.tokens:
                out.write(f"TOK\t{t.index}\t{t.sentence_id}\t{t.word}\t{t.lemma}\n")
            for m in doc.mentions:
                idx = ",".join(str(i) for i in m.token_indices)
                out.write(f"MEN\t{m.id}\t{m.gold_chain}\t{idx}\n")
