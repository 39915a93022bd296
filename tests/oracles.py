"""Independent brute-force oracles the real implementations are checked against.

Everything here favors obviousness over speed: explicit pair loops, exhaustive
alignment enumeration, from-scratch similarity recomputation, and numeric
differentiation. None of it shares code with the package.
"""

from __future__ import annotations

import itertools
import struct

import numpy as np


# ---------------------------------------------------------------------------
# Clustering: naive single-linkage that recomputes every cluster pair each step
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


def pairwise_loss_loops(embeddings, chain_ids, lam1, lam2):
    """Attract/repulse by explicit double loops over unordered pairs."""

    def dist(a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0 or nb == 0:
            return 0.5
        return 0.5 * (1 - float(a @ b) / (na * nb))

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
        sum(dist(embeddings[i], embeddings[j]) for i, j in same) / len(same)
        if same
        else 0.0
    )
    repulse = (
        1.0 - sum(dist(embeddings[i], embeddings[j]) for i, j in diff) / len(diff)
        if diff
        else 0.0
    )
    return attract, repulse, lam1 * attract + lam2 * repulse


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


def checkpoint_bytes(magic, dims, epoch, seed, config_hash, t, arrays):
    """The checkpoint layout: magic, five uint32 dims, uint32 epoch, uint64
    seed and config hash, uint64 Adam step, then every array as
    little-endian float64 in C order."""
    head = magic + struct.pack("<5I", *dims) + struct.pack("<IQQ", epoch, seed, config_hash)
    head += struct.pack("<Q", t)
    return head + b"".join(np.asarray(a, dtype="<f8").tobytes(order="C") for a in arrays)
