"""Hourglass representation learner.

Four affine+ReLU layers (wide, narrow embedding layer, wide, softmax) trained
against mean categorical cross-entropy over C+1 chain classes plus two
cosine-distance regularizers: an attractive term averaged over same-chain
pairs and a repulsive term driving different-chain pairs apart. Gradients are
derived by hand and verified against central finite differences; no autodiff
framework is involved.

Embeddings are always the post-ReLU activations of the narrow layer, taken
before dropout, both for the pairwise loss terms and at inference.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ModelMismatchError, ParseError

PROB_CLAMP = 1e-12
CHECKPOINT_MAGIC = b"EVCOREF.CKPT.1\n"

_PARAM_FIELDS = ("w1", "b1", "w2", "b2", "w3", "b3", "w4", "b4")


@dataclass
class NetParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    w4: np.ndarray
    b4: np.ndarray

    @property
    def dims(self) -> tuple[int, int, int, int, int]:
        """(input, hidden1, embedding, hidden3, classes)."""
        return (
            self.w1.shape[0],
            self.w1.shape[1],
            self.w2.shape[1],
            self.w3.shape[1],
            self.w4.shape[1],
        )

    def arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in _PARAM_FIELDS]

    def copy(self) -> "NetParams":
        return NetParams(*[a.copy() for a in self.arrays()])


def init_params(
    rng: np.random.Generator,
    n_inputs: int,
    n_classes: int,
    hidden1: int = 1000,
    embed: int = 250,
    hidden3: int = 1000,
) -> NetParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""

    def layer(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        return w, np.zeros(fan_out)

    w1, b1 = layer(n_inputs, hidden1)
    w2, b2 = layer(hidden1, embed)
    w3, b3 = layer(embed, hidden3)
    w4, b4 = layer(hidden3, n_classes)
    return NetParams(w1, b1, w2, b2, w3, b3, w4, b4)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


@dataclass
class ForwardCache:
    """Everything backward() needs, plus the public (embeddings, probs)."""

    inputs: np.ndarray
    z1: np.ndarray
    d1: np.ndarray
    z2: np.ndarray
    embeddings: np.ndarray  # relu(z2), pre-dropout
    d2: np.ndarray
    z3: np.ndarray
    d3: np.ndarray
    probs: np.ndarray
    masks: tuple | None
    dropout: float


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(
    params: NetParams,
    inputs: np.ndarray,
    mode: str = "infer",
    masks: tuple | None = None,
    dropout: float = 0.25,
) -> ForwardCache:
    """Run the network. In train mode the supplied binary masks are applied
    after each hidden layer with inverted 1/(1-p) scaling; infer mode uses no
    dropout and is fully deterministic."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != params.w1.shape[0]:
        raise ModelMismatchError(
            f"input width {inputs.shape[-1]} != network input {params.w1.shape[0]}"
        )
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    train = mode == "train"
    if train:
        if masks is None or len(masks) != 3:
            raise ValueError("train mode requires three dropout masks")
        scale = 1.0 / (1.0 - dropout)
    relu = lambda z: np.maximum(z, 0.0)

    z1 = inputs @ params.w1 + params.b1
    a1 = relu(z1)
    d1 = a1 * masks[0] * scale if train else a1

    z2 = d1 @ params.w2 + params.b2
    embeddings = relu(z2)
    d2 = embeddings * masks[1] * scale if train else embeddings

    z3 = d2 @ params.w3 + params.b3
    a3 = relu(z3)
    d3 = a3 * masks[2] * scale if train else a3

    z4 = d3 @ params.w4 + params.b4
    probs = softmax(z4)
    return ForwardCache(
        inputs=inputs,
        z1=z1,
        d1=d1,
        z2=z2,
        embeddings=embeddings,
        d2=d2,
        z3=z3,
        d3=d3,
        probs=probs,
        masks=masks if train else None,
        dropout=dropout,
    )


def embed(params: NetParams, inputs: np.ndarray) -> np.ndarray:
    return forward(params, inputs, mode="infer").embeddings


def make_dropout_masks(
    rng: np.random.Generator, n: int, dims: tuple[int, int, int, int, int], dropout: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    keep = 1.0 - dropout
    return tuple(
        (rng.random((n, width)) < keep).astype(np.float64) for width in dims[1:4]
    )


# ---------------------------------------------------------------------------
# Loss terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    cce: float
    attract: float
    repulse: float
    lambda1: float
    lambda2: float


def loss_cce(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean categorical cross-entropy, probabilities clamped at 1e-12."""
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, PROB_CLAMP))))


def cosine_distance(e1: np.ndarray, e2: np.ndarray) -> float:
    """(1 - cos)/2 in [0, 1]; a zero-norm operand makes the cosine 0 and the
    distance the neutral 1/2."""
    n1 = np.linalg.norm(e1)
    n2 = np.linalg.norm(e2)
    if n1 == 0.0 or n2 == 0.0:
        return 0.5
    cos = float(np.dot(e1, e2) / (n1 * n2))
    return 0.5 * (1.0 - max(-1.0, min(1.0, cos)))


def _unit_rows(embeddings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(embeddings, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    return embeddings / safe[:, None], norms


@dataclass(frozen=True)
class _Pairs:
    """Unit rows, their cosine matrix and the same-chain / different-chain
    indicator matrices (zero diagonal) of one batch, with the number of
    unordered pairs of each kind."""

    units: np.ndarray
    norms: np.ndarray
    cos: np.ndarray
    same: np.ndarray
    diff: np.ndarray
    n_same: int
    n_diff: int


def _pairs(embeddings: np.ndarray, chain_codes: np.ndarray) -> _Pairs:
    units, norms = _unit_rows(embeddings)
    codes = np.asarray(chain_codes)
    diff = codes[:, None] != codes[None, :]
    same = ~diff
    np.fill_diagonal(same, False)
    n_same = int(same.sum()) // 2
    n_diff = int(diff.sum()) // 2
    return _Pairs(units, norms, units @ units.T, same, diff, n_same, n_diff)


def _attract(pairs: _Pairs) -> float:
    if pairs.n_same == 0:
        warnings.warn("no same-chain pair in batch; attractive term is 0")
        return 0.0
    dist = 0.5 * (1.0 - pairs.cos[pairs.same])
    return float(dist.sum() / 2.0 / pairs.n_same)


def _repulse(pairs: _Pairs) -> float:
    if pairs.n_diff == 0:
        warnings.warn("no cross-chain pair in batch; repulsive term is 0")
        return 0.0
    dist = 0.5 * (1.0 - pairs.cos[pairs.diff])
    return float(1.0 - dist.sum() / 2.0 / pairs.n_diff)


def loss_attract(embeddings: np.ndarray, chain_codes: np.ndarray) -> float:
    """Mean cosine distance over unordered same-chain pairs."""
    return _attract(_pairs(embeddings, chain_codes))


def loss_repulse(embeddings: np.ndarray, chain_codes: np.ndarray) -> float:
    """One minus the mean cosine distance over unordered cross-chain pairs."""
    return _repulse(_pairs(embeddings, chain_codes))


def loss_total(
    probs: np.ndarray,
    embeddings: np.ndarray,
    labels: np.ndarray,
    chain_codes: np.ndarray,
    lambda1: float,
    lambda2: float,
    use_cce: bool = True,
) -> LossBreakdown:
    """Combined objective. Both pairwise terms come from one embedding-matrix
    product; use_cce=False drops the classification term (the CORE-only
    variant), reported as cce=0 so total = cce + l1*attract + l2*repulse
    always holds."""
    cce = loss_cce(probs, labels) if use_cce else 0.0
    pairs = _pairs(embeddings, chain_codes) if lambda1 != 0.0 or lambda2 != 0.0 else None
    attract = _attract(pairs) if lambda1 != 0.0 else 0.0
    repulse = _repulse(pairs) if lambda2 != 0.0 else 0.0
    total = cce + lambda1 * attract + lambda2 * repulse
    return LossBreakdown(
        total=float(total),
        cce=cce,
        attract=attract,
        repulse=repulse,
        lambda1=lambda1,
        lambda2=lambda2,
    )


def core_embedding_grad(
    embeddings: np.ndarray,
    chain_codes: np.ndarray,
    lambda1: float,
    lambda2: float,
) -> np.ndarray:
    """Gradient of l1*attract + l2*repulse with respect to the embeddings.

    With unit rows u_i and c_ij = u_i . u_j, each pair's distance has
    d(d_ij)/d(e_i) = -(u_j - c_ij u_i) / (2 |e_i|); pairs are weighted
    +l1/|S| (same chain) and -l2/|D| (different chain, from the leading
    minus in the repulsive term). Zero-norm rows have constant distance to
    everything, so they receive and contribute no gradient.
    """
    p = _pairs(embeddings, chain_codes)
    weights = np.zeros_like(p.same, dtype=np.float64)
    if lambda1 != 0.0 and p.n_same > 0:
        weights[p.same] += lambda1 / p.n_same
    if lambda2 != 0.0 and p.n_diff > 0:
        weights[p.diff] -= lambda2 / p.n_diff
    projected = weights @ p.units
    radial = (weights * p.cos).sum(axis=1)
    safe = np.where(p.norms > 0.0, p.norms, 1.0)
    grad = -(projected - radial[:, None] * p.units) / (2.0 * safe[:, None])
    grad[p.norms == 0.0] = 0.0
    return grad


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def backward(
    params: NetParams,
    cache: ForwardCache,
    labels: np.ndarray,
    chain_codes: np.ndarray,
    lambda1: float,
    lambda2: float,
    use_cce: bool = True,
    out: NetParams | None = None,
) -> NetParams:
    """Exact gradients of loss_total for every parameter, written into `out`
    (a NetParams-shaped container of C-contiguous float64 arrays, allocated
    when None) and returned. The pairwise terms feed the embedding layer
    directly (pre-dropout); the cross-entropy path routes through the same
    dropout masks the forward pass used."""
    if out is None:
        out = NetParams(*[np.empty_like(a, order="C") for a in params.arrays()])
    n = cache.inputs.shape[0]
    train = cache.masks is not None
    scale = 1.0 / (1.0 - cache.dropout) if train else 1.0

    if use_cce:
        d_z4 = cache.probs.copy()
        d_z4[np.arange(n), labels] -= 1.0
        d_z4 /= n
    else:
        d_z4 = np.zeros_like(cache.probs)

    np.matmul(cache.d3.T, d_z4, out=out.w4)
    d_z4.sum(axis=0, out=out.b4)

    d_d3 = d_z4 @ params.w4.T
    d_a3 = d_d3 * cache.masks[2] * scale if train else d_d3
    d_z3 = d_a3 * (cache.z3 > 0.0)

    np.matmul(cache.d2.T, d_z3, out=out.w3)
    d_z3.sum(axis=0, out=out.b3)

    d_d2 = d_z3 @ params.w3.T
    d_emb = d_d2 * cache.masks[1] * scale if train else d_d2
    if lambda1 != 0.0 or lambda2 != 0.0:
        d_emb = d_emb + core_embedding_grad(
            cache.embeddings, chain_codes, lambda1, lambda2
        )
    d_z2 = d_emb * (cache.z2 > 0.0)

    np.matmul(cache.d1.T, d_z2, out=out.w2)
    d_z2.sum(axis=0, out=out.b2)

    d_d1 = d_z2 @ params.w2.T
    d_a1 = d_d1 * cache.masks[0] * scale if train else d_d1
    d_z1 = d_a1 * (cache.z1 > 0.0)

    np.matmul(cache.inputs.T, d_z1, out=out.w1)
    d_z1.sum(axis=0, out=out.b1)

    return out


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# Elements per block of the Adam update: the four operand blocks and the two
# scratch blocks (6 x 256 KiB) stay in cache between the operations on them.
ADAM_BLOCK = 32768


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0

    @classmethod
    def for_params(cls, params: NetParams) -> "AdamState":
        return cls(
            m=[np.zeros_like(a) for a in params.arrays()],
            v=[np.zeros_like(a) for a in params.arrays()],
            t=0,
        )


def _flat(a: np.ndarray) -> np.ndarray:
    """1-d view of an array updated in place (a reshaped copy would drop
    the update)."""
    if not a.flags.c_contiguous:
        raise ValueError("Adam updates C-contiguous arrays in place")
    return a.reshape(-1)


def adam_step(
    params: NetParams,
    state: AdamState,
    grads: NetParams,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """In-place Adam update with bias correction.

    Per element, in exactly this floating-point order:
    m = beta1*m + (1-beta1)*g, v = beta2*v + ((1-beta2)*g)*g, then
    param -= (lr*(m/(1-beta1**t))) / (sqrt(v/(1-beta2**t)) + eps).
    m, v and the parameters are updated where they are, ADAM_BLOCK elements
    at a time through two scratch blocks, so a step allocates nothing the
    size of a parameter."""
    state.t += 1
    t = state.t
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    scratch1 = np.empty(ADAM_BLOCK)
    scratch2 = np.empty(ADAM_BLOCK)
    for param, grad, m, v in zip(params.arrays(), grads.arrays(), state.m, state.v):
        param, m, v, grad = _flat(param), _flat(m), _flat(v), grad.reshape(-1)
        for lo in range(0, param.size, ADAM_BLOCK):
            hi = lo + ADAM_BLOCK
            p_b, g_b, m_b, v_b = param[lo:hi], grad[lo:hi], m[lo:hi], v[lo:hi]
            a, b = scratch1[: len(p_b)], scratch2[: len(p_b)]
            m_b *= beta1
            np.multiply(g_b, 1.0 - beta1, out=a)
            m_b += a
            np.multiply(g_b, 1.0 - beta2, out=a)
            a *= g_b
            v_b *= beta2
            v_b += a
            np.divide(m_b, c1, out=a)
            a *= lr
            np.divide(v_b, c2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            p_b -= a


# ---------------------------------------------------------------------------
# Checkpoints: versioned binary with Adam state, epoch, and rng seed
# ---------------------------------------------------------------------------


def save_checkpoint(
    path,
    params: NetParams,
    state: AdamState,
    epoch: int,
    seed: int,
    config_hash: int = 0,
) -> None:
    dims = params.dims
    with open(path, "wb") as out:
        out.write(CHECKPOINT_MAGIC)
        out.write(struct.pack("<5I", *dims))
        out.write(struct.pack("<IQQ", epoch, seed, config_hash))
        out.write(struct.pack("<Q", state.t))
        for arr in params.arrays() + state.m + state.v:
            # a view, not a copy, for the C-contiguous float64 arrays training keeps
            out.write(np.ascontiguousarray(arr, dtype="<f8").data)


def load_checkpoint(path) -> tuple[NetParams, AdamState, dict]:
    with open(path, "rb") as handle:
        magic = handle.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ParseError(path, 1, "not a checkpoint file (bad magic)")

        def read(array):
            """Fill a preallocated buffer from the file."""
            if handle.readinto(array) != memoryview(array).nbytes:
                raise ParseError(path, 1, "truncated checkpoint")
            return array

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, read(bytearray(struct.calcsize(fmt))))

        dims = unpack("<5I")
        epoch, seed, config_hash = unpack("<IQQ")
        (t,) = unpack("<Q")
        d, h1, he, h3, k = dims
        shapes = [
            (d, h1), (h1,), (h1, he), (he,), (he, h3), (h3,), (h3, k), (k,),
        ]
        # checked before allocating, so corrupt dims cannot ask for terabytes
        body = 3 * 8 * sum(math.prod(shape) for shape in shapes)
        if os.fstat(handle.fileno()).st_size - handle.tell() < body:
            raise ParseError(path, 1, "truncated checkpoint")

        def read_arrays():
            return [read(np.empty(shape, dtype="<f8")) for shape in shapes]

        params = NetParams(*read_arrays())
        state = AdamState(m=read_arrays(), v=read_arrays(), t=t)
    meta = {"epoch": epoch, "seed": seed, "config_hash": config_hash}
    return params, state, meta
