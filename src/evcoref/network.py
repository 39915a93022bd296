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
CHECKPOINT_MAGIC = b"EVCOREF.CKPT.2\n"

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


def init_params(
    rng: np.random.Generator,
    n_inputs: int,
    n_classes: int,
    hidden1: int,
    embed: int,
    hidden3: int,
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
    d1: np.ndarray
    embeddings: np.ndarray  # relu(z2), pre-dropout
    d2: np.ndarray
    d3: np.ndarray
    probs: np.ndarray
    masks: tuple | None
    dropout: float


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, computed in z's own buffer."""
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.matmul(x, w, out=out)
    out += b
    return out


def forward(
    params: NetParams,
    inputs: np.ndarray,
    mode: str = "infer",
    masks: tuple | None = None,
    dropout: float = 0.25,
    out: ForwardCache | None = None,
) -> ForwardCache:
    """Run the network. In train mode the supplied binary masks are applied
    after each hidden layer with inverted 1/(1-p) scaling; infer mode uses no
    dropout and is fully deterministic, and its d2 is its embeddings.

    The activations are written into `out`, which is returned (allocated
    when None). It must be the cache of an earlier train-mode call on as
    many inputs; every array of it is overwritten, so nothing of that call
    is read."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != params.w1.shape[0]:
        raise ModelMismatchError(
            f"input width {inputs.shape[-1]} != network input {params.w1.shape[0]}"
        )
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    train = mode == "train"
    if train and (masks is None or len(masks) != 3):
        raise ValueError("train mode requires three dropout masks")
    if out is None:
        n, (_, h1, he, h3, k) = len(inputs), params.dims
        embeddings = np.empty((n, he))
        out = ForwardCache(
            inputs, np.empty((n, h1)), embeddings, np.empty((n, he)) if train else embeddings,
            np.empty((n, h3)), np.empty((n, k)), None, dropout,
        )
    out.inputs, out.masks, out.dropout = inputs, masks if train else None, dropout
    scale = 1.0 / (1.0 - dropout) if train else 1.0

    np.maximum(_affine(inputs, params.w1, params.b1, out.d1), 0.0, out=out.d1)
    if train:
        out.d1 *= masks[0]
        out.d1 *= scale

    np.maximum(_affine(out.d1, params.w2, params.b2, out.embeddings), 0.0, out=out.embeddings)
    if train:
        np.multiply(out.embeddings, masks[1], out=out.d2)
        out.d2 *= scale

    np.maximum(_affine(out.d2, params.w3, params.b3, out.d3), 0.0, out=out.d3)
    if train:
        out.d3 *= masks[2]
        out.d3 *= scale

    _softmax_rows(_affine(out.d3, params.w4, params.b4, out.probs))
    return out


def embed(params: NetParams, inputs: np.ndarray) -> np.ndarray:
    return forward(params, inputs, mode="infer").embeddings


def make_dropout_masks(
    rng: np.random.Generator, n: int, dims: tuple[int, int, int, int, int], dropout: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep (True) / drop (False) boolean masks of the three hidden layers
    for n inputs, an eighth of the bytes of float64 masks. A float times a
    bool is exactly the float times 1.0 or 0.0, so forward and backward give
    the bits float64 masks would give."""
    return tuple(rng.random((n, width)) < 1.0 - dropout for width in dims[1:4])


# ---------------------------------------------------------------------------
# Loss terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    cce: float
    attract: float
    repulse: float


def loss_cce(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean categorical cross-entropy, probabilities clamped at 1e-12."""
    picked = probs[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.maximum(picked, PROB_CLAMP))))


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


def _core_pairs(embeddings, chain_codes, lambda1: float, lambda2: float) -> _Pairs | None:
    """The pair geometry both CORE terms read, built only when one is active."""
    return _pairs(embeddings, chain_codes) if lambda1 != 0.0 or lambda2 != 0.0 else None


def _breakdown(probs, labels, pairs, lambda1, lambda2, use_cce) -> LossBreakdown:
    cce = loss_cce(probs, labels) if use_cce else 0.0
    attract = _attract(pairs) if lambda1 != 0.0 else 0.0
    repulse = _repulse(pairs) if lambda2 != 0.0 else 0.0
    total = cce + lambda1 * attract + lambda2 * repulse
    return LossBreakdown(float(total), cce, attract, repulse)


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
    pairs = _core_pairs(embeddings, chain_codes, lambda1, lambda2)
    return _breakdown(probs, labels, pairs, lambda1, lambda2, use_cce)


def _core_grad(p: _Pairs, lambda1: float, lambda2: float) -> np.ndarray:
    """Gradient of l1*attract + l2*repulse with respect to the embeddings.

    With unit rows u_i and c_ij = u_i . u_j, each pair's distance has
    d(d_ij)/d(e_i) = -(u_j - c_ij u_i) / (2 |e_i|); pairs are weighted
    +l1/|S| (same chain) and -l2/|D| (different chain, from the leading
    minus in the repulsive term), so a zero lambda weighs its pairs 0.
    Zero-norm rows have constant distance to everything, so they receive
    and contribute no gradient.
    """
    weights = np.zeros_like(p.same, dtype=np.float64)
    if p.n_same > 0:
        weights[p.same] += lambda1 / p.n_same
    if p.n_diff > 0:
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
    params: NetParams, cache: ForwardCache, labels, chain_codes, lambda1: float, lambda2: float,
    use_cce: bool = True,
) -> NetParams:
    """Exact gradients of loss_total for every parameter: those of
    loss_and_grad."""
    return loss_and_grad(params, cache, labels, chain_codes, lambda1, lambda2, use_cce)[1]


Runs = tuple[tuple[int, int], ...]  # ascending, disjoint row ranges [lo, hi)


def row_runs(mask: np.ndarray) -> Runs:
    """The maximal runs [lo, hi) of True entries of a 1-d boolean mask."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], np.asarray(mask, dtype=np.int8), [0]))))
    return tuple(zip(edges[0::2].tolist(), edges[1::2].tolist()))


def _packed_runs(runs: Runs):
    """(rows, packed rows) slices for each run: the run's rows, and where
    they sit in a compact array that holds the runs' rows back to back, as
    loss_and_grad's w1 gradient does. The same slices pick the columns of
    an input matrix and of its compact copy."""
    at = 0
    for lo, hi in runs:
        yield slice(lo, hi), slice(at, at + hi - lo)
        at += hi - lo


def loss_and_grad(
    params: NetParams, cache: ForwardCache, labels, chain_codes, lambda1: float, lambda2: float,
    use_cce: bool = True, out: NetParams | None = None, w1_inputs: np.ndarray | None = None,
) -> tuple[LossBreakdown, NetParams]:
    """loss_total's breakdown and the exact gradients of its total for every
    parameter, both read off one pair geometry of the cached embeddings. The
    gradients are written into `out` (a NetParams-shaped container of
    C-contiguous float64 arrays, allocated when None). The pairwise terms
    feed the embedding layer directly (pre-dropout); the cross-entropy path
    routes through the same dropout masks the forward pass used. One delta
    is alive at a time: each layer's is one new array, taken through the
    layer's steps in place, and it is freed when the layer below makes its
    own. Nothing of params, cache or its masks is written.

    `w1_inputs` (batch x m, at least one column) is some of the batch's
    input columns, back to back; out.w1 then holds only the gradients of
    their first-layer weight rows, in that order: a compact (m, hidden1)
    buffer. Each row still sums over the whole batch, so it equals the same
    row of the full gradient wherever the BLAS computes a row of a product
    independently of how many rows the product has. OpenBLAS 0.3.31's
    Haswell kernels do when hidden1 is a multiple of 8 and two or more rows
    are taken; otherwise the last hidden1 % 8 columns can differ in the last
    bits. None takes every column of cache.inputs: the full gradient."""
    pairs = _core_pairs(cache.embeddings, chain_codes, lambda1, lambda2)
    loss = _breakdown(cache.probs, labels, pairs, lambda1, lambda2, use_cce)
    w1_inputs = cache.inputs if w1_inputs is None else w1_inputs
    if out is None:
        shapes = [(w1_inputs.shape[1], params.w1.shape[1])]
        shapes += [a.shape for a in params.arrays()[1:]]
        out = NetParams(*[np.empty(shape) for shape in shapes])
    n = cache.inputs.shape[0]
    train = cache.masks is not None
    scale = 1.0 / (1.0 - cache.dropout) if train else 1.0

    if use_cce:
        d = cache.probs.copy()
        d[np.arange(n), labels] -= 1.0
        d /= n
    else:
        d = np.zeros_like(cache.probs)

    np.matmul(cache.d3.T, d, out=out.w4)
    d.sum(axis=0, out=out.b4)

    # in place, in the order of the expressions d * mask * scale, + the CORE
    # gradient, * (z > 0), with z > 0 read as a > 0 off the layer's activation:
    # relu(z) > 0 exactly when z > 0, a dropout scale >= 1 keeps a kept unit
    # above 0, and a dropped unit's d is already +-0 or NaN, alike x 1 or x 0.
    layers = (
        (params.w4, 2, cache.d3, cache.d2, out.w3, out.b3),
        (params.w3, 1, cache.embeddings, cache.d1, out.w2, out.b2),
        (params.w2, 0, cache.d1, w1_inputs, out.w1, out.b1),
    )
    for w_above, layer, a, inputs, grad_w, grad_b in layers:
        d = d @ w_above.T
        if train:
            d *= cache.masks[layer]
            d *= scale
        if layer == 1 and pairs is not None:
            d += _core_grad(pairs, lambda1, lambda2)
        d *= a > 0.0
        np.matmul(inputs.T, d, out=grad_w)
        d.sum(axis=0, out=grad_b)
    return loss, out


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# Elements per block of the Adam update: the four operand blocks and the two
# scratch blocks (6 x 256 KiB) stay in cache between the operations on them.
ADAM_BLOCK = 32768
# Adam's hyper-parameters, as Kingma & Ba (2015) recommend them
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0

    @classmethod
    def for_params(cls, params: NetParams) -> "AdamState":
        """Zero moments of `params`' shapes; the training loop passes its
        compact gradients, so w1's moments are (movable rows, hidden1).
        Unwritten rows of a large np.zeros array are not free: numpy asks
        for 2 MB transparent huge pages on it, so writing one row maps the
        whole 2 MB page around it."""
        return cls(
            m=[np.zeros(a.shape) for a in params.arrays()],
            v=[np.zeros(a.shape) for a in params.arrays()],
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
    w1_runs: Runs | None = None,
) -> None:
    """In-place Adam update with bias correction.

    Per element, in exactly this floating-point order:
    m = BETA1*m + (1-BETA1)*g, v = BETA2*v + ((1-BETA2)*g)*g, then
    param -= (lr*(m/(1-BETA1**t))) / (sqrt(v/(1-BETA2**t)) + EPS).
    m, v and the parameters are updated where they are, ADAM_BLOCK elements
    at a time through two scratch blocks, so a step allocates nothing the
    size of a parameter.

    The moments have the gradients' shapes. With `w1_runs`, grads.w1 is
    loss_and_grad's compact gradient of those first-layer rows, and only
    those rows of w1 are updated. A row whose gradient has been +-0 on every
    step so far has m = v = +0, so its update is exactly 0 and skipping it
    changes no bit."""
    for grad, m, v in zip(grads.arrays(), state.m, state.v):
        if not grad.shape == m.shape == v.shape:
            raise ValueError(f"Adam moments of shape {m.shape} for a gradient of shape {grad.shape}")
    state.t += 1
    t = state.t
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    scratch1 = np.empty(ADAM_BLOCK)
    scratch2 = np.empty(ADAM_BLOCK)
    w1_runs = ((0, params.w1.shape[0]),) if w1_runs is None else w1_runs
    runs = [w1_runs] + [((0, len(a)),) for a in params.arrays()[1:]]
    for param, grad, m, v, rows in zip(params.arrays(), grads.arrays(), state.m, state.v, runs):
        for run, packed in _packed_runs(rows):
            # the run's rows of param, and the rows of grad, m and v that hold them
            param_s, grad_s = _flat(param[run]), grad[packed].reshape(-1)
            m_s, v_s = _flat(m[packed]), _flat(v[packed])
            for lo in range(0, param_s.size, ADAM_BLOCK):
                hi = lo + ADAM_BLOCK
                p_b, g_b, m_b, v_b = param_s[lo:hi], grad_s[lo:hi], m_s[lo:hi], v_s[lo:hi]
                a, b = scratch1[: len(p_b)], scratch2[: len(p_b)]
                m_b *= BETA1
                np.multiply(g_b, 1.0 - BETA1, out=a)
                m_b += a
                np.multiply(g_b, 1.0 - BETA2, out=a)
                a *= g_b
                v_b *= BETA2
                v_b += a
                np.divide(m_b, c1, out=a)
                a *= lr
                np.divide(v_b, c2, out=b)
                np.sqrt(b, out=b)
                b += EPS
                a /= b
                p_b -= a


# ---------------------------------------------------------------------------
# Checkpoints: versioned binary with the parameters, epoch, and rng seed
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: NetParams, epoch: int, seed: int, config_hash: int = 0) -> None:
    """The model only: nothing reads Adam's state after training, so it is
    not written."""
    with open(path, "wb") as out:
        out.write(CHECKPOINT_MAGIC)
        out.write(struct.pack("<5I", *params.dims))
        out.write(struct.pack("<IQQ", epoch, seed, config_hash))
        for arr in params.arrays():
            # a view, not a copy, for the C-contiguous float64 arrays training keeps
            out.write(np.ascontiguousarray(arr, dtype="<f8").data)


def _read_into(handle, path, array):
    """Fill a preallocated buffer from the file."""
    if handle.readinto(array) != memoryview(array).nbytes:
        raise ParseError(path, 1, "truncated checkpoint")
    return array


def load_checkpoint(path) -> tuple[NetParams, dict]:
    """A checkpoint's eight parameter arrays and its metadata. The file must
    be exactly the header plus the parameters its dims imply, checked before
    anything is allocated, so corrupt dims cannot ask for terabytes."""
    with open(path, "rb") as handle:
        magic = handle.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ParseError(path, 1, f"not a {CHECKPOINT_MAGIC!r} checkpoint (bad magic {magic!r})")

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, _read_into(handle, path, bytearray(struct.calcsize(fmt))))

        d, h1, he, h3, k = unpack("<5I")
        epoch, seed, config_hash = unpack("<IQQ")
        shapes = [(d, h1), (h1,), (h1, he), (he,), (he, h3), (h3,), (h3, k), (k,)]
        body = 8 * sum(math.prod(shape) for shape in shapes)
        found = os.fstat(handle.fileno()).st_size - handle.tell()
        if found != body:
            kind = "truncated" if found < body else "oversized"
            raise ParseError(
                path, 1, f"{kind} checkpoint: its dims imply {body} parameter bytes, found {found}"
            )
        params = NetParams(*[_read_into(handle, path, np.empty(s, dtype="<f8")) for s in shapes])
    return params, {"epoch": epoch, "seed": seed, "config_hash": config_hash}
