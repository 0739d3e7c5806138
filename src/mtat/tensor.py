"""Dense float64 tensors with reverse-mode differentiation.

The graph is recorded eagerly: each op attaches a GradRecord holding its
parents and a vector-Jacobian closure over the cached forward values.
``backward`` replays records in reverse topological order exactly once
and returns gradients for every leaf that asked for them.

Shapes are validated up front and every op checks its output for NaN or
Inf; silent non-finite propagation is treated as a bug, not a value.
Matrix ops accept an optional MacCounter so callers can meter multiply-
accumulate work without touching the math.
"""

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, NumericError, UsageError

# Per-thread so concurrent sweep workers cannot race each other's flag.
_grad_state = threading.local()


def _grad_enabled():
    return getattr(_grad_state, "enabled", True)


@contextmanager
def no_grad():
    """Disable graph recording inside the block. Nestable, thread-local."""
    prev = _grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = prev


@dataclass(frozen=True)
class GradRecord:
    """One tape entry: the op tag, its inputs, and a closure mapping the
    output cotangent to one cotangent per input."""

    op: str
    parents: tuple
    vjp: Callable


class MacCounter:
    """Accumulates multiply-accumulate counts keyed by a caller label."""

    def __init__(self):
        self.counts = {}

    def add(self, label, macs):
        self.counts[label] = self.counts.get(label, 0) + int(macs)

    def get(self, label):
        return self.counts.get(label, 0)

    def total(self):
        return sum(self.counts.values())

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"MacCounter({inner})"


def _check_finite(arr, op):
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op} produced non-finite values")


class Tensor:
    """A float64 ndarray plus an optional tape record.

    ``data`` is owned by the tensor and must not be mutated in place;
    training code rebinds fresh tensors instead. ``grad`` is set by the
    most recent ``backward`` call that reached this node.
    """

    __slots__ = ("data", "requires_grad", "grad", "_record")

    def __init__(self, data, requires_grad=False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._record = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self):
        return Tensor(self.data.copy())

    def __repr__(self):
        flags = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flags})"

    # Operator sugar; the module-level functions carry the contracts.
    def __add__(self, other):
        if isinstance(other, (int, float)):
            return shift(self, other)
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return shift(self, -other)
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, float)):
            raise UsageError("tensor division only supports scalar divisors")
        return scale(self, 1.0 / other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def _make(data, op, parents, vjp):
    """Wrap an op result, attaching a record when recording is on."""
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    track = _grad_enabled() and any(p.requires_grad for p in parents)
    out.requires_grad = track
    out._record = GradRecord(op, tuple(parents), vjp) if track else None
    return out


def _as_tensor(value, op):
    if not isinstance(value, Tensor):
        raise UsageError(f"{op} expects Tensor operands, got {type(value).__name__}")
    return value


def backward(output, seed=None):
    """Propagate cotangents from ``output`` back to every reachable leaf.

    ``seed`` defaults to all-ones of the output's shape. Returns a dict
    mapping each reachable leaf tensor with requires_grad to its gradient
    array; the same arrays are also stored on ``.grad`` (overwriting any
    previous value, no cross-call accumulation).
    """
    _as_tensor(output, "backward")
    if output._record is None:
        raise UsageError("backward needs an output produced by a recorded op")
    if seed is None:
        seed_arr = np.ones_like(output.data)
    else:
        seed_arr = seed.data if isinstance(seed, Tensor) else np.asarray(seed, dtype=np.float64)
        if seed_arr.shape != output.data.shape:
            raise DimensionError(
                f"seed shape {seed_arr.shape} does not match output shape {output.data.shape}"
            )

    order = []
    visited = set()
    stack = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        if node._record is not None:
            for parent in node._record.parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

    grads = {id(output): seed_arr.astype(np.float64, copy=True)}
    leaves = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g
        record = node._record
        if record is None:
            if node.requires_grad:
                leaves[node] = g
            continue
        parent_grads = record.vjp(g)
        for parent, pg in zip(record.parents, parent_grads):
            if pg is None:
                continue
            pid = id(parent)
            if pid in grads:
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = pg
    return leaves


# ---------------------------------------------------------------------------
# elementwise and shape ops


def add(a, b):
    """Elementwise sum.

    Accepts equal shapes, or a 1-D ``b`` broadcast across the rows of a
    2-D ``a`` (the bias case). Anything else is a shape error.
    """
    a = _as_tensor(a, "add")
    b = _as_tensor(b, "add")
    if a.shape == b.shape:
        return _make(a.data + b.data, "add", (a, b), lambda g: (g, g))
    if a.ndim == 2 and b.ndim == 1 and b.shape[0] == a.shape[1]:
        return _make(
            a.data + b.data[None, :],
            "add_row",
            (a, b),
            lambda g: (g, g.sum(axis=0)),
        )
    raise DimensionError(f"add got incompatible shapes {a.shape} and {b.shape}")


def sub(a, b):
    a = _as_tensor(a, "sub")
    b = _as_tensor(b, "sub")
    if a.shape != b.shape:
        raise DimensionError(f"sub got incompatible shapes {a.shape} and {b.shape}")
    return _make(a.data - b.data, "sub", (a, b), lambda g: (g, -g))


def mul(a, b):
    """Elementwise product of equal-shape tensors."""
    a = _as_tensor(a, "mul")
    b = _as_tensor(b, "mul")
    if a.shape != b.shape:
        raise DimensionError(f"mul got incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data
    return _make(ad * bd, "mul", (a, b), lambda g: (g * bd, g * ad))


def scale(x, factor):
    x = _as_tensor(x, "scale")
    factor = float(factor)
    return _make(x.data * factor, "scale", (x,), lambda g: (g * factor,))


def shift(x, offset):
    x = _as_tensor(x, "shift")
    offset = float(offset)
    return _make(x.data + offset, "shift", (x,), lambda g: (g,))


def reshape(x, shape):
    x = _as_tensor(x, "reshape")
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.size:
        raise DimensionError(f"cannot reshape {x.shape} ({x.size} elements) to {shape}")
    old_shape = x.data.shape
    return _make(
        x.data.reshape(shape),
        "reshape",
        (x,),
        lambda g: (g.reshape(old_shape),),
    )


def transpose(x):
    x = _as_tensor(x, "transpose")
    if x.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got shape {x.shape}")
    return _make(
        np.ascontiguousarray(x.data.T),
        "transpose",
        (x,),
        lambda g: (np.ascontiguousarray(g.T),),
    )


def slice_cols(x, start, stop):
    """Columns ``[start, stop)`` of a matrix as a new tensor."""
    x = _as_tensor(x, "slice_cols")
    if x.ndim != 2:
        raise DimensionError(f"slice_cols expects a matrix, got shape {x.shape}")
    start, stop = int(start), int(stop)
    if not (0 <= start < stop <= x.shape[1]):
        raise DimensionError(f"column range [{start}, {stop}) invalid for shape {x.shape}")
    cols = x.shape[1]

    def vjp(g):
        gx = np.zeros((g.shape[0], cols))
        gx[:, start:stop] = g
        return (gx,)

    return _make(np.ascontiguousarray(x.data[:, start:stop]), "slice_cols", (x,), vjp)


def concat_cols(parts):
    """Concatenate matrices with equal row counts along columns."""
    parts = tuple(_as_tensor(p, "concat_cols") for p in parts)
    if not parts:
        raise UsageError("concat_cols needs at least one tensor")
    rows = parts[0].shape[0] if parts[0].ndim == 2 else None
    for p in parts:
        if p.ndim != 2 or p.shape[0] != rows:
            raise DimensionError(
                f"concat_cols expects matrices with {rows} rows, got shape {p.shape}"
            )
    widths = [p.shape[1] for p in parts]
    edges = np.cumsum([0] + widths)

    def vjp(g):
        return tuple(g[:, edges[i] : edges[i + 1]] for i in range(len(parts)))

    return _make(np.concatenate([p.data for p in parts], axis=1), "concat_cols", parts, vjp)


def sum_all(x):
    x = _as_tensor(x, "sum_all")
    return _make(
        np.asarray(x.data.sum()),
        "sum_all",
        (x,),
        lambda g: (np.broadcast_to(g, x.data.shape).copy(),),
    )


def mean_all(x):
    x = _as_tensor(x, "mean_all")
    inv = 1.0 / x.size
    return _make(
        np.asarray(x.data.mean()),
        "mean_all",
        (x,),
        lambda g: (np.broadcast_to(g * inv, x.data.shape).copy(),),
    )


def embedding_row(table, index):
    """Row ``index`` of a 2-D lookup table, differentiable w.r.t. the table."""
    table = _as_tensor(table, "embedding_row")
    if table.ndim != 2:
        raise DimensionError(f"embedding_row expects a matrix table, got shape {table.shape}")
    index = int(index)
    if not (0 <= index < table.shape[0]):
        raise DimensionError(f"row {index} out of range for table with {table.shape[0]} rows")

    def vjp(g):
        gt = np.zeros(table.shape)
        gt[index] = g
        return (gt,)

    return _make(table.data[index].copy(), "embedding_row", (table,), vjp)


# ---------------------------------------------------------------------------
# matrix and nonlinear ops


def matmul(a, b, counter=None, label="matmul"):
    """Matrix product of 2-D tensors.

    When ``counter`` is given, the m*k*p multiply-accumulate count of the
    forward pass is added under ``label``; backward work is not metered.
    """
    a = _as_tensor(a, "matmul")
    b = _as_tensor(b, "matmul")
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    if counter is not None:
        counter.add(label, a.shape[0] * a.shape[1] * b.shape[1])
    ad, bd = a.data, b.data
    return _make(ad @ bd, "matmul", (a, b), lambda g: (g @ bd.T, ad.T @ g))


def softmax_rows(x):
    """Row-wise softmax of a matrix, stabilised by per-row max shift."""
    x = _as_tensor(x, "softmax_rows")
    if x.ndim != 2:
        raise DimensionError(f"softmax_rows expects a matrix, got shape {x.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=1, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - inner),)

    return _make(out, "softmax_rows", (x,), vjp)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x):
    """Gaussian error linear unit, tanh form."""
    x = _as_tensor(x, "gelu")
    xd = x.data
    inner = _GELU_C * (xd + _GELU_A * (xd * xd * xd))
    th = np.tanh(inner)

    def vjp(g):
        sech2 = 1.0 - th * th
        d_inner = _GELU_C * (1.0 + 3.0 * _GELU_A * xd * xd)
        return (g * (0.5 * (1.0 + th) + 0.5 * xd * sech2 * d_inner),)

    return _make(0.5 * xd * (1.0 + th), "gelu", (x,), vjp)


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalise each row of a matrix to zero mean, unit variance, then
    apply a per-column affine transform."""
    x = _as_tensor(x, "layer_norm")
    gain = _as_tensor(gain, "layer_norm")
    bias = _as_tensor(bias, "layer_norm")
    if x.ndim != 2:
        raise DimensionError(f"layer_norm expects a matrix, got shape {x.shape}")
    cols = x.shape[1]
    if gain.shape != (cols,) or bias.shape != (cols,):
        raise DimensionError(
            f"layer_norm affine shapes {gain.shape}, {bias.shape} do not match {cols} columns"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    centred = x.data - mu
    var = (centred * centred).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    norm = centred * inv_std
    gd = gain.data

    def vjp(g):
        g_norm = g * gd[None, :]
        term = g_norm - g_norm.mean(axis=1, keepdims=True)
        term -= norm * (g_norm * norm).mean(axis=1, keepdims=True)
        return (term * inv_std, (g * norm).sum(axis=0), g.sum(axis=0))

    return _make(norm * gd[None, :] + bias.data[None, :], "layer_norm", (x, gain, bias), vjp)


# ---------------------------------------------------------------------------
# spatial ops


def _pool_edges(size, bins):
    # Bin i covers [floor(i*size/bins), ceil((i+1)*size/bins)); edges may
    # overlap by one element when bins does not divide size.
    lo = [math.floor(i * size / bins) for i in range(bins)]
    hi = [math.ceil((i + 1) * size / bins) for i in range(bins)]
    return lo, hi


def adaptive_avg_pool2d(x, out_hw, counter=None, label="pooling"):
    """Average-pool an H x W x d stack to out_h x out_w x d.

    Bin i along an axis of length S covers [floor(i*S/b), ceil((i+1)*S/b)),
    so bins tile the input exactly when b divides S and overlap by at most
    one element otherwise. Each bin's gradient is spread uniformly over
    the cells it averaged.
    """
    x = _as_tensor(x, "adaptive_avg_pool2d")
    if x.ndim != 3:
        raise DimensionError(f"adaptive_avg_pool2d expects H x W x d input, got shape {x.shape}")
    height, width, depth = x.shape
    out_h, out_w = int(out_hw[0]), int(out_hw[1])
    if not (1 <= out_h <= height and 1 <= out_w <= width):
        raise DimensionError(
            f"pool target ({out_h}, {out_w}) invalid for input ({height}, {width})"
        )
    if counter is not None:
        counter.add(label, height * width * depth)
    row_lo, row_hi = _pool_edges(height, out_h)
    col_lo, col_hi = _pool_edges(width, out_w)
    out = np.empty((out_h, out_w, depth))
    for i in range(out_h):
        for j in range(out_w):
            out[i, j] = x.data[row_lo[i] : row_hi[i], col_lo[j] : col_hi[j]].mean(axis=(0, 1))

    def vjp(g):
        gx = np.zeros((height, width, depth))
        for i in range(out_h):
            for j in range(out_w):
                count = (row_hi[i] - row_lo[i]) * (col_hi[j] - col_lo[j])
                gx[row_lo[i] : row_hi[i], col_lo[j] : col_hi[j]] += g[i, j] / count
        return (gx,)

    return _make(out, "adaptive_avg_pool2d", (x,), vjp)


def depthwise_conv3x3(x, kernels, counter=None, label="dwconv"):
    """Depthwise 3x3 correlation over an H x W x d stack.

    Stride 1, zero padding 1, no bias; channel c is filtered only by
    kernel slice [:, :, c]. All-zero kernels therefore give an all-zero
    output, which callers use to disable the branch.
    """
    x = _as_tensor(x, "depthwise_conv3x3")
    kernels = _as_tensor(kernels, "depthwise_conv3x3")
    if x.ndim != 3:
        raise DimensionError(f"depthwise_conv3x3 expects H x W x d input, got shape {x.shape}")
    height, width, depth = x.shape
    if kernels.shape != (3, 3, depth):
        raise DimensionError(
            f"kernel shape {kernels.shape} does not match (3, 3, {depth}) for input {x.shape}"
        )
    if counter is not None:
        counter.add(label, 9 * height * width * depth)
    padded = np.zeros((height + 2, width + 2, depth))
    padded[1:-1, 1:-1] = x.data
    kd = kernels.data
    out = np.zeros((height, width, depth))
    for a in range(3):
        for b in range(3):
            out += padded[a : a + height, b : b + width] * kd[a, b]

    def vjp(g):
        gk = np.empty((3, 3, depth))
        g_padded = np.zeros((height + 2, width + 2, depth))
        g_padded[1:-1, 1:-1] = g
        gx = np.zeros((height, width, depth))
        for a in range(3):
            for b in range(3):
                gk[a, b] = (padded[a : a + height, b : b + width] * g).sum(axis=(0, 1))
                gx += g_padded[2 - a : 2 - a + height, 2 - b : 2 - b + width] * kd[a, b]
        return (gx, gk)

    return _make(out, "depthwise_conv3x3", (x, kernels), vjp)


# ---------------------------------------------------------------------------
# numerical gradient oracle


def finite_diff_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar-valued ``f`` at ``x``.

    Perturbs one element at a time, so cost is 2 * x.size evaluations.
    Meant for verifying analytic gradients on small problems, not for
    production use.
    """
    x = _as_tensor(x, "finite_diff_grad")
    flat = x.data.reshape(-1)
    grad = np.empty_like(flat)

    def evaluate(values):
        out = f(Tensor(values.reshape(x.shape)))
        val = out.item() if isinstance(out, Tensor) else float(out)
        if not math.isfinite(val):
            raise NumericError("finite_diff_grad objective returned a non-finite value")
        return val

    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] = flat[i] + eps
        hi = evaluate(bumped)
        bumped[i] = flat[i] - eps
        lo = evaluate(bumped)
        grad[i] = (hi - lo) / (2.0 * eps)
    return Tensor(grad.reshape(x.shape))
