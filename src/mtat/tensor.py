"""Dense float64 tensors with reverse-mode differentiation.

The graph is recorded eagerly: each op attaches a GradRecord holding its
parents and a vector-Jacobian closure over the cached forward values.
``backward`` replays records in reverse topological order exactly once
and returns gradients for every leaf that asked for them.

Ops take leading batch axes: a stack of samples, heads or both, (B, H,
N, d), runs as one op, so a batch costs one tape record per op rather
than one per sample and head. Shapes are validated up front and every
op checks its output for NaN or Inf; silent non-finite propagation is
treated as a bug, not a value.
Matrix ops accept an optional MacCounter so callers can meter multiply-
accumulate work without touching the math.

Op outputs of 32 KiB up to 4 MiB, taped or not, and the buffers of
that size in the ``gelu``, ``attend``, ``matmul`` and ``layer_norm``
VJPs are views of blocks from one private, capped pool, so a loop that
repeats a call or a train step at the same shapes reuses memory instead
of having the OS map and fault in fresh pages each time.
The contract: an op output may reuse the memory of an array that nobody
references any more. Every view of a block keeps it through ``.base``,
so an output, a map, a slice of either, a cotangent on ``.grad`` or a
VJP closure that is still alive keeps its bytes.
"""

import functools
import math
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionError, NumericError, UsageError
from .util import aligned_empty

# Per-thread, for sweep_thresholds(..., workers>1): each pool worker keeps its own.
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

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"MacCounter({inner})"


# Elements per finiteness check, so its boolean mask never exceeds 64 KiB:
# a mask over a whole output would be an eighth of its size.
_FINITE_SLICE = 1 << 16


def _check_finite(arr, op):
    flat = arr.reshape(-1)
    for start in range(0, flat.size, _FINITE_SLICE):
        if not np.isfinite(flat[start : start + _FINITE_SLICE]).all():
            raise NumericError(f"{op} produced non-finite values")


# Op outputs and VJP buffers of 32 KiB up to 4 MiB are views of pooled
# blocks, on a tape or not. glibc gives a freed heap top back to the OS
# and the next call faults it in again page by page, and a train step
# frees its whole tape at once; the floor takes a default step's
# (8, 64, 16) token arrays. Unpooled buffers left at the heap top made
# the faults of a train job move with unrelated source bytes. From 4 MiB
# numpy asks for huge pages. The cap bounds what the pool keeps when
# callers hold many outputs at once. Blocks start on a cache line, so an
# op's speed does not depend on where glibc put its output.
_POOL_MIN, _POOL_MAX, _POOL_CAP = 32 << 10, 4 << 20, 16 << 20
_pool = {}  # block bytes -> list of 1-D float64 blocks
_pool_bytes = 0
_pool_lock = threading.Lock()  # sweep_thresholds(..., workers>1) runs ops in threads


def _free_index(blocks, free_refs):
    """Index of the first of ``blocks`` that nothing but the list refers
    to, or -1. Every view of a block holds it through ``.base``, so such
    a block backs no live array."""
    for i in range(len(blocks)):
        if sys.getrefcount(blocks[i]) == free_refs:
            return i
    return -1


# The count sys.getrefcount reads in _free_index for a block only its
# list holds. It differs between CPython versions, so it is measured.
_FREE_REFS = next(n for n in range(1, 8) if _free_index([np.empty(1)], n) == 0)


def _empty(shape):
    """An uninitialised float64 array of ``shape`` for an op's output or
    a VJP buffer. Within the pooled sizes it reuses a block that no array
    refers to any more, so an op output may take over the memory of a
    dead one."""
    global _pool_bytes
    nbytes = 8 * math.prod(shape)
    if not _POOL_MIN <= nbytes < _POOL_MAX:
        return np.empty(shape)
    with _pool_lock:
        blocks = _pool.setdefault(nbytes, [])
        i = _free_index(blocks, _FREE_REFS)
        if i >= 0:
            return blocks[i].reshape(shape)
        for size, others in _pool.items():
            while size != nbytes and _pool_bytes + nbytes > _POOL_CAP:
                j = _free_index(others, _FREE_REFS)
                if j < 0:
                    break
                del others[j]
                _pool_bytes -= size
        if _pool_bytes + nbytes > _POOL_CAP:
            return np.empty(shape)
        blocks.append(aligned_empty(nbytes // 8))
        _pool_bytes += nbytes
        return blocks[-1].reshape(shape)


@functools.lru_cache(maxsize=64)
def _constant_column(size, value):
    column = np.full(size, value)
    column.flags.writeable = False
    return column


def _row_dot(x, value):
    """``value`` times the sums over the last axis, which is kept, as one
    GEMV per trailing matrix by a cached constant column: numpy's
    reductions over a short last axis cost several times as much.

    One GEMV per matrix, not one over all rows, keeps each sum
    independent of how many matrices are stacked: OpenBLAS sums rows in
    blocks of four and a remainder in a tail kernel whose bits differ,
    so a sample's sums would depend on its batch.
    """
    column = _constant_column(x.shape[-1], value)
    stack = x.reshape((math.prod(x.shape[:-2]),) + x.shape[-2:])
    return (stack @ column).reshape(x.shape[:-1] + (1,))


def _row_max(x):
    """Maxima over the last axis, which is kept. Up to 16 columns are
    folded one by one, which beats numpy's per-row max reduction."""
    cols = x.shape[-1]
    if cols > 16:
        return x.max(axis=-1, keepdims=True)
    out = x[..., :1].copy()
    for j in range(1, cols):
        np.maximum(out, x[..., j : j + 1], out=out)
    return out


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

    def __repr__(self):
        flags = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flags})"


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
    array. Every reached node with requires_grad, intermediates included,
    gets its cotangent on ``.grad`` (overwriting any previous value, no
    cross-call accumulation), so a step's cotangents live as long as its
    graph.
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


def _unbroadcast(g, shape):
    """Sum cotangent ``g`` down to ``shape`` over the axes broadcasting added."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    stretched = tuple(lead + i for i, s in enumerate(shape) if s == 1 and g.shape[lead + i] != 1)
    return g.sum(axis=tuple(range(lead)) + stretched).reshape(shape)


def add(a, b):
    """Elementwise sum.

    ``b`` may broadcast into ``a``'s shape: a bias row added to every
    token, or a (B, 1, C) row added to every token of its sample. Its
    gradient sums over the broadcast axes. Anything else, including a
    ``b`` that would widen ``a``, is a shape error.
    """
    a = _as_tensor(a, "add")
    b = _as_tensor(b, "add")
    if a.shape == b.shape:
        return _make(np.add(a.data, b.data, out=_empty(a.shape)), "add", (a, b), lambda g: (g, g))
    tail = a.shape[a.ndim - b.ndim :] if b.ndim <= a.ndim else None
    if tail is None or any(sb not in (1, sa) for sa, sb in zip(tail, b.shape)):
        raise DimensionError(f"add got incompatible shapes {a.shape} and {b.shape}")
    b_shape = b.shape
    return _make(a.data + b.data, "add", (a, b), lambda g: (g, _unbroadcast(g, b_shape)))


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


def transpose(x, axes=None):
    """Permute the axes of ``x``; by default swap the last two, which
    transposes every matrix of a stack."""
    x = _as_tensor(x, "transpose")
    if axes is None:
        if x.ndim < 2:
            raise DimensionError(f"transpose expects a matrix or a stack, got shape {x.shape}")
        axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise DimensionError(f"axes {axes} do not permute the {x.ndim} axes of shape {x.shape}")
    inverse = tuple(axes.index(i) for i in range(x.ndim))
    return _make(
        np.ascontiguousarray(x.data.transpose(axes)),
        "transpose",
        (x,),
        lambda g: (np.ascontiguousarray(g.transpose(inverse)),),
    )


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
    """Rows of a 2-D lookup table, differentiable w.r.t. the table.

    An int ``index`` gives one row of shape (C,); an integer array of
    shape S gives shape S + (C,), and a row picked twice gets both
    gradients.
    """
    table = _as_tensor(table, "embedding_row")
    if table.ndim != 2:
        raise DimensionError(f"embedding_row expects a matrix table, got shape {table.shape}")
    if np.ndim(index) == 0:
        index = int(index)
    else:
        index = np.asarray(index)
        if index.dtype.kind not in "iu":
            raise DimensionError(f"embedding_row needs integer indices, got {index.dtype}")
    rows = table.shape[0]
    if np.any((np.asarray(index) < 0) | (np.asarray(index) >= rows)):
        raise DimensionError(f"row {index} out of range for table with {rows} rows")

    def vjp(g):
        gt = np.zeros(table.shape)
        np.add.at(gt, index, g)
        return (gt,)

    return _make(table.data[index].copy(), "embedding_row", (table,), vjp)


# ---------------------------------------------------------------------------
# matrix and nonlinear ops


def matmul(a, b, counter=None, label="matmul"):
    """Matrix product over the last two axes.

    ``a`` is a matrix or a stack of them, (..., m, k). ``b`` is either one
    k x p matrix, applied to the whole stack as a single GEMM over the
    flattened leading axes, or a stack with the same leading axes as
    ``a``, multiplied pairwise. When ``counter`` is given, the forward
    pass's m*k*p multiply-accumulates per product are added under
    ``label``; backward work is not metered. Parents that do not
    require grad get no gradient product.
    """
    a = _as_tensor(a, "matmul")
    b = _as_tensor(b, "matmul")
    if a.ndim < 2 or b.ndim < 2 or (b.ndim > 2 and b.shape[:-2] != a.shape[:-2]):
        raise DimensionError(f"matmul expects matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    inner = ad.shape[-1]
    if counter is not None:
        counter.add(label, ad.size * bd.shape[-1])
    need_a, need_b = a.requires_grad, b.requires_grad
    if bd.ndim == 2:
        flat = ad.reshape(-1, inner)
        out = np.matmul(flat, bd, out=_empty((len(flat), bd.shape[1])))
        out = out.reshape(ad.shape[:-1] + bd.shape[1:])

        def vjp(g):
            g_flat = g.reshape(-1, g.shape[-1])
            ga = None
            if need_a:
                ga = np.matmul(g_flat, bd.T, out=_empty(flat.shape)).reshape(ad.shape)
            return ga, (flat.T @ g_flat if need_b else None)

    else:
        out = np.matmul(ad, bd, out=_empty(ad.shape[:-1] + bd.shape[-1:]))

        def vjp(g):
            ga = np.matmul(g, np.swapaxes(bd, -1, -2), out=_empty(ad.shape)) if need_a else None
            gb = np.matmul(np.swapaxes(ad, -1, -2), g, out=_empty(bd.shape)) if need_b else None
            return ga, gb

    return _make(out, "matmul", (a, b), vjp)


def softmax_rows(x):
    """Softmax over the last axis, stabilised by a per-row max shift."""
    x = _as_tensor(x, "softmax_rows")
    if x.ndim < 2:
        raise DimensionError(f"softmax_rows expects a matrix or a stack, got shape {x.shape}")
    out = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return _make(out, "softmax_rows", (x,), vjp)


def _split_heads(x, heads):
    """(..., m, heads*d) to (..., heads, m, d), as a strided view."""
    return x if heads == 1 else np.swapaxes(x.reshape(x.shape[:-1] + (heads, -1)), -3, -2)


def _merge_heads(x, heads):
    """(..., heads, m, d) to (..., m, heads*d), by one copy."""
    if heads == 1:
        return x
    merged = np.swapaxes(x, -3, -2)
    out = _empty(merged.shape)
    np.copyto(out, merged)
    return out.reshape(x.shape[:-3] + (x.shape[-2], -1))


def attend(q, k, v, factor, counter=None, label="attend", heads=1):
    """Attention softmax(factor * q k^T) v over the last two axes, as one op.

    ``q`` is (..., m, H*d), ``k`` (..., n, H*d) and ``v`` (..., n, H*e),
    with e >= 1, equal leading axes and ``heads`` = H heads side by side
    in the last axis. Every head attends on its own columns, read as
    strided views. Returns the (..., m, H*e) output tensor, the heads'
    columns side by side again, and the (..., H, m, n) attention map,
    (..., m, n) for one head, as the read-only array that the VJP also
    reads. Only the output is checked for non-finite values: softmax
    entries are never infinite, and a NaN in a map row reaches that
    row's output. The scores are written once, from the scaled q times
    a transposed view of k, and normalised in place; the tape keeps the
    map, not the scores. When
    ``counter`` is given, the two products' m*n*d + m*n*e multiply-
    accumulates per head are added under ``label``; backward work is not
    metered. Parents that do not require grad get no gradient product.
    """
    q = _as_tensor(q, "attend")
    k = _as_tensor(k, "attend")
    v = _as_tensor(v, "attend")
    heads = int(heads)
    if (
        min(q.ndim, k.ndim, v.ndim) < 2
        or q.shape[-1] != k.shape[-1]
        or k.shape[-2] != v.shape[-2]
        or not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]
        or heads < 1
        or q.shape[-1] % heads
        or v.shape[-1] % heads
        or v.shape[-1] == 0
    ):
        raise DimensionError(
            f"attend shapes disagree: q {q.shape}, k {k.shape}, v {v.shape}, {heads} heads"
        )
    qd, kd, vd = (_split_heads(x.data, heads) for x in (q, k, v))
    factor = float(factor)
    if counter is not None:
        counter.add(label, math.prod(q.shape[:-1]) * k.shape[-2] * (q.shape[-1] + v.shape[-1]))
    # Scaling the m x d queries costs less than scaling the m x n scores.
    # They are scaled into q's own layout, read and written in order.
    attn = np.matmul(
        np.multiply(qd, factor, out=_split_heads(_empty(q.shape), heads)),
        np.swapaxes(kd, -1, -2),
        out=_empty(qd.shape[:-1] + kd.shape[-2:-1]),
    )
    attn -= _row_max(attn)
    np.exp(attn, out=attn)
    attn *= 1.0 / _row_dot(attn, 1.0)
    attn.flags.writeable = False
    out = np.matmul(attn, vd, out=_empty(attn.shape[:-1] + vd.shape[-1:]))
    need_q, need_k, need_v = q.requires_grad, k.requires_grad, v.requires_grad

    def vjp(g):
        g = _split_heads(g, heads)
        g_v = _merge_heads(np.swapaxes(attn, -1, -2) @ g, heads) if need_v else None
        if not (need_q or need_k):
            return None, None, g_v
        # g_s = factor * attn * (g v^T - rowsum(g v^T * attn)); the row
        # sum equals rowsum(g * out), which needs no m x n temporary.
        g_s = np.matmul(g, np.swapaxes(vd, -1, -2), out=_empty(attn.shape))
        g_s -= _row_dot(g * out, 1.0)
        g_s *= attn
        g_s *= factor
        g_q = _merge_heads(g_s @ kd, heads) if need_q else None
        g_k = _merge_heads(np.swapaxes(g_s, -1, -2) @ qd, heads) if need_k else None
        return g_q, g_k, g_v

    return _make(_merge_heads(out, heads), "attend", (q, k, v), vjp), attn


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_GELU_3A = 3.0 * _GELU_A


def gelu(x):
    """Gaussian error linear unit, tanh form."""
    x = _as_tensor(x, "gelu")
    xd = x.data
    # In place, with the rounding of 0.5 * x * (1 + tanh(C * (x + A * x**3))).
    th = np.multiply(xd, xd, out=_empty(xd.shape))
    th *= xd
    th *= _GELU_A
    th += xd
    th *= _GELU_C
    np.tanh(th, out=th)
    out = np.multiply(0.5, xd, out=_empty(xd.shape))
    out *= np.add(1.0, th, out=_empty(xd.shape))

    def vjp(g):
        # g * (0.5 (1 + th) + 0.5 x sech^2 C (1 + 3 A x^2)), in place.
        d_inner = np.multiply(_GELU_3A, xd, out=_empty(xd.shape))
        d_inner *= xd
        d_inner += 1.0
        d_inner *= _GELU_C
        slope = np.multiply(th, th, out=_empty(xd.shape))
        np.subtract(1.0, slope, out=slope)
        slope *= np.multiply(0.5, xd, out=_empty(xd.shape))
        slope *= d_inner
        gx = np.add(1.0, th, out=_empty(xd.shape))
        gx *= 0.5
        gx += slope
        gx *= g
        return (gx,)

    return _make(out, "gelu", (x,), vjp)


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalise each row (last axis) to zero mean, unit variance, then
    apply a per-column affine transform."""
    x = _as_tensor(x, "layer_norm")
    gain = _as_tensor(gain, "layer_norm")
    bias = _as_tensor(bias, "layer_norm")
    if x.ndim < 2:
        raise DimensionError(f"layer_norm expects a matrix or a stack, got shape {x.shape}")
    cols = x.shape[-1]
    if gain.shape != (cols,) or bias.shape != (cols,):
        raise DimensionError(
            f"layer_norm affine shapes {gain.shape}, {bias.shape} do not match {cols} columns"
        )
    inv_cols = 1.0 / cols
    centred = x.data - _row_dot(x.data, inv_cols)
    var = _row_dot(centred * centred, inv_cols)
    inv_std = 1.0 / np.sqrt(var + eps)
    norm = centred * inv_std
    gd = gain.data

    def vjp(g):
        # One scratch buffer takes each m x C product in turn.
        scratch = np.multiply(g, gd, out=_empty(g.shape))
        term = np.subtract(scratch, _row_dot(scratch, inv_cols), out=_empty(g.shape))
        scratch *= norm
        term -= np.multiply(norm, _row_dot(scratch, inv_cols), out=scratch)
        term *= inv_std
        g_rows = g.reshape(-1, cols)
        g_gain = np.multiply(g_rows, norm.reshape(-1, cols), out=scratch.reshape(-1, cols))
        return (term, g_gain.sum(axis=0), g_rows.sum(axis=0))

    return _make(norm * gd + bias.data, "layer_norm", (x, gain, bias), vjp)


# ---------------------------------------------------------------------------
# spatial ops


@functools.lru_cache(maxsize=64)
def _pool_matrix(size, bins):
    # Row i averages [floor(i*size/bins), ceil((i+1)*size/bins)); bins
    # overlap by one cell when bins does not divide size. Cached, so
    # returned read-only.
    i = np.arange(bins)[:, None]
    cell = np.arange(size)[None, :]
    inside = (cell >= i * size // bins) & (cell < -(-(i + 1) * size // bins))
    weights = inside / inside.sum(axis=1, keepdims=True)
    weights.flags.writeable = False
    return weights


def _check_image(x, op):
    if x.ndim < 3:
        raise DimensionError(f"{op} expects (..., H, W, d) input, got shape {x.shape}")
    return x.shape[-3:]


def adaptive_avg_pool2d(x, out_hw, counter=None, label="pooling"):
    """Average-pool a (..., H, W, d) stack to (..., out_h, out_w, d).

    Bin i along an axis of length S covers [floor(i*S/b), ceil((i+1)*S/b)),
    so bins tile the input exactly when b divides S and overlap by at most
    one element otherwise. Rows and columns are averaged by two fixed
    matrices applied by matmul, and the VJP applies their transposes, so
    each bin's gradient is spread uniformly over the cells it averaged.
    The metered work is one accumulate per input cell, H*W*d per image,
    whatever the matmuls multiply.
    """
    x = _as_tensor(x, "adaptive_avg_pool2d")
    height, width, depth = _check_image(x, "adaptive_avg_pool2d")
    out_h, out_w = int(out_hw[0]), int(out_hw[1])
    if not (1 <= out_h <= height and 1 <= out_w <= width):
        raise DimensionError(
            f"pool target ({out_h}, {out_w}) invalid for input ({height}, {width})"
        )
    if counter is not None:
        counter.add(label, x.size)
    rows, cols = _pool_matrix(height, out_h), _pool_matrix(width, out_w)
    tall = rows @ x.data.reshape(-1, height, width * depth)
    out = cols @ tall.reshape(-1, width, depth)

    def vjp(g):
        g_tall = cols.T @ g.reshape(-1, out_w, depth)
        return ((rows.T @ g_tall.reshape(-1, out_h, width * depth)).reshape(x.shape),)

    return _make(
        out.reshape(x.shape[:-3] + (out_h, out_w, depth)), "adaptive_avg_pool2d", (x,), vjp
    )


def _neighbourhoods(stack):
    """(L, H + 2, W + 2, d) padded stack -> (L, H, W, d, 3, 3) view of
    every cell's 3 x 3 neighbourhood."""
    return sliding_window_view(stack, (3, 3), axis=(1, 2))


def _padded(images, height, width, depth):
    out = _empty((images.size // (height * width * depth), height + 2, width + 2, depth))
    out[:, [0, -1]] = 0.0  # the zero border: a reused block holds old values
    out[:, 1:-1, [0, -1]] = 0.0
    out[:, 1:-1, 1:-1] = images.reshape(-1, height, width, depth)
    return out


def depthwise_conv3x3(x, kernels, counter=None, label="dwconv"):
    """Depthwise 3x3 correlation over a (..., H, W, d) stack.

    Stride 1, zero padding 1, no bias; channel c is filtered only by
    kernel slice [:, :, c]. All-zero kernels therefore give an all-zero
    output, which callers use to disable the branch. Each product runs
    as one einsum over a strided view of the padded neighbourhoods.
    """
    x = _as_tensor(x, "depthwise_conv3x3")
    kernels = _as_tensor(kernels, "depthwise_conv3x3")
    height, width, depth = _check_image(x, "depthwise_conv3x3")
    if kernels.shape != (3, 3, depth):
        raise DimensionError(
            f"kernel shape {kernels.shape} does not match (3, 3, {depth}) for input {x.shape}"
        )
    if counter is not None:
        counter.add(label, 9 * x.size)
    padded = _padded(x.data, height, width, depth)
    kd = kernels.data
    out = _empty((len(padded), height, width, depth))
    np.einsum("nhwdab,abd->nhwd", _neighbourhoods(padded), kd, out=out)

    def vjp(g):
        # The input gradient correlates g with the flipped kernels.
        g_padded = _padded(g, height, width, depth)
        gx = np.einsum("nhwdab,abd->nhwd", _neighbourhoods(g_padded), kd[::-1, ::-1])
        gk = np.einsum("nhwdab,nhwd->abd", _neighbourhoods(padded), g_padded[:, 1:-1, 1:-1])
        return (gx.reshape(x.shape), gk)

    return _make(out.reshape(x.shape), "depthwise_conv3x3", (x, kernels), vjp)


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
