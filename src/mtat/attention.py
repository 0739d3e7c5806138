"""Scaled dot-product attention, vanilla and mediator-token variants.

The mediator variant routes all query/key interaction through a small
set of pooled tokens: the mediators first attend over the keys to build
a compressed value table, then the queries attend over the mediators.
Both stages are row-stochastic, so their product is again a valid
attention map, which is what the redundancy tooling consumes.

MAC accounting runs through an optional MacCounter under five fixed
labels (qkv_proj, interaction, pooling, dwconv, out_proj); the analytic
report builders use the same labels so instrumented and closed-form
counts can be compared exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericError, UsageError
from .tensor import (
    MacCounter,
    Tensor,
    add,
    adaptive_avg_pool2d,
    attend,
    depthwise_conv3x3,
    matmul,
    reshape,
    transpose,
)

LABEL_QKV = "qkv_proj"
LABEL_INTERACTION = "interaction"
LABEL_POOLING = "pooling"
LABEL_DWCONV = "dwconv"
LABEL_OUT = "out_proj"

_ROW_SUM_TOL = 1e-10


@dataclass(frozen=True)
class AttentionConfig:
    """Token count, channel width, head count, and the spatial grid the
    tokens were rasterised from (row-major)."""

    n_tokens: int
    channels: int
    heads: int
    grid_h: int
    grid_w: int

    def __post_init__(self):
        if min(self.n_tokens, self.channels, self.heads, self.grid_h, self.grid_w) < 1:
            raise ConfigError(f"attention config fields must be positive: {self}")
        if self.channels % self.heads != 0:
            raise ConfigError(
                f"heads ({self.heads}) must divide channels ({self.channels})"
            )
        if self.grid_h * self.grid_w != self.n_tokens:
            raise ConfigError(
                f"grid {self.grid_h}x{self.grid_w} does not cover {self.n_tokens} tokens"
            )

    @property
    def head_dim(self):
        return self.channels // self.heads

    @classmethod
    def square(cls, n_tokens, channels, heads):
        side = math.isqrt(n_tokens)
        if side * side != n_tokens:
            raise ConfigError(f"{n_tokens} tokens do not form a square grid")
        return cls(n_tokens, channels, heads, side, side)


@dataclass(frozen=True)
class MediatorConfig:
    """Spatial shape of the pooled mediator grid."""

    grid_h: int
    grid_w: int

    def __post_init__(self):
        if self.grid_h < 1 or self.grid_w < 1:
            raise ConfigError(f"mediator grid must be positive: {self}")

    @property
    def count(self):
        return self.grid_h * self.grid_w

    @classmethod
    def from_count(cls, count, cfg):
        """Pick the factorisation of ``count`` whose aspect ratio is
        closest to the token grid's; ties prefer the shorter grid."""
        count = int(count)
        if count < 1:
            raise ConfigError(f"mediator count must be positive, got {count}")
        best = None
        for rows in range(1, count + 1):
            if count % rows:
                continue
            cols = count // rows
            if rows > cfg.grid_h or cols > cfg.grid_w:
                continue
            skew = abs(rows * cfg.grid_w - cols * cfg.grid_h)
            if best is None or skew < best[0]:
                best = (skew, rows, cols)
        if best is None:
            raise ConfigError(
                f"no {count}-token mediator grid fits inside {cfg.grid_h}x{cfg.grid_w}"
            )
        return cls(best[1], best[2])


@dataclass
class MultiHeadParams:
    """Square projection matrices for one attention layer."""

    w_query: Tensor
    w_key: Tensor
    w_value: Tensor
    w_out: Tensor

    @classmethod
    def random(cls, rng, channels, std=None, requires_grad=True):
        std = channels**-0.5 if std is None else std
        draw = lambda: Tensor(rng.normal(0.0, std, (channels, channels)), requires_grad)
        return cls(draw(), draw(), draw(), draw())


def _check_rows_stochastic(array, what):
    sums = array.sum(axis=-1)
    worst = float(np.abs(sums - 1.0).max()) if sums.size else 0.0
    if not worst <= _ROW_SUM_TOL:  # a NaN entry makes worst NaN
        raise NumericError(f"{what} rows deviate from sum 1 by {worst:.3e}")
    if float(array.min(initial=0.0)) < 0.0:
        raise NumericError(f"{what} contains negative weights")


def _map_stack(arrays, what):
    """Per-head row-stochastic matrices as one read-only float64 (heads,
    rows, cols) stack: a float64 array is viewed, not copied, and a list
    is stacked into a new array."""
    if arrays is None or len(arrays) == 0:
        raise UsageError(f"{what} need at least one per-head array")
    try:
        stack = np.asarray(arrays, dtype=np.float64).view()
    except ValueError as exc:
        raise DimensionError(f"{what} differ in shape from head to head") from exc
    if stack.ndim != 3:
        raise DimensionError(f"{what} must be matrices, got shape {stack.shape[1:]}")
    _check_rows_stochastic(stack, what)
    stack.flags.writeable = False
    return stack


class AttentionMaps:
    """Attention weights captured from one layer, one read-only float64
    (heads, rows, cols) stack per stage.

    ``kind`` is "full" (``heads``, N x N per head) or "mediated"
    (``query_to_mediator``, N x n per head, and ``mediator_to_key``,
    n x N per head). Each stage takes a list of equal-shape per-head
    arrays or one (heads, rows, cols) array. A float64 array is not
    copied, so the maps captured from a forward share the forward's own
    arrays. Construction checks row-stochasticity.
    """

    __slots__ = ("kind", "heads", "query_to_mediator", "mediator_to_key")

    def __init__(self, kind, heads=None, query_to_mediator=None, mediator_to_key=None):
        self.kind = kind
        self.heads = self.query_to_mediator = self.mediator_to_key = None
        if kind == "full":
            self.heads = _map_stack(heads, "full attention maps")
            if self.heads.shape[1] != self.heads.shape[2]:
                raise DimensionError(f"full maps must be square, got {self.heads.shape[1:]}")
        elif kind == "mediated":
            qt = self.query_to_mediator = _map_stack(query_to_mediator, "query-to-mediator maps")
            tk = self.mediator_to_key = _map_stack(mediator_to_key, "mediator-to-key maps")
            if len(qt) != len(tk):
                raise DimensionError("mediated stages disagree on head count")
            if qt.shape[2] != tk.shape[1]:
                raise DimensionError(
                    f"mediated stages do not chain: {qt.shape[1:]} then {tk.shape[1:]}"
                )
        else:
            raise UsageError(f"unknown attention map kind {kind!r}")

    @property
    def head_count(self):
        return len(self.heads if self.kind == "full" else self.query_to_mediator)

    @classmethod
    def full(cls, heads):
        return cls("full", heads=heads)

    @classmethod
    def mediated(cls, query_to_mediator, mediator_to_key):
        return cls("mediated", query_to_mediator=query_to_mediator, mediator_to_key=mediator_to_key)


def composed_attention_map(maps):
    """Collapse mediated maps to one (heads, N, N) stack by chaining the
    two stages in one batched product. Full maps have nothing to compose
    and are rejected."""
    if not isinstance(maps, AttentionMaps):
        raise UsageError("composed_attention_map expects an AttentionMaps instance")
    if maps.kind != "mediated":
        raise UsageError("only mediated maps can be composed; full maps already are")
    return maps.query_to_mediator @ maps.mediator_to_key


# ---------------------------------------------------------------------------
# forward passes


def _check_tokens(z, cfg, what):
    if z.ndim < 2 or z.shape[-2:] != (cfg.n_tokens, cfg.channels):
        raise DimensionError(
            f"{what} expects tokens of shape (..., {cfg.n_tokens}, {cfg.channels}), got {z.shape}"
        )


def project_qkv(z, params, counter=None):
    """Apply the three input projections."""
    q = matmul(z, params.w_query, counter, LABEL_QKV)
    k = matmul(z, params.w_key, counter, LABEL_QKV)
    v = matmul(z, params.w_value, counter, LABEL_QKV)
    return q, k, v


def _head_axes(rank):
    # Swaps axes rank and rank + 1: (..., N, H, d) <-> (..., H, N, d).
    return tuple(range(rank)) + (rank + 1, rank, rank + 2)


def _heads_first(x, heads):
    """(..., N, C) tokens to (..., H, N, C/H): heads on a leading axis."""
    *lead, tokens, channels = x.shape
    split = reshape(x, (*lead, tokens, heads, channels // heads))
    return transpose(split, _head_axes(len(lead)))


def _merge_heads(x):
    """(..., H, N, d) head outputs back to (..., N, H*d) tokens."""
    *lead, heads, tokens, dim = x.shape
    return reshape(transpose(x, _head_axes(len(lead))), (*lead, tokens, heads * dim))


def vanilla_attention_head(q, k, v, counter=None):
    """Attention softmax(q k^T / sqrt(d)) v for one head, or for a stack
    of heads (and samples) on the leading axes.

    Returns the head output and the attention map, a record-less tensor
    over a read-only array.
    """
    return attend(q, k, v, 1.0 / math.sqrt(q.shape[-1]), counter, LABEL_INTERACTION)


def multi_head_attention(z, params, cfg, counter=None):
    """Full multi-head self-attention over (..., N, C) tokens, all heads
    in one pass.

    Returns the projected output and the captured full maps, one stack
    of every sample's heads in order.
    """
    _check_tokens(z, cfg, "multi_head_attention")
    q, k, v = (_heads_first(x, cfg.heads) for x in project_qkv(z, params, counter))
    head_out, attn = vanilla_attention_head(q, k, v, counter)
    out = matmul(_merge_heads(head_out), params.w_out, counter, LABEL_OUT)
    n = cfg.n_tokens
    return out, AttentionMaps.full(attn.data.reshape(-1, n, n))


def make_mediators(q, cfg, mcfg, counter=None):
    """Pool the query tokens down to the mediator grid.

    The tokens are rasterised back to the spatial grid, average-pooled
    per channel, and flattened row-major. Pooling is channel-separable,
    so pooling the full-width queries and splitting heads afterwards
    equals pooling each head separately.
    """
    _check_tokens(q, cfg, "make_mediators")
    if mcfg.grid_h > cfg.grid_h or mcfg.grid_w > cfg.grid_w:
        raise ConfigError(
            f"mediator grid {mcfg.grid_h}x{mcfg.grid_w} exceeds token grid "
            f"{cfg.grid_h}x{cfg.grid_w}"
        )
    lead = q.shape[:-2]
    image = reshape(q, (*lead, cfg.grid_h, cfg.grid_w, cfg.channels))
    pooled = adaptive_avg_pool2d(image, (mcfg.grid_h, mcfg.grid_w), counter, LABEL_POOLING)
    return reshape(pooled, (*lead, mcfg.count, cfg.channels))


def mediator_attention_head(q, k, v, mediators, counter=None):
    """Mediated attention for one head, or for a stack of heads (and
    samples) on the leading axes.

    Stage one compresses the values: the mediators attend over the keys.
    Stage two answers the queries against that compressed table. Each
    stage is one ``attend`` op. Returns the head output plus both stage
    maps, record-less tensors over read-only arrays.
    """
    if mediators.shape[:-2] != q.shape[:-2] or mediators.shape[-1] != q.shape[-1]:
        raise DimensionError(
            f"mediator shape {mediators.shape} does not match queries {q.shape}"
        )
    inv_sqrt = 1.0 / math.sqrt(q.shape[-1])
    v_med, med_to_key = attend(mediators, k, v, inv_sqrt, counter, LABEL_INTERACTION)
    out, query_to_med = attend(q, mediators, v_med, inv_sqrt, counter, LABEL_INTERACTION)
    return out, query_to_med, med_to_key


def mediator_attention(z, params, cfg, mcfg, dw_kernels=None, counter=None):
    """Multi-head mediated attention over (..., N, C) tokens, all heads in
    one pass, with the depthwise value branch.

    ``dw_kernels`` is a 3 x 3 x channels tensor applied depthwise to the
    value tokens on the spatial grid and summed into the head outputs
    before the final projection; pass None to drop the branch entirely.
    Returns the projected output and the captured mediated maps, one
    stack per stage of every sample's heads in order.
    """
    _check_tokens(z, cfg, "mediator_attention")
    q, k, v = project_qkv(z, params, counter)
    mediators = make_mediators(q, cfg, mcfg, counter)
    head_out, query_to_med, med_to_key = mediator_attention_head(
        *(_heads_first(x, cfg.heads) for x in (q, k, v, mediators)), counter
    )
    merged = _merge_heads(head_out)
    if dw_kernels is not None:
        lead = z.shape[:-2]
        v_image = reshape(v, (*lead, cfg.grid_h, cfg.grid_w, cfg.channels))
        local = depthwise_conv3x3(v_image, dw_kernels, counter, LABEL_DWCONV)
        merged = add(merged, reshape(local, merged.shape))
    out = matmul(merged, params.w_out, counter, LABEL_OUT)
    n, count = cfg.n_tokens, mcfg.count
    maps = AttentionMaps.mediated(
        query_to_med.data.reshape(-1, n, count), med_to_key.data.reshape(-1, count, n)
    )
    return out, maps


# ---------------------------------------------------------------------------
# MAC accounting


@dataclass(frozen=True)
class FlopsReport:
    """Multiply-accumulate breakdown for one or more attention layers.

    ``total_flops`` counts each MAC as two floating point operations.
    """

    qkv_proj: int = 0
    interaction: int = 0
    pooling: int = 0
    dwconv: int = 0
    out_proj: int = 0

    _FIELDS = ("qkv_proj", "interaction", "pooling", "dwconv", "out_proj")

    @property
    def total_macs(self):
        return self.qkv_proj + self.interaction + self.pooling + self.dwconv + self.out_proj

    @property
    def total_flops(self):
        return 2 * self.total_macs

    def __add__(self, other):
        return FlopsReport(
            *(getattr(self, f) + getattr(other, f) for f in self._FIELDS)
        )

    def times(self, factor):
        factor = int(factor)
        return FlopsReport(*(getattr(self, f) * factor for f in self._FIELDS))

    def to_json_dict(self):
        payload = {f: getattr(self, f) for f in self._FIELDS}
        payload["total_macs"] = self.total_macs
        payload["total_flops"] = self.total_flops
        return payload

    @classmethod
    def from_counter(cls, counter):
        known = set(cls._FIELDS)
        stray = sorted(set(counter.counts) - known)
        if stray:
            raise UsageError(f"counter holds labels outside the report schema: {stray}")
        return cls(*(counter.get(f) for f in cls._FIELDS))


def attention_flops(cfg, layers=1):
    """Closed-form MACs for vanilla attention layers: projections plus
    the two quadratic interaction products."""
    n, c = cfg.n_tokens, cfg.channels
    per_layer = FlopsReport(
        qkv_proj=3 * n * c * c,
        interaction=2 * n * n * c,
        out_proj=n * c * c,
    )
    return per_layer.times(layers)


def mediator_flops(cfg, mediators, layers=1, dw_branch=True):
    """Closed-form MACs for mediated attention layers.

    ``mediators`` is a MediatorConfig or a plain count. The interaction
    term is linear in the token count: four thin products instead of two
    square ones. Pooling is counted as one accumulate per input cell and
    the depthwise branch as nine per cell.
    """
    count = mediators.count if isinstance(mediators, MediatorConfig) else int(mediators)
    if count < 1:
        raise ConfigError(f"mediator count must be positive, got {count}")
    n, c = cfg.n_tokens, cfg.channels
    per_layer = FlopsReport(
        qkv_proj=3 * n * c * c,
        interaction=4 * count * n * c,
        pooling=n * c,
        dwconv=9 * n * c if dw_branch else 0,
        out_proj=n * c * c,
    )
    return per_layer.times(layers)
