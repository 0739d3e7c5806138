"""Divergence-based redundancy scoring for attention maps.

Two attention rows that put their mass in the same places are redundant;
the Jensen-Shannon divergence quantifies that on a [0, ln 2] scale
without the infinities of plain KL. A layer's score averages the
divergence over every head and every unordered row pair, so 0 means all
rows agree exactly and ln 2 means they never overlap.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, NumericError, UsageError
from .util import stream_rng

LN2 = math.log(2.0)
_SUM_TOL = 1e-6
_TINY = np.finfo(np.float64).tiny


def _check_rows(rows, what):
    """Check that every row along the last axis is finite, non-negative
    and sums to 1 within _SUM_TOL; returns the row sums."""
    sums = rows.sum(axis=-1)
    if not np.all(np.isfinite(sums)):
        raise NumericError(f"{what} contains non-finite entries")
    if rows.min(initial=0.0) < 0.0:
        raise NumericError(f"{what} contains negative mass (min {rows.min():.3e})")
    worst = float(np.max(np.abs(sums - 1.0)))
    if worst > _SUM_TOL:
        raise NumericError(f"{what} mass is off 1 by {worst:.3e}, beyond {_SUM_TOL}")
    return sums


class Distribution:
    """A validated discrete probability vector.

    Entries must be finite and non-negative and sum to 1 within 1e-6;
    the stored vector is renormalised to sum to 1 exactly.
    """

    __slots__ = ("probs",)

    def __init__(self, probs):
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionError(f"distribution must be a non-empty vector, got shape {arr.shape}")
        self.probs = arr / _check_rows(arr, "distribution")

    def __len__(self):
        return self.probs.size


def _as_probs(value):
    if isinstance(value, Distribution):
        return value.probs
    return Distribution(value).probs


def kl_divergence(p, q):
    """Relative entropy KL(p || q) in nats.

    Zero-probability terms in p contribute nothing; any mass of p on a
    zero of q makes the divergence infinite.
    """
    pa = _as_probs(p)
    qa = _as_probs(q)
    if pa.shape != qa.shape:
        raise DimensionError(f"distribution lengths differ: {pa.size} vs {qa.size}")
    support = pa > 0.0
    if np.any(qa[support] == 0.0):
        return math.inf
    ratio = pa[support] / qa[support]
    return float(np.sum(pa[support] * np.log(ratio)))


def js_divergence(p, q):
    """Jensen-Shannon divergence in nats: symmetric, finite, and at most
    ln 2 (reached only on disjoint supports)."""
    pa = _as_probs(p)
    qa = _as_probs(q)
    if pa.shape != qa.shape:
        raise DimensionError(f"distribution lengths differ: {pa.size} vs {qa.size}")
    scratch = _JsdScratch(2, pa.size)
    entropies = scratch.load(np.stack([pa, qa]))
    np.add(scratch.half[0], scratch.half[1], out=scratch.mix[0])
    return float(scratch.mixture_jsd(1, entropies[0], entropies[1])[0])


class _JsdScratch:
    """Reused working memory for scoring the row pairs of ``rows`` x
    ``width`` heads, up to ``rows - 1`` pairs at a time, in entropy form:
    JSD(p, q) = H(m) - (H(p) + H(q)) / 2 with m = (p + q) / 2.

    ``load`` clamps a head at the smallest normal float and halves it
    into ``half``, so every log argument is positive and needs no mask,
    and a pair mean m is one add, ``half[i] + half[j]``, into ``mix``.
    Halving is exact above the subnormal range, so m has the bits of
    (p + q) / 2. A zero entry contributes tiny * log(tiny) ~ -1.6e-305
    instead of 0, which rounding absorbs into any non-zero row sum.
    ``log`` is scratch for the one log per element; ``sums`` holds the
    per-row entropies, each one fused row dot of x with log x, and
    ``mean_h`` the pairs' (H(p) + H(q)) / 2.
    """

    def __init__(self, rows, width):
        self.half = np.empty((rows, width))
        self.mix = np.empty((rows - 1, width))
        self.log = np.empty((rows - 1, width))
        self.sums = np.empty(rows - 1)
        self.mean_h = np.empty(rows - 1)

    def _entropy(self, x):
        # -sum x log x per row, into self.sums. Every entropy goes through
        # this op sequence, so equal rows get equal bits and an identical
        # pair scores exactly 0. The stacked (1, n) @ (n, 1) matmul runs
        # one BLAS dot per row, so a row's bits do not depend on the
        # block around it; np.vecdot would need numpy 2.
        k = x.shape[0]
        log, out = self.log[:k], self.sums[:k]
        np.log(x, out=log)
        np.matmul(x[:, None, :], log[:, :, None], out=out[:, None, None])
        return np.negative(out, out=out)

    def load(self, head):
        """Take ``head`` into ``half`` and return its row entropies, each
        from ``half[i] + half[i]`` (the clamped row)."""
        half, mix = self.half, self.mix
        np.maximum(head, _TINY, out=half)
        np.multiply(half, 0.5, out=half)
        capacity = mix.shape[0]
        entropies = np.empty(half.shape[0])
        for lo in range(0, half.shape[0], capacity):
            block = half[lo : lo + capacity]
            k = block.shape[0]
            np.add(block, block, out=mix[:k])
            entropies[lo : lo + k] = self._entropy(mix[:k])
        return entropies

    def mixture_jsd(self, k, h_first, h_second):
        """JSD of the ``k`` pairs whose means m fill ``mix[:k]``, given
        H(p) and H(q); clamped at 0 against rounding. Returns a view of
        ``sums``."""
        jsd = self._entropy(self.mix[:k])
        mean_h = np.add(h_first, h_second, out=self.mean_h[:k])
        mean_h *= 0.5
        jsd -= mean_h
        return np.maximum(jsd, 0.0, out=jsd)


def _pairs_from_linear(linear, n):
    # Unordered pairs (i, j), i < j, enumerated row-major: the pairs of
    # row i start at offset sum_{r<i} (n - 1 - r).
    lengths = np.arange(n - 1, 0, -1)
    offsets = np.cumsum(lengths) - lengths
    first = np.searchsorted(offsets, linear, side="right") - 1
    second = first + 1 + (linear - offsets[first])
    return first, second


def _head_maps(maps):
    arrays = [np.asarray(m, dtype=np.float64) for m in maps]
    if not arrays:
        raise UsageError("redundancy_score got an empty map list")
    for index, m in enumerate(arrays):
        if m.ndim != 2:
            raise DimensionError(f"attention map must be a matrix, got shape {m.shape}")
        _check_rows(m, f"attention map {index}")
    return arrays


def redundancy_score(maps, pair_cap=None, seed=0):
    """Mean pairwise row divergence of a layer's attention maps.

    ``maps`` is a list or (heads, rows, cols) stack of per-head
    row-stochastic matrices (a mediated capture is composed first); a
    map with a non-finite or negative entry, or a row sum off 1 by more
    than 1e-6, is a NumericError.
    Averages the Jensen-Shannon divergence over all heads and all
    unordered row pairs; with ``pair_cap`` set below the pair count, a
    seeded uniform sample of pairs estimates the same average (a cap at
    or above the pair count runs the exact path). A ``pair_cap`` that is
    not None or a positive integer is a DomainError.
    """
    arrays = _head_maps(maps)
    rows = arrays[0].shape[0]
    for m in arrays:
        if m.shape[0] != rows:
            raise DimensionError("attention heads disagree on row count")
        if m.shape[1] != arrays[0].shape[1]:
            raise DimensionError("attention heads disagree on key count")
    if rows < 2:
        raise DomainError(f"need at least two rows to compare, got {rows}")
    if pair_cap is not None:
        integer = isinstance(pair_cap, (int, np.integer)) and not isinstance(pair_cap, bool)
        if not integer or pair_cap < 1:
            raise DomainError(f"pair_cap must be null or a positive integer, got {pair_cap!r}")
        pair_cap = int(pair_cap)
    total_pairs = rows * (rows - 1) // 2
    use_sampling = pair_cap is not None and pair_cap < total_pairs

    # Both paths score at most rows - 1 pairs at a time in one scratch.
    scratch = _JsdScratch(rows, arrays[0].shape[1])
    half, mix = scratch.half, scratch.mix
    score = 0.0
    for head_index, head in enumerate(arrays):
        entropies = scratch.load(head)
        head_sum = 0.0
        if not use_sampling:
            # Block d pairs row i with row i + d: one same-shape add.
            for d in range(1, rows):
                k = rows - d
                np.add(half[:k], half[d:], out=mix[:k])
                head_sum += float(scratch.mixture_jsd(k, entropies[:k], entropies[d:]).sum())
            score += head_sum
        else:
            rng = stream_rng(seed, "redundancy-pairs", head_index)
            chosen = np.sort(rng.choice(total_pairs, size=pair_cap, replace=False))
            first, second = _pairs_from_linear(chosen, rows)
            for lo in range(0, first.size, rows - 1):
                a, b = first[lo : lo + rows - 1], second[lo : lo + rows - 1]
                k = a.size
                # mode="clip" (the indices are in range) lets take write
                # straight into out instead of through a buffer.
                np.take(half, a, axis=0, out=mix[:k], mode="clip")
                np.take(half, b, axis=0, out=scratch.log[:k], mode="clip")
                np.add(mix[:k], scratch.log[:k], out=mix[:k])
                head_sum += float(scratch.mixture_jsd(k, entropies[a], entropies[b]).sum())
            score += head_sum * (total_pairs / pair_cap)
    heads = len(arrays)
    return 2.0 * score / (heads * rows * (rows - 1))


@dataclass
class RedundancyTrace:
    """Per-layer redundancy scores over sampling steps, averaged across
    samples."""

    scores: np.ndarray
    samples: int
    heads: int
    # Wall-clock seconds and milliseconds, never written to the CSV:
    # "capture_s", "score_s" and "score_ms" (per [layer][step], summed
    # over samples), from capture_redundancy.
    timing: dict = field(default_factory=dict)

    def to_csv(self):
        lines = ["layer,step,score,samples,heads"]
        layers, steps = self.scores.shape
        for layer in range(layers):
            for step in range(steps):
                value = repr(float(self.scores[layer, step]))
                lines.append(f"{layer},{step},{value},{self.samples},{self.heads}")
        return "\n".join(lines) + "\n"
