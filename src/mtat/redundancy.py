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

from .attention import AttentionMaps
from .errors import DimensionError, DomainError, NumericError, UsageError
from .util import stream_rng

LN2 = math.log(2.0)
_SUM_TOL = 1e-6


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
        if not np.all(np.isfinite(arr)):
            raise NumericError("distribution contains non-finite entries")
        if arr.min() < 0.0:
            raise NumericError(f"distribution contains negative mass (min {arr.min():.3e})")
        total = arr.sum()
        if abs(total - 1.0) > _SUM_TOL:
            raise NumericError(f"distribution mass {total!r} is not within {_SUM_TOL} of 1")
        self.probs = arr / total

    def __len__(self):
        return self.probs.size


def _as_probs(value, what):
    if isinstance(value, Distribution):
        return value.probs
    return Distribution(value).probs


def kl_divergence(p, q):
    """Relative entropy KL(p || q) in nats.

    Zero-probability terms in p contribute nothing; any mass of p on a
    zero of q makes the divergence infinite.
    """
    pa = _as_probs(p, "kl_divergence")
    qa = _as_probs(q, "kl_divergence")
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
    pa = _as_probs(p, "js_divergence")
    qa = _as_probs(q, "js_divergence")
    if pa.shape != qa.shape:
        raise DimensionError(f"distribution lengths differ: {pa.size} vs {qa.size}")
    scratch = _JsdScratch(1, pa.size)
    h_p = scratch.row_entropies(pa[None, :])
    h_q = scratch.row_entropies(qa[None, :])
    np.add(pa, qa, out=scratch.mix[0])
    return float(scratch.mixture_jsd(1, h_p, h_q)[0])


class _JsdScratch:
    """Reused working memory for scoring up to ``capacity`` row pairs of
    width ``width`` at a time, in entropy form:
    JSD(p, q) = H(m) - (H(p) + H(q)) / 2 with m = (p + q) / 2.

    ``mix`` takes the pair sums p + q; ``log`` and ``mask`` are scratch
    for the one log per element; ``sums`` holds the per-row entropies.
    """

    def __init__(self, capacity, width):
        self.mix = np.empty((capacity, width))
        self.log = np.empty((capacity, width))
        self.mask = np.empty((capacity, width), dtype=bool)
        self.sums = np.empty(capacity)

    def _entropy(self, x):
        # -sum x log x per row with 0 log 0 = 0, into self.sums. Every
        # entropy goes through this op sequence, so equal rows get equal
        # bits and an identical pair scores exactly 0.
        k = x.shape[0]
        mask, log, out = self.mask[:k], self.log[:k], self.sums[:k]
        np.greater(x, 0.0, out=mask)
        log.fill(0.0)
        np.log(x, out=log, where=mask)
        np.multiply(log, x, out=log)
        np.sum(log, axis=1, out=out)
        return np.negative(out, out=out)

    def row_entropies(self, rows):
        """Entropy of every row of a C-contiguous row-stochastic matrix."""
        capacity = self.sums.size
        entropies = np.empty(rows.shape[0])
        for lo in range(0, rows.shape[0], capacity):
            entropies[lo : lo + capacity] = self._entropy(rows[lo : lo + capacity])
        return entropies

    def mixture_jsd(self, k, h_first, h_second):
        """JSD of the ``k`` pairs whose sums p + q fill ``mix[:k]``, given
        H(p) and H(q); clamped at 0 against rounding. Halves ``mix`` in
        place and returns a view of ``sums``."""
        mix = self.mix[:k]
        np.multiply(mix, 0.5, out=mix)
        jsd = self._entropy(mix)
        jsd -= 0.5 * (h_first + h_second)
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
    if isinstance(maps, AttentionMaps):
        if maps.kind != "full":
            raise UsageError(
                "redundancy needs full maps; compose mediated maps before scoring"
            )
        return maps.heads
    arrays = [np.asarray(m, dtype=np.float64) for m in maps]
    if not arrays:
        raise UsageError("redundancy_score got an empty map list")
    for m in arrays:
        if m.ndim != 2:
            raise DimensionError(f"attention map must be a matrix, got shape {m.shape}")
    return arrays


def redundancy_score(maps, pair_cap=None, seed=0):
    """Mean pairwise row divergence of a layer's attention maps.

    ``maps`` is a full AttentionMaps capture or a list of per-head
    row-stochastic matrices. Averages the Jensen-Shannon divergence over
    all heads and all unordered row pairs; with ``pair_cap`` set below
    the pair count, a seeded uniform sample of pairs estimates the same
    average (a cap at or above the pair count runs the exact path).
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
    total_pairs = rows * (rows - 1) // 2
    use_sampling = pair_cap is not None and int(pair_cap) < total_pairs
    if pair_cap is not None and int(pair_cap) < 1:
        raise DomainError(f"pair_cap must be positive, got {pair_cap}")

    # Both paths score at most rows - 1 pairs at a time in one scratch.
    scratch = _JsdScratch(rows - 1, arrays[0].shape[1])
    score = 0.0
    for head_index, head in enumerate(arrays):
        head = np.ascontiguousarray(head, dtype=np.float64)
        entropies = scratch.row_entropies(head)
        head_sum = 0.0
        if not use_sampling:
            for i in range(rows - 1):
                k = rows - 1 - i
                np.add(head[i + 1 :], head[i], out=scratch.mix[:k])
                head_sum += float(np.sum(scratch.mixture_jsd(k, entropies[i], entropies[i + 1 :])))
            score += head_sum
        else:
            rng = stream_rng(seed, "redundancy-pairs", head_index)
            chosen = np.sort(rng.choice(total_pairs, size=int(pair_cap), replace=False))
            first, second = _pairs_from_linear(chosen, rows)
            for lo in range(0, first.size, rows - 1):
                a, b = first[lo : lo + rows - 1], second[lo : lo + rows - 1]
                k = a.size
                # mode="clip" (the indices are in range) lets take write
                # straight into out instead of through a buffer.
                np.take(head, a, axis=0, out=scratch.mix[:k], mode="clip")
                np.take(head, b, axis=0, out=scratch.log[:k], mode="clip")
                np.add(scratch.mix[:k], scratch.log[:k], out=scratch.mix[:k])
                head_sum += float(np.sum(scratch.mixture_jsd(k, entropies[a], entropies[b])))
            score += head_sum * (total_pairs / int(pair_cap))
    heads = len(arrays)
    return 2.0 * score / (heads * rows * (rows - 1))


@dataclass
class RedundancyTrace:
    """Per-layer redundancy scores over sampling steps, averaged across
    samples."""

    scores: np.ndarray
    samples: int
    heads: int
    model_id: str = ""
    extra: dict = field(default_factory=dict)

    def to_csv(self):
        lines = ["layer,step,score,samples,heads"]
        layers, steps = self.scores.shape
        for layer in range(layers):
            for step in range(steps):
                value = repr(float(self.scores[layer, step]))
                lines.append(f"{layer},{step},{value},{self.samples},{self.heads}")
        return "\n".join(lines) + "\n"


def trace_over_steps(captured, model_id="", pair_cap=None, seed=0):
    """Score a capture of shape [sample][step][layer] -> maps.

    Each entry is a full AttentionMaps or a list of per-head matrices
    (the composed form of a mediated layer). All samples must agree on
    the step and layer counts; scores are averaged over samples.
    """
    if not captured or not captured[0] or not captured[0][0]:
        raise UsageError("trace_over_steps needs at least one sample, step, and layer")
    steps = len(captured[0])
    layers = len(captured[0][0])
    for s, sample in enumerate(captured):
        if len(sample) != steps:
            raise UsageError(f"sample {s} has {len(sample)} steps, expected {steps}")
        for t, step in enumerate(sample):
            if len(step) != layers:
                raise UsageError(f"sample {s} step {t} has {len(step)} layers, expected {layers}")

    first = captured[0][0][0]
    heads = first.head_count if isinstance(first, AttentionMaps) else len(first)
    scores = np.zeros((layers, steps))
    for sample in captured:
        for t, step in enumerate(sample):
            for layer, maps in enumerate(step):
                scores[layer, t] += redundancy_score(maps, pair_cap=pair_cap, seed=seed)
    scores /= len(captured)
    return RedundancyTrace(scores=scores, samples=len(captured), heads=heads, model_id=model_id)
