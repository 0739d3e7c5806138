"""Divergence oracles and the pairwise attention-row redundancy score."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from mtat.attention import AttentionMaps, composed_attention_map
from mtat.diffusion import ModelBundle, ToyDiffusionModel, ToyModelConfig, capture_redundancy
from mtat.errors import DimensionError, DomainError, NumericError, UsageError
from mtat.redundancy import (
    Distribution,
    RedundancyTrace,
    js_divergence,
    kl_divergence,
    redundancy_score,
)
from mtat.scheduler import run_scheduled_sampling
from mtat.tensor import Tensor, no_grad
from mtat.util import stream_rng

LN2 = math.log(2.0)

# Hand-derived divergence values, frozen before wiring up the library:
#   KL((.5,.5)||(.25,.75)) = .5 ln 2 + .5 ln(2/3)
#   JS((.5,.5),(1,0)): M=(.75,.25), KL1 = .5 ln(2/3) + .5 ln 2, KL2 = ln(4/3)
KL_HALF_QUARTER = 0.14384103622589042
JS_HALF_POINT = 0.21576155433883565


def random_distribution(rng, k):
    raw = rng.uniform(0.0, 1.0, size=k) + 1e-12
    return Distribution(raw / raw.sum())


# ---------------------------------------------------------------------------
# Distribution


def test_distribution_normalizes_small_drift():
    d = Distribution([0.5, 0.5 + 4e-7])
    assert abs(sum(d.probs) - 1.0) <= 1e-15


def test_distribution_rejects_bad_vectors():
    with pytest.raises(NumericError):
        Distribution([0.5, 0.6])  # off by 0.1, far outside tolerance
    with pytest.raises(NumericError):
        Distribution([0.5, -0.5, 1.0])
    with pytest.raises(DimensionError):
        Distribution([[0.5, 0.5]])


# ---------------------------------------------------------------------------
# KLD


def test_kl_self_is_zero():
    rng = np.random.default_rng(70)
    for _ in range(10):
        p = random_distribution(rng, int(rng.integers(2, 9)))
        assert kl_divergence(p, p) == 0.0


def test_kl_hand_value():
    got = kl_divergence(Distribution([0.5, 0.5]), Distribution([0.25, 0.75]))
    assert abs(got - KL_HALF_QUARTER) <= 1e-9


def test_kl_disjoint_support_is_infinite():
    assert kl_divergence(Distribution([1.0, 0.0]), Distribution([0.0, 1.0])) == math.inf


def test_kl_zero_times_log_zero_is_zero():
    # Zero mass in p where q has mass contributes nothing.
    got = kl_divergence(Distribution([0.0, 1.0]), Distribution([0.5, 0.5]))
    assert abs(got - math.log(2.0)) <= 1e-12


def test_kl_length_mismatch():
    with pytest.raises(DimensionError):
        kl_divergence(Distribution([1.0]), Distribution([0.5, 0.5]))


# ---------------------------------------------------------------------------
# JSD


def test_js_identical_is_zero():
    d = Distribution([0.3, 0.3, 0.4])
    assert js_divergence(d, d) <= 1e-12


def test_js_disjoint_is_ln2():
    got = js_divergence(Distribution([1.0, 0.0]), Distribution([0.0, 1.0]))
    assert abs(got - LN2) <= 1e-9


def test_js_hand_value():
    got = js_divergence(Distribution([0.5, 0.5]), Distribution([1.0, 0.0]))
    assert abs(got - JS_HALF_POINT) <= 1e-9


def test_js_symmetry_and_bounds_on_random_pairs():
    rng = np.random.default_rng(71)
    for _ in range(10_000):
        k = int(rng.integers(2, 7))
        p = random_distribution(rng, k)
        q = random_distribution(rng, k)
        forward = js_divergence(p, q)
        assert forward == js_divergence(q, p)  # bitwise, not approximate
        assert -1e-15 <= forward <= LN2 + 1e-12


def test_js_finite_even_with_zeros():
    got = js_divergence(Distribution([1.0, 0.0, 0.0]), Distribution([0.0, 0.5, 0.5]))
    assert math.isfinite(got)
    assert abs(got - LN2) <= 1e-12


# ---------------------------------------------------------------------------
# redundancy score


def test_score_zero_for_identical_rows():
    row = np.array([0.2, 0.3, 0.5])
    head = np.tile(row, (4, 1))
    assert redundancy_score([head]) <= 1e-15


def test_score_ln2_for_disjoint_pair():
    head = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert abs(redundancy_score([head]) - LN2) <= 1e-12


def test_score_matches_pair_loop_oracle():
    rng = np.random.default_rng(72)
    for heads in (1, 2, 3):
        maps = []
        for _ in range(heads):
            raw = rng.uniform(0.05, 1.0, size=(3, 4))
            maps.append(raw / raw.sum(axis=1, keepdims=True))
        want = 0.0
        for head in maps:
            for i in range(3):
                for j in range(i + 1, 3):
                    want += js_divergence(Distribution(head[i]), Distribution(head[j]))
        want *= 2.0 / (heads * 3 * 2)
        assert abs(redundancy_score(maps) - want) <= 1e-12


def test_score_column_permutation_invariance():
    # A column permutation reorders each row's float sums, so the score
    # may move in the last bits; criterion 06 gates the shift at 1e-12.
    for seed in range(73, 123):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.05, 1.0, size=(6, 5))
        head = raw / raw.sum(axis=1, keepdims=True)
        perm = rng.permutation(5)
        assert abs(redundancy_score([head]) - redundancy_score([head[:, perm]])) <= 1e-12


def pairwise_jsd_oracle(head):
    # Mean JSD over unordered row pairs in KL form, one pair at a time.
    def half_kl(p, m):
        support = p > 0.0
        return 0.5 * float(np.sum(p[support] * np.log(p[support] / m[support])))

    rows = head.shape[0]
    total = 0.0
    for i in range(rows):
        for j in range(i + 1, rows):
            m = 0.5 * (head[i] + head[j])
            total += half_kl(head[i], m) + half_kl(head[j], m)
    return total / (rows * (rows - 1) / 2)


def test_score_matches_oracle_with_zeros_and_disjoint_supports():
    rng = np.random.default_rng(78)
    raw = rng.uniform(0.0, 1.0, size=(9, 12))
    raw[rng.uniform(size=raw.shape) < 0.4] = 0.0
    raw[4:, -1] += 0.5  # keep every row's mass positive
    raw[:3] = np.kron(np.eye(3), np.ones(4))  # rows 0-2: disjoint supports
    raw[3] = raw[0]
    head = raw / raw.sum(axis=1, keepdims=True)
    assert np.any(head == 0.0)
    other = np.roll(head, 1, axis=0)
    want = 0.5 * (pairwise_jsd_oracle(head) + pairwise_jsd_oracle(other))
    assert abs(redundancy_score([head, other]) - want) <= 1e-12
    assert abs(js_divergence(head[0], head[1]) - LN2) <= 1e-12
    assert js_divergence(head[0], head[3]) == 0.0


def test_near_identical_rows_never_score_below_zero():
    rng = np.random.default_rng(79)
    for _ in range(20):
        base = rng.uniform(0.05, 1.0, size=64)
        rows = base * (1.0 + 1e-13 * rng.standard_normal((16, 64)))
        head = rows / rows.sum(axis=1, keepdims=True)
        assert redundancy_score([head]) >= 0.0
        for i in range(1, 16):
            assert js_divergence(head[0], head[i]) >= 0.0


def test_score_allocates_no_per_row_temporaries():
    rng = np.random.default_rng(80)
    head = np.exp(rng.standard_normal((256, 256)))
    head /= head.sum(axis=1, keepdims=True)
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        redundancy_score([head])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 4 * head.nbytes


@pytest.mark.parametrize(
    "head",
    [
        [[0.5, 0.5], [1.5, -0.5]],  # negative mass, every row sums to 1
        [[0.2, 0.2], [0.9, 0.9]],  # one distribution at two scales
        [[0.5, 0.5], [math.nan, 1.0]],
        [[0.5, 0.5], [math.inf, 0.0]],
    ],
    ids=["negative", "row-sums", "nan", "inf"],
)
def test_score_rejects_invalid_list_maps(head):
    with pytest.raises(NumericError):
        redundancy_score([np.array([[1.0, 0.0], [0.0, 1.0]]), np.array(head)])


def test_score_accepts_list_maps_within_the_distribution_tolerance():
    head = np.array([[0.5, 0.5 + 5e-7], [1.0, 0.0]])
    assert abs(redundancy_score([head]) - JS_HALF_POINT) <= 1e-6


# ---------------------------------------------------------------------------
# the clamped kernel against its masked predecessor and a KL-form oracle


def _masked_entropy(x):
    # -sum x log x per row with 0 log 0 = 0, through a bool mask and a
    # zero-filled log.
    log = np.zeros_like(x)
    np.log(x, out=log, where=x > 0.0)
    np.multiply(log, x, out=log)
    return np.negative(np.sum(log, axis=1))


def masked_redundancy_score(heads, pair_cap=None, seed=0):
    """The entropy-form kernel before clamping: masked logs of the raw
    rows, pair sums halved per pair. Kept as the reference that the
    clamped kernel must reproduce bit for bit on zero-free maps."""
    rows = heads[0].shape[0]
    total_pairs = rows * (rows - 1) // 2
    score = 0.0
    for head_index, head in enumerate(heads):
        head = np.ascontiguousarray(head, dtype=np.float64)
        entropies = _masked_entropy(head)
        head_sum = 0.0
        if pair_cap is None or pair_cap >= total_pairs:
            blocks = [(np.full(rows - 1 - i, i), np.arange(i + 1, rows)) for i in range(rows - 1)]
            scale = 1.0
        else:
            rng = stream_rng(seed, "redundancy-pairs", head_index)
            chosen = np.sort(rng.choice(total_pairs, size=pair_cap, replace=False))
            pairs = np.array(list(itertools.combinations(range(rows), 2)))[chosen]
            blocks = [
                (pairs[lo : lo + rows - 1, 0], pairs[lo : lo + rows - 1, 1])
                for lo in range(0, pair_cap, rows - 1)
            ]
            scale = total_pairs / pair_cap
        for a, b in blocks:
            mix = head[a] + head[b]
            mix *= 0.5
            jsd = _masked_entropy(mix)
            jsd -= 0.5 * (entropies[a] + entropies[b])
            head_sum += float(np.sum(np.maximum(jsd, 0.0)))
        score += head_sum * scale
    return 2.0 * score / (len(heads) * rows * (rows - 1))


def softmax_heads(rng, heads, rows, width, scale=1.0, underflow=0.0):
    # A share ``underflow`` of the logits sits 800 below the rest, so its
    # weights underflow to exactly 0.
    logits = scale * rng.standard_normal((heads, rows, width))
    logits[rng.uniform(size=logits.shape) < underflow] -= 800.0
    weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return list(weights / weights.sum(axis=-1, keepdims=True))


def kl_form_mean_jsd(heads, block=32):
    # Mean JSD over heads and unordered row pairs from
    # JSD = KL(p || m) / 2 + KL(q || m) / 2, a block of rows at a time.
    # Zero entries take log 1 = 0, which their zero weight cancels.
    total, pairs = 0.0, 0
    for head in heads:
        n = head.shape[0]
        log_head = np.log(np.where(head > 0.0, head, 1.0))
        for lo in range(0, n, block):
            p, q = head[lo : lo + block, None, :], head[None, :, :]
            m = 0.5 * (p + q)
            log_m = np.log(np.where(m > 0.0, m, 1.0))
            kl_p = (p * (log_head[lo : lo + block, None, :] - log_m)).sum(axis=-1)
            kl_q = (q * (log_head[None, :, :] - log_m)).sum(axis=-1)
            upper = np.arange(lo, min(lo + block, n))[:, None] < np.arange(n)[None, :]
            total += float((0.5 * (kl_p + kl_q))[upper].sum())
        pairs += n * (n - 1) // 2
    return total / pairs


def test_score_equals_the_masked_kernel_on_zero_free_maps():
    rng = np.random.default_rng(82)
    heads = softmax_heads(rng, 2, 256, 256)
    assert min(float(h.min()) for h in heads) > 0.0
    assert redundancy_score(heads) == masked_redundancy_score(heads)
    for width in range(1, 41):
        narrow = softmax_heads(rng, 2, 9, width, scale=3.0)
        assert redundancy_score(narrow) == masked_redundancy_score(narrow)


def test_sampled_score_equals_the_masked_kernel_on_zero_free_maps():
    rng = np.random.default_rng(83)
    heads = softmax_heads(rng, 2, 256, 256)
    for cap in (1, 255, 4000):
        want = masked_redundancy_score(heads, pair_cap=cap, seed=7)
        assert redundancy_score(heads, pair_cap=cap, seed=7) == want


def test_score_matches_the_kl_form_oracle_at_256_rows():
    rng = np.random.default_rng(84)
    underflowed = softmax_heads(rng, 2, 256, 256, scale=3.0, underflow=0.3)
    assert all(0.2 < np.mean(h == 0.0) < 0.4 for h in underflowed)

    cfg = ToyModelConfig(grid_h=16, grid_w=16)
    model = ToyDiffusionModel(cfg, seed=5)
    assert cfg.n_tokens == 256 and cfg.default_mediators == 4
    with no_grad():
        _, (_, mediated) = model.forward(
            rng.standard_normal((cfg.n_tokens, cfg.channels)), 0.9, 1, capture=True
        )
    composed = composed_attention_map(mediated)
    for heads in (underflowed, composed):
        assert abs(redundancy_score(heads) - kl_form_mean_jsd(heads)) <= 1e-15


def test_score_accepts_attention_maps_capture():
    head = np.array([[1.0, 0.0], [0.0, 1.0]])
    maps = AttentionMaps.full([head, head.copy()])
    assert abs(redundancy_score(maps) - LN2) <= 1e-12


def test_score_requires_composed_maps():
    a_qt = np.array([[1.0], [1.0]])
    a_tk = np.array([[0.5, 0.5]])
    with pytest.raises(UsageError):
        redundancy_score(AttentionMaps.mediated([a_qt], [a_tk]))


def test_score_single_row_is_domain_error():
    with pytest.raises(DomainError):
        redundancy_score([np.array([[1.0]])])


def test_score_in_bounds_on_random_maps():
    rng = np.random.default_rng(74)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        raw = rng.uniform(0.0, 1.0, size=(n, n)) + 1e-9
        head = raw / raw.sum(axis=1, keepdims=True)
        score = redundancy_score([head])
        assert -1e-15 <= score <= LN2 + 1e-12


# ---------------------------------------------------------------------------
# pair subsampling


def test_subsample_cap_at_total_matches_exact_bitwise():
    rng = np.random.default_rng(75)
    raw = rng.uniform(0.05, 1.0, size=(8, 6))
    head = raw / raw.sum(axis=1, keepdims=True)
    exact = redundancy_score([head])
    assert redundancy_score([head], pair_cap=28) == exact
    assert redundancy_score([head], pair_cap=1000) == exact


def test_subsample_is_deterministic_and_unbiased_on_constant_maps():
    rng = np.random.default_rng(76)
    raw = rng.uniform(0.05, 1.0, size=(12, 5))
    head = raw / raw.sum(axis=1, keepdims=True)
    a = redundancy_score([head], pair_cap=10, seed=5)
    b = redundancy_score([head], pair_cap=10, seed=5)
    assert a == b
    c = redundancy_score([head], pair_cap=10, seed=6)
    assert c != a  # different pair sample, almost surely

    # Every pair of identical rows scores zero, so any sample agrees.
    flat = np.tile(raw[0] / raw[0].sum(), (12, 1))
    assert redundancy_score([flat], pair_cap=3, seed=0) <= 1e-15


def test_subsample_tracks_exact_score():
    rng = np.random.default_rng(77)
    raw = rng.uniform(0.01, 1.0, size=(24, 6))
    head = raw / raw.sum(axis=1, keepdims=True)
    exact = redundancy_score([head])
    approx = redundancy_score([head], pair_cap=150, seed=1)  # of 276 pairs
    assert abs(approx - exact) <= 0.25 * exact + 1e-3


def test_subsample_sums_js_over_the_seeded_pairs():
    rng = np.random.default_rng(81)
    rows = 12
    maps = []
    for _ in range(2):
        raw = rng.uniform(0.01, 1.0, size=(rows, 7))
        maps.append(raw / raw.sum(axis=1, keepdims=True))
    pairs = list(itertools.combinations(range(rows), 2))
    for cap in (1, 5, 30, 65):  # 30 and 65 span several scratch blocks of 11 pairs
        total = 0.0
        for head_index, head in enumerate(maps):
            pick = stream_rng(4, "redundancy-pairs", head_index)
            chosen = np.sort(pick.choice(len(pairs), size=cap, replace=False))
            picked = sum(js_divergence(head[pairs[k][0]], head[pairs[k][1]]) for k in chosen)
            total += (len(pairs) / cap) * picked
        want = total / (len(maps) * len(pairs))
        assert abs(redundancy_score(maps, pair_cap=cap, seed=4) - want) <= 1e-12 * want


def test_subsample_bad_cap():
    head = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DomainError):
        redundancy_score([head], pair_cap=0)


# ---------------------------------------------------------------------------
# traces


# capture_redundancy scores each [layer, step] cell, averaged over samples.

TRACE_CFG = ToyModelConfig(grid_h=4, grid_w=4, hidden=8, heads=2)


def trace_model():
    """Fresh weights with a non-zero output head, so the latent moves."""
    model = ToyDiffusionModel(TRACE_CFG, seed=2)
    rng = np.random.default_rng(91)
    model.params["head.w"] = Tensor(0.3 * rng.standard_normal(model.params["head.w"].shape))
    return model


def direct_scores(model, label, sample_index, steps, seed):
    """(layers, steps) scores from direct redundancy_score calls on a
    capture of the sample capture_redundancy draws as ``sample_index``."""
    cfg = model.cfg
    noise = stream_rng(seed, "sampling", sample_index).standard_normal((cfg.n_tokens, cfg.channels))
    bundle = ModelBundle(model, label, capture=True)
    run_scheduled_sampling(bundle, noise, steps)
    return np.array([
        [redundancy_score(composed_attention_map(m) if m.kind == "mediated" else m) for m in layers]
        for layers in bundle.step_maps
    ]).T


def test_trace_single_sample_passthrough():
    model = trace_model()
    trace = capture_redundancy(model, [1], steps=3, seed=5)
    assert trace.scores.shape == (2, 3)
    assert np.array_equal(trace.scores, direct_scores(model, 1, 0, 3, seed=5))
    assert trace.samples == 1 and trace.heads == 2


def test_trace_averages_samples():
    model = trace_model()
    trace = capture_redundancy(model, [0, 1], steps=2, seed=5)
    a, b = (direct_scores(model, label, s, 2, seed=5) for s, label in enumerate([0, 1]))
    assert not np.array_equal(a, b)
    assert np.array_equal(trace.scores, (a + b) / 2)
    assert trace.samples == 2


def test_trace_needs_a_sample():
    with pytest.raises(UsageError):
        capture_redundancy(trace_model(), [], steps=2, seed=5)


def test_trace_monotone_fixture():
    # Rows drift from identical to one-hot-distinct; the score must climb
    # from zero toward ln 2.
    steps = 5
    base = np.full((2, 2), 0.5)
    hot = np.array([[1.0, 0.0], [0.0, 1.0]])
    values = []
    for step in range(steps):
        alpha = step / (steps - 1)
        values.append(redundancy_score([(1 - alpha) * base + alpha * hot]))
    assert values[0] <= 1e-15
    assert abs(values[-1] - LN2) <= 1e-12
    assert np.all(np.diff(values) > 0)


def test_trace_csv_format():
    trace = RedundancyTrace(scores=np.array([[LN2, 0.5]]), samples=1, heads=1)
    lines = trace.to_csv().strip().split("\n")
    assert lines[0] == "layer,step,score,samples,heads"
    assert len(lines) == 3
    layer, step, score, samples, heads = lines[1].split(",")
    assert (layer, step, samples, heads) == ("0", "0", "1", "1")
    assert float(score) == LN2
    assert lines[2] == "0,1,0.5,1,1"
