"""Output checks for the mtat benchmark.

Every check compares a program output against a computation made here,
in plain numpy and apart from the program, or against a property the
method must have. Nothing is compared with a stored copy of earlier
output. Each check returns a list of error strings; an empty list means
the output passed.
"""

import math

import numpy as np

LN2 = math.log(2.0)
# Mediator counts of the default sweep and of the attention workload.
COUNTS = (4, 16, 64)


def close_errors(what, got, want, rtol=1e-9, atol=1e-12):
    """Errors when ``got`` and ``want`` differ beyond ``atol + rtol * |want|``."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} != {want.shape}"]
    excess = np.abs(got - want) - (atol + rtol * np.abs(want))
    if not np.all(np.isfinite(got)) or excess.max(initial=-1.0) > 0.0:
        worst = float(np.max(np.abs(got - want), initial=0.0))
        return [f"{what}: differs by up to {worst:.3e}"]
    return []


# ---------------------------------------------------------------------------
# train


def loss_curve_errors(csv_text, steps):
    """One finite loss per step, and the last tenth below the first."""
    lines = csv_text.strip().split("\n")
    if lines[0] != "step,loss":
        return [f"loss.csv header is {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(range(steps)):
        return [f"loss.csv has {len(rows)} rows, expected steps 0..{steps - 1}"]
    losses = np.array([float(r[1]) for r in rows])
    if not np.all(np.isfinite(losses)):
        return ["loss.csv holds a non-finite loss"]
    tenth = max(1, steps // 10)
    first, last = losses[:tenth].mean(), losses[-tenth:].mean()
    if not last < first:
        return [f"loss does not fall: last tenth {last:.4f} >= first tenth {first:.4f}"]
    return []


def central_difference(f, values, index, eps=1e-5):
    """Central difference of scalar ``f`` in entry ``index`` of ``values``."""
    bumped = np.array(values, dtype=np.float64)
    bumped[index] = values[index] + eps
    hi = f(bumped)
    bumped[index] = values[index] - eps
    lo = f(bumped)
    return (hi - lo) / (2.0 * eps)


# ---------------------------------------------------------------------------
# sweep


def layer_bills(n_tokens, channels):
    """Per-step MAC bills from the paper's formulas: the vanilla layer
    V = 4NC^2 + 2N^2C and the mediated layer M(n) = 4NC^2 + 4nNC + 10NC."""
    n, c = n_tokens, channels
    vanilla = 4 * n * c * c + 2 * n * n * c
    return vanilla, (lambda count: 4 * n * c * c + 4 * count * n * c + 10 * n * c)


def avg_gflops_errors(avg_gflops, n_tokens, channels, samples, steps, counts):
    """Errors unless ``avg_gflops`` is exactly the mean over ``samples``
    of ``steps`` per-step bills V + M(n_t), n_t in ``counts``, with
    n_t = ``counts[0]``, the schedule's first level, on each sample's
    first step."""
    flops = round(avg_gflops * 1e9 * samples)
    if (flops / samples) / 1e9 != avg_gflops or flops % 2:
        return [f"avg_gflops {avg_gflops!r} is not a whole number of MACs per sample"]
    vanilla, mediated = layer_bills(n_tokens, channels)
    base = samples * steps * (vanilla + mediated(0))
    per_count = 4 * n_tokens * channels
    rest, remainder = divmod(flops // 2 - base - samples * counts[0] * per_count, per_count)
    free = samples * (steps - 1)
    if remainder == 0:
        # rest = sum of the free steps' counts; find how many of each.
        small, mid, large = sorted(counts)
        for n_mid in range(free + 1):
            for n_large in range(free + 1 - n_mid):
                if small * (free - n_mid - n_large) + mid * n_mid + large * n_large == rest:
                    return []
    return [f"avg_gflops {avg_gflops!r} does not split into bills from {tuple(counts)}"]


def read_sweep_csv(text):
    """(header, rows) with each row as its list of string fields."""
    lines = text.strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def envelope_rows(rows):
    """Brute-force non-dominated rows (lower cost and quality are better),
    sorted by cost; exact duplicates keep their first row."""
    points = [(float(r[3]), float(r[4])) for r in rows]
    kept = []
    for i, (cost, quality) in enumerate(points):
        dominated = any(
            c <= cost and q <= quality and (c < cost or q < quality) for c, q in points
        )
        if not dominated and (cost, quality) not in points[:i]:
            kept.append(i)
    return sorted(kept, key=lambda i: points[i][0])


def sweep_errors(sweep_text, envelope_text, expected_points):
    """Every point present, finite non-negative qualities, and an
    envelope equal to the brute-force non-dominated set."""
    header, rows = read_sweep_csv(sweep_text)
    errors = []
    if header != "rho0,rho1,metric,avg_gflops,quality,on_envelope":
        errors.append(f"sweep.csv header is {header!r}")
    if len(rows) != expected_points:
        errors.append(f"sweep.csv has {len(rows)} points, expected {expected_points}")
    for r in rows:
        quality = float(r[4])
        if not (math.isfinite(quality) and quality >= 0.0):
            errors.append(f"quality {r[4]} at rho0={r[0]} rho1={r[1]} is not finite and >= 0")
    kept = envelope_rows(rows)
    flags = [i for i, r in enumerate(rows) if r[5] == "1"]
    if sorted(kept) != flags:
        errors.append("on_envelope flags differ from the brute-force envelope")
    env_header, env_rows = read_sweep_csv(envelope_text)
    if env_header != header or env_rows != [rows[i] for i in kept]:
        errors.append("envelope.csv differs from the brute-force envelope sorted by cost")
    return errors


def frechet_eigh(generated, reference):
    """Fréchet distance between Gaussian fits (covariances ridged by
    1e-6, the convention fid_proxy documents), with tr sqrt(Sg Sr) taken as the sum
    of sqrt eigenvalues of Sg^1/2 Sr Sg^1/2 (symmetric eigh)."""
    gen = np.asarray(generated, dtype=np.float64).reshape(len(generated), -1)
    ref = np.asarray(reference, dtype=np.float64).reshape(len(reference), -1)

    def fit(block):
        centred = block - block.mean(axis=0)
        return block.mean(axis=0), centred.T @ centred / len(block) + 1e-6 * np.eye(block.shape[1])

    mu_g, cov_g = fit(gen)
    mu_r, cov_r = fit(ref)
    w, basis = np.linalg.eigh(cov_g)
    root = (basis * np.sqrt(np.clip(w, 0.0, None))) @ basis.T
    lam = np.linalg.eigvalsh(root @ cov_r @ root)
    tr_sqrt = float(np.sum(np.sqrt(np.clip(lam, 0.0, None))))
    return float(np.sum((mu_g - mu_r) ** 2) + np.trace(cov_g) + np.trace(cov_r) - 2.0 * tr_sqrt)


# ---------------------------------------------------------------------------
# redundancy


def redundancy_csv_errors(csv_text, layers, steps):
    """layers x steps rows, every score finite and within [0, ln 2]."""
    lines = csv_text.strip().split("\n")
    rows = [line.split(",") for line in lines[1:]]
    if lines[0] != "layer,step,score,samples,heads":
        return [f"redundancy.csv header is {lines[0]!r}"]
    if len(rows) != layers * steps:
        return [f"redundancy.csv has {len(rows)} rows, expected {layers} x {steps}"]
    return [
        f"score {r[2]} at layer {r[0]} step {r[1]} is outside [0, ln 2]"
        for r in rows
        if not (0.0 <= float(r[2]) <= LN2)
    ]


def mean_pairwise_jsd(heads):
    """Mean Jensen-Shannon divergence over all heads and unordered row
    pairs, from JSD(p, q) = 1/2 KL(p || m) + 1/2 KL(q || m), m = (p + q)/2,
    evaluated for blocks of rows against every row at once."""
    total, pairs, block = 0.0, 0, 32
    for head in heads:
        head = np.asarray(head, dtype=np.float64)
        n = head.shape[0]
        for lo in range(0, n, block):
            p = head[lo : lo + block, None, :]
            q = head[None, :, :]
            mix = 0.5 * (p + q)
            kl_p = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0) / np.where(mix > 0.0, mix, 1.0)), 0.0)
            kl_q = np.where(q > 0.0, q * np.log(np.where(q > 0.0, q, 1.0) / np.where(mix > 0.0, mix, 1.0)), 0.0)
            jsd = 0.5 * (kl_p.sum(axis=-1) + kl_q.sum(axis=-1))
            rows = np.arange(lo, min(lo + block, n))[:, None]
            total += float(jsd[rows < np.arange(n)[None, :]].sum())
        pairs += n * (n - 1) // 2
    return total / pairs


# ---------------------------------------------------------------------------
# attention


def softmax_rows(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def dense_attention(z, wq, wk, wv, wo, heads):
    """Multi-head softmax(q k^T / sqrt(d)) v; returns (output, per-head maps)."""
    q, k, v = z @ wq, z @ wk, z @ wv
    d = z.shape[1] // heads
    outs, maps = [], []
    for h in range(heads):
        cols = slice(h * d, (h + 1) * d)
        attn = softmax_rows(q[:, cols] @ k[:, cols].T / math.sqrt(d))
        outs.append(attn @ v[:, cols])
        maps.append(attn)
    return np.concatenate(outs, axis=1) @ wo, maps


def adaptive_pool(image, out_h, out_w):
    """Average-pool H x W x C to (out_h * out_w) x C; bin i along an axis
    of length S covers [floor(i S / b), ceil((i + 1) S / b))."""
    height, width, _ = image.shape

    def edges(size, bins):
        return [(i * size // bins, -(-(i + 1) * size // bins)) for i in range(bins)]

    return np.stack([
        image[r0:r1, c0:c1].mean(axis=(0, 1))
        for r0, r1 in edges(height, out_h)
        for c0, c1 in edges(width, out_w)
    ])


def depthwise3x3(image, kernels):
    """Stride-1, zero-padded 3x3 correlation, one kernel per channel."""
    height, width, _ = image.shape
    padded = np.pad(image, ((1, 1), (1, 1), (0, 0)))
    return sum(
        padded[a : a + height, b : b + width] * kernels[a, b] for a in range(3) for b in range(3)
    )


def mediator_attention_ref(z, wq, wk, wv, wo, heads, grid, mediator_grid, dw):
    """Pooled-mediator attention: mediators pooled from the queries attend
    over the keys, then the queries attend over the mediators, plus the
    depthwise branch on the values. Returns (output, query-to-mediator
    maps, mediator-to-key maps)."""
    (gh, gw), (mh, mw) = grid, mediator_grid
    q, k, v = z @ wq, z @ wk, z @ wv
    med = adaptive_pool(q.reshape(gh, gw, -1), mh, mw)
    d = z.shape[1] // heads
    outs, q_to_m, m_to_k = [], [], []
    for h in range(heads):
        cols = slice(h * d, (h + 1) * d)
        stage1 = softmax_rows(med[:, cols] @ k[:, cols].T / math.sqrt(d))
        stage2 = softmax_rows(q[:, cols] @ med[:, cols].T / math.sqrt(d))
        outs.append(stage2 @ (stage1 @ v[:, cols]))
        q_to_m.append(stage2)
        m_to_k.append(stage1)
    merged = np.concatenate(outs, axis=1)
    if dw is not None:
        merged = merged + depthwise3x3(v.reshape(gh, gw, -1), dw).reshape(len(z), -1)
    return merged @ wo, q_to_m, m_to_k


def row_stochastic_errors(what, maps):
    errors = []
    for i, m in enumerate(maps):
        if m.min() < 0.0 or np.abs(m.sum(axis=1) - 1.0).max() > 1e-10:
            errors.append(f"{what} map {i} is not row-stochastic")
    return errors


def expected_macs(n_tokens, channels, mediators=None):
    """MacCounter labels of one layer: 2N^2C interaction for vanilla;
    4nNC interaction, NC pooling and 9NC depthwise for mediated."""
    n, c = n_tokens, channels
    labels = {"qkv_proj": 3 * n * c * c, "out_proj": n * c * c}
    if mediators is None:
        labels["interaction"] = 2 * n * n * c
    else:
        labels.update(interaction=4 * mediators * n * c, pooling=n * c, dwconv=9 * n * c)
    return labels
