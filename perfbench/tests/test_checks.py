"""The benchmark's output checks pass right outputs and reject wrong ones.

    python3 -m pytest -q perfbench/tests
"""

import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import mtat.attention as A  # noqa: E402
import mtat.scheduler  # noqa: E402
from mtat.redundancy import redundancy_score  # noqa: E402
from mtat.scheduler import pareto_envelope, sweep_thresholds, threshold_grid  # noqa: E402
from mtat.tensor import MacCounter, Tensor, no_grad  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


@pytest.fixture
def layer():
    """A 5x5-token layer, so 2x2 mediator pooling uses overlapping bins."""
    rng = np.random.default_rng(0)
    cfg = A.AttentionConfig(25, 8, 2, 5, 5)
    z = Tensor(rng.standard_normal((25, 8)))
    params = A.MultiHeadParams.random(rng, 8, requires_grad=False)
    dw = Tensor(rng.normal(0.0, 0.3, (3, 3, 8)))
    weights = tuple(w.data for w in (params.w_query, params.w_key, params.w_value, params.w_out))
    return cfg, z, params, dw, weights


def test_attention_checks_pass_the_program_and_reject_a_perturbed_output(layer):
    cfg, z, params, dw, weights = layer
    counter = MacCounter()
    with no_grad():
        out, maps = A.mediator_attention(z, params, cfg, A.MediatorConfig(2, 2), dw, counter)
        dense_out, dense_maps = A.multi_head_attention(z, params, cfg)
    ref_out, ref_qt, ref_tk = checks.mediator_attention_ref(z.data, *weights, 2, (5, 5), (2, 2), dw.data)
    assert checks.close_errors("out", out.data, ref_out) == []
    assert checks.close_errors("qt", maps.query_to_mediator, ref_qt) == []
    assert checks.close_errors("tk", maps.mediator_to_key, ref_tk) == []
    assert checks.row_stochastic_errors("qt", maps.query_to_mediator) == []
    assert counter.counts == checks.expected_macs(25, 8, 4)
    dense_ref, dense_ref_maps = checks.dense_attention(z.data, *weights, 2)
    assert checks.close_errors("dense", dense_out.data, dense_ref) == []
    assert checks.close_errors("dense maps", dense_maps.heads, dense_ref_maps) == []

    perturbed = out.data.copy()
    perturbed[3, 1] += 1e-7
    assert checks.close_errors("out", perturbed, ref_out)
    no_dwconv, _, _ = checks.mediator_attention_ref(z.data, *weights, 2, (5, 5), (2, 2), None)
    assert checks.close_errors("out", out.data, no_dwconv)
    leaky = [m * 1.001 for m in maps.query_to_mediator]
    assert checks.row_stochastic_errors("qt", leaky)
    assert counter.counts != checks.expected_macs(25, 8, 16)


def test_redundancy_check_rejects_a_shifted_score():
    rng = np.random.default_rng(1)
    heads = [checks.softmax_rows(rng.standard_normal((24, 24)) * 2.0) for _ in range(2)]
    heads[0][0] = 0.0
    heads[0][0, :3] = 1.0 / 3.0  # zero entries exercise the 0 log 0 terms
    score = redundancy_score(heads)
    assert checks.close_errors("score", score, checks.mean_pairwise_jsd(heads)) == []
    assert checks.close_errors("score", score + 1e-8, checks.mean_pairwise_jsd(heads))
    identical = [np.tile(heads[1][:1], (24, 1))]
    assert checks.mean_pairwise_jsd(identical) == 0.0

    csv = "layer,step,score,samples,heads\n0,0,0.1,1,2\n0,1,0.2,1,2\n"
    assert checks.redundancy_csv_errors(csv, 1, 2) == []
    assert checks.redundancy_csv_errors(csv.replace("0.2,", f"{math.log(2) + 1e-9},"), 1, 2)
    assert checks.redundancy_csv_errors(csv.replace("0.2,", "-1e-12,"), 1, 2)
    assert checks.redundancy_csv_errors(csv, 2, 2)


def _avg_gflops(sequences, n_tokens=64, channels=16):
    vanilla, mediated = checks.layer_bills(n_tokens, channels)
    macs = sum(vanilla + mediated(n) for seq in sequences for n in seq)
    return (2 * macs / len(sequences)) / 1e9


def test_avg_gflops_check_rejects_a_wrong_bill():
    good = _avg_gflops([[4, 4, 16, 16, 64, 64], [4, 16, 16, 16, 64, 64]])
    assert checks.avg_gflops_errors(good, 64, 16, 2, 6, (4, 16, 64)) == []
    assert checks.avg_gflops_errors(_avg_gflops([[4] * 6, [4] * 6]), 64, 16, 2, 6, (4, 16, 64)) == []
    assert checks.avg_gflops_errors(good * (1 + 1e-12), 64, 16, 2, 6, (4, 16, 64))
    assert checks.avg_gflops_errors(_avg_gflops([[4, 8, 16, 16, 64, 64], [4] * 6]), 64, 16, 2, 6, (4, 16, 64))
    assert checks.avg_gflops_errors(_avg_gflops([[4] * 7, [4] * 6]), 64, 16, 2, 6, (4, 16, 64))
    assert checks.avg_gflops_errors(good, 64, 16, 2, 6, (4, 16, 32))


def _sweep_csv(points):
    envelope = set(pareto_envelope(points))
    header = "rho0,rho1,metric,avg_gflops,quality,on_envelope"
    rows = [f"{i},,l1,{c!r},{q!r},{int(i in envelope)}" for i, (c, q) in enumerate(points)]
    kept = sorted(envelope, key=lambda i: points[i][0])
    return "\n".join([header] + rows) + "\n", "\n".join([header] + [rows[i] for i in kept]) + "\n"


def test_sweep_check_rejects_a_shuffled_envelope():
    points = [(3.0, 5.0), (1.0, 9.0), (2.0, 6.0), (2.0, 6.0), (4.0, 5.5), (1.5, 7.0), (5.0, 1.0)]
    sweep, envelope = _sweep_csv(points)
    assert checks.sweep_errors(sweep, envelope, len(points)) == []
    header, *rows = envelope.strip().split("\n")
    shuffled = "\n".join([header] + rows[::-1]) + "\n"
    assert checks.sweep_errors(sweep, shuffled, len(points))
    dropped = "\n".join([header] + rows[1:]) + "\n"
    assert checks.sweep_errors(sweep, dropped, len(points))
    assert checks.sweep_errors(sweep, envelope, len(points) + 1)
    negative = sweep.replace(",5.5,0\n", ",-5.5,0\n")
    assert checks.sweep_errors(negative, envelope, len(points))


def test_frechet_check_matches_fid_proxy_and_rejects_a_shift():
    from mtat.diffusion import fid_proxy

    rng = np.random.default_rng(2)
    gen, ref = rng.standard_normal((2, 8, 8, 1)), rng.standard_normal((16, 8, 8, 1))
    want = checks.frechet_eigh(gen, ref)
    assert checks.close_errors("fid", fid_proxy(gen, ref), want, rtol=1e-6) == []
    assert checks.close_errors("fid", fid_proxy(gen + 1e-3, ref), want, rtol=1e-6)


def test_loss_check_rejects_a_curve_that_does_not_fall():
    falling = "step,loss\n" + "".join(f"{i},{2.0 - 0.01 * i!r}\n" for i in range(20))
    assert checks.loss_curve_errors(falling, 20) == []
    flat = "step,loss\n" + "".join(f"{i},1.5\n" for i in range(20))
    assert checks.loss_curve_errors(flat, 20)
    rising = "step,loss\n" + "".join(f"{i},{1.0 + 0.01 * i!r}\n" for i in range(20))
    assert checks.loss_curve_errors(rising, 20)
    assert checks.loss_curve_errors(falling.replace(",1.9\n", ",nan\n"), 20)
    assert checks.loss_curve_errors(falling, 21)


def test_central_difference_matches_an_analytic_gradient():
    values = np.array([0.3, -1.2, 2.0])
    numeric = checks.central_difference(lambda v: float(np.sum(v**3)), values, 1)
    assert checks.close_errors("grad", 3.0 * values[1] ** 2, numeric, rtol=1e-8) == []


def test_tracer_nests_spans_across_the_sweep_pool_and_restores_the_module(layer):
    cfg, z, params, dw, _ = layer
    original = A.matmul
    tracer = Tracer()
    tracer.install()
    try:
        with no_grad():
            A.mediator_attention(z, params, cfg, A.MediatorConfig(2, 2), dw_kernels=dw)

        def evaluate(point):
            mtat.scheduler.latent_distance(np.zeros(3), np.ones(3))
            return 1.0, float(point.index)

        mtat.scheduler.sweep_thresholds(threshold_grid([1.0, 0.5]), evaluate, workers=2)
    finally:
        tracer.uninstall()
    assert A.matmul is original and mtat.scheduler.sweep_thresholds is sweep_thresholds
    by_id = {s[0]: s for s in tracer.spans}
    names = [s[1] for s in tracer.spans]
    assert "attention.mediator_attention.n4" in names and "tensor.matmul" in names
    (sweep,) = [s for s in tracer.spans if s[1] == "scheduler.sweep_thresholds"]
    distances = [s for s in tracer.spans if s[1] == "scheduler.latent_distance"]
    assert len(distances) == 5 and all(s[4] == sweep[0] for s in distances)
    assert all(s[5] != threading.get_ident() for s in distances)
    for sid, name, start, end, parent, _ in tracer.spans:
        if parent is not None:
            assert by_id[parent][2] <= start <= end <= by_id[parent][3]
    metrics = layer_metrics(tracer, ops=1)
    assert metrics["attention.interaction_macs.n4"][0] == 4 * 4 * 25 * 8
    assert metrics["attention.mediator_attention_ms.n4"][0] > 0.0
    assert metrics["attention.mediator_attention_ms.n16"][0] == 0.0
