"""End-to-end runs of every subcommand through main()."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mtat
from mtat.cli import BENCH_REPEATS, main
from mtat.diffusion import (
    ModelBundle,
    ToyDiffusionModel,
    ToyModelConfig,
    capture_redundancy,
    euler_sample,
    fid_proxy,
    synth_dataset,
)
from mtat.errors import NumericError
from mtat.scheduler import threshold_grid
from mtat.serialize import load_checkpoint
from mtat.tensor import Tensor
from mtat.serialize import save_checkpoint
from mtat.util import child_seed

MICRO_MODEL = {
    "grid": [4, 4],
    "channels": 1,
    "hidden": 8,
    "heads": 2,
    "layer_kinds": ["vanilla", "mediator"],
    "time_width": 4,
    "classes": 2,
    "default_mediators": 2,
    "mlp_ratio": 2,
}

MICRO_CONFIG = {
    "model": MICRO_MODEL,
    "data": {"size": 16},
    "train": {"steps": 5, "batch": 4, "lr": 0.01, "momentum": 0.9},
    "sampler": {"steps": 3, "samples": 1},
    "redundancy": {"steps": 2, "samples": 2},
    "sweep": {
        "rho_values": [1.0, 0.5],
        "counts": [4, 16],
        "samples": 1,
        "steps": 2,
        "reference_size": 4,
    },
    "bench": {"sizes": [16, 64, 256], "channels": 8, "heads": 1, "mediators": 4},
}

FLOPS_KEY_ORDER = [
    "qkv_proj",
    "interaction",
    "pooling",
    "dwconv",
    "out_proj",
    "total_macs",
    "total_flops",
]


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(MICRO_CONFIG))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# train


def test_train_zero_steps_writes_initial_checkpoint(tmp_path, config_path):
    out = tmp_path / "run"
    assert main(["train", "--config", config_path, "--steps", "0", "--out", str(out)]) == 0
    assert (out / "loss.csv").read_text() == "step,loss\n"
    tensors = load_checkpoint(str(out / "model.ckpt"))
    fresh = ToyDiffusionModel(ToyModelConfig.from_json_dict(MICRO_MODEL), seed=0)
    assert set(tensors) == set(fresh.params)
    for name, tensor in tensors.items():
        assert np.array_equal(tensor.data, fresh.params[name].data), name


def test_train_runs_are_bit_identical(tmp_path, config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", config_path, "--out", str(out_a)]) == 0
    assert main(["train", "--config", config_path, "--out", str(out_b)]) == 0
    assert (out_a / "loss.csv").read_bytes() == (out_b / "loss.csv").read_bytes()
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()
    _, rows = read_csv(out_a / "loss.csv")
    assert len(rows) == 5
    assert [r[0] for r in rows] == [str(i) for i in range(5)]


def test_resolved_config_reproduces_the_run(tmp_path, config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", config_path, "--out", str(out_a)]) == 0
    resolved = out_a / "config.resolved.json"
    assert resolved.exists()
    assert main(["train", "--config", str(resolved), "--out", str(out_b)]) == 0
    assert (out_a / "loss.csv").read_bytes() == (out_b / "loss.csv").read_bytes()
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()


# ---------------------------------------------------------------------------
# sample


def test_sample_without_schedule_keeps_constant_count(tmp_path, config_path):
    out = tmp_path / "run"
    assert main(["sample", "--config", config_path, "--out", str(out)]) == 0
    header, rows = read_csv(out / "trace_000.csv")
    assert header == ["step", "delta", "n_t", "step_macs"]
    assert [r[2] for r in rows] == ["2", "2", "2"]
    assert (out / "sample_000.mtat").exists()
    payload = json.loads((out / "flops.json").read_text())
    assert list(payload["total"].keys()) == FLOPS_KEY_ORDER


def test_sample_seed_changes_the_output(tmp_path, config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["sample", "--config", config_path, "--seed", "1", "--out", str(out_a)])
    main(["sample", "--config", config_path, "--seed", "2", "--out", str(out_b)])
    assert (out_a / "sample_000.mtat").read_bytes() != (out_b / "sample_000.mtat").read_bytes()


def test_sample_with_schedule_records_the_switch(tmp_path, config_path):
    train_out = tmp_path / "train"
    assert main(["train", "--config", config_path, "--out", str(train_out)]) == 0
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps({"n1": 2, "levels": [{"rho": 1.0, "n": 8}]}))
    out = tmp_path / "run"
    code = main(
        [
            "sample", "--config", config_path, "--out", str(out),
            "--ckpt", str(train_out / "model.ckpt"),
            "--schedule", str(schedule), "--samples", "2",
        ]
    )
    assert code == 0
    header, rows = read_csv(out / "trace_000.csv")
    assert [r[2] for r in rows] == ["2", "8", "8"]
    macs = [int(r[3]) for r in rows]
    assert macs[0] < macs[1] == macs[2]
    assert (out / "trace_001.csv").exists()
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["schedule"] == {"n1": 2, "levels": [{"rho": 1.0, "n": 8}]}
    assert resolved["sampler"]["samples"] == 2


# ---------------------------------------------------------------------------
# redundancy


def test_redundancy_csv_layout_and_bounds(tmp_path, config_path):
    out = tmp_path / "run"
    assert main(["redundancy", "--config", config_path, "--out", str(out)]) == 0
    header, rows = read_csv(out / "redundancy.csv")
    assert header == ["layer", "step", "score", "samples", "heads"]
    assert len(rows) == 2 * 2  # layers x steps
    for layer, step, score, samples, heads in rows:
        assert 0.0 <= float(score) <= math.log(2.0) + 1e-12
        assert samples == "2" and heads == "2"

    # one cell recomputed through the library with the same inputs
    model = ToyDiffusionModel(ToyModelConfig.from_json_dict(MICRO_MODEL), seed=0)
    trace = capture_redundancy(model, [0, 1], steps=2, seed=0)
    assert float(rows[0][2]) == trace.scores[0, 0]


def test_redundancy_is_deterministic(tmp_path, config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["redundancy", "--config", config_path, "--out", str(out_a)])
    main(["redundancy", "--config", config_path, "--out", str(out_b)])
    assert (out_a / "redundancy.csv").read_bytes() == (out_b / "redundancy.csv").read_bytes()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_point_is_its_own_envelope(tmp_path):
    config = dict(MICRO_CONFIG)
    config["sweep"] = dict(MICRO_CONFIG["sweep"], rho_values=[0.5])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["rho0", "rho1", "metric", "avg_gflops", "quality", "on_envelope"]
    assert len(rows) == 1
    assert rows[0][0] == "0.5" and rows[0][1] == "" and rows[0][5] == "1"
    env_header, env_rows = read_csv(out / "envelope.csv")
    assert env_header == header
    assert env_rows == rows


def test_sweep_exits_3_when_every_point_fails(tmp_path, capsys, monkeypatch):
    def broken_quality(*args, **kwargs):
        raise NumericError("quality proxy diverged")

    monkeypatch.setattr("mtat.cli.fid_proxy", broken_quality)
    out = tmp_path / "run"
    assert main(["sweep", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "quality proxy diverged" in err
    assert "numeric error: all 77 sweep points failed" in err
    for name in ("sweep.csv", "envelope.csv"):
        header, rows = read_csv(out / name)
        assert header[0] == "rho0" and rows == []


def test_sweep_rejects_out_of_grid_counts_before_any_point_runs(tmp_path, capsys):
    # No 128-, 256- or 512-token mediator grid fits the default 8x8 model.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sweep": {"counts": [128, 256, 512]}}))
    out = tmp_path / "run"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: no 128-token mediator grid fits inside 8x8\n"
    assert not (out / "sweep.csv").exists()


def test_sweep_reruns_are_byte_identical(tmp_path, config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", config_path, "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", config_path, "--out", str(out_b)]) == 0
    assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()
    assert (out_a / "envelope.csv").read_bytes() == (out_b / "envelope.csv").read_bytes()
    _, rows = read_csv(out_a / "sweep.csv")
    assert len(rows) == 2  # two rho values, two-count schedule list
    flagged = [r for r in rows if r[5] == "1"]
    assert flagged
    _, env_rows = read_csv(out_a / "envelope.csv")
    assert env_rows == sorted(flagged, key=lambda r: float(r[3]))


# Three counts and three steps on the micro model: 9 schedules, several of
# which pick the same counts (every rho0 = 0.0 schedule stays at 1 mediator).
TRIE_CONFIG = dict(
    MICRO_CONFIG,
    sweep=dict(
        MICRO_CONFIG["sweep"], rho_values=[1.0, 0.5, 0.0], counts=[1, 4, 16], samples=2, steps=3
    ),
)


@pytest.fixture(scope="module")
def trie_sweep(tmp_path_factory):
    """The micro sweep run through main(), with the velocity calls it made,
    next to each point recomputed on its own without a cache."""
    tmp = tmp_path_factory.mktemp("trie")
    path = tmp / "config.json"
    path.write_text(json.dumps(TRIE_CONFIG))
    # Trained weights, so the latent moves and the schedules branch.
    assert main(["train", "--config", str(path), "--out", str(tmp / "train")]) == 0
    ckpt = str(tmp / "train" / "model.ckpt")
    calls = []
    velocity = ModelBundle.velocity

    def counted(self, x, t, count):
        calls.append(count)
        return velocity(self, x, t, count)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ModelBundle, "velocity", counted)
        code = main(["sweep", "--config", str(path), "--ckpt", ckpt, "--out", str(tmp / "run")])
    assert code == 0
    _, rows = read_csv(tmp / "run" / "sweep.csv")

    sweep = TRIE_CONFIG["sweep"]
    model_cfg = ToyModelConfig.from_json_dict(MICRO_MODEL)
    model = ToyDiffusionModel.from_state(model_cfg, load_checkpoint(ckpt))
    reference = synth_dataset(
        child_seed(0, "sweep", "reference"), model.cfg.classes, model.cfg.grid_h,
        model.cfg.grid_w, sweep["reference_size"], model.cfg.channels,
    ).images
    points = threshold_grid(sweep["rho_values"], sweep["counts"])
    uncached = []
    for point in points:
        results = [
            euler_sample(
                model, s % model.cfg.classes, sweep["steps"], child_seed(0, "sweep"),
                schedule=point.schedule, sample_index=s,
            )
            for s in range(sweep["samples"])
        ]
        cost = sum(r.flops.total_flops for r in results) / sweep["samples"] / 1e9
        quality = fid_proxy(np.stack([r.image for r in results]), reference, seed=0)
        traces = tuple(tuple(r.trace.selected) for r in results)
        uncached.append((point, cost, quality, traces))
    return rows, len(calls), uncached


def test_sweep_rows_match_uncached_per_point_sampling(trie_sweep):
    rows, _, uncached = trie_sweep
    assert len(rows) == len(uncached) == 9
    for row, (point, cost, quality, _) in zip(rows, uncached):
        rho1 = "" if point.rho1 is None else repr(point.rho1)
        assert row[:5] == [repr(point.rho0), rho1, point.metric, repr(cost), repr(quality)]


def test_sweep_points_with_equal_count_traces_score_equal_quality(trie_sweep):
    rows, _, uncached = trie_sweep
    by_traces = {}
    for row, (_, _, _, traces) in zip(rows, uncached):
        by_traces.setdefault(traces, []).append(row[3:5])
    shared = [group for group in by_traces.values() if len(group) > 1]
    assert shared
    for group in shared:
        assert all(entry == group[0] for entry in group)


def test_sweep_calls_the_model_once_per_distinct_count_prefix(trie_sweep):
    _, calls, uncached = trie_sweep
    sweep = TRIE_CONFIG["sweep"]
    samples, steps, levels = sweep["samples"], sweep["steps"], len(sweep["counts"])
    prefixes = {
        (s, traces[s][:length])
        for _, _, _, traces in uncached
        for s in range(samples)
        for length in range(1, steps + 1)
    }
    assert len(prefixes) > samples * steps  # the schedules do branch
    assert calls == len(prefixes)
    # Latched counts never fall and start at the first level, so a prefix of
    # length L is one of comb(L + levels - 2, levels - 1) sequences.
    trie_bound = samples * sum(math.comb(L + levels - 2, levels - 1) for L in range(1, steps + 1))
    assert calls <= trie_bound < len(uncached) * samples * steps


# ---------------------------------------------------------------------------
# flops


def test_flops_preset_prints_reference_interactions(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["flops", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "interaction 50331648 MACs/layer" in stdout
    assert "interaction 25165824 MACs/layer" in stdout
    assert "context only" in stdout and "6.06" in stdout

    payload = json.loads((out / "flops.json").read_text())
    assert list(payload["baseline"].keys()) == FLOPS_KEY_ORDER
    assert payload["baseline"]["interaction"] == 12 * 50331648
    assert payload["mediator"]["64"]["interaction"] == 12 * 25165824
    assert set(payload["mediator"]) == {"4", "16", "64"}
    assert "context only" in payload["published_reference"]["note"]
    assert payload["published_reference"]["baseline_gflops"] == 6.06


def test_flops_custom_counts(tmp_path):
    out = tmp_path / "run"
    assert main(["flops", "--n", "8,128", "--out", str(out)]) == 0
    payload = json.loads((out / "flops.json").read_text())
    assert set(payload["mediator"]) == {"8", "128"}


# ---------------------------------------------------------------------------
# bench


def test_bench_exponents_and_degenerate_count(tmp_path, config_path):
    out = tmp_path / "run"
    assert main(["bench", "--config", config_path, "--out", str(out)]) == 0
    summary = json.loads((out / "bench.json").read_text())
    assert abs(summary["vanilla"]["mac_exponent"] - 2.0) <= 0.01
    assert abs(summary["mediator"]["mac_exponent"] - 1.0) <= 0.01

    header, rows = read_csv(out / "bench.csv")
    assert header == ["kind", "n_tokens", "interaction_macs", "total_macs", "wall_seconds"]
    for kind, n_tokens, interaction, _, _ in rows:
        n = int(n_tokens)
        want = 2 * n * n * 8 if kind == "vanilla" else 4 * 4 * n * 8
        assert int(interaction) == want

    # mediator count equal to N degenerates to twice the vanilla cost
    deg = tmp_path / "deg"
    assert main(
        ["bench", "--config", config_path, "--sizes", "16", "--mediators", "16", "--out", str(deg)]
    ) == 0
    _, rows = read_csv(deg / "bench.csv")
    by_kind = {r[0]: int(r[2]) for r in rows}
    assert by_kind["mediator"] == 4 * 16 * 16 * 8
    assert by_kind["mediator"] == 2 * by_kind["vanilla"]


def test_bench_records_its_repeats(tmp_path, config_path):
    out = tmp_path / "run"
    assert main(["bench", "--config", config_path, "--sizes", "16", "--out", str(out)]) == 0
    assert json.loads((out / "bench.json").read_text())["repeats"] == BENCH_REPEATS == 3
    _, rows = read_csv(out / "bench.csv")
    assert [r[0] for r in rows] == ["vanilla", "mediator"]
    assert all(float(r[4]) > 0.0 for r in rows)


# ---------------------------------------------------------------------------
# failure modes


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_json_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["flops", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"trian": {"steps": 1}}))
    assert main(["flops", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_incompatible_checkpoint_exits_2(tmp_path, config_path):
    train_out = tmp_path / "train"
    assert main(["train", "--config", config_path, "--steps", "1", "--out", str(train_out)]) == 0
    # default model config is 8x8, the checkpoint holds 4x4 weights
    assert main(
        ["sample", "--ckpt", str(train_out / "model.ckpt"), "--out", str(tmp_path / "o")]
    ) == 2


def test_numeric_blowup_exits_3(tmp_path, config_path, capsys):
    model = ToyDiffusionModel(ToyModelConfig.from_json_dict(MICRO_MODEL), seed=0)
    state = {name: Tensor(np.full(p.shape, 1e300)) for name, p in model.params.items()}
    ckpt = tmp_path / "huge.ckpt"
    save_checkpoint(str(ckpt), state)
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(
            ["sample", "--config", config_path, "--ckpt", str(ckpt), "--out", str(tmp_path / "o")]
        )
    assert code == 3
    assert "numeric error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# console entry point


def _fresh_interpreter_env():
    """The environment with the directory holding the imported `mtat` first on PYTHONPATH."""
    env = dict(os.environ)
    package_root = str(Path(mtat.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def test_installed_script_answers_help():
    """The declared `mtat` script answers --help, run as a console script runs it."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["mtat"]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func} as f; sys.argv[0] = 'mtat'; sys.exit(f())"
    proc = subprocess.run(
        [sys.executable, "-c", code, "--help"],
        capture_output=True, text=True, env=_fresh_interpreter_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: mtat")
    assert "train" in proc.stdout and "sweep" in proc.stdout


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, mtat.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_fresh_interpreter_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.skipif(shutil.which("mtat") is None, reason="mtat console script not on PATH")
def test_path_executable_answers_help():
    proc = subprocess.run([shutil.which("mtat"), "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "train" in proc.stdout and "sweep" in proc.stdout
