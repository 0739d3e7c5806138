"""End-to-end runs of every subcommand through main()."""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

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
from mtat.scheduler import MAX_BATCH, pareto_envelope, threshold_grid
from mtat.serialize import checkpoint_from_bytes, load_checkpoint
from mtat.tensor import Tensor
from mtat.serialize import save_checkpoint
from mtat.util import child_seed, stream_rng

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


def test_diverging_train_keeps_its_finished_losses(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"lr": 1e6}}))
    out = tmp_path / "run"
    code = main(["train", "--config", str(config), "--steps", "40", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error:") and err.count("\n") == 1
    header, rows = read_csv(out / "loss.csv")
    assert header == ["step", "loss"]
    assert 0 < len(rows) < 40
    assert [r[0] for r in rows] == [str(i) for i in range(len(rows))]
    assert all(math.isfinite(float(r[1])) for r in rows)
    assert not (out / "model.ckpt").exists()


# Outputs that hold wall times; reruns reproduce every other file.
TIMED_OUTPUTS = {"timing.json", "bench.csv", "bench.json"}


def test_resolved_config_reproduces_the_run(tmp_path, monkeypatch, micro_ckpt):
    # Both runs of each command read ./config.json and write ./run from
    # sibling directories, so the invocation block matches too and
    # config.resolved.json must repeat byte for byte. The first run's flag
    # lands in the resolved config; the rerun passes only the checkpoint.
    for command in ["train", "sample", "redundancy", "sweep", "flops", "bench"]:
        ckpt = ["--ckpt", micro_ckpt] if command in ("sample", "redundancy", "sweep") else []
        run = [command, "--config", "config.json", "--out", "run"] + ckpt
        first, rerun = tmp_path / command / "a", tmp_path / command / "b"
        first.mkdir(parents=True)
        rerun.mkdir()
        (first / "config.json").write_text(json.dumps(MICRO_CONFIG))
        monkeypatch.chdir(first)
        assert main(run + ["--seed", "3"]) == 0, command
        shutil.copy(first / "run" / "config.resolved.json", rerun / "config.json")
        monkeypatch.chdir(rerun)
        assert main(run) == 0, command
        first, rerun = first / "run", rerun / "run"
        assert json.loads((first / "config.resolved.json").read_text())["seed"] == 3, command
        names = sorted(path.name for path in first.iterdir())
        assert sorted(path.name for path in rerun.iterdir()) == names, command
        for name in set(names) - TIMED_OUTPUTS:
            assert (first / name).read_bytes() == (rerun / name).read_bytes(), (command, name)


def test_resolved_config_alone_reads_the_checkpoint_it_names(tmp_path, monkeypatch, capsys, micro_ckpt):
    # As above, but the rerun passes no --ckpt: it reads the checkpoint the
    # first run's invocation.ckpt names and records it again, so every
    # output but the wall times repeats, config.resolved.json included.
    for command in ["sample", "redundancy", "sweep"]:
        run = [command, "--config", "config.json", "--out", "run"]
        first, rerun = tmp_path / command / "a", tmp_path / command / "b"
        first.mkdir(parents=True)
        rerun.mkdir()
        (first / "config.json").write_text(json.dumps(MICRO_CONFIG))
        monkeypatch.chdir(first)
        assert main(run + ["--ckpt", micro_ckpt]) == 0, command
        shutil.copy(first / "run" / "config.resolved.json", rerun / "config.json")
        monkeypatch.chdir(rerun)
        assert main(run) == 0, command
        first, rerun = first / "run", rerun / "run"
        names = sorted(path.name for path in first.iterdir())
        assert sorted(path.name for path in rerun.iterdir()) == names, command
        for name in set(names) - TIMED_OUTPUTS:
            assert (first / name).read_bytes() == (rerun / name).read_bytes(), (command, name)
    capsys.readouterr()
    resolved = json.loads((first / "config.resolved.json").read_text())
    for invocation, message in [
        ("x", "config key invocation must be an object, got 'x'"),
        ({"ckpt": 3}, "config key invocation.ckpt must be a string or null, got 3"),
    ]:
        (tmp_path / "bad.json").write_text(json.dumps(dict(resolved, invocation=invocation)))
        out = tmp_path / "bad"
        assert main(["sweep", "--config", str(tmp_path / "bad.json"), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


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


def test_redundancy_writes_its_wall_time_to_timing_json(tmp_path, config_path):
    out = tmp_path / "run"
    assert main(["redundancy", "--config", config_path, "--out", str(out)]) == 0
    timing = json.loads((out / "timing.json").read_text())
    assert sorted(timing) == ["capture_s", "score_ms", "score_s"]
    assert timing["capture_s"] > 0.0
    cells = np.array(timing["score_ms"])
    assert cells.shape == (2, 2)  # layers x steps
    assert np.all(cells > 0.0)
    assert abs(cells.sum() / 1e3 - timing["score_s"]) <= 1e-9


def test_redundancy_is_deterministic(tmp_path, config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["redundancy", "--config", config_path, "--out", str(out_a)])
    main(["redundancy", "--config", config_path, "--out", str(out_b)])
    assert (out_a / "redundancy.csv").read_bytes() == (out_b / "redundancy.csv").read_bytes()


# ---------------------------------------------------------------------------
# sweep


@pytest.fixture(scope="module")
def micro_ckpt(tmp_path_factory):
    """A checkpoint of the micro model after MICRO_CONFIG's training.

    Trained weights move the latent on the first step, so sweep schedules
    can advance; fresh weights predict the zero field and a sweep of them
    is degenerate."""
    tmp = tmp_path_factory.mktemp("micro")
    path = tmp / "config.json"
    path.write_text(json.dumps(MICRO_CONFIG))
    assert main(["train", "--config", str(path), "--out", str(tmp / "train")]) == 0
    return str(tmp / "train" / "model.ckpt")


def test_sweep_single_point_is_its_own_envelope(tmp_path, micro_ckpt):
    config = dict(MICRO_CONFIG)
    config["sweep"] = dict(MICRO_CONFIG["sweep"], rho_values=[0.5])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main(["sweep", "--config", str(path), "--ckpt", micro_ckpt, "--out", str(out)]) == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["rho0", "rho1", "metric", "avg_gflops", "quality", "on_envelope"]
    assert len(rows) == 1
    assert rows[0][0] == "0.5" and rows[0][1] == "" and rows[0][5] == "1"
    env_header, env_rows = read_csv(out / "envelope.csv")
    assert env_header == header
    assert env_rows == rows


# The default 11-value grid (77 points) on the micro model, whose 4x4 grid
# fits 1, 4 and 16 mediators.
MICRO_GRID_CONFIG = dict(
    MICRO_CONFIG,
    sweep=dict(
        MICRO_CONFIG["sweep"], rho_values=[round(1.0 - 0.1 * i, 1) for i in range(11)],
        counts=[1, 4, 16],
    ),
)
FAILURES_HEADER = "index,rho0,rho1,metric,error,message\n"
# The micro grid with JSON integer rhos, and the (rho0, rho1) fields of its
# five points in grid order: an integer rho is written as the float it is.
INT_RHO_CONFIG = dict(
    MICRO_GRID_CONFIG, sweep=dict(MICRO_GRID_CONFIG["sweep"], rho_values=[1, 0.5])
)
INT_RHO_FIELDS = [["1.0", "1.0"], ["1.0", "0.5"], ["0.5", "0.5"], ["1.0", ""], ["0.5", ""]]


def broken_sweep(
    out, config_dir, micro_ckpt, monkeypatch, message="quality proxy diverged",
    config=MICRO_GRID_CONFIG,
):
    """Run a micro sweep, by default the 77-point one, with a quality
    proxy that always raises."""

    def broken_quality(*args, **kwargs):
        raise NumericError(message)

    monkeypatch.setattr("mtat.cli.fid_proxy", broken_quality)
    path = config_dir / "grid.json"
    path.write_text(json.dumps(config))
    return main(["sweep", "--config", str(path), "--ckpt", micro_ckpt, "--out", str(out)])


def test_sweep_exits_3_when_every_point_fails(tmp_path, capsys, monkeypatch, micro_ckpt):
    out = tmp_path / "run"
    assert broken_sweep(out, tmp_path, micro_ckpt, monkeypatch) == 3
    err = capsys.readouterr().err
    assert "quality proxy diverged" in err
    assert "numeric error: all 77 sweep points failed" in err
    for name in ("sweep.csv", "envelope.csv"):
        header, rows = read_csv(out / name)
        assert header[0] == "rho0" and rows == []


def test_sweep_writes_each_failed_point_to_failures_csv(
    tmp_path, config_path, micro_ckpt, monkeypatch, capsys
):
    message = 'proxy diverged at "t=1", twice'
    for name in ("a", "b"):
        assert broken_sweep(tmp_path / name, tmp_path, micro_ckpt, monkeypatch, message) == 3
    text = (tmp_path / "a" / "failures.csv").read_text()
    assert text == (tmp_path / "b" / "failures.csv").read_text()
    assert text.startswith(FAILURES_HEADER)
    rows = list(csv.reader(io.StringIO(text)))[1:]
    assert len(rows) == 77
    assert [row[0] for row in rows] == [str(i) for i in range(77)]
    assert rows[0][1:4] == ["1.0", "1.0", "l1"] and rows[-1][1:4] == ["0.0", "", "l1"]
    assert all(row[4:] == ["NumericError", message] for row in rows)

    capsys.readouterr()
    out = tmp_path / "e"
    assert broken_sweep(out, tmp_path, micro_ckpt, monkeypatch, message, INT_RHO_CONFIG) == 3
    assert "sweep point 0 (rho0=1.0, rho1=1.0) failed" in capsys.readouterr().err
    rows = list(csv.reader(io.StringIO((out / "failures.csv").read_text())))[1:]
    assert [row[1:3] for row in rows] == INT_RHO_FIELDS

    monkeypatch.undo()
    sweep = ["sweep", "--config", config_path, "--ckpt", micro_ckpt, "--out"]
    for name in ("c", "d"):
        assert main(sweep + [str(tmp_path / name)]) == 0
        assert (tmp_path / name / "failures.csv").read_text() == FAILURES_HEADER

    # The same integer grid, with every point evaluated.
    path = tmp_path / "int_rho.json"
    path.write_text(json.dumps(INT_RHO_CONFIG))
    out = tmp_path / "f"
    assert main(["sweep", "--config", str(path), "--ckpt", micro_ckpt, "--out", str(out)]) == 0
    _, rows = read_csv(out / "sweep.csv")
    assert [row[:2] for row in rows] == INT_RHO_FIELDS
    _, envelope = read_csv(out / "envelope.csv")
    assert envelope and all(row in rows for row in envelope)


def test_sweep_of_fresh_weights_exits_3_with_header_only_files(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main(["sweep", "--config", config_path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("numeric error:") == 1
    assert "no schedule can advance" in err and "--ckpt" in err
    for name in ("sweep.csv", "envelope.csv"):
        header, rows = read_csv(out / name)
        assert header[0] == "rho0" and rows == []
    assert (out / "failures.csv").read_text() == FAILURES_HEADER


def test_sweep_rejects_out_of_grid_counts_before_any_point_runs(tmp_path, capsys):
    # No 128-, 256- or 512-token mediator grid fits the default 8x8 model.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sweep": {"counts": [128, 256, 512]}}))
    out = tmp_path / "run"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: no 128-token mediator grid fits inside 8x8\n"
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("key", ["samples", "steps"])
def test_sweep_rejects_a_zero_sample_or_step_count_before_any_point_runs(tmp_path, capsys, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sweep": {key: 0}}))
    out = tmp_path / "run"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: sweep.{key} must be at least 1, got 0\n"
    for name in ("sweep.csv", "envelope.csv", "failures.csv"):
        assert not (out / name).exists()


@pytest.mark.parametrize("sweep, message", [
    ({"counts": [4]}, "threshold_grid needs two or three mediator counts, got 1"),
    ({"metrics": ["l3"]}, "unknown config key sweep.metrics"),
    ({"metrics": ["l1"]}, "unknown config key sweep.metrics"),
    ({"rho_values": []}, "sweep grid is empty: it needs a rho"),
    ({"counts": [4, 16], "two_level": True}, "unknown config key sweep.two_level"),
    ({"counts": [2, 4, 16, 64]}, "threshold_grid needs two or three mediator counts, got 4"),
    ({"rho_values": [0.5, 0.5]}, "sweep.rho_values must not repeat a rho, got [0.5, 0.5]"),
    ({"counts": [4, 4, 64]}, "sweep.counts must not repeat a count, got [4, 4, 64]"),
])
def test_sweep_rejects_a_grid_it_cannot_build_before_writing_anything(tmp_path, capsys, sweep, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sweep": sweep}))
    out = tmp_path / "run"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_sample_rejects_a_latching_key_before_writing_anything(tmp_path, capsys):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps({"n1": 4, "latching": True}))
    out = tmp_path / "run"
    assert main(["sample", "--schedule", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "schedule.latching" in err
    assert not out.exists()


def test_sample_rejects_a_schedule_key_typo_before_writing_anything(tmp_path, capsys):
    path = tmp_path / "schedule.json"
    path.write_text(json.dumps({"n1": 4, "level": [{"rho": 0.9, "n": 16}]}))
    out = tmp_path / "run"
    assert main(["sample", "--schedule", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown schedule.level\n"
    assert not out.exists()


def test_sweep_reruns_are_byte_identical(tmp_path, config_path, micro_ckpt):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    sweep = ["sweep", "--config", config_path, "--ckpt", micro_ckpt, "--out"]
    assert main(sweep + [str(out_a)]) == 0
    assert main(sweep + [str(out_b)]) == 0
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
def trie_run(tmp_path_factory, micro_ckpt):
    """The micro sweep run through main(), with the rows of each velocity
    call it made, the random streams it opened and the image stacks it
    scored, next to each point recomputed on its own."""
    tmp = tmp_path_factory.mktemp("trie")
    path = tmp / "config.json"
    path.write_text(json.dumps(TRIE_CONFIG))
    calls, scored, streams = [], [], []
    velocity = ModelBundle.velocity

    def counted(self, x, t, count, labels):
        calls.append(len(x))
        return velocity(self, x, t, count, labels)

    def counted_stream(seed, *names):
        streams.append(names)
        return stream_rng(seed, *names)

    def counted_quality(generated, *args, **kwargs):
        scored.append(np.asarray(generated).tobytes())
        return fid_proxy(generated, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ModelBundle, "velocity", counted)
        patch.setattr("mtat.cli.fid_proxy", counted_quality)
        patch.setattr("mtat.diffusion.stream_rng", counted_stream)
        # Trained weights, so the latent moves and the schedules branch.
        code = main(["sweep", "--config", str(path), "--ckpt", micro_ckpt, "--out", str(tmp / "run")])
    assert code == 0
    _, rows = read_csv(tmp / "run" / "sweep.csv")
    _, envelope = read_csv(tmp / "run" / "envelope.csv")

    sweep = TRIE_CONFIG["sweep"]
    model_cfg = ToyModelConfig.from_json_dict(MICRO_MODEL)
    model = ToyDiffusionModel.from_state(model_cfg, load_checkpoint(micro_ckpt))
    reference = synth_dataset(
        child_seed(0, "sweep", "reference"), model.cfg.classes, model.cfg.grid_h,
        model.cfg.grid_w, sweep["reference_size"], model.cfg.channels,
    ).images
    points = threshold_grid(sweep["rho_values"], sweep["counts"])
    uncached, stacks = [], []
    for point in points:
        results = [
            euler_sample(
                model, s % model.cfg.classes, sweep["steps"], child_seed(0, "sweep"),
                schedule=point.schedule, sample_index=s,
            )
            for s in range(sweep["samples"])
        ]
        cost = sum(r.flops.total_flops for r in results) / sweep["samples"] / 1e9
        stack = np.stack([r.latent for r in results])
        quality = fid_proxy(stack, reference, seed=0)
        traces = tuple(tuple(r.trace.selected) for r in results)
        uncached.append((point, cost, quality, traces))
        stacks.append(stack.tobytes())
    return SimpleNamespace(
        rows=rows, envelope=envelope, calls=calls, scored=scored,
        streams=streams, uncached=uncached, stacks=stacks,
    )


@pytest.fixture(scope="module")
def trie_sweep(trie_run):
    return trie_run.rows, trie_run.calls, trie_run.uncached


def test_sweep_rows_match_uncached_per_point_sampling(trie_sweep):
    rows, _, uncached = trie_sweep
    assert len(rows) == len(uncached) == 9
    for row, (point, cost, quality, _) in zip(rows, uncached):
        rho1 = "" if point.rho1 is None else repr(point.rho1)
        assert row[:5] == [repr(point.rho0), rho1, "l1", repr(cost), repr(quality)]


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
    rows = sum(calls)
    assert rows == len(prefixes)
    # Latched counts never fall and start at the first level, so a prefix of
    # length L is one of comb(L + levels - 2, levels - 1) sequences.
    trie_bound = samples * sum(math.comb(L + levels - 2, levels - 1) for L in range(1, steps + 1))
    assert rows <= trie_bound < len(uncached) * samples * steps
    # Each step makes one call per count, split into calls of MAX_BATCH rows.
    assert max(calls) <= MAX_BATCH
    assert len(calls) <= steps * levels * math.ceil(rows / MAX_BATCH)


def test_sweep_draws_each_samples_noise_once(trie_run):
    # 9 points x 2 samples share 2 latents; the lockstep run draws each once.
    samples = TRIE_CONFIG["sweep"]["samples"]
    noise = sorted(names for names in trie_run.streams if names[0] == "sampling")
    assert noise == [("sampling", s) for s in range(samples)]
    # The kept noise is the noise each uncached point draws for itself, so
    # the rows and the envelope are those of the points sampled alone.
    envelope_ids = set(pareto_envelope(
        [(cost, quality, point.index) for point, cost, quality, _ in trie_run.uncached]
    ))
    flags = [str(int(point.index in envelope_ids)) for point, *_ in trie_run.uncached]
    assert [row[5] for row in trie_run.rows] == flags
    flagged = [row for row, flag in zip(trie_run.rows, flags) if flag == "1"]
    assert trie_run.envelope == sorted(flagged, key=lambda r: float(r[3]))


def test_sweep_scores_each_distinct_image_stack_once(trie_run):
    distinct = set(trie_run.stacks)
    assert len(trie_run.scored) == len(distinct) < len(trie_run.uncached)
    assert set(trie_run.scored) == distinct


def test_a_failing_model_call_fails_only_the_points_through_its_node(
    tmp_path, micro_ckpt, trie_run, monkeypatch
):
    # Sample 1 (label 1) stands on one node when its last step runs at 4
    # mediators; sample 0's nodes at that step and count share its call.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TRIE_CONFIG))
    velocity = ModelBundle.velocity
    message = "no velocity for sample 1's last step at 4 mediators"

    def failing(self, x, t, count, labels):
        if count == 4 and t == 1.0 - 2 / 3 and 1 in list(labels):
            raise NumericError(message)
        return velocity(self, x, t, count, labels)

    monkeypatch.setattr(ModelBundle, "velocity", failing)
    outs = [tmp_path / name for name in ("a", "b")]
    for out in outs:
        assert main(["sweep", "--config", str(path), "--ckpt", micro_ckpt, "--out", str(out)]) == 0
    for name in ("sweep.csv", "envelope.csv", "failures.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    through = [point.index for point, _, _, traces in trie_run.uncached if traces[1][2] == 4]
    sharing = [point.index for point, _, _, traces in trie_run.uncached if traces[0][2] == 4]
    assert through and set(sharing) - set(through)
    failures = list(csv.reader(io.StringIO((outs[0] / "failures.csv").read_text())))[1:]
    assert [int(row[0]) for row in failures] == through
    assert all(row[4:] == ["NumericError", message] for row in failures)
    _, rows = read_csv(outs[0] / "sweep.csv")
    kept = [row[:5] for i, row in enumerate(trie_run.rows) if i not in through]
    assert [row[:5] for row in rows] == kept


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


@pytest.mark.parametrize(
    "command, config, flags, message",
    [
        ("sweep", {"sweep": {"rho_values": ["1.0", "0.5"]}}, [],
         "config key sweep.rho_values[0] must be a number, got '1.0'"),
        ("sweep", {"sweep": {"two_level": "false"}}, [], "unknown config key sweep.two_level"),
        ("train", {"model": {"grid": "88"}}, ["--steps", "0"],
         "config key model.grid must be a list, got '88'"),
        ("train", {"model": {"grid": [8, 8, 3]}}, ["--steps", "0"],
         "model grid must be a list of two extents, got [8, 8, 3]"),
        ("train", {"model": {"hidden": 16.7}}, ["--steps", "0"],
         "config key model.hidden must be an integer, got 16.7"),
        ("redundancy", {"redundancy": {"pair_cap": 2.5}}, ["--steps", "1", "--samples", "1"],
         "redundancy.pair_cap must be null or a positive integer, got 2.5"),
        ("train", {}, ["--seed", "-1", "--steps", "0"], "seed must be non-negative, got -1"),
        # json.dumps writes these as the non-standard literals NaN and Infinity.
        ("train", {"train": {"lr": math.nan}}, ["--steps", "0"],
         "config key train.lr must be a finite number, got nan"),
        ("train", {"train": {"lr": math.inf}}, ["--steps", "0"],
         "config key train.lr must be a finite number, got inf"),
    ],
    ids=["string-rhos", "string-two-level", "string-grid", "three-extent-grid",
         "fractional-hidden", "fractional-pair-cap", "negative-seed", "nan-lr", "infinite-lr"],
)
def test_ill_typed_config_exits_2_before_writing(tmp_path, capsys, command, config, flags, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main([command, "--config", str(path), "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, flags, message",
    [
        ("train", {}, ["--steps", "-1"], "train.steps must be at least 0, got -1"),
        ("sample", {}, ["--samples", "-2"], "sampler.samples must be at least 0, got -2"),
        ("redundancy", {}, ["--samples", "0"], "redundancy.samples must be at least 1, got 0"),
        ("train", {"train": {"batch": 0}}, [], "train.batch must be at least 1, got 0"),
        ("sweep", {"sweep": {"reference_size": 0}}, [],
         "sweep.reference_size must be at least 1, got 0"),
        ("flops", {"flops": {"layers": -1}}, [], "flops.layers must be at least 1, got -1"),
        ("flops", {"flops": {"grid": [16]}}, [],
         "flops grid must be a list of two extents, got [16]"),
        ("flops", {"flops": {"grid": [16, 16, 3]}}, [],
         "flops grid must be a list of two extents, got [16, 16, 3]"),
        ("bench", {}, ["--sizes", "0"],
         "attention config fields must be positive: "
         "AttentionConfig(n_tokens=0, channels=32, heads=1, grid_h=0, grid_w=0)"),
        ("bench", {}, ["--heads", "0", "--sizes", "16"],
         "attention config fields must be positive: "
         "AttentionConfig(n_tokens=16, channels=32, heads=0, grid_h=4, grid_w=4)"),
        ("bench", {}, ["--sizes", "15"], "15 tokens do not form a square grid"),
        ("flops", {}, ["--n", "0"], "mediator count must be positive, got 0"),
        ("sweep", {"sweep": {"counts": [4, 16, 100]}}, [],
         "no 100-token mediator grid fits inside 8x8"),
        ("sample", {"schedule": {"n1": 4, "levels": [{"rho": 0.5, "n": 100}]}}, [],
         "no 100-token mediator grid fits inside 8x8"),
        ("train", {"model": {"default_mediators": 100}}, [],
         "no 100-token mediator grid fits inside 8x8"),
        ("bench", {"bench": {"sizes": []}}, [], "bench.sizes must name at least one size"),
        ("bench", {}, ["--sizes", "64,64"], "bench.sizes must not repeat a size, got [64, 64]"),
        ("flops", {"flops": {"counts": []}}, [], "flops.counts must name at least one count"),
        ("flops", {}, ["--n", ""], "flops.counts must name at least one count"),
        ("flops", {}, ["--n", ",,"], "flops.counts must name at least one count"),
        ("flops", {}, ["--n", "4,4"], "flops.counts must not repeat a count, got [4, 4]"),
        ("flops", {"flops": {"counts": [16, 4, 16]}}, [],
         "flops.counts must not repeat a count, got [16, 4, 16]"),
    ],
    ids=["negative-train-steps", "negative-samples", "zero-redundancy-samples", "zero-batch",
         "zero-reference-size", "negative-flops-layers", "one-extent-flops-grid",
         "three-extent-flops-grid", "zero-bench-size", "zero-bench-heads",
         "non-square-bench-size", "zero-flops-count", "out-of-grid-sweep-count",
         "out-of-grid-schedule-count", "out-of-grid-default-count", "no-bench-sizes",
         "repeated-bench-size", "no-flops-counts", "empty-flops-flag", "commas-only-flops-flag",
         "repeated-flops-flag", "repeated-flops-count"],
)
def test_out_of_range_config_exits_2_before_writing(tmp_path, capsys, command, config, flags, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main([command, "--config", str(path), "--out", str(out)] + flags) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sample"])
@pytest.mark.parametrize("width", [0, -2, 3])
def test_bad_time_width_exits_2_before_writing(tmp_path, capsys, command, width):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": {"time_width": width}}))
    out = tmp_path / "run"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    message = f"model.time_width must be even and at least 2, got {width}"
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_sample_accepts_zero_samples(tmp_path, config_path):
    out = tmp_path / "run"
    assert main(["sample", "--config", config_path, "--samples", "0", "--out", str(out)]) == 0
    assert json.loads((out / "flops.json").read_text())["mean_gflops"] == 0.0


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


def test_incompatible_checkpoint_exits_2(tmp_path, config_path, capsys):
    train_out = tmp_path / "train"
    assert main(["train", "--config", config_path, "--steps", "1", "--out", str(train_out)]) == 0
    capsys.readouterr()
    # default model config is 8x8, the checkpoint holds 4x4 weights
    ckpt, out = train_out / "model.ckpt", tmp_path / "o"
    assert main(["sample", "--ckpt", str(ckpt), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: checkpoint {ckpt} is not valid: ")
    assert not out.exists()


REPEATED_KEYS = {
    "--config": '{"train": {"steps": 1, "steps": 3}}',
    "--schedule": '{"n1": 4, "n1": 16}',
}


def unreadable_run(tmp_path, flag, kind, micro_ckpt):
    """The argv of a run whose ``flag`` names an input of ``kind`` that it
    cannot read or use, and the path that input lives at."""
    path = tmp_path / "input"
    command, extra = "sample", ["--out", str(tmp_path / "run")]
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b'{"seed": "\xff"}')
    elif kind == "not-json":
        path.write_text("{not json")
    elif kind == "repeated-key":
        path.write_text(REPEATED_KEYS[flag])
    elif kind == "too-deep":
        path.write_text("[" * 100_000 + "]" * 100_000)
    elif kind == "garbage":
        path.write_bytes(b"garbage\n")
    elif kind == "truncated":
        path.write_bytes(Path(micro_ckpt).read_bytes()[:100])
    elif kind == "non-finite":
        # The last 8 bytes are the last weight of the last tensor.
        path.write_bytes(Path(micro_ckpt).read_bytes()[:-8] + np.array([np.nan]).tobytes())
    elif kind == "wrong-shape":
        path = Path(micro_ckpt)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {**MICRO_MODEL, "hidden": 16}}))
        extra += ["--config", str(config)]
    elif kind == "file":
        path.write_text("")
    elif kind == "under-a-file":
        (tmp_path / "file").write_text("")
        path = tmp_path / "file" / "sub"
    if flag == "--out":
        command, extra = "flops", []
    return [command, flag, str(path)] + extra, path


FILE_KINDS = ["missing", "directory", "not-utf8", "not-json", "repeated-key", "too-deep"]
CKPT_KINDS = ["missing", "directory", "garbage", "truncated", "non-finite", "wrong-shape"]


@pytest.mark.parametrize("flag, kind", [
    *[("--config", kind) for kind in FILE_KINDS],
    *[("--schedule", kind) for kind in FILE_KINDS],
    *[("--ckpt", kind) for kind in CKPT_KINDS],
    ("--out", "file"),
    ("--out", "under-a-file"),
])
def test_unreadable_input_exits_2_with_one_line_before_writing(
    tmp_path, capsys, micro_ckpt, flag, kind
):
    def snapshot():
        return {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}

    argv, path = unreadable_run(tmp_path, flag, kind, micro_ckpt)
    before = snapshot()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: ") and str(path) in err
    assert snapshot() == before


@pytest.mark.parametrize("command, name", [("train", "loss.csv"), ("sweep", "sweep.csv")])
def test_an_output_it_cannot_write_exits_2_with_one_line(
    tmp_path, capsys, config_path, micro_ckpt, command, name
):
    out = tmp_path / "run"
    (out / name).mkdir(parents=True)  # a directory holds the output's name
    argv = [command, "--config", config_path, "--out", str(out)]
    assert main(argv + (["--ckpt", micro_ckpt] if command == "sweep" else [])) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and str(out / name) in err
    assert not list(out.glob(".tmp-*"))


def test_sample_reads_its_checkpoint_once(tmp_path, config_path, micro_ckpt, monkeypatch):
    reads = []

    def counting_reader(blob):
        reads.append(len(blob))
        return checkpoint_from_bytes(blob)

    monkeypatch.setattr("mtat.cli.checkpoint_from_bytes", counting_reader)
    out = tmp_path / "run"
    assert main(["sample", "--config", config_path, "--ckpt", micro_ckpt, "--out", str(out)]) == 0
    assert reads == [os.path.getsize(micro_ckpt)]


def test_numeric_blowup_exits_3(tmp_path, config_path, capsys):
    model = ToyDiffusionModel(ToyModelConfig.from_json_dict(MICRO_MODEL), seed=0)
    state = {name: Tensor(np.full(p.shape, 1e300)) for name, p in model.params.items()}
    ckpt = tmp_path / "huge.ckpt"
    save_checkpoint(str(ckpt), state)
    code = main(
        ["sample", "--config", config_path, "--ckpt", str(ckpt), "--out", str(tmp_path / "o")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error:") and err.count("\n") == 1


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
