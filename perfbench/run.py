#!/usr/bin/env python3
"""Benchmark for mtat: four workloads, end-to-end rates and a traced run.

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Workloads: ``train``, ``sweep`` and ``redundancy`` run the CLI jobs
in-process through ``mtat.cli.main``; ``attention`` calls the attention
kernels at N=1024. Run from the repository root; mtat is imported from
``src/``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See perfbench/README.md for the make-up of each workload.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_TRIALS = 5  # set-ups per run, each in a fresh interpreter; setup_s is their median
CKPT_STEPS = 20  # training steps behind the sweep and redundancy checkpoint
TRAIN_STEPS = 80  # steps per `mtat train` round
RED_GRID, RED_STEPS = 16, 2  # redundancy at N=256, 2 steps of one sample
ATTN_SIDE, ATTN_CHANNELS, ATTN_HEADS = 32, 64, 4  # attention at N=1024


def cli(argv):
    """Run ``mtat.cli.main`` in-process; returns (exit code, wall seconds)."""
    import mtat.cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        code = mtat.cli.main([str(a) for a in argv])
        return code, time.perf_counter() - start


class Workload:
    """One workload: ``prepare`` is timed as set-up, ``run_round`` does
    one fixed round of operations and returns (attempted, failed, a
    record whose ``round_rate`` is the round's rate), ``check`` verifies
    the outputs."""

    def __init__(self, seed, out):
        self.seed, self.out = seed, out
        self.first = None  # output bytes of the first round
        self.errors = []

    def round_rate(self, record):
        return record

    def rate(self, rounds):
        """The run's ``ops_per_s`` from its rounds: the median round."""
        return statistics.median(self.round_rate(r) for r in rounds)

    def keep_outputs(self, names):
        """Keep the first round's outputs; later rounds must repeat them."""
        blobs = {n: (self.out / "job" / n).read_bytes() for n in names}
        if self.first is None:
            self.first = blobs
        elif blobs != self.first:
            self.errors.append("a rerun with the same inputs wrote different output bytes")
        return blobs


def train_checkpoint(seed, out):
    code, _ = cli(["train", "--seed", seed, "--steps", CKPT_STEPS, "--out", out])
    if code != 0:
        raise RuntimeError(f"checkpoint training exited {code}")


class CheckpointWorkload(Workload):
    """Set-up trains a short checkpoint, so the head is not zero. Trial 0's
    is trained once per run, in a child; the measuring process finds it
    on disk and loads it, as a user's ``mtat`` process would."""

    def prepare(self, trial):
        self.ckpt = self.out / f"ckpt{trial}" / "model.ckpt"
        if not self.ckpt.is_file():
            train_checkpoint(self.seed, self.ckpt.parent)
        if self.ckpt.read_bytes() != (self.out / "ckpt0" / "model.ckpt").read_bytes():
            self.errors.append("checkpoint training is not reproducible")


class Train(Workload):
    op_name, rate_name, rate_unit = "train steps", "train_samples_per_s", "samples/s"

    def prepare(self, trial):
        import mtat.cli

        self.batch = mtat.cli.default_config()["train"]["batch"]

    def run_round(self):
        """One `mtat train` job; its rate is samples over the job's wall time."""
        code, wall = cli(["train", "--seed", self.seed, "--steps", TRAIN_STEPS, "--out", self.out / "job"])
        if code != 0:
            return TRAIN_STEPS, TRAIN_STEPS, 0.0
        self.keep_outputs(["loss.csv", "model.ckpt"])
        return TRAIN_STEPS, 0, TRAIN_STEPS * self.batch / wall

    def check(self):
        import numpy as np
        from mtat.diffusion import ToyDiffusionModel, ToyModelConfig, batch_loss, synth_dataset
        from mtat.serialize import load_checkpoint
        from mtat.tensor import Tensor, backward, no_grad

        from checks import central_difference, close_errors, loss_curve_errors

        errors = loss_curve_errors(self.first["loss.csv"].decode(), TRAIN_STEPS)
        cfg = ToyModelConfig()
        model = ToyDiffusionModel.from_state(cfg, load_checkpoint(self.out / "job" / "model.ckpt"))
        # Gradients of batch_loss from backward against central differences.
        rng = np.random.default_rng([self.seed, 1])
        data = synth_dataset(self.seed, cfg.classes, cfg.grid_h, cfg.grid_w, 4, cfg.channels)
        times = rng.uniform(0.05, 0.95, 4)
        noises = [rng.standard_normal(img.shape) for img in data.images]
        grads = backward(batch_loss(model, data.images, data.labels, times, noises))
        for name in ("layer0.attn.w_query", "layer1.attn.w_key", "layer1.attn.dw",
                     "layer1.mlp.w1", "head.w", "class_embed"):
            param = model.params[name]
            index = int(rng.integers(param.size))

            def loss_at(values, name=name, shape=param.shape):
                model.params[name] = Tensor(values.reshape(shape), requires_grad=True)
                with no_grad():
                    return batch_loss(model, data.images, data.labels, times, noises).item()

            numeric = central_difference(loss_at, param.data.reshape(-1), index)
            model.params[name] = param
            errors += close_errors(f"d loss / d {name}[{index}]", grads[param].reshape(-1)[index],
                                   numeric, rtol=1e-5, atol=1e-8)
        return errors


class Sweep(CheckpointWorkload):
    op_name, rate_name, rate_unit = "sweep points", "sweep_points_per_s", "points/s"

    def prepare(self, trial):
        import mtat.cli

        super().prepare(trial)
        self.config = mtat.cli.default_config()
        rhos = len(self.config["sweep"]["rho_values"])
        self.points = rhos * (rhos + 1) // 2 + rhos  # pairs rho1 <= rho0, then rho0 alone

    def run_round(self):
        code, wall = cli(["sweep", "--seed", self.seed, "--ckpt", self.ckpt, "--out", self.out / "job"])
        if code != 0:
            return self.points, self.points, 0.0
        done = self.keep_outputs(["sweep.csv", "envelope.csv"])["sweep.csv"].count(b"\n") - 1
        return self.points, self.points - done, done / wall

    def check(self):
        import numpy as np
        from mtat.diffusion import fid_proxy

        from checks import avg_gflops_errors, close_errors, frechet_eigh, read_sweep_csv, sweep_errors

        model, sweep = self.config["model"], self.config["sweep"]
        sweep_text = self.first["sweep.csv"].decode()
        errors = sweep_errors(sweep_text, self.first["envelope.csv"].decode(), self.points)
        for row in read_sweep_csv(sweep_text)[1]:
            errors += avg_gflops_errors(
                float(row[3]), model["grid"][0] * model["grid"][1], model["hidden"],
                sweep["samples"], sweep["steps"], counts=sweep["counts"],
            )
        rng = np.random.default_rng([self.seed, 2])
        side = model["grid"]
        gen = rng.standard_normal((sweep["samples"], side[0], side[1], 1))
        ref = rng.standard_normal((sweep["reference_size"], side[0], side[1], 1))
        errors += close_errors("fid_proxy", fid_proxy(gen, ref), frechet_eigh(gen, ref), rtol=1e-6)
        return errors


class Redundancy(CheckpointWorkload):
    op_name, rate_name, rate_unit = "scored maps", "redundancy_maps_per_s", "maps/s"

    def prepare(self, trial):
        super().prepare(trial)
        self.config = self.out / "redundancy.json"
        self.config.write_text(json.dumps({
            "model": {"grid": [RED_GRID, RED_GRID]},
            "redundancy": {"steps": RED_STEPS, "samples": 1},
        }))
        self.maps = 2 * RED_STEPS  # two layers, one sample

    def run_round(self):
        code, wall = cli(["redundancy", "--config", self.config, "--seed", self.seed,
                          "--ckpt", self.ckpt, "--out", self.out / "job"])
        if code != 0:
            return self.maps, self.maps, 0.0
        self.keep_outputs(["redundancy.csv"])
        return self.maps, 0, self.maps / wall

    def check(self):
        import numpy as np
        from mtat.diffusion import ToyDiffusionModel, ToyModelConfig
        from mtat.redundancy import redundancy_score
        from mtat.serialize import load_checkpoint
        from mtat.tensor import no_grad

        from checks import close_errors, mean_pairwise_jsd, redundancy_csv_errors

        errors = redundancy_csv_errors(self.first["redundancy.csv"].decode(), 2, RED_STEPS)
        cfg = ToyModelConfig(grid_h=RED_GRID, grid_w=RED_GRID)
        model = ToyDiffusionModel.from_state(cfg, load_checkpoint(self.ckpt))
        rng = np.random.default_rng([self.seed, 3])
        with no_grad():
            _, (full, mediated) = model.forward(
                rng.standard_normal((cfg.n_tokens, cfg.channels)), 1.0, self.seed % cfg.classes,
                capture=True,
            )
        composed = [qt @ tk for qt, tk in zip(mediated.query_to_mediator, mediated.mediator_to_key)]
        for what, heads in (("vanilla", full.heads), ("composed mediated", composed)):
            errors += close_errors(f"redundancy_score of the {what} layer",
                                   redundancy_score(heads), mean_pairwise_jsd(heads), atol=1e-15)
        return errors


class Attention(Workload):
    op_name, rate_name, rate_unit = "attention calls", "attn_mediated_tokens_per_s", "tokens/s"

    def prepare(self, trial):
        import numpy as np
        from mtat.attention import AttentionConfig, MediatorConfig, MultiHeadParams
        from mtat.tensor import Tensor

        from checks import COUNTS

        self.counts = COUNTS
        rng = np.random.default_rng([self.seed, 4])
        self.cfg = AttentionConfig.square(ATTN_SIDE * ATTN_SIDE, ATTN_CHANNELS, ATTN_HEADS)
        self.z = Tensor(rng.standard_normal((self.cfg.n_tokens, ATTN_CHANNELS)))
        self.params = MultiHeadParams.random(rng, ATTN_CHANNELS, requires_grad=False)
        self.dw = Tensor(rng.normal(0.0, 0.2, (3, 3, ATTN_CHANNELS)))
        self.mcfgs = {n: MediatorConfig.from_count(n, self.cfg) for n in self.counts}

    def calls(self, counters=None):
        """One round: mediated attention at every count, then vanilla.
        Returns (outputs and maps by kind, wall seconds by kind)."""
        import mtat.attention as A
        from mtat.tensor import no_grad

        counters = counters or {}
        results, walls = {}, {}
        with no_grad():
            for kind in self.counts + ("vanilla",):
                start = time.perf_counter()
                if kind == "vanilla":
                    results[kind] = A.multi_head_attention(self.z, self.params, self.cfg, counters.get(kind))
                else:
                    results[kind] = A.mediator_attention(self.z, self.params, self.cfg, self.mcfgs[kind],
                                                         dw_kernels=self.dw, counter=counters.get(kind))
                walls[kind] = time.perf_counter() - start
        return results, walls

    def run_round(self):
        _, walls = self.calls()
        return len(walls), 0, walls

    def round_rate(self, walls):
        return len(self.counts) * self.cfg.n_tokens / sum(walls[n] for n in self.counts)

    def rate(self, rounds):
        """Mediated tokens/s from each count's fastest call. A round takes
        0.2 s and a run holds 70 to 95: the fastest call per count
        varied less from run to run than the median round did."""
        return len(self.counts) * self.cfg.n_tokens / sum(min(r[n] for r in rounds) for n in self.counts)

    def vanilla_rate(self, rounds):
        return self.cfg.n_tokens / min(r["vanilla"] for r in rounds)

    def check(self):
        from mtat.tensor import MacCounter

        from checks import (close_errors, dense_attention, expected_macs, mediator_attention_ref,
                            row_stochastic_errors)

        counters = {kind: MacCounter() for kind in self.counts + ("vanilla",)}
        results, _ = self.calls(counters)
        timed, _ = self.calls()
        z, p = self.z.data, self.params
        weights = (p.w_query.data, p.w_key.data, p.w_value.data, p.w_out.data)
        n_tokens, grid = self.cfg.n_tokens, (self.cfg.grid_h, self.cfg.grid_w)
        errors = []
        for kind, (out, maps) in results.items():
            if kind == "vanilla":
                ref_out, ref_maps = dense_attention(z, *weights, ATTN_HEADS)
                pairs = [("vanilla maps", maps.heads, ref_maps)]
                macs = expected_macs(n_tokens, ATTN_CHANNELS)
            else:
                side = int(round(kind**0.5))
                mcfg = self.mcfgs[kind]
                if (mcfg.grid_h, mcfg.grid_w) != (side, side):
                    errors.append(f"{kind} mediators pooled to {mcfg.grid_h}x{mcfg.grid_w}")
                ref_out, ref_qt, ref_tk = mediator_attention_ref(
                    z, *weights, ATTN_HEADS, grid, (side, side), self.dw.data
                )
                pairs = [(f"n={kind} query-to-mediator maps", maps.query_to_mediator, ref_qt),
                         (f"n={kind} mediator-to-key maps", maps.mediator_to_key, ref_tk)]
                macs = expected_macs(n_tokens, ATTN_CHANNELS, kind)
            errors += close_errors(f"{kind} attention output", out.data, ref_out)
            if not (timed[kind][0].data == out.data).all():
                errors.append(f"{kind} attention output changes from call to call")
            for what, got, want in pairs:
                errors += row_stochastic_errors(what, got)
                errors += close_errors(what, got, want)
            if counters[kind].counts != macs:
                errors.append(f"{kind} MAC labels {counters[kind].counts} != {macs}")
        return errors


WORKLOADS = {"train": Train, "sweep": Sweep, "redundancy": Redundancy, "attention": Attention}


def setup_trial(name, seed, out, trial):
    """One set-up in this fresh interpreter: ``import mtat.cli``, then the
    workload's preparation. Prints its times and errors as one JSON line."""
    start = time.perf_counter()
    import mtat.cli  # noqa: F401 - timed

    imported = time.perf_counter()
    workload = WORKLOADS[name](seed, out)
    workload.prepare(trial)
    end = time.perf_counter()
    print(json.dumps({"setup_s": end - start, "import_s": imported - start, "errors": workload.errors}))
    return 0


def setup_in_child(argv, trial):
    """Run ``setup_trial`` in a child interpreter; returns its report."""
    done = subprocess.run([sys.executable, __file__, *argv, "--setup-trial", str(trial)],
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload, seconds, setup, tracer=None):
    """One warm-up round, then whole rounds for ``seconds`` of round time.
    With a ``tracer``, rounds alternate untraced and traced, in pairs.
    ``setup()`` runs SETUP_TRIALS times, spread evenly over the rounds
    and outside their time, so set-ups and rounds meet the same spells
    of a shared machine.

    Returns the warm-up's (attempted, failed), the timed rounds as
    (attempted, failed, record) lists keyed by whether they were traced,
    and the set-ups' reports.
    """
    warm_ops, warm_failed, _ = workload.run_round()
    rounds, setups, elapsed = {False: [], True: []}, [], 0.0
    while not rounds[False] or elapsed < seconds:
        if len(setups) < SETUP_TRIALS and elapsed >= len(setups) * seconds / SETUP_TRIALS:
            setups.append(setup(len(setups) + 1))
        start = time.perf_counter()
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.install()
            try:
                rounds[traced].append(workload.run_round())
            finally:
                if traced:
                    tracer.uninstall()
        elapsed += time.perf_counter() - start
    setups += [setup(trial) for trial in range(len(setups) + 1, SETUP_TRIALS + 1)]
    return warm_ops, warm_failed, rounds, setups


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-trial", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "mtat" / "__init__.py").is_file():
        print(f"error: no mtat sources under {SRC}", file=sys.stderr)
        return 2

    # One BLAS thread, so the sweep's own pool is the only extra thread;
    # MTAT_THREADS unset, so the sweep sizes that pool as users get it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("MTAT_THREADS", None)
    sys.path[:0] = [str(SRC), str(BENCH)]
    out = OUT / args.workload
    if args.setup_trial is not None:
        return setup_trial(args.workload, args.seed, out, args.setup_trial)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    # Set-up trial 0 runs untimed in a child and leaves its files (the
    # checkpoint) for this process, which then prepares without training,
    # as a user's `mtat` process would: training here would leave a heap on
    # which a 2-map `redundancy` round page-faults anywhere from 0 to 180k
    # times, varying with the hash seed, against a steady 330k-345k in a
    # fresh process. The timed set-ups run cold, each in a child
    # interpreter, between the rounds.
    child_argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    first_setup = setup_in_child(child_argv, 0)
    import mtat.cli  # noqa: F401

    workload = WORKLOADS[args.workload](args.seed, out)
    workload.prepare(0)
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
    attempted, failed, rounds, setups = measure(
        workload, args.seconds, lambda trial: setup_in_child(child_argv, trial), tracer
    )
    attempted += sum(ops for ops, _, _ in rounds[False] + rounds[True])
    failed += sum(bad for _, bad, _ in rounds[False] + rounds[True])
    plain = [record for _, _, record in rounds[False]]
    if tracer:
        (out / "spans.json").write_text(json.dumps(tracer.to_json_dict()))
        layers = layer_metrics(tracer, sum(ops for ops, _, _ in rounds[True]))
        layers["cli.import_ms"] = (statistics.median(s["import_s"] for s in setups) * 1e3, "ms")
        # Matched pairs: each untraced round against the traced round after it.
        ratios = [
            workload.round_rate(p) / workload.round_rate(t) - 1.0
            for p, (_, _, t) in zip(plain, rounds[True])
            if workload.round_rate(p) > 0 and workload.round_rate(t) > 0
        ]
        overhead = 100.0 * statistics.median(ratios) if ratios else 0.0
        layers["trace.overhead_pct"] = (overhead, "%")
        plain_rates = [workload.round_rate(p) for p in plain]
        noise = 100.0 * (max(plain_rates) - min(plain_rates)) / statistics.median(plain_rates)
        print(f"trace.overhead_pct {overhead:.3g} %: "
              f"{'unresolved, within' if abs(overhead) <= noise else 'beyond'} "
              f"the untraced rounds' own range of {noise:.3g} %")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "ops_per_s": {"value": workload.rate(plain), "unit": "1/s"},
        }
        print(f"{workload.rate_name} {workload.rate(plain):.6g} {workload.rate_unit} ({len(plain)} rounds)")
        if args.workload == "attention":
            print(f"attn_vanilla_tokens_per_s {workload.vanilla_rate(plain):.6g} tokens/s")

    errors = [e for s in [first_setup] + setups for e in s["errors"]] + workload.errors + workload.check()
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(f"{args.workload}: {attempted} {workload.op_name} attempted, {failed} failed, "
          f"checks {'passed' if not errors else 'FAILED'}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    traced = [record for _, _, record in rounds[True]]
    (out / "result.json").write_text(json.dumps(dict(result, rounds=plain, traced_rounds=traced,
                                                     setups=setups), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
