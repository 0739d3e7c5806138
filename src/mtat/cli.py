"""Command-line interface.

Subcommands: train, sample, redundancy, sweep, flops, bench. Every run
resolves its configuration (file values over defaults, flags over file
values) and writes the result to <out>/config.resolved.json, so any run
can be reproduced bit for bit by pointing --config at that file.

Exit codes: 0 on success, 2 for configuration or usage problems, 3 for
numeric failures.
"""

import argparse
import copy
import json
import os
import sys
import time

import numpy as np

from .attention import (
    AttentionConfig,
    FlopsReport,
    MediatorConfig,
    attention_flops,
    mediator_flops,
)
from .diffusion import (
    SgdConfig,
    SgdState,
    ToyDiffusionModel,
    ToyModelConfig,
    capture_redundancy,
    euler_sample,
    fid_proxy,
    synth_dataset,
    train_step,
)
from .errors import (
    ConfigError,
    DegenerateTrajectoryError,
    DimensionError,
    DomainError,
    NumericError,
    UsageError,
)
from .scheduler import MediatorSchedule, pareto_envelope, sweep_thresholds, threshold_grid
from .serialize import load_checkpoint, save_checkpoint, save_tensor
from .tensor import MacCounter, Tensor, no_grad
from .util import child_seed, stream_rng, write_text_atomic

_META_KEYS = ("command", "invocation")
# `mtat bench` reports the median wall time of this many calls per
# (kind, N), after one untimed warm-up call.
BENCH_REPEATS = 3


def default_config():
    return {
        "seed": 0,
        "model": ToyModelConfig().to_json_dict(),
        "data": {"size": 64},
        "train": {"steps": 200, "batch": 8, "lr": 0.01, "momentum": 0.9},
        "sampler": {"steps": 8, "samples": 4},
        "redundancy": {"steps": 4, "samples": 2, "pair_cap": None},
        "sweep": {
            "rho_values": [round(1.0 - 0.1 * i, 1) for i in range(11)],
            "counts": [4, 16, 64],
            "metrics": ["l1"],
            "two_level": True,
            "samples": 2,
            "steps": 6,
            "reference_size": 16,
        },
        # The flops stack defaults to a published transformer shape so the
        # closed-form reports line up with figures people recognise.
        "flops": {
            "n_tokens": 256,
            "channels": 384,
            "heads": 6,
            "grid": [16, 16],
            "layers": 12,
            "counts": [4, 16, 64],
        },
        "bench": {
            "sizes": [64, 256, 1024, 4096],
            "channels": 32,
            "heads": 1,
            "mediators": 16,
        },
        "schedule": None,
    }


def _merge(base, override, path=""):
    for key, value in override.items():
        if path == "" and key in _META_KEYS:
            continue
        if key not in base:
            raise ConfigError(f"unknown config key {path}{key}")
        if isinstance(base[key], dict) and key != "schedule":
            if not isinstance(value, dict):
                raise ConfigError(f"config key {path}{key} must be an object")
            _merge(base[key], value, f"{path}{key}.")
        else:
            base[key] = value
    return base


def load_config(path):
    if path is None:
        return default_config()
    try:
        with open(path, encoding="utf-8") as handle:
            user = json.load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return _merge(default_config(), user)


def _resolve(args, command):
    config = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        config["seed"] = int(args.seed)
    if getattr(args, "steps", None) is not None:
        section = {"train": "train", "sample": "sampler", "redundancy": "redundancy"}.get(command)
        if section:
            config[section]["steps"] = int(args.steps)
    if getattr(args, "samples", None) is not None:
        section = {"sample": "sampler", "redundancy": "redundancy"}.get(command)
        if section:
            config[section]["samples"] = int(args.samples)
    if getattr(args, "schedule", None):
        try:
            with open(args.schedule, encoding="utf-8") as handle:
                config["schedule"] = json.load(handle)
        except FileNotFoundError as exc:
            raise ConfigError(f"schedule file not found: {args.schedule}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"schedule file is not valid JSON: {exc}") from exc
    if command == "flops" and getattr(args, "n", None):
        config["flops"]["counts"] = _int_list(args.n, "--n")
    if command == "bench":
        if args.sizes is not None:
            config["bench"]["sizes"] = _int_list(args.sizes, "--sizes")
        for key in ("channels", "heads", "mediators"):
            value = getattr(args, key, None)
            if value is not None:
                config["bench"][key] = int(value)
    return config


def _int_list(raw, flag):
    try:
        return [int(part) for part in str(raw).split(",") if part != ""]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated integers, got {raw!r}") from exc


def _write_resolved(out_dir, config, command, args):
    payload = copy.deepcopy(config)
    payload["command"] = command
    payload["invocation"] = {
        "out": out_dir,
        "config": getattr(args, "config", None),
        "ckpt": getattr(args, "ckpt", None),
    }
    write_text_atomic(
        os.path.join(out_dir, "config.resolved.json"),
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )


def _model_from_config(config, ckpt_path):
    model_cfg = ToyModelConfig.from_json_dict(config["model"])
    if ckpt_path:
        tensors = load_checkpoint(ckpt_path)
        return ToyDiffusionModel.from_state(model_cfg, tensors)
    return ToyDiffusionModel(model_cfg, seed=config["seed"])


def _schedule_from_config(config):
    if config.get("schedule") is None:
        return None
    return MediatorSchedule.from_json_dict(config["schedule"])


def _out_dir(args, command):
    return args.out if args.out else os.path.join("runs", command)


# ---------------------------------------------------------------------------
# commands


def cmd_train(args):
    command = "train"
    config = _resolve(args, command)
    out = _out_dir(args, command)
    os.makedirs(out, exist_ok=True)
    _write_resolved(out, config, command, args)

    seed = config["seed"]
    model_cfg = ToyModelConfig.from_json_dict(config["model"])
    data_cfg, train_cfg = config["data"], config["train"]
    data = synth_dataset(
        seed, model_cfg.classes, model_cfg.grid_h, model_cfg.grid_w,
        int(data_cfg["size"]), model_cfg.channels,
    )
    model = ToyDiffusionModel(model_cfg, seed=seed)
    optimizer = SgdState(SgdConfig(lr=float(train_cfg["lr"]), momentum=float(train_cfg["momentum"])))
    draw = stream_rng(seed, "data", "train")
    batch = int(train_cfg["batch"])
    steps = int(train_cfg["steps"])

    lines = ["step,loss"]
    first_loss, last_loss = None, None
    for step in range(steps):
        picks = draw.integers(0, data.images.shape[0], size=batch)
        model, loss = train_step(model, optimizer, data.images[picks], data.labels[picks], draw)
        lines.append(f"{step},{loss!r}")
        first_loss = loss if first_loss is None else first_loss
        last_loss = loss
    write_text_atomic(os.path.join(out, "loss.csv"), "\n".join(lines) + "\n")
    save_checkpoint(os.path.join(out, "model.ckpt"), model.state_dict())
    if steps:
        print(f"trained {steps} steps: loss {first_loss:.4f} -> {last_loss:.4f}")
    else:
        print("trained 0 steps: wrote the initial checkpoint")
    print(f"wrote {out}/loss.csv and {out}/model.ckpt")
    return 0


def cmd_sample(args):
    command = "sample"
    config = _resolve(args, command)
    out = _out_dir(args, command)
    os.makedirs(out, exist_ok=True)
    _write_resolved(out, config, command, args)

    seed = config["seed"]
    model = _model_from_config(config, args.ckpt)
    schedule = _schedule_from_config(config)
    sampler_cfg = config["sampler"]
    steps = int(sampler_cfg["steps"])
    samples = int(sampler_cfg["samples"])

    per_sample = []
    total = FlopsReport()
    for i in range(samples):
        label = i % model.cfg.classes
        result = euler_sample(
            model, label, steps, seed, schedule=schedule, sample_index=i,
        )
        save_tensor(os.path.join(out, f"sample_{i:03d}.mtat"), Tensor(result.image))
        write_text_atomic(os.path.join(out, f"trace_{i:03d}.csv"), result.trace.to_csv())
        per_sample.append(result.flops.to_json_dict())
        total = total + result.flops
        counts = result.trace.selected
        print(
            f"sample {i}: label {label}, counts {counts[0]}->{counts[-1]}, "
            f"{result.flops.total_flops / 1e9:.6f} GFLOPs"
        )
    payload = {
        "samples": per_sample,
        "total": total.to_json_dict(),
        "mean_gflops": (total.total_flops / samples) / 1e9 if samples else 0.0,
    }
    write_text_atomic(os.path.join(out, "flops.json"), json.dumps(payload, indent=2) + "\n")
    print(f"wrote {samples} samples, traces, and flops.json under {out}")
    return 0


def cmd_redundancy(args):
    command = "redundancy"
    config = _resolve(args, command)
    out = _out_dir(args, command)
    os.makedirs(out, exist_ok=True)
    _write_resolved(out, config, command, args)

    seed = config["seed"]
    model = _model_from_config(config, args.ckpt)
    schedule = _schedule_from_config(config)
    red_cfg = config["redundancy"]
    steps = int(red_cfg["steps"])
    samples = int(red_cfg["samples"])
    pair_cap = red_cfg["pair_cap"]
    labels = [i % model.cfg.classes for i in range(samples)]
    trace = capture_redundancy(
        model, labels, steps, seed, schedule=schedule,
        pair_cap=None if pair_cap is None else int(pair_cap),
    )
    write_text_atomic(os.path.join(out, "redundancy.csv"), trace.to_csv())
    for layer in range(trace.scores.shape[0]):
        mean = float(trace.scores[layer].mean())
        print(f"layer {layer}: mean score {mean:.6f} over {steps} steps, {samples} samples")
    print(f"wrote {out}/redundancy.csv")
    return 0


def cmd_sweep(args):
    command = "sweep"
    config = _resolve(args, command)
    out = _out_dir(args, command)
    os.makedirs(out, exist_ok=True)
    _write_resolved(out, config, command, args)

    seed = config["seed"]
    model = _model_from_config(config, args.ckpt)
    sweep_cfg = config["sweep"]
    points = threshold_grid(
        rho_values=sweep_cfg["rho_values"],
        counts=sweep_cfg["counts"],
        metrics=sweep_cfg["metrics"],
        two_level=bool(sweep_cfg["two_level"]),
    )
    # A count with no mediator grid fails every point; report it once.
    for count in sweep_cfg["counts"]:
        MediatorConfig.from_count(count, model.cfg.attention_config)
    ref_data = synth_dataset(
        child_seed(seed, "sweep", "reference"),
        model.cfg.classes, model.cfg.grid_h, model.cfg.grid_w,
        int(sweep_cfg["reference_size"]), model.cfg.channels,
    )
    steps = int(sweep_cfg["steps"])
    per_point_samples = int(sweep_cfg["samples"])
    # Every point draws sample s from the same noise, so points differ only
    # in schedule, and points whose counts agree so far share those steps:
    # one velocity cache per sample holds them for this sweep.
    noise_seed = child_seed(seed, "sweep")
    caches = [{} for _ in range(per_point_samples)]

    def evaluate(point):
        images = []
        flops_total = 0
        for s in range(per_point_samples):
            label = s % model.cfg.classes
            result = euler_sample(
                model, label, steps, noise_seed,
                schedule=point.schedule, sample_index=s, cache=caches[s],
            )
            images.append(result.image)
            flops_total += result.flops.total_flops
        cost = (flops_total / per_point_samples) / 1e9
        quality = fid_proxy(np.stack(images), ref_data.images, seed=seed)
        return cost, quality

    results, failures = sweep_thresholds(points, evaluate)
    for point, exc in failures:
        print(
            f"sweep point {point.index} (rho0={point.rho0}, rho1={point.rho1}, "
            f"metric={point.metric}) failed: {exc}",
            file=sys.stderr,
        )
    envelope_ids = set(
        pareto_envelope([(cost, quality, point.index) for point, cost, quality in results])
    )

    header = "rho0,rho1,metric,avg_gflops,quality,on_envelope"

    def row(point, cost, quality):
        rho1 = "" if point.rho1 is None else repr(float(point.rho1))
        flag = 1 if point.index in envelope_ids else 0
        return f"{repr(float(point.rho0))},{rho1},{point.metric},{cost!r},{quality!r},{flag}"

    lines = [header] + [row(*entry) for entry in results]
    write_text_atomic(os.path.join(out, "sweep.csv"), "\n".join(lines) + "\n")
    env_lines = [header] + [
        row(*entry) for entry in sorted(results, key=lambda e: e[1]) if entry[0].index in envelope_ids
    ]
    write_text_atomic(os.path.join(out, "envelope.csv"), "\n".join(env_lines) + "\n")
    print(
        f"swept {len(points)} schedules ({len(failures)} failed), "
        f"{len(envelope_ids)} on the envelope; wrote {out}/sweep.csv and {out}/envelope.csv"
    )
    if not results:
        print(f"numeric error: all {len(points)} sweep points failed", file=sys.stderr)
        return 3
    return 0


_PUBLISHED_REFERENCE = {
    "note": (
        "published end-to-end SiT-S/2 GFLOPs, quoted for context only; "
        "this tool models attention-path MACs and derives nothing from these figures"
    ),
    "baseline_gflops": 6.06,
    "mediator_gflops": {"4": 5.49, "16": 5.55, "64": 5.78},
}


def cmd_flops(args):
    command = "flops"
    config = _resolve(args, command)
    out = _out_dir(args, command)
    os.makedirs(out, exist_ok=True)
    _write_resolved(out, config, command, args)

    stack = config["flops"]
    grid = stack["grid"]
    attn_cfg = AttentionConfig(
        n_tokens=int(stack["n_tokens"]),
        channels=int(stack["channels"]),
        heads=int(stack["heads"]),
        grid_h=int(grid[0]),
        grid_w=int(grid[1]),
    )
    layers = int(stack["layers"])
    counts = [int(n) for n in stack["counts"]]

    baseline = attention_flops(attn_cfg, layers)
    rows = {"baseline": baseline.to_json_dict(), "mediator": {}}
    print(
        f"attention stack: {layers} layers, {attn_cfg.n_tokens} tokens, "
        f"{attn_cfg.channels} channels, {attn_cfg.heads} heads"
    )
    per_layer_vanilla = attention_flops(attn_cfg)
    print(
        f"vanilla: interaction {per_layer_vanilla.interaction} MACs/layer, "
        f"total {baseline.total_macs} MACs, {baseline.total_flops / 1e9:.6f} GFLOPs"
    )
    for n in counts:
        report = mediator_flops(attn_cfg, n, layers)
        rows["mediator"][str(n)] = report.to_json_dict()
        per_layer = mediator_flops(attn_cfg, n)
        print(
            f"mediators n={n}: interaction {per_layer.interaction} MACs/layer, "
            f"total {report.total_macs} MACs, {report.total_flops / 1e9:.6f} GFLOPs"
        )
    print(
        "reference (published SiT-S/2 figures, context only, not derived here): "
        f"baseline {_PUBLISHED_REFERENCE['baseline_gflops']} GFLOPs, "
        + ", ".join(
            f"n={k} {v} GFLOPs" for k, v in _PUBLISHED_REFERENCE["mediator_gflops"].items()
        )
    )
    rows["published_reference"] = _PUBLISHED_REFERENCE
    write_text_atomic(os.path.join(out, "flops.json"), json.dumps(rows, indent=2) + "\n")
    print(f"wrote {out}/flops.json")
    return 0


def cmd_bench(args):
    command = "bench"
    config = _resolve(args, command)
    out = _out_dir(args, command)
    os.makedirs(out, exist_ok=True)
    _write_resolved(out, config, command, args)

    bench = config["bench"]
    sizes = [int(s) for s in bench["sizes"]]
    channels, heads, mediators = int(bench["channels"]), int(bench["heads"]), int(bench["mediators"])
    rows = []
    rng = stream_rng(config["seed"], "bench")
    from .attention import MultiHeadParams, mediator_attention, multi_head_attention

    for n_tokens in sizes:
        cfg = AttentionConfig.square(n_tokens, channels, heads)
        z = Tensor(rng.standard_normal((n_tokens, channels)))
        params = MultiHeadParams.random(rng, channels, requires_grad=False)
        mcfg = MediatorConfig.from_count(mediators, cfg)
        for kind in ("vanilla", "mediator"):

            def call(counter=None):
                with no_grad():
                    if kind == "vanilla":
                        multi_head_attention(z, params, cfg, counter)
                    else:
                        mediator_attention(z, params, cfg, mcfg, dw_kernels=None, counter=counter)

            # The untimed warm-up call meters the MACs.
            counter = MacCounter()
            call(counter)
            walls = []
            for _ in range(BENCH_REPEATS):
                start = time.perf_counter()
                call()
                walls.append(time.perf_counter() - start)
            elapsed = float(np.median(walls))
            report = FlopsReport.from_counter(counter)
            rows.append((kind, n_tokens, report.interaction, report.total_macs, elapsed))
            print(
                f"{kind:8s} N={n_tokens:5d}: interaction {report.interaction} MACs, "
                f"wall {elapsed:.4f} s (median of {BENCH_REPEATS})"
            )

    summary = {"repeats": BENCH_REPEATS}
    for kind in ("vanilla", "mediator"):
        ns = np.array([r[1] for r in rows if r[0] == kind], dtype=np.float64)
        macs = np.array([r[2] for r in rows if r[0] == kind], dtype=np.float64)
        walls = np.array([r[4] for r in rows if r[0] == kind], dtype=np.float64)
        mac_exp = float(np.polyfit(np.log(ns), np.log(macs), 1)[0]) if len(ns) > 1 else 0.0
        wall_exp = (
            float(np.polyfit(np.log(ns), np.log(np.maximum(walls, 1e-9)), 1)[0])
            if len(ns) > 1
            else 0.0
        )
        summary[kind] = {"mac_exponent": mac_exp, "wall_exponent": wall_exp}
        print(f"{kind}: MAC exponent {mac_exp:.4f}, wall exponent {wall_exp:.2f} (informational)")
    lines = ["kind,n_tokens,interaction_macs,total_macs,wall_seconds"]
    for kind, n_tokens, interaction, total_macs, wall in rows:
        lines.append(f"{kind},{n_tokens},{interaction},{total_macs},{wall!r}")
    write_text_atomic(os.path.join(out, "bench.csv"), "\n".join(lines) + "\n")
    write_text_atomic(os.path.join(out, "bench.json"), json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out}/bench.csv and {out}/bench.json")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mtat",
        description="Mediator-token attention toolkit: train, sample, analyse, and count.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ckpt=False, steps=False, schedule=False):
        p.add_argument("--config", help="JSON config file; defaults apply where absent")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory (default runs/<command>)")
        if ckpt:
            p.add_argument("--ckpt", help="checkpoint to load (default: fresh weights)")
        if steps:
            p.add_argument("--steps", type=int, help="override the step count")
        if schedule:
            p.add_argument("--schedule", help="JSON schedule file overriding the config")

    p = sub.add_parser("train", help="train the toy velocity model on synthetic data")
    common(p, steps=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="draw samples with the Euler integrator")
    common(p, ckpt=True, steps=True, schedule=True)
    p.add_argument("--samples", type=int, help="override the sample count")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("redundancy", help="score attention-map redundancy during sampling")
    common(p, ckpt=True, steps=True, schedule=True)
    p.add_argument("--samples", type=int, help="override the sample count")
    p.set_defaults(func=cmd_redundancy)

    p = sub.add_parser("sweep", help="sweep schedule thresholds and flag the cost/quality envelope")
    common(p, ckpt=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("flops", help="closed-form MAC/FLOP reports for attention stacks")
    common(p)
    p.add_argument("--n", help="comma-separated mediator counts (default 4,16,64)")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("bench", help="instrumented scaling benchmark over token counts")
    common(p)
    p.add_argument("--sizes", help="comma-separated token counts (default 64,256,1024,4096)")
    p.add_argument("--channels", type=int, help="channel width (default 32)")
    p.add_argument("--heads", type=int, help="head count (default 1)")
    p.add_argument("--mediators", type=int, help="mediator count (default 16)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args) or 0
    except (ConfigError, UsageError, DimensionError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, DegenerateTrajectoryError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
