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
    FidReference,
    SgdState,
    ToyDiffusionModel,
    ToyModelConfig,
    capture_redundancy,
    euler_samples,
    fid_proxy,
    grid_extents,
    image_from_tokens,
    synth_dataset,
    train_step,
)
from .errors import ConfigError, MtatError, NumericError
from .scheduler import (
    MediatorSchedule,
    default_rho_values,
    pareto_envelope,
    sweep_thresholds,
    threshold_grid,
)
from .serialize import checkpoint_from_bytes, save_checkpoint, save_tensor
from .tensor import MacCounter, Tensor, no_grad
from .util import check_json, child_seed, csv_text, json_type, stream_rng, write_text_atomic

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
            "rho_values": list(default_rho_values()),
            "counts": [4, 16, 64],
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


# The smallest value of each count key. `mtat sample` with 0 samples
# writes an empty flops.json, and 0 training steps the initial checkpoint.
_COUNT_FLOORS = {
    "data": {"size": 1},
    "train": {"steps": 0, "batch": 1},
    "sampler": {"steps": 1, "samples": 0},
    "redundancy": {"steps": 1, "samples": 1},
    "sweep": {"samples": 1, "steps": 1, "reference_size": 1},
    "flops": {"layers": 1},
}


def _merge(base, override):
    """Lay ``override`` over ``base`` in place, section by section, after
    ``check_json`` holds it to the defaults' keys and JSON types."""
    for key, value in override.items():
        if key in _META_KEYS:
            continue
        if key not in base:
            raise ConfigError(f"unknown config key {key}")
        check_json(base[key], value, f"config key {key}")
        base[key] = {**base[key], **value} if isinstance(base[key], dict) else value


def _unique_keys(pairs):
    """A JSON object from its (key, value) pairs; a repeated key is a ConfigError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _parse_json(blob):
    return json.loads(blob.decode("utf-8"), object_pairs_hook=_unique_keys)


def _read_input(path, what, parse):
    """``parse`` of the bytes in the file at ``path``; any failure to read,
    decode or parse them is one ConfigError that names the file."""
    try:
        with open(path, "rb") as handle:
            return parse(handle.read())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError, MtatError) as exc:
        raise ConfigError(f"{what} {path} is not valid: {exc}") from exc


def _resolve(args):
    """The run's configuration (defaults, then the config file, then flags)
    and its command's inputs: the model, from --ckpt or fresh from the seed,
    for all but flops and bench, the schedule for sample and redundancy, and
    the grid for sweep; without --ckpt, the config file's invocation.ckpt
    names the checkpoint, and args.ckpt records it. Every outside input is
    read here, once, so every check fails before the run writes anything."""
    command = args.command
    config = default_config()
    if args.config is not None:
        user = _read_input(args.config, "config file", _parse_json)
        if not isinstance(user, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        _merge(config, user)
        invocation = user.get("invocation", {})
        if not isinstance(invocation, dict):
            raise ConfigError(f"config key invocation must be an object, got {invocation!r}")
        saved = invocation.get("ckpt")
        if saved is not None and not isinstance(saved, str):
            raise ConfigError(f"config key invocation.ckpt must be a string or null, got {saved!r}")
        if hasattr(args, "ckpt") and args.ckpt is None:
            args.ckpt = saved
    if args.seed is not None:
        config["seed"] = args.seed
    # Each integer flag overrides the key of its name in the command's section.
    section = {"sample": "sampler"}.get(command, command)
    for key in ("steps", "samples", "channels", "heads", "mediators"):
        if getattr(args, key, None) is not None:
            config[section][key] = getattr(args, key)
    if getattr(args, "schedule", None):
        config["schedule"] = _read_input(args.schedule, "schedule file", _parse_json)
    if command == "flops" and args.n is not None:
        config["flops"]["counts"] = _int_list(args.n, "--n")
    if command == "bench" and args.sizes is not None:
        config["bench"]["sizes"] = _int_list(args.sizes, "--sizes")
    if config["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {config['seed']}")
    for section, floors in _COUNT_FLOORS.items():
        for key, floor in floors.items():
            value = config[section][key]
            if value < floor:
                raise ConfigError(f"{section}.{key} must be at least {floor}, got {value}")
    pair_cap = config["redundancy"]["pair_cap"]
    if pair_cap is not None and (json_type(pair_cap) != "an integer" or pair_cap < 1):
        raise ConfigError(
            f"redundancy.pair_cap must be null or a positive integer, got {pair_cap!r}"
        )
    model_cfg = ToyModelConfig.from_json_dict(config["model"])
    raw = config["schedule"]
    schedule = None if raw is None else MediatorSchedule.from_json_dict(raw)
    _check_attention_shapes(config, command, model_cfg, schedule)
    if command in ("flops", "bench"):
        return config, {}
    inputs = {}
    if command in ("sample", "redundancy"):
        inputs["schedule"] = schedule
    if command == "sweep":
        sweep = config["sweep"]
        inputs["points"] = threshold_grid(sweep["rho_values"], sweep["counts"])
        _check_distinct(sweep["counts"], "sweep.counts", "count")
        _check_distinct(sweep["rho_values"], "sweep.rho_values", "rho")
    ckpt = getattr(args, "ckpt", None)
    if ckpt:
        inputs["model"] = _read_input(
            ckpt, "checkpoint",
            lambda blob: ToyDiffusionModel.from_state(model_cfg, checkpoint_from_bytes(blob)),
        )
    else:
        inputs["model"] = ToyDiffusionModel(model_cfg, seed=config["seed"])
    return config, inputs


def _check_attention_shapes(config, command, model_cfg, schedule):
    """Build every attention shape the config names and place every
    mediator count on the token grid it pools."""
    counts = [model_cfg.default_mediators]
    if schedule is not None:
        counts += [schedule.start_count] + [level.count for level in schedule.levels]
    # Only a sweep runs the sweep's counts on the model.
    if command == "sweep":
        counts += config["sweep"]["counts"]
    for count in counts:
        MediatorConfig.from_count(count, model_cfg.attention_config)
    flops = config["flops"]
    grid = grid_extents(flops["grid"], "flops grid")
    flops_cfg = AttentionConfig(flops["n_tokens"], flops["channels"], flops["heads"], *grid)
    _check_distinct(flops["counts"], "flops.counts", "count")
    for count in flops["counts"]:
        MediatorConfig.from_count(count, flops_cfg)
    bench = config["bench"]
    _check_distinct(bench["sizes"], "bench.sizes", "size")
    for n_tokens in bench["sizes"]:
        bench_cfg = AttentionConfig.square(n_tokens, bench["channels"], bench["heads"])
        MediatorConfig.from_count(bench["mediators"], bench_cfg)


def _check_distinct(values, key, noun):
    """The config list ``key`` must name at least one ``noun`` and none twice."""
    if not values:
        raise ConfigError(f"{key} must name at least one {noun}")
    if len(set(values)) != len(values):
        raise ConfigError(f"{key} must not repeat a {noun}, got {values}")


def _int_list(raw, flag):
    try:
        return [int(part) for part in str(raw).split(",") if part != ""]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated integers, got {raw!r}") from exc


def _write_resolved(out_dir, config, args):
    payload = copy.deepcopy(config)
    payload["command"] = args.command
    payload["invocation"] = {
        "out": out_dir,
        "config": getattr(args, "config", None),
        "ckpt": getattr(args, "ckpt", None),
    }
    write_text_atomic(
        os.path.join(out_dir, "config.resolved.json"),
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
    )


# ---------------------------------------------------------------------------
# commands


def cmd_train(config, out, model):
    seed = config["seed"]
    data_cfg, train_cfg = config["data"], config["train"]
    data = synth_dataset(
        seed, model.cfg.classes, model.cfg.grid_h, model.cfg.grid_w,
        data_cfg["size"], model.cfg.channels,
    )
    optimizer = SgdState(train_cfg["lr"], train_cfg["momentum"])
    draw = stream_rng(seed, "data", "train")
    batch, steps = train_cfg["batch"], train_cfg["steps"]

    # A failed step still leaves the losses of the steps before it.
    losses = []
    try:
        for _ in range(steps):
            picks = draw.integers(0, data.images.shape[0], size=batch)
            model, loss = train_step(
                model, optimizer, data.images[picks], data.labels[picks], draw
            )
            losses.append(loss)
    finally:
        text = csv_text(["step", "loss"], enumerate(losses))
        write_text_atomic(os.path.join(out, "loss.csv"), text)
    save_checkpoint(os.path.join(out, "model.ckpt"), model.state_dict())
    if steps:
        print(f"trained {steps} steps: loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    else:
        print("trained 0 steps: wrote the initial checkpoint")
    print(f"wrote {out}/loss.csv and {out}/model.ckpt")
    return 0


def cmd_sample(config, out, model, schedule):
    seed = config["seed"]
    steps, samples = config["sampler"]["steps"], config["sampler"]["samples"]

    labels = [i % model.cfg.classes for i in range(samples)]
    (runs,) = euler_samples(model, labels, steps, seed, [schedule])
    per_sample = []
    total = FlopsReport()
    for i, (label, run) in enumerate(zip(labels, runs)):
        latent, trace, flops = run.result()
        image = image_from_tokens(latent, model.cfg)
        save_tensor(os.path.join(out, f"sample_{i:03d}.mtat"), Tensor(image))
        write_text_atomic(os.path.join(out, f"trace_{i:03d}.csv"), trace.to_csv())
        per_sample.append(flops.to_json_dict())
        total = total + flops
        print(
            f"sample {i}: label {label}, counts {trace.selected[0]}->{trace.selected[-1]}, "
            f"{flops.total_flops / 1e9:.6f} GFLOPs"
        )
    payload = {
        "samples": per_sample,
        "total": total.to_json_dict(),
        "mean_gflops": (total.total_flops / samples) / 1e9 if samples else 0.0,
    }
    write_text_atomic(os.path.join(out, "flops.json"), json.dumps(payload, indent=2) + "\n")
    print(f"wrote {samples} samples, traces, and flops.json under {out}")
    return 0


def cmd_redundancy(config, out, model, schedule):
    seed = config["seed"]
    red_cfg = config["redundancy"]
    steps, samples = red_cfg["steps"], red_cfg["samples"]
    labels = [i % model.cfg.classes for i in range(samples)]
    trace = capture_redundancy(
        model, labels, steps, seed, schedule=schedule, pair_cap=red_cfg["pair_cap"]
    )
    write_text_atomic(os.path.join(out, "redundancy.csv"), trace.to_csv())
    # Wall-clock data stays out of redundancy.csv, which reruns reproduce.
    timing = json.dumps(trace.timing, indent=2, sort_keys=True)
    write_text_atomic(os.path.join(out, "timing.json"), timing + "\n")
    for layer in range(trace.scores.shape[0]):
        mean = float(trace.scores[layer].mean())
        print(f"layer {layer}: mean score {mean:.6f} over {steps} steps, {samples} samples")
    print(f"wrote {out}/redundancy.csv and {out}/timing.json")
    return 0


def cmd_sweep(config, out, model, points):
    seed = config["seed"]
    sweep_cfg = config["sweep"]
    steps, per_point_samples = sweep_cfg["steps"], sweep_cfg["samples"]
    ref_data = synth_dataset(
        child_seed(seed, "sweep", "reference"),
        model.cfg.classes, model.cfg.grid_h, model.cfg.grid_w,
        sweep_cfg["reference_size"], model.cfg.channels,
    )
    reference = FidReference.fit(ref_data.images, seed=seed)
    # Every point draws sample s from the same noise, so points differ only
    # in schedule; one lockstep run samples them all, and points whose
    # counts agree so far share those steps. Points whose counts agree
    # throughout produce the same latents; fid_proxy is a deterministic
    # function of them, so each distinct latent stack is scored once.
    labels = [s % model.cfg.classes for s in range(per_point_samples)]
    sampled = euler_samples(
        model, labels, steps, child_seed(seed, "sweep"), [point.schedule for point in points]
    )
    qualities = {}
    first_deltas = set()

    def evaluate(point):
        latents = []
        flops_total = 0
        for run in sampled[point.index]:
            latent, trace, flops = run.result()
            latents.append(latent)
            flops_total += flops.total_flops
            first_deltas.add(trace.deltas[0])
        cost = (flops_total / per_point_samples) / 1e9
        stack = np.stack(latents)
        key = stack.tobytes()
        if key not in qualities:
            qualities[key] = fid_proxy(stack, reference, seed=seed)
        return cost, qualities[key]

    results, failures = sweep_thresholds(points, evaluate)
    for point, exc in failures:
        print(
            f"sweep point {point.index} (rho0={point.rho0}, rho1={point.rho1}) failed: {exc}",
            file=sys.stderr,
        )
    # A first step that moves no latent leaves every schedule at its first
    # count (fresh weights predict the zero field): the grid is degenerate.
    degenerate = first_deltas == {0.0}
    if degenerate:
        results = []
    envelope_ids = set(
        pareto_envelope([(cost, quality, point.index) for point, cost, quality in results])
    )

    # The displacement is always the l1 distance; its `metric` column stays
    # so the files keep their column layout.
    header = ["rho0", "rho1", "metric", "avg_gflops", "quality", "on_envelope"]
    rows = [
        (point.rho0, point.rho1, "l1", cost, quality, int(point.index in envelope_ids))
        for point, cost, quality in results
    ]
    write_text_atomic(os.path.join(out, "sweep.csv"), csv_text(header, rows))
    envelope = sorted((row for row in rows if row[5]), key=lambda row: row[3])
    write_text_atomic(os.path.join(out, "envelope.csv"), csv_text(header, envelope))
    failure_rows = [
        (point.index, point.rho0, point.rho1, "l1", type(exc).__name__, str(exc))
        for point, exc in failures
    ]
    text = csv_text(["index", "rho0", "rho1", "metric", "error", "message"], failure_rows)
    write_text_atomic(os.path.join(out, "failures.csv"), text)
    print(
        f"swept {len(points)} schedules ({len(failures)} failed), "
        f"{len(envelope_ids)} on the envelope; wrote {out}/sweep.csv, {out}/envelope.csv "
        f"and {out}/failures.csv"
    )
    if degenerate:
        print(
            "numeric error: the first sampling step moved no sample's latent, so no "
            "schedule can advance past its first count; sweep trained weights with --ckpt",
            file=sys.stderr,
        )
        return 3
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


def cmd_flops(config, out):
    stack = config["flops"]
    attn_cfg = AttentionConfig(stack["n_tokens"], stack["channels"], stack["heads"], *stack["grid"])
    layers, counts = stack["layers"], stack["counts"]

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


def cmd_bench(config, out):
    bench = config["bench"]
    sizes = bench["sizes"]
    channels, heads, mediators = bench["channels"], bench["heads"], bench["mediators"]
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
    header = ["kind", "n_tokens", "interaction_macs", "total_macs", "wall_seconds"]
    write_text_atomic(os.path.join(out, "bench.csv"), csv_text(header, rows))
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
        config, inputs = _resolve(args)
        out = args.out or os.path.join("runs", args.command)
        _write_resolved(out, config, args)
        # Ops and the sampler reject non-finite values; numpy's warnings would repeat that.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(config, out, **inputs) or 0
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except MtatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # every input is read in _resolve, so this is an output
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
