"""Step-wise mediator-count scheduling for iterative samplers.

Early denoising steps move the latent most and set only coarse layout,
so their query-key interactions are the most redundant: few mediators
serve them. The schedule starts at its smallest count and moves to
larger ones as the per-step displacement, relative to the first step's,
decays below configured fractions. The next count is the larger of the
count held and the counts whose fraction has been crossed, so counts
never shrink and a noisy uptick never drops capacity back down.

Also hosts the sweep machinery for exploring threshold grids and the
Pareto envelope over (cost, quality) points.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .attention import FlopsReport
from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    NumericError,
)
from .util import check_json, csv_text

# At most this many latents go through one model call of the sampler. On
# the default model each row adds about 0.2 MB to a call's peak, and the
# default sweep ran no faster with more rows per call.
MAX_BATCH = 4


def latent_distance(a, b):
    """Per-element displacement between two latent arrays: the mean
    absolute difference. It is invariant to latent size, and schedule
    decisions compare ratios, so the overall scale cancels anyway.
    """
    ad = np.asarray(a, dtype=np.float64)
    bd = np.asarray(b, dtype=np.float64)
    if ad.shape != bd.shape:
        raise DimensionError(f"latent shapes differ: {ad.shape} vs {bd.shape}")
    return float(np.mean(np.abs(ad - bd)))


@dataclass(frozen=True)
class ScheduleLevel:
    """One advancement rule: once the displacement falls to ``threshold``
    times the first step's, use ``count`` mediators."""

    threshold: float
    count: int


@dataclass(frozen=True)
class MediatorSchedule:
    """Ordered capacity levels for a sampling run.

    ``start_count`` applies until the first threshold is crossed.
    Thresholds are fractions in [0, 1], strictly decreasing; a grid that
    wants two coincident thresholds should merge them into one level
    that jumps straight to the larger count. Counts must never shrink.
    """

    start_count: int
    levels: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if self.start_count < 1:
            raise ConfigError(f"start count must be positive, got {self.start_count}")
        prev_rho, prev_count = None, self.start_count
        for level in self.levels:
            if not isinstance(level, ScheduleLevel):
                raise ConfigError("levels must be ScheduleLevel instances")
            if not (0.0 <= level.threshold <= 1.0):
                raise ConfigError(f"threshold {level.threshold} outside [0, 1]")
            if prev_rho is not None and level.threshold >= prev_rho:
                raise ConfigError(
                    f"thresholds must be strictly decreasing, got {prev_rho} then {level.threshold}"
                )
            if level.count < prev_count:
                raise ConfigError(
                    f"counts must never shrink, got {prev_count} then {level.count}"
                )
            prev_rho, prev_count = level.threshold, level.count

    def to_json_dict(self):
        return {
            "n1": self.start_count,
            "levels": [{"rho": lv.threshold, "n": lv.count} for lv in self.levels],
        }

    @classmethod
    def from_json_dict(cls, payload):
        """Read a schedule by the config's rules: a missing key, or a key or
        JSON type that ``_SCHEDULE_SHAPE`` lacks, is a ConfigError."""
        check_json(_SCHEDULE_SHAPE, payload, "schedule")
        levels = payload.get("levels", [])
        try:
            start = payload["n1"]
            levels = tuple(ScheduleLevel(float(lv["rho"]), lv["n"]) for lv in levels)
        except KeyError as exc:
            raise ConfigError(f"malformed schedule: missing key {exc}") from exc
        return cls(start, levels)


# Each schedule key's JSON type.
_SCHEDULE_SHAPE = {"n1": 1, "levels": [{"rho": 0.0, "n": 1}]}


def select_mediator_count(delta_t, delta0, count, schedule):
    """Pick the mediator count for the next step.

    ``delta_t`` is the latest step displacement, ``delta0`` the first
    step's, ``count`` the count held. Crossing a level's threshold
    (delta_t <= rho * delta0, boundary inclusive) makes its count
    eligible, and the largest of ``count`` and the eligible counts is
    returned: several levels may be passed in one step, and a count once
    reached is kept. A zero ``delta0`` returns ``count``: relative
    thresholds are undefined there, so no level is reachable. A negative
    or non-finite displacement is a DomainError.
    """
    if min(delta_t, delta0) < 0.0 or not math.isfinite(delta_t) or not math.isfinite(delta0):
        raise DomainError(f"displacements must be finite and non-negative: {delta_t}, {delta0}")
    if delta0 == 0.0:
        return count
    return max([count] + [lv.count for lv in schedule.levels if delta_t <= lv.threshold * delta0])


@dataclass
class LatentTrace:
    """Per-step record of one sampling run: displacements, the mediator
    count each step ran with, and that step's MAC bill."""

    deltas: list = field(default_factory=list)
    selected: list = field(default_factory=list)
    step_macs: list = field(default_factory=list)

    def to_csv(self):
        """The ``trace_*.csv`` text: a ``step,delta,n_t,step_macs`` row per step."""
        rows = zip(self.deltas, self.selected, self.step_macs)
        body = [(step, float(delta), n, macs) for step, (delta, n, macs) in enumerate(rows)]
        return csv_text(["step", "delta", "n_t", "step_macs"], body)


@dataclass
class Trajectory:
    """One (schedule, start) run of ``run_scheduled_sampling``: its
    per-step trace, final latent and summed MAC bill. The latent is
    read-only and may be shared with other runs that picked the same
    counts. A failed run holds the error that stopped it, the trace and
    bill of the steps it finished, and no latent."""

    trace: LatentTrace
    latent: object = None
    flops: FlopsReport = field(default_factory=FlopsReport)
    error: Exception = None

    def result(self):
        """(final latent, LatentTrace, FlopsReport); raises the run's error."""
        if self.error is not None:
            raise self.error
        return self.latent, self.trace, self.flops


def _euler_step(bundle, x, labels, k, steps, count):
    """Euler step ``k`` of the stacked latents ``x``, checked."""
    velocity = np.asarray(bundle.velocity(x, 1.0 - k / steps, count, labels), dtype=np.float64)
    if velocity.shape != x.shape:
        raise DimensionError(f"velocity shape {velocity.shape} does not match latents {x.shape}")
    x_next = x - velocity / steps
    if not np.all(np.isfinite(x_next)):
        raise NumericError(f"sampling diverged at step {k}")
    x_next.flags.writeable = False
    return x_next


def _step_rows(bundle, rows, labels, k, steps, count):
    """Euler step ``k`` of every row in one model call. If the call or a
    check fails, the rows step one by one, so each failing row gets its
    own error. Returns one new latent or exception per row."""
    try:
        return list(_euler_step(bundle, np.stack(rows), labels, k, steps, count))
    except Exception:  # noqa: BLE001 - rerun row by row to find the failing rows
        outs = []
        for row, label in zip(rows, labels):
            try:
                outs.append(_euler_step(bundle, row[None], [label], k, steps, count)[0])
            except Exception as exc:  # noqa: BLE001 - rows fail independently
                outs.append(exc)
        return outs


@dataclass
class _Run:
    """A run in progress: its schedule, the count of its next step, its
    node (the start index followed by the counts of the steps taken so
    far) and the error that stopped it."""

    schedule: MediatorSchedule
    count: int
    node: tuple
    error: Exception = None

    def trajectory(self, latents, deltas, bills, bundle):
        """The run's Trajectory, read from the tables of its node."""
        counts = self.node[1:]
        trace = LatentTrace(
            [deltas[self.node[:i]] for i in range(2, len(self.node) + 1)],
            list(counts),
            [bundle.step_flops(count).total_macs for count in counts],
        )
        latent = latents[self.node] if self.error is None else None
        return Trajectory(trace, latent, bills[self.node], self.error)


def run_scheduled_sampling(bundle, starts, labels, steps, schedules=(None,)):
    """Deterministic Euler sampling from t=1 noise down to t=0 for every
    (schedule, start) pair, all advanced together one step at a time.

    ``starts`` are the initial latents and ``labels`` their class labels.
    ``bundle`` supplies ``velocity(x, t, count, labels)``, over a stack
    of latents at one time with one label per row, and
    ``step_flops(count)``; a None schedule is the one-level schedule
    of ``bundle.default_count``. The displacement of each completed step
    selects the mediator count for the next one, by
    ``select_mediator_count``; a first step that does not move the latent
    at all leaves the run at its start count.

    From a fixed start the latent before step k depends only on the
    counts of steps 0..k-1, so runs whose schedules have picked the same
    counts share it, and with it the displacement and MAC bill of every
    step so far. A run is its node, the start index followed by those
    counts, and the count of its next step. Each step computes every
    distinct node once, recording its latent, its last displacement and
    its summed bill: the nodes that run the same count go through one
    ``bundle.velocity`` call of at most ``MAX_BATCH`` rows, and the bundle
    must give each row the velocity of its own one-row call. Each call
    checks the velocity's shape and the new latents' finiteness; an error
    stops only the runs through the node that raised it. A capturing
    bundle records one map set per call, so it captures one run at a time.

    Returns one list per schedule of one Trajectory per start.
    """
    steps = int(steps)
    if steps < 1:
        raise DomainError(f"sampling needs at least one step, got {steps}")
    if len(starts) != len(labels):
        raise DimensionError(f"{len(labels)} labels for {len(starts)} starting latents")
    latents = {(s,): np.array(x, dtype=np.float64) for s, x in enumerate(starts)}
    deltas, bills = {}, {node: FlopsReport() for node in latents}
    grid = []
    for schedule in schedules:
        if schedule is None:
            schedule = MediatorSchedule(int(bundle.default_count))
        grid.append([_Run(schedule, schedule.start_count, node) for node in latents])
    runs = [run for row in grid for run in row]
    for k in range(steps):
        live = [run for run in runs if run.error is None]
        groups = {}  # count -> the nodes that step at it, in first-seen order
        for run in live:
            groups.setdefault(run.count, {})[run.node] = None
        stepped = {}
        for count, nodes in groups.items():
            nodes = list(nodes)
            for first in range(0, len(nodes), MAX_BATCH):
                chunk = nodes[first : first + MAX_BATCH]
                outs = _step_rows(
                    bundle, [latents[node] for node in chunk],
                    [labels[node[0]] for node in chunk], k, steps, count,
                )
                for node, out in zip(chunk, outs):
                    child = node + (count,)
                    stepped[child] = out
                    if not isinstance(out, Exception):
                        deltas[child] = latent_distance(latents[node], out)
                        bills[child] = bills[node] + bundle.step_flops(count)
        for run in live:
            child = run.node + (run.count,)
            if isinstance(stepped[child], Exception):
                run.error = stepped[child]
                continue
            run.node, delta0 = child, deltas[child[:2]]
            try:
                run.count = select_mediator_count(deltas[child], delta0, run.count, run.schedule)
            except Exception as exc:  # noqa: BLE001 - runs fail independently
                run.error = exc
        latents = stepped
    return [[run.trajectory(latents, deltas, bills, bundle) for run in row] for row in grid]


# ---------------------------------------------------------------------------
# threshold sweeps and the cost/quality envelope


@dataclass(frozen=True)
class SweepPoint:
    """One grid entry: the thresholds that built ``schedule``.

    ``rho1`` is None for two-level schedules.
    """

    index: int
    rho0: float
    rho1: object
    schedule: MediatorSchedule


def default_rho_values():
    return tuple(round(1.0 - 0.1 * i, 1) for i in range(11))


def threshold_grid(rho_values=None, counts=(4, 16, 64)):
    """Enumerate sweep points in a stable order.

    With three counts, every (rho0, rho1) pair with rho1 <= rho0 builds a
    three-level schedule over ``counts``; then, always, each rho0 alone
    builds a two-level schedule over the first two counts. A pair with
    rho1 == rho0 means the middle level is unreachable, so it collapses to
    a single level that jumps straight to the largest count. The rho
    values are stored as floats, so a JSON integer 1 reads as 1.0. Fewer
    than two or more than three counts, or no rho, is a ConfigError.
    """
    values = tuple(map(float, rho_values)) if rho_values is not None else default_rho_values()
    counts = tuple(int(c) for c in counts)
    if len(counts) not in (2, 3):
        raise ConfigError(f"threshold_grid needs two or three mediator counts, got {len(counts)}")
    if not values:
        raise ConfigError("sweep grid is empty: it needs a rho")
    points = []

    def add(rho0, rho1, *levels):
        schedule = MediatorSchedule(counts[0], levels)
        points.append(SweepPoint(len(points), rho0, rho1, schedule))

    if len(counts) == 3:
        for rho0 in values:
            for rho1 in values:
                if rho1 == rho0:
                    add(rho0, rho1, ScheduleLevel(rho0, counts[2]))
                elif rho1 < rho0:
                    add(rho0, rho1, ScheduleLevel(rho0, counts[1]), ScheduleLevel(rho1, counts[2]))
    for rho0 in values:
        add(rho0, None, ScheduleLevel(rho0, counts[1]))
    return points


def sweep_thresholds(points, evaluate, workers=1):
    """Evaluate every sweep point, optionally in a thread pool.

    ``evaluate(point)`` returns (cost, quality). Successful results come
    back as (point, cost, quality) in input order regardless of worker
    count. A point that raises is recorded as (point, exception) in the
    failure list and omitted from the results; the sweep keeps going.
    """
    outcomes = [None] * len(points)
    failures = []
    if workers <= 1:
        for k, point in enumerate(points):
            try:
                outcomes[k] = evaluate(point)
            except Exception as exc:  # noqa: BLE001 - sweep points fail independently
                failures.append((point, exc))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(evaluate, point) for point in points]
            for k, future in enumerate(futures):
                try:
                    outcomes[k] = future.result()
                except Exception as exc:  # noqa: BLE001
                    failures.append((points[k], exc))
    results = [
        (point, float(outcome[0]), float(outcome[1]))
        for point, outcome in zip(points, outcomes)
        if outcome is not None
    ]
    return results, failures


def pareto_envelope(points):
    """Ids of the non-dominated points, sorted by cost; lower is better
    on both axes.

    Accepts (cost, quality) pairs, identified by position, or
    (cost, quality, id) triples with mutually comparable ids. A point is
    dominated when another is at least as good on both axes and strictly
    better on one. Exact duplicates keep one representative, the one
    with the smallest id.
    """
    cleaned = []
    for idx, entry in enumerate(points):
        if len(entry) == 3:
            cost, quality, tag = entry
        else:
            (cost, quality), tag = entry, idx
        if not (math.isfinite(cost) and math.isfinite(quality)):
            raise NumericError(f"envelope point {tag} is not finite: ({cost}, {quality})")
        cleaned.append((float(cost), float(quality), tag))
    kept = []
    best_quality = math.inf
    last_pair = None
    for cost, quality, tag in sorted(cleaned):
        if (cost, quality) == last_pair:
            continue
        if quality < best_quality:
            kept.append(tag)
            best_quality = quality
            last_pair = (cost, quality)
    return kept
