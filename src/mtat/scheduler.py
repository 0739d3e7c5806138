"""Step-wise mediator-count scheduling for iterative samplers.

Early denoising steps move the latent most and set only coarse layout,
so their query-key interactions are the most redundant: few mediators
serve them. The schedule starts at its smallest count and advances to
larger ones as the per-step displacement, relative to the first step's,
decays below configured fractions. A level once reached is kept, so
counts never shrink and a noisy uptick never drops capacity back down.

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
    DegenerateTrajectoryError,
    DimensionError,
    DomainError,
    NumericError,
)
from .util import check_json

METRICS = ("l1", "l2")
# At most this many latents go through one model call of the sampler. On
# the default model each row adds about 0.2 MB to a call's peak, and the
# default sweep ran no faster with more rows per call.
MAX_BATCH = 4


def latent_distance(a, b, metric="l1"):
    """Per-element displacement between two latent arrays.

    "l1" is the mean absolute difference, "l2" the root mean square
    difference. Both are invariant to latent size, and schedule
    decisions compare ratios, so the overall scale cancels anyway.
    """
    ad = np.asarray(a, dtype=np.float64)
    bd = np.asarray(b, dtype=np.float64)
    if ad.shape != bd.shape:
        raise DimensionError(f"latent shapes differ: {ad.shape} vs {bd.shape}")
    diff = ad - bd
    if metric == "l1":
        return float(np.mean(np.abs(diff)))
    if metric == "l2":
        return float(np.sqrt(np.mean(diff * diff)))
    raise ConfigError(f"unknown distance metric {metric!r}")


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
    metric: str = "l1"

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if self.start_count < 1:
            raise ConfigError(f"start count must be positive, got {self.start_count}")
        if self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}, got {self.metric!r}")
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

    @property
    def level_count(self):
        return len(self.levels) + 1

    def count_at(self, level):
        if not (0 <= level <= len(self.levels)):
            raise DomainError(f"level {level} outside schedule with {self.level_count} levels")
        return self.start_count if level == 0 else self.levels[level - 1].count

    def to_json_dict(self):
        return {
            "n1": self.start_count,
            "levels": [{"rho": lv.threshold, "n": lv.count} for lv in self.levels],
            "metric": self.metric,
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
        return cls(start, levels, payload.get("metric", "l1"))


# Each schedule key's JSON type.
_SCHEDULE_SHAPE = {"n1": 1, "levels": [{"rho": 0.0, "n": 1}], "metric": "l1"}


def select_mediator_count(delta_t, delta0, level, schedule):
    """Pick the mediator count for the next step.

    ``delta_t`` is the latest step displacement, ``delta0`` the first
    step's, ``level`` the current schedule level. Crossing threshold i
    (delta_t <= rho_i * delta0, boundary inclusive) makes level i+1
    eligible; thresholds decrease, so the eligible set is a prefix and
    the deepest crossed level wins, possibly advancing several levels in
    one step. A level once reached is kept. Returns (count, new_level).
    """
    if delta0 <= 0.0:
        raise DegenerateTrajectoryError(
            "first-step displacement is zero; relative thresholds are undefined"
        )
    if delta_t < 0.0 or not math.isfinite(delta_t) or not math.isfinite(delta0):
        raise DomainError(f"displacements must be finite and non-negative: {delta_t}, {delta0}")
    if not (0 <= level < schedule.level_count):
        raise DomainError(f"level {level} outside schedule with {schedule.level_count} levels")
    candidate = 0
    for idx, rule in enumerate(schedule.levels):
        if delta_t <= rule.threshold * delta0:
            candidate = idx + 1
    new_level = max(level, candidate)
    return schedule.count_at(new_level), new_level


@dataclass
class LatentTrace:
    """Per-step record of one sampling run: displacements, the mediator
    count each step ran with, and that step's MAC bill."""

    deltas: list = field(default_factory=list)
    selected: list = field(default_factory=list)
    step_macs: list = field(default_factory=list)
    metric: str = "l1"
    delta0: float = 0.0

    def to_csv(self):
        lines = ["step,delta,n_t,step_macs"]
        rows = zip(self.deltas, self.selected, self.step_macs)
        for step, (delta, count, macs) in enumerate(rows):
            lines.append(f"{step},{repr(float(delta))},{count},{macs}")
        return "\n".join(lines) + "\n"


@dataclass
class Trajectory:
    """One (schedule, start) run of ``run_scheduled_sampling``: its
    per-step trace, final latent and summed MAC bill, or the error that
    stopped it. The latent is read-only and may be shared with other
    runs that picked the same counts."""

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
    """A trajectory in progress: its schedule state and its node, the
    start index followed by the counts of the steps taken so far."""

    trajectory: Trajectory
    schedule: MediatorSchedule
    count: int
    node: tuple
    level: int = 0

    def advance(self, k, stepped, latents, shared, bundle):
        """Record step ``k`` from the stepped nodes and pick the next
        count. Runs at one node with one metric share its displacement
        and MAC bill through ``shared``."""
        child = self.node + (self.count,)
        x_next = stepped[child]
        if isinstance(x_next, Exception):
            raise x_next
        trace = self.trajectory.trace
        step_report = bundle.step_flops(self.count)
        key = (child, trace.metric)
        if key not in shared:
            shared[key] = (
                latent_distance(latents[self.node], x_next, trace.metric),
                self.trajectory.flops + step_report,
            )
        delta, self.trajectory.flops = shared[key]
        trace.deltas.append(delta)
        trace.selected.append(self.count)
        trace.step_macs.append(step_report.total_macs)
        self.trajectory.latent = x_next
        self.node = child
        if k == 0:
            trace.delta0 = delta
        if trace.delta0 > 0.0:
            self.count, self.level = select_mediator_count(
                delta, trace.delta0, self.level, self.schedule
            )


def run_scheduled_sampling(bundle, starts, labels, steps, schedules=(None,)):
    """Deterministic Euler sampling from t=1 noise down to t=0 for every
    (schedule, start) pair, all advanced together one step at a time.

    ``starts`` are the initial latents and ``labels`` their class labels.
    ``bundle`` supplies ``velocity(x, t, count, labels)``, over a stack
    of latents at one time with one label per row, and
    ``step_flops(count)``; a None schedule is the one-level schedule
    of ``bundle.default_count``. The displacement of each completed step
    selects the mediator count for the next one. A first step that does
    not move the latent at all leaves the schedule at its starting level
    for the whole run, since relative thresholds are meaningless there.

    From a fixed start the latent before step k depends only on the
    counts of steps 0..k-1, so runs whose schedules have picked the same
    counts share it, whatever their metrics. Each step computes every
    distinct (start, counts so far) node once: the nodes that run the
    same count go through one ``bundle.velocity`` call of at most
    ``MAX_BATCH`` rows, and the bundle must give each row the velocity
    of its own one-row call. Each call checks the velocity's shape and
    the new latents' finiteness; an error stops only the runs through
    the node that raised it. A capturing bundle records one map set per
    call, so it captures one run at a time.

    Returns one list per schedule of one Trajectory per start.
    """
    steps = int(steps)
    if steps < 1:
        raise DomainError(f"sampling needs at least one step, got {steps}")
    if len(starts) != len(labels):
        raise DimensionError(f"{len(labels)} labels for {len(starts)} starting latents")
    latents = {(s,): np.array(x, dtype=np.float64) for s, x in enumerate(starts)}
    grid, runs = [], []
    for schedule in schedules:
        if schedule is None:
            schedule = MediatorSchedule(int(bundle.default_count))
        row = [Trajectory(LatentTrace(metric=schedule.metric)) for _ in starts]
        count = schedule.start_count
        runs += [_Run(trajectory, schedule, count, (s,)) for s, trajectory in enumerate(row)]
        grid.append(row)
    for k in range(steps):
        live = [run for run in runs if run.trajectory.error is None]
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
                    stepped[node + (count,)] = out
        shared = {}
        for run in live:
            try:
                run.advance(k, stepped, latents, shared, bundle)
            except Exception as exc:  # noqa: BLE001 - runs fail independently
                run.trajectory.error = exc
        latents = stepped
    return grid


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
    metric: str
    schedule: MediatorSchedule


def default_rho_values():
    return tuple(round(1.0 - 0.1 * i, 1) for i in range(11))


def threshold_grid(rho_values=None, counts=(4, 16, 64), metrics=("l1",), two_level=True):
    """Enumerate sweep points in a stable order.

    For each metric: every (rho0, rho1) pair with rho1 <= rho0 builds a
    three-level schedule over ``counts``; then, when ``two_level`` is
    set, each rho0 alone builds a two-level schedule over the first two
    counts. Requires three counts for the pair block. A pair with rho1 ==
    rho0 means the middle level is unreachable, so it collapses to a
    single level that jumps straight to the largest count. A grid with
    no point is a ConfigError.
    """
    values = tuple(rho_values) if rho_values is not None else default_rho_values()
    counts = tuple(int(c) for c in counts)
    if len(counts) < 2:
        raise ConfigError("threshold_grid needs at least two mediator counts")
    points = []
    for metric in metrics:
        if len(counts) >= 3:
            for rho0 in values:
                for rho1 in values:
                    if rho1 > rho0:
                        continue
                    if rho1 == rho0:
                        levels = (ScheduleLevel(rho0, counts[2]),)
                    else:
                        levels = (
                            ScheduleLevel(rho0, counts[1]),
                            ScheduleLevel(rho1, counts[2]),
                        )
                    schedule = MediatorSchedule(
                        start_count=counts[0], levels=levels, metric=metric
                    )
                    points.append(SweepPoint(len(points), rho0, rho1, metric, schedule))
        if two_level:
            for rho0 in values:
                schedule = MediatorSchedule(
                    start_count=counts[0],
                    levels=(ScheduleLevel(rho0, counts[1]),),
                    metric=metric,
                )
                points.append(SweepPoint(len(points), rho0, None, metric, schedule))
    if not points:
        raise ConfigError("sweep grid is empty: it needs a rho, a metric, and 3 counts or two_level")
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
