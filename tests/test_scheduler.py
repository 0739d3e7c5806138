"""Threshold schedules, the sampling loop contract, sweeps, and the envelope."""

import numpy as np
import pytest

from mtat.attention import AttentionConfig, FlopsReport, mediator_flops
from mtat.errors import (
    ConfigError,
    DegenerateTrajectoryError,
    DimensionError,
    DomainError,
    NumericError,
    UsageError,
)
from mtat.scheduler import (
    MAX_BATCH,
    LatentTrace,
    MediatorSchedule,
    ScheduleLevel,
    latent_distance,
    pareto_envelope,
    run_scheduled_sampling,
    select_mediator_count,
    sweep_thresholds,
    threshold_grid,
)


def walk(schedule, deltas, delta0):
    """Feed a displacement sequence through the selector, like the sampler does."""
    level = 0
    counts = []
    for delta in deltas:
        count, level = select_mediator_count(delta, delta0, level, schedule)
        counts.append(count)
    return counts


# ---------------------------------------------------------------------------
# latent distance


def test_distance_zero_for_equal_inputs():
    x = np.arange(6.0).reshape(2, 3)
    assert latent_distance(x, x, "l1") == 0.0
    assert latent_distance(x, x, "l2") == 0.0


def test_distance_constant_field():
    a = np.zeros((4, 5))
    b = np.full((4, 5), -2.5)
    assert latent_distance(a, b, "l1") == 2.5
    assert abs(latent_distance(a, b, "l2") - 2.5) <= 1e-15


def test_distance_hand_values():
    a = np.array([0.0, 0.0])
    b = np.array([3.0, 4.0])
    assert latent_distance(a, b, "l1") == 3.5
    assert abs(latent_distance(a, b, "l2") - np.sqrt(12.5)) <= 1e-15


def test_distance_shape_and_metric_errors():
    with pytest.raises(DimensionError):
        latent_distance(np.zeros(3), np.zeros(4))
    with pytest.raises(ConfigError):
        latent_distance(np.zeros(3), np.zeros(3), metric="cosine")


# ---------------------------------------------------------------------------
# schedule construction


def test_schedule_validation():
    MediatorSchedule(4, (ScheduleLevel(0.6, 16), ScheduleLevel(0.3, 64)))
    with pytest.raises(ConfigError):
        MediatorSchedule(0, ())
    with pytest.raises(ConfigError):
        MediatorSchedule(4, (ScheduleLevel(1.5, 16),))
    with pytest.raises(ConfigError):
        MediatorSchedule(4, (ScheduleLevel(0.3, 16), ScheduleLevel(0.6, 64)))
    with pytest.raises(ConfigError):
        MediatorSchedule(4, (ScheduleLevel(0.5, 16), ScheduleLevel(0.5, 64)))
    with pytest.raises(ConfigError):
        MediatorSchedule(16, (ScheduleLevel(0.5, 4),))  # counts may not shrink
    with pytest.raises(ConfigError):
        MediatorSchedule(4, (ScheduleLevel(0.5, 16),), metric="l3")


def test_schedule_json_roundtrip():
    schedule = MediatorSchedule(
        4, (ScheduleLevel(0.6, 16), ScheduleLevel(0.3, 64)), metric="l2"
    )
    payload = schedule.to_json_dict()
    assert payload == {
        "n1": 4,
        "levels": [{"rho": 0.6, "n": 16}, {"rho": 0.3, "n": 64}],
        "metric": "l2",
    }
    assert MediatorSchedule.from_json_dict(payload) == schedule

    loose = MediatorSchedule.from_json_dict({"n1": 8})
    assert loose.start_count == 8 and loose.levels == () and loose.metric == "l1"

    with pytest.raises(ConfigError):
        MediatorSchedule.from_json_dict({"levels": []})


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n1": 4, "level": [{"rho": 0.9, "n": 16}]}, "unknown schedule.level"),
        ({"n1": 4, "levels": [{"rho": 0.9, "n": 16, "m": 1}]}, r"unknown schedule.levels\[0\].m"),
        ({"n1": 4.9}, "schedule.n1 must be an integer, got 4.9"),
        ({"n1": 4.0}, "schedule.n1 must be an integer, got 4.0"),
        ({"n1": True}, "schedule.n1 must be an integer, got True"),
        ({"n1": "4"}, "schedule.n1 must be an integer, got '4'"),
        ({"n1": 4, "levels": [{"rho": 0.5, "n": 16.0}]}, "must be an integer, got 16.0"),
        ({"n1": 4, "levels": [{"rho": 0.5, "n": False}]}, "must be an integer, got False"),
        ({"n1": 4, "levels": [{"rho": "0.5", "n": 16}]}, "must be a number, got '0.5'"),
        ({"n1": 4, "levels": [{"rho": True, "n": 16}]}, "must be a number, got True"),
        ({"n1": 4, "levels": [{"n": 16}]}, "missing key 'rho'"),
        ({"n1": 4, "levels": [[0.5, 16]]}, "must be an object"),
        ({"n1": 4, "levels": {"rho": 0.5, "n": 16}}, "schedule.levels must be a list"),
        ({"n1": 4, "metric": 1}, "schedule.metric must be a string"),
        ([4], "schedule must be an object"),
        ({"n1": 4, "latching": True}, "unknown schedule.latching"),
        ({"n1": 4, "latching": False}, "unknown schedule.latching"),
        ({"n1": 4, "latching": "false"}, "unknown schedule.latching"),
        ({"n1": 4, "latching": 0}, "unknown schedule.latching"),
        ({"n1": 4, "latching": None}, "unknown schedule.latching"),
    ],
    ids=[
        "typo-level", "unknown-level-key", "n1-fraction", "n1-whole-float", "n1-boolean",
        "n1-string", "n-float", "n-boolean", "rho-string", "rho-boolean", "level-without-rho",
        "level-not-object", "levels-not-list", "metric-not-string", "not-object",
        "latching-true", "latching-false", "latching-string", "latching-zero", "latching-null",
    ],
)
def test_schedule_json_keys_and_types_follow_the_config_rules(payload, message):
    with pytest.raises(ConfigError, match=message):
        MediatorSchedule.from_json_dict(payload)


def test_schedule_json_takes_integer_thresholds():
    schedule = MediatorSchedule.from_json_dict({"n1": 4, "levels": [{"rho": 1, "n": 16}]})
    assert schedule.levels == (ScheduleLevel(1.0, 16),)
    assert type(schedule.levels[0].threshold) is float


# ---------------------------------------------------------------------------
# selection semantics: the three worked fixtures


def test_two_level_boundary_fixture():
    schedule = MediatorSchedule(16, (ScheduleLevel(0.5, 64),))
    count, level = select_mediator_count(7.0, 10.0, 0, schedule)
    assert (count, level) == (16, 0)
    count, level = select_mediator_count(5.0, 10.0, 0, schedule)
    assert (count, level) == (64, 1)  # boundary is inclusive


def test_unit_threshold_switches_immediately():
    schedule = MediatorSchedule(4, (ScheduleLevel(1.0, 16),))
    count, _ = select_mediator_count(10.0, 10.0, 0, schedule)
    assert count == 16
    count, _ = select_mediator_count(10.0000001, 10.0, 0, schedule)
    assert count == 4


def test_three_level_walk_fixture():
    schedule = MediatorSchedule(4, (ScheduleLevel(0.6, 16), ScheduleLevel(0.3, 64)))
    assert walk(schedule, [8.0, 5.0, 2.0], 10.0) == [4, 16, 64]


def test_multi_level_jump_in_one_step():
    schedule = MediatorSchedule(4, (ScheduleLevel(0.6, 16), ScheduleLevel(0.3, 64)))
    count, level = select_mediator_count(1.0, 10.0, 0, schedule)
    assert (count, level) == (64, 2)


def test_latching_ignores_rebounds():
    schedule = MediatorSchedule(4, (ScheduleLevel(0.5, 16),))
    assert walk(schedule, [4.0, 9.0, 4.0], 10.0) == [16, 16, 16]


def test_selection_errors():
    schedule = MediatorSchedule(4, (ScheduleLevel(0.5, 16),))
    with pytest.raises(DegenerateTrajectoryError):
        select_mediator_count(1.0, 0.0, 0, schedule)
    with pytest.raises(DomainError):
        select_mediator_count(-1.0, 10.0, 0, schedule)
    with pytest.raises(DomainError):
        select_mediator_count(float("nan"), 10.0, 0, schedule)
    with pytest.raises(DomainError):
        select_mediator_count(1.0, 10.0, 7, schedule)


def test_matches_pointwise_two_threshold_oracle():
    # Independent re-statement of the two-threshold rule: pick the deepest
    # crossed threshold each step, then latch.
    rng = np.random.default_rng(80)
    schedule = MediatorSchedule(4, (ScheduleLevel(0.7, 16), ScheduleLevel(0.2, 64)))
    for _ in range(200):
        delta0 = float(rng.uniform(0.5, 20.0))
        deltas = rng.uniform(0.0, 1.2 * delta0, size=12)
        level = 0
        want = []
        for d in deltas:
            if d <= 0.2 * delta0:
                point = 2
            elif d <= 0.7 * delta0:
                point = 1
            else:
                point = 0
            level = max(level, point)
            want.append([4, 16, 64][level])
        assert walk(schedule, deltas, delta0) == want


def test_latching_monotone_and_scale_invariant_on_random_walks():
    rng = np.random.default_rng(81)
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        thresholds = np.sort(rng.uniform(0.05, 0.95, size=k))[::-1]
        thresholds = np.unique(thresholds)[::-1]
        counts = np.cumsum(rng.integers(1, 10, size=len(thresholds) + 1))
        schedule = MediatorSchedule(
            int(counts[0]),
            tuple(
                ScheduleLevel(float(t), int(c))
                for t, c in zip(thresholds, counts[1:])
            ),
        )
        delta0 = float(rng.uniform(0.1, 100.0))
        deltas = rng.uniform(0.0, 1.5 * delta0, size=int(rng.integers(1, 20)))
        selected = walk(schedule, deltas, delta0)
        assert all(a <= b for a, b in zip(selected, selected[1:]))
        for factor in (1e-6, 1e6):
            scaled = walk(schedule, deltas * factor, delta0 * factor)
            assert scaled == selected


def test_strictly_decreasing_deltas_visit_every_level():
    schedule = MediatorSchedule(
        1, (ScheduleLevel(0.8, 2), ScheduleLevel(0.5, 3), ScheduleLevel(0.2, 4))
    )
    assert walk(schedule, [9.0, 7.0, 4.0, 1.0], 10.0) == [1, 2, 3, 4]
    # Boundary values land on the deeper level.
    assert walk(schedule, [8.0, 5.0, 2.0], 10.0) == [2, 3, 4]


# ---------------------------------------------------------------------------
# the sampling loop against a scripted bundle


class ScriptedBundle:
    """Bundle whose per-step displacement follows a given script.

    The velocity is a constant field sized so step k moves the latent by
    exactly ``deltas[k]`` under both distance metrics, which exercises
    schedules without a trained model.
    """

    def __init__(self, deltas, attn_cfg, steps, default_count=1):
        self.deltas = [float(d) for d in deltas]
        self.attn_cfg = attn_cfg
        self.steps = int(steps)
        self.default_count = int(default_count)
        self._step = 0

    def velocity(self, x, t, count, labels):
        if self._step >= len(self.deltas):
            raise UsageError(f"scripted bundle ran out of deltas at step {self._step}")
        magnitude = self.deltas[self._step] * self.steps
        self._step += 1
        return np.full_like(x, magnitude)

    def step_flops(self, count):
        return mediator_flops(self.attn_cfg, count)


def run_one(bundle, x_init, steps, schedule=None):
    """The lockstep sampler on one start under one schedule."""
    ((run,),) = run_scheduled_sampling(bundle, [x_init], [0], steps, [schedule])
    return run.result()


def scripted(deltas, steps, default_count=1):
    cfg = AttentionConfig.square(16, 8, 2)
    return ScriptedBundle(deltas, cfg, steps=steps, default_count=default_count)


def test_single_level_constant_count_and_flops():
    bundle = scripted([5.0, 4.0, 3.0, 2.0], steps=4, default_count=4)
    schedule = MediatorSchedule(4, ())
    x, trace, flops = run_one(bundle, np.zeros((16, 8)), 4, schedule)
    assert trace.selected == [4, 4, 4, 4]
    per_step = bundle.step_flops(4)
    assert flops == per_step.times(4)
    assert trace.delta0 == 5.0
    assert x.shape == (16, 8)


def test_engineered_breakpoint_lands_at_next_step():
    # Delta crosses at step 2 (value 2.0 <= 0.5 * 6.0), so the larger
    # count is first used on step 3.
    bundle = scripted([6.0, 4.0, 2.0, 2.0, 2.0], steps=5)
    schedule = MediatorSchedule(1, (ScheduleLevel(0.5, 4),))
    _, trace, _ = run_one(bundle, np.zeros((16, 8)), 5, schedule)
    assert trace.selected == [1, 1, 1, 4, 4]
    assert trace.step_macs[2] < trace.step_macs[3]


def test_zero_threshold_never_switches():
    bundle = scripted([5.0, 0.1, 0.01, 0.001], steps=4)
    schedule = MediatorSchedule(1, (ScheduleLevel(0.0, 4),))
    _, trace, _ = run_one(bundle, np.zeros((16, 8)), 4, schedule)
    assert trace.selected == [1, 1, 1, 1]


def test_zero_threshold_fires_on_exact_standstill():
    bundle = scripted([5.0, 0.0, 1.0], steps=3)
    schedule = MediatorSchedule(1, (ScheduleLevel(0.0, 4),))
    _, trace, _ = run_one(bundle, np.zeros((16, 8)), 3, schedule)
    assert trace.selected == [1, 1, 4]


def test_frozen_first_step_stays_at_start_level():
    bundle = scripted([0.0, 0.0, 0.0], steps=3, default_count=2)
    schedule = MediatorSchedule(2, (ScheduleLevel(0.5, 8),))
    x, trace, _ = run_one(bundle, np.ones((16, 8)), 3, schedule)
    assert trace.delta0 == 0.0
    assert trace.selected == [2, 2, 2]
    assert np.array_equal(x, np.ones((16, 8)))


def test_no_schedule_uses_bundle_default():
    bundle = scripted([1.0, 1.0], steps=2, default_count=16)
    _, trace, _ = run_one(bundle, np.zeros((16, 8)), 2)
    assert trace.selected == [16, 16]
    assert trace.metric == "l1"
    # An unscheduled run is the one-level schedule of the default count,
    # on a bundle whose velocity depends on the count.
    x0 = np.linspace(-1.0, 1.0, 16 * 8).reshape(16, 8)
    x, trace, flops = run_one(FieldBundle(), x0, 4)
    x_one, trace_one, flops_one = run_one(FieldBundle(), x0, 4, MediatorSchedule(1))
    assert x.tobytes() == x_one.tobytes()
    assert trace == trace_one and trace.to_csv() == trace_one.to_csv()
    assert flops == flops_one


def test_sampling_rejects_bad_step_count():
    bundle = scripted([1.0], steps=1)
    with pytest.raises(DomainError):
        run_one(bundle, np.zeros((16, 8)), 0)


def test_trace_csv_columns():
    bundle = scripted([2.0, 1.0], steps=2, default_count=4)
    _, trace, _ = run_one(bundle, np.zeros((16, 8)), 2)
    lines = trace.to_csv().strip().split("\n")
    assert lines[0] == "step,delta,n_t,step_macs"
    step, delta, n_t, macs = lines[1].split(",")
    assert step == "0" and float(delta) == 2.0 and n_t == "4"
    assert int(macs) == bundle.step_flops(4).total_macs


class FieldBundle:
    """Bundle whose velocity is a fixed function of each row, its label
    and the count, so a row's step never depends on its batch. It
    records the rows of every call, and raises for the rows of label
    ``fail_label`` at count ``fail_count``."""

    default_count = 1

    def __init__(self, fail_label=None, fail_count=None):
        self.attn_cfg = AttentionConfig.square(16, 8, 2)
        self.fail_label, self.fail_count = fail_label, fail_count
        self.calls = []

    def velocity(self, x, t, count, labels):
        self.calls.append((count, len(x)))
        if count == self.fail_count and self.fail_label in labels:
            raise NumericError(f"no velocity for label {self.fail_label}")
        return x * (0.5 + 0.02 * count) + 0.1 * np.asarray(labels, dtype=np.float64)[:, None, None]

    def step_flops(self, count):
        return mediator_flops(self.attn_cfg, count)


LOCKSTEP_SCHEDULES = [
    None,
    MediatorSchedule(1, (ScheduleLevel(0.9, 4), ScheduleLevel(0.5, 16))),
    MediatorSchedule(1, (ScheduleLevel(0.8, 16),), metric="l2"),
    MediatorSchedule(4, (ScheduleLevel(0.6, 16),)),
]


def lockstep(bundle, steps=5):
    starts = [np.random.default_rng(s).standard_normal((16, 8)) for s in range(2)]
    return run_scheduled_sampling(bundle, starts, [0, 1], steps, LOCKSTEP_SCHEDULES), starts


def test_lockstep_runs_equal_their_single_runs_and_share_steps():
    bundle = FieldBundle()
    grid, starts = lockstep(bundle)
    assert len(grid) == len(LOCKSTEP_SCHEDULES) and all(len(row) == 2 for row in grid)
    nodes = set()
    for schedule, row in zip(LOCKSTEP_SCHEDULES, grid):
        for s, run in enumerate(row):
            x, trace, flops = run.result()
            alone_x, alone_trace, alone_flops = run_one_start(starts[s], s, schedule)
            assert np.array_equal(x, alone_x)
            assert not x.flags.writeable
            assert (trace, flops) == (alone_trace, alone_flops)
            nodes |= {(s, tuple(trace.selected[:k])) for k in range(1, 6)}
    assert len(set(tuple(run.trace.selected) for row in grid for run in row)) > 2
    # One row per distinct (start, counts so far) node, whatever the metric;
    # each step makes one call per count, of at most MAX_BATCH rows.
    assert sum(rows for _, rows in bundle.calls) == len(nodes) < 5 * 2 * len(LOCKSTEP_SCHEDULES)
    assert max(rows for _, rows in bundle.calls) <= MAX_BATCH


def run_one_start(x_init, label, schedule):
    ((run,),) = run_scheduled_sampling(FieldBundle(), [x_init], [label], 5, [schedule])
    return run.result()


def test_a_failing_row_stops_only_the_runs_through_it():
    clean, _ = lockstep(FieldBundle())
    broken, _ = lockstep(FieldBundle(fail_label=1, fail_count=4))
    failed = 0
    for clean_row, broken_row in zip(clean, broken):
        for s, (good, run) in enumerate(zip(clean_row, broken_row)):
            if s == 1 and 4 in good.trace.selected:
                failed += 1
                assert isinstance(run.error, NumericError)
                assert str(run.error) == "no velocity for label 1"
                with pytest.raises(NumericError):
                    run.result()
            else:
                assert run.error is None
                assert np.array_equal(run.latent, good.latent)
                assert (run.trace, run.flops) == (good.trace, good.flops)
    assert failed == 2


def test_a_diverging_row_fails_alone():
    class Diverging(FieldBundle):
        def velocity(self, x, t, count, labels):
            v = super().velocity(x, t, count, labels)
            v[np.asarray(labels) == 1] = np.inf
            return v

    grid, _ = lockstep(Diverging(), steps=2)
    for row in grid:
        assert row[0].error is None
        assert isinstance(row[1].error, NumericError)
        assert str(row[1].error) == "sampling diverged at step 0"


def test_lockstep_needs_one_label_per_start():
    with pytest.raises(DimensionError):
        run_scheduled_sampling(FieldBundle(), [np.zeros((16, 8))] * 2, [0], 2)


def test_latent_trace_defaults():
    trace = LatentTrace()
    assert trace.deltas == [] and trace.selected == [] and trace.delta0 == 0.0


# ---------------------------------------------------------------------------
# threshold grid


def test_grid_has_77_points_and_stable_order():
    points = threshold_grid()
    assert len(points) == 77
    assert [p.index for p in points] == list(range(77))
    pairs = [p for p in points if p.rho1 is not None]
    solos = [p for p in points if p.rho1 is None]
    assert len(pairs) == 66 and len(solos) == 11
    assert all(p.rho1 <= p.rho0 for p in pairs)


def test_grid_tie_points_collapse_to_a_jump_schedule():
    points = threshold_grid(rho_values=(0.5,), counts=(4, 16, 64))
    tie = points[0]
    assert tie.rho0 == tie.rho1 == 0.5
    assert tie.schedule.levels == (ScheduleLevel(0.5, 64),)
    # and the solo point keeps the two-level form
    solo = points[1]
    assert solo.rho1 is None
    assert solo.schedule.levels == (ScheduleLevel(0.5, 16),)


def test_grid_two_metrics_doubles_the_count():
    points = threshold_grid(metrics=("l1", "l2"))
    assert len(points) == 154
    assert sum(1 for p in points if p.metric == "l2") == 77


def test_grid_without_two_level_block():
    points = threshold_grid(two_level=False)
    assert len(points) == 66


def test_grid_needs_enough_counts():
    with pytest.raises(ConfigError):
        threshold_grid(counts=(4,))
    # two counts: no pair block, only the solo sweep
    points = threshold_grid(counts=(4, 16))
    assert len(points) == 11
    assert all(p.rho1 is None for p in points)


# ---------------------------------------------------------------------------
# sweep execution


def test_sweep_single_point_passthrough():
    points = threshold_grid(rho_values=(0.5,), counts=(4, 16), two_level=True)
    results, failures = sweep_thresholds(points, lambda p: (1.5, 2.5))
    assert failures == []
    assert results == [(points[0], 1.5, 2.5)]


def test_sweep_parallel_matches_serial():
    points = threshold_grid(rho_values=(1.0, 0.6, 0.2))

    def evaluate(point):
        return float(point.index) * 0.5, float((point.index * 7) % 5)

    serial, _ = sweep_thresholds(points, evaluate, workers=1)
    parallel, _ = sweep_thresholds(points, evaluate, workers=4)
    assert serial == parallel


def test_sweep_isolates_failures():
    points = threshold_grid(rho_values=(1.0, 0.5))

    def evaluate(point):
        if point.index == 1:
            raise ValueError("boom")
        return 1.0, float(point.index)

    results, failures = sweep_thresholds(points, evaluate, workers=2)
    assert len(failures) == 1
    assert failures[0][0].index == 1
    assert isinstance(failures[0][1], ValueError)
    assert [point.index for point, _, _ in results] == [
        p.index for p in points if p.index != 1
    ]


# ---------------------------------------------------------------------------
# envelope


def test_envelope_single_point():
    assert pareto_envelope([(1.0, 1.0)]) == [0]
    assert pareto_envelope([]) == []


def test_envelope_hand_case():
    kept = pareto_envelope([(1.0, 5.0), (2.0, 3.0), (3.0, 4.0)])
    assert kept == [0, 1]


def test_envelope_with_ids_and_duplicates():
    points = [(1.0, 5.0, "a"), (1.0, 5.0, "b"), (2.0, 3.0, "c")]
    assert pareto_envelope(points) == ["a", "c"]


def test_envelope_rejects_non_finite():
    with pytest.raises(NumericError):
        pareto_envelope([(1.0, float("nan"))])


def test_envelope_against_brute_force_dominance():
    rng = np.random.default_rng(82)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        pts = [tuple(rng.integers(0, 8, size=2).astype(float)) for _ in range(n)]
        kept = pareto_envelope(pts)
        seen = set()
        want = []
        for i, (c, q) in enumerate(pts):
            dominated = any(
                (oc <= c and oq <= q and (oc < c or oq < q))
                for j, (oc, oq) in enumerate(pts)
                if j != i
            )
            if not dominated and (c, q) not in seen:
                seen.add((c, q))
                want.append(i)
        want.sort(key=lambda i: pts[i])
        assert kept == want
        costs = [pts[i][0] for i in kept]
        assert costs == sorted(costs)


def test_envelope_contains_extremes():
    rng = np.random.default_rng(83)
    pts = [tuple(rng.uniform(0, 10, size=2)) for _ in range(40)]
    kept = pareto_envelope(pts)
    min_cost = min(range(40), key=lambda i: (pts[i][0], pts[i][1]))
    min_quality = min(range(40), key=lambda i: (pts[i][1], pts[i][0]))
    assert min_cost in kept
    assert min_quality in kept
