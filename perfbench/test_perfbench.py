"""Self-tests of the benchmark's own arithmetic and tracing.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import sys
import types
from pathlib import Path

import pytest

import reference
import run
import stats
import tracing

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src/ on the path)


def test_tail_percentile_leaves_ten_samples_beyond():
    values = list(range(1, 201))  # 200 samples: rank 190 leaves 10 beyond
    assert stats.tail_percentile(values, 95) == 190
    assert stats.tail_percentile(list(reversed(values)), 95) == 190
    with pytest.raises(ValueError, match="leaves 9 beyond"):
        stats.tail_percentile(list(range(199)), 95)
    with pytest.raises(ValueError):
        stats.tail_percentile([1.0] * 30, 100)


def test_tail_percentile_of_the_regulate_cycle():
    warm = [float(v) for v in range(436)]  # 4 runs x 109 warm steps
    p95 = stats.tail_percentile(warm, 95)
    assert sum(v > p95 for v in warm) >= stats.MIN_BEYOND


def test_spread_is_interquartile_share_of_median():
    assert stats.spread([10.0] * 10) == 0.0
    values = [9.0, 10.0, 10.0, 10.0, 11.0, 9.0, 10.0, 10.0, 10.0, 11.0]
    q1, _, q3 = __import__("statistics").quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 10.0)


def span(name, start, end, parent=-1, run_id=0):
    return [name, start, end, parent, run_id]


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        span("control.solve_step", 0.0, 10.0),
        span("qpsolve.update", 1.0, 3.0, parent=0),
        span("qpsolve.problem", 2.0, 4.0, parent=0),  # overlaps the sibling: union is 1..4
        span("qpsolve.solve", 5.0, 6.0, parent=0),
        span("qpsolve.lu_factor", 5.2, 5.4, parent=3),  # grandchild: not subtracted from 0
        span("lifting.lift", 9.5, 11.0, parent=0),  # clipped to the parent's end
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
    assert own[1] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0 - 0.2)
    layers = tracing.layer_self_times(spans)
    assert layers["control"] == pytest.approx(own[0])
    assert layers["qpsolve"] == pytest.approx(2.0 + 2.0 + 0.8 + 0.2)


def test_inclusive_time_counts_outermost_span_of_a_name():
    spans = [
        span("metrics.score", 0.0, 4.0),
        span("metrics.score", 1.0, 2.0, parent=0),
        span("metrics.score", 5.0, 6.0),
    ]
    assert tracing.inclusive_times(spans)["metrics.score"] == pytest.approx(5.0)


def test_tracer_wraps_every_binding_and_restores():
    def helper(x):
        return x + 1

    mod_a = types.ModuleType("mod_a")
    mod_b = types.ModuleType("mod_b")
    mod_a.helper = mod_b.alias = helper

    class Base:
        def step(self, x):
            return mod_a.helper(x) * 2

    class Child(Base):
        pass

    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.patch(Child, "step", "control.step")
    tracer.patch_function(helper, "lifting.helper", [mod_a, mod_b])
    tracer.run = 3
    assert Child().step(1) == 4
    assert mod_b.alias(1) == 2
    assert tracer.counts == {"control.step": 1, "lifting.helper": 2}
    outer, inner, alone = tracer.spans
    assert outer[0] == "control.step" and outer[3] == -1 and outer[4] == 3
    assert inner[0] == "lifting.helper" and inner[3] == 0
    assert alone[3] == -1
    tracer.restore()
    assert "step" not in vars(Child)
    assert mod_a.helper is helper and mod_b.alias is helper


def window(units, cycles):
    return workloads.Window(units, cycles, 0.0, 0.0, [], set())


def steps_at(start, times, statuses=None, kind="DKPC", seconds=1.0):
    """A logged run whose steps are 20 ms apart from ``start``; 0.5 s of it is outside its steps."""
    mids = [start + 0.02 * j for j in range(len(times))]
    statuses = statuses or ["solved"] * len(times)
    return workloads.RunSteps(kind, times, statuses, mids, seconds, start, start + seconds + 0.5)


def reference_at(speeds):
    """A reference whose passes, 0.1 s apart, take ``speeds[t0]`` seconds from ``t0`` on."""
    ref = reference.Reference()
    for t0, pass_s in speeds.items():
        ref.times += [t0 + 0.1 * k for k in range(200)]
        ref.passes += [pass_s] * 200
    return ref


def test_reference_takes_the_median_pass_near_an_interval():
    now = [0.0]
    ref = reference.Reference(clock=lambda: now[0])
    for now[0] in (0.0, 0.03, 0.06):
        ref.tick()
    assert ref.times == [0.0, 0.06]  # a pass is due every EVERY_S
    ref.times = [0.0, 0.1, 0.2, 0.3, 5.0]
    ref.passes = [0.002, 0.010, 0.002, 0.002, 0.004]
    assert ref.pass_time(0.1) == 0.002  # a slow pass does not move the median
    assert ref.scale(0.1) == pytest.approx(reference.NOMINAL_S / 0.002)
    assert ref.pass_time(3.0) == pytest.approx(0.003)  # nothing near: the closest on either side
    assert ref.pass_time(4.9, 5.0) == 0.004


def test_step_summary_rescales_each_step_and_takes_the_best_repeat():
    warm = 109
    log = workloads.StepLog(reference_at({0.0: reference.NOMINAL_S, 100.0: 2 * reference.NOMINAL_S}))
    log.runs = [  # the same two units twice; the second cycle ran at half speed
        steps_at(0.0, [0.5] + [0.01] * warm, seconds=2.0),
        steps_at(2.5, [0.3] + [0.02] * warm, kind="DeePC", seconds=3.0),
        steps_at(100.0, [1.0] + [0.02] * warm, seconds=4.0),
        steps_at(104.5, [0.6] + [0.04] * warm, kind="DeePC", seconds=6.0),
    ]
    cycles = window(2, [(0.0, 6.5), (100.0, 112.0)])  # 0.5 and 1.0 s outside the runs
    out = log.summary(cycles, warm + 1)
    assert out["step_ms_p50"] == pytest.approx(15.0)  # 109 steps of 10 ms, 109 of 20 ms
    assert out["step_ms_p95"] == pytest.approx(20.0)
    assert out["cold_step_ms"] == pytest.approx(1e3 * (0.5 + 0.3) / 2)
    assert out["runs_per_s"] == pytest.approx(2 / (2.0 + 3.0 + 0.5))
    assert log.summary(cycles, warm + 1, rescale=False) == out  # as timed, the fast cycle is the best
    log.runs[3].times[1:] = [0.001] * warm  # the slow cycle's DeePC steps now time faster
    assert log.summary(cycles, warm + 1, rescale=False)["step_ms_p50"] == pytest.approx((1.0 + 10.0) / 2)
    assert log.summary(cycles, warm + 1)["step_ms_p50"] == pytest.approx((0.5 + 10.0) / 2)


def test_step_summary_counts_unsolved_short_missing_and_gated_runs_as_failed():
    steps = 110
    log = workloads.StepLog()
    log.runs = [
        steps_at(0.0, [0.5] + [0.01] * 109),
        steps_at(3.0, [0.3] + [0.02] * 109, ["solved"] * 109 + ["max-iterations"], "DeePC"),
        steps_at(6.0, [0.4] + [0.03] * 109),
        steps_at(9.0, [0.6, 0.01], kind="DeePC"),  # ended early
    ]
    out = log.summary(window(2, [(0.0, 6.0), (6.0, 12.0)]), steps)
    assert out["attempted"] == 4 * steps
    assert out["failed"] == 1 + steps  # one unsolved step, one short run
    gated = log.summary(window(2, [(0.0, 6.0), (6.0, 12.0)]), steps, bad_runs={0})
    assert gated["failed"] == out["failed"] + steps  # a run failing its gate fails whole
    missing = log.summary(window(2, [(0.0, 6.0), (6.0, 12.0), (12.0, 18.0)]), steps)
    assert missing["attempted"] == 6 * steps
    assert missing["failed"] == out["failed"] + 2 * steps  # runs that never started


def test_step_summary_needs_ten_samples_beyond_p95():
    log = workloads.StepLog()
    log.runs = [steps_at(0.0, [0.5] + [0.01] * 19)]
    with pytest.raises(ValueError, match="beyond"):
        log.summary(window(1, [(0.0, 1.0)]), 20)


def test_step_log_installs_and_restores_its_wrappers():
    from dkpc import cli, control, netsim

    originals = (control.run_closed_loop, cli.run_closed_loop, netsim.NetworkPlant.step)
    log = workloads.StepLog(reference.Reference())
    log.install()
    try:
        assert "solve_step" in vars(control.DkpcController)
        assert cli.run_closed_loop is control.run_closed_loop is not originals[0]
        assert netsim.NetworkPlant.step is not originals[2]
    finally:
        log.restore()
    assert "solve_step" not in vars(control.DkpcController)
    assert (control.run_closed_loop, cli.run_closed_loop, netsim.NetworkPlant.step) == originals


def test_window_repeats_cycles_at_least_the_minimum_then_while_time_is_left():
    assert not workloads._more_cycles([(0.0, 10.0)], None, 2)
    assert workloads._more_cycles([(0.0, 50.0)], 25.0, 2)
    assert workloads._more_cycles([(0.0, 10.0), (10.0, 20.0)], 30.0, 2)  # a third ends at 30 s
    assert not workloads._more_cycles([(0.0, 10.0), (10.0, 20.0)], 29.0, 2)
    assert workloads._more_cycles([(0.0, 10.0), (10.0, 20.0)], 29.0, 3)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    end_to_end = set(run.END_TO_END)
    per_layer = set(run.per_layer_units())
    stats.check_metric_names(end_to_end | per_layer)
    with pytest.raises(ValueError):
        stats.check_metric_names(["step ms"])
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"] for m in spec["end_to_end"]} == end_to_end
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def fake_trace(u, y, diverged_at=None):
    return types.SimpleNamespace(u=u, y=y, steps=len(y), diverged_at=diverged_at)


def test_closed_loop_gates_reject_bad_runs():
    import numpy as np

    regulate = workloads.Regulate(seed=0)
    unit = ("DKPC", regulate.disturbances[0])
    steps = workloads.SIM_STEPS
    decaying = np.where(np.arange(steps)[:, None] < steps - 20, 1.0, 0.05) * np.ones((steps, 10))
    assert regulate.gate(unit, fake_trace(np.zeros((steps, 10)), decaying)) == []
    slow_decay = np.where(np.arange(steps)[:, None] < steps - 20, 1.0, 0.2) * np.ones((steps, 10))
    assert "exceeds" in regulate.gate(unit, fake_trace(np.zeros((steps, 10)), slow_decay))[0]
    too_big = np.full((steps, 10), 1.5)
    assert "input left" in regulate.gate(unit, fake_trace(too_big, decaying))[0]
    assert "diverged" in regulate.gate(unit, fake_trace(np.zeros((5, 10)), decaying[:5], 4))[0]
    assert "steps recorded" in regulate.gate(unit, fake_trace(np.zeros((5, 10)), decaying[:5]))[0]

    assert len(regulate.cycle()) == 4
    assert sorted(map(str, workloads.Regulate(seed=1).cycle())) == sorted(map(str, regulate.cycle()))


def test_sweep_gate_rejects_missing_rows_and_files(tmp_path):
    from dkpc.metrics import DKPC, RunMetrics

    sweep = workloads.Sweep(seed=0, workdir=tmp_path)
    row = (RunMetrics(1.0, 1.0, (1.0, 1.0, 1.0), DKPC), "ok")
    errors = sweep.gate([row] * sweep.expected_rows)
    assert len(errors) == 2 and all("did not write" in e for e in errors)
    sweep.out.mkdir(parents=True)
    for name in ("frontier.csv", "winners.csv"):
        (sweep.out / name).write_text("")
    assert sweep.gate([row] * sweep.expected_rows) == []
    assert sweep.gate([row] * (sweep.expected_rows - 1) + [(row[0], "ok(fallbacks=2)")]) == []
    bad = sweep.gate([row] * (sweep.expected_rows - 1) + [(row[0], "diverged@3")])
    assert bad == ["sweep: 1 rows not ok: ['diverged@3']"]
    assert "rows, expected" in sweep.gate([row])[0]
