import math
import os
import subprocess
import sys

import pytest

import ringsync as rs
from ringsync.metrics import INF, TABLE_HEADER, prove_starvation
from ringsync.simulator import SimConfig, run
from ringsync.trace import Strategy
from conftest import event, reference_intervals, trace_of, trace_rows
from test_trace_table import reference_abandoned


def run_preset(name, strategy, seed=0, fail_whites=True):
    inst = rs.preset(name)
    g = inst.graph()
    sched = rs.schedule_opposite_directions(g, period=inst.meta["period"])
    failures = [(w, 0.0) for w in inst.meta["whites"]] if fail_whites else []
    cfg = SimConfig(horizon=inst.meta["horizon"], strategy=strategy,
                    seed=seed, failures=failures)
    return run(inst, sched, cfg)


def grid_trace(horizon=10.0, **kw):
    inst = rs.grid(3, 3)
    sched = rs.schedule_opposite_directions(inst.graph(), period=1.0)
    return run(inst, sched, SimConfig(horizon=horizon, **kw))


def test_two_agent_broadcast_under_one_period():
    from ringsync.geometry import Circle, Point2
    inst = rs.Instance(mode="circle",
                       circles=[Circle(Point2(0, 0)), Circle(Point2(2.4, 0))],
                       comm_range=0.5)
    sched = rs.schedule_opposite_directions(inst.graph(), period=1.0)
    tr = run(inst, sched, SimConfig(horizon=10.0))
    bt = rs.broadcast_time(tr)
    assert 0.0 < bt <= 1.0


def test_broadcast_infinite_when_survivors_disconnected():
    tr = run_preset("fig9a", Strategy("alw"))
    assert rs.broadcast_time(tr) == INF


def test_no_failures_means_no_abandonment():
    tr = grid_trace()
    assert rs.abandoned_time(tr) == 0.0
    st, flagged = rs.starvation_time(tr)
    assert st < 2.0 and not flagged


def test_abandoned_after_total_loss():
    # the marked trajectories go unvisited once the survivor pair also fails
    inst = rs.preset("fig7-starve")
    g = inst.graph()
    sched = rs.schedule_opposite_directions(g, period=80.0)
    failures = [(w, 0.0) for w in inst.meta["whites"]]
    failures += [(a, 2000.0) for a in inst.meta["agents_ab"]]
    tr = run(inst, sched, SimConfig(horizon=4000.0, strategy=Strategy("alw"),
                                    failures=failures))
    assert rs.abandoned_time(tr) >= 2000.0
    intervals = reference_intervals(tr, trace_rows(tr))
    for traj in inst.meta["p_trajs"]:
        assert all(end <= 2000.0 + 1e-9 for _, end, _ in intervals[traj])


def test_abandoned_time_counts_vacancies_from_time_zero():
    # Trajectory 0 is vacated at 0 and 2 starts empty: both count from 0 as
    # the interval reference does.  Agent 1's switch from 0, which it does
    # not hold, vacates nothing, and its switch onto 1, which it holds,
    # ends no vacancy.
    trace = trace_of(
        [event(0.0, "failure", [0]),
         {**event(1.0, "switch", [1]), "trajs": [0, 1]},
         {**event(3.0, "switch", [1]), "trajs": [1, 2]}],
        n=3, period=1.0, horizon=10.0, strategy="alw", seed=0,
        initial_occupancy=[0, 1, None], survivors=[1, 2])
    assert rs.abandoned_time(trace) == 10.0
    assert rs.abandoned_time(trace) == reference_abandoned(trace, trace_rows(trace))


def test_starvation_proven_for_alw():
    tr = run_preset("fig9a", Strategy("alw"))
    starving = prove_starvation(tr)
    assert sorted(starving) == rs.preset("fig9a").meta["survivors"]
    st, flagged = rs.starvation_time(tr)
    assert st == 4000.0 and flagged


def test_starvation_not_claimed_for_nondeterministic_strategy():
    tr = run_preset("fig9a", Strategy("rand", p=0.5), seed=1)
    assert prove_starvation(tr) == []


@pytest.mark.parametrize("name", ["fig9a", "fig9b", "fig11", "fig7-starve"])
def test_starvation_proof_does_not_depend_on_the_units(name):
    # Scaling the period and horizon by a power of two is exact, so the proof
    # and the flags must not move; the boundaries stop at the horizon plus a
    # tolerance relative to the period, not one in seconds.
    inst = rs.preset(name)
    g = inst.graph()
    failures = [(w, 0.0) for w in inst.meta["whites"]]

    def verdict(periods, scale):
        T = inst.meta["period"] * scale
        tr = run(inst, rs.schedule_opposite_directions(g, period=T),
                 SimConfig(horizon=periods * T, strategy=Strategy("alw"), failures=failures))
        rep = rs.report(tr)
        return prove_starvation(tr), rep.starvation_proven, rep.potentially_starving

    for periods in (1, 2, 3, 5):
        assert verdict(periods, 2.0**-40) == verdict(periods, 1.0) == verdict(periods, 2.0**40)


@pytest.mark.parametrize("name", ["fig9a", "fig11", "fig7-starve"])
def test_rand_at_integer_one_proves_starvation(name):
    # p=1 and p=1.0 always switch, so they run the same simulation; only
    # the header differs ("rand:1" against "rand:1.0").
    as_int, as_float = (run_preset(name, Strategy("rand", p=p)) for p in (1, 1.0))
    assert (as_int.strategy, as_float.strategy) == ("rand:1", "rand:1.0")
    assert prove_starvation(as_int) == prove_starvation(as_float) != []


def test_rand_breaks_starvation():
    finite = 0
    for seed in range(10):
        tr = run_preset("fig9a", Strategy("rand", p=0.5), seed=seed)
        st, _ = rs.starvation_time(tr)
        finite += st < 4000.0
    assert finite >= 9


def test_completed_tours_bound():
    tr = grid_trace(horizon=10.0)
    ct = rs.completed_tours(tr)
    assert ct == pytest.approx(10.0)
    assert ct <= 10.0 + 1e-9


def test_report_and_aggregate():
    reports = [rs.report(grid_trace(seed=s)) for s in range(3)]
    agg = rs.aggregate(reports)
    assert agg.abandoned_time == 0.0
    assert agg.completed_tours == pytest.approx(10.0)
    assert len(agg.per_seed) == 3
    # infinity propagates through the average
    starved = rs.report(run_preset("fig9a", Strategy("alw")))
    assert math.isinf(rs.aggregate([starved, reports[0]]).broadcast_time)
    with pytest.raises(ValueError, match="no reports to aggregate"):
        rs.aggregate([])


def test_metrics_recomputation_stable():
    tr = grid_trace(seed=7, strategy=Strategy("rand", p=0.5), failures=[(4, 0.0)])
    r1, r2 = rs.report(tr), rs.report(tr)
    assert (r1.broadcast_time, r1.abandoned_time, r1.starvation_time,
            r1.completed_tours) == \
        (r2.broadcast_time, r2.abandoned_time, r2.starvation_time,
         r2.completed_tours)


def test_render_table_columns():
    starved = rs.report(run_preset("fig9a", Strategy("alw")))
    text = rs.render_table([("alw", starved)])
    assert "Max. ST(s)" in text and "Avg. BT(s)" in text
    assert "inf" in text and "4000.00" in text


def test_dfs_completes_more_tours_than_rand_on_dense_block():
    # on a 3x3 block with six failed agents, restricting switches to a DFS
    # tree keeps the survivors patrolling instead of chasing each other
    from ringsync.geometry import Circle, Point2
    s = 2.4
    cells = [(0, 0), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, -1),
             (1, 1), (0, 1), (-1, 1)]
    inst = rs.Instance(mode="circle",
                       circles=[Circle(Point2(x * s, y * s)) for x, y in cells],
                       comm_range=0.5)
    g = inst.graph()
    sched = rs.schedule_opposite_directions(g, period=80.0)
    failures = [(w, 0.0) for w in (1, 2, 4, 5, 7, 8)]
    dfs = rs.report(run(inst, sched, SimConfig(
        horizon=4000.0, strategy=Strategy("dfs", root=0), failures=failures)))
    rand = rs.aggregate([rs.report(run(inst, sched, SimConfig(
        horizon=4000.0, strategy=Strategy("rand", p=0.5), seed=s_,
        failures=failures))) for s_ in range(10)])
    assert dfs.completed_tours > rand.completed_tours


BAD_HEADER_PROBE = """
import ringsync as rs
for period, horizon in [(0.0, 1.0), (-80.0, 1.0), (float("inf"), 1.0),
                        (float("nan"), 1.0), (1.0, 0.0), (1.0, "x")]:
    try:
        rs.report(rs.Trace(n=1, period=period, horizon=horizon, strategy="alw", seed=0,
                           initial_occupancy=[0], survivors=[0]))
        print("accepted")
    except rs.InvalidInstanceError as exc:
        print(exc)
"""


def test_report_of_trace_with_bad_period_or_horizon_is_error(tmp_path):
    # In a child process under a timeout: a zero period steps report's
    # period boundaries by zero, so a Trace that accepts one never returns.
    src = os.path.dirname(os.path.dirname(rs.__file__))
    proc = subprocess.run([sys.executable, "-c", BAD_HEADER_PROBE], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "trace header period must be finite and positive, got 0.0",
        "trace header period must be finite and positive, got -80.0",
        "trace header period must be finite and positive, got inf",
        "trace header period must be finite and positive, got nan",
        "trace header horizon must be finite and positive, got 0.0",
        "trace header horizon must be finite and positive, got 'x'"]


TINY_PERIOD_PROBE = """
import time
import ringsync as rs
from conftest import event, trace_of
trace = trace_of([event(0.5, "failure", [0])], n=2, period=1e-300, horizon=1.0,
                 strategy="alw", seed=0, initial_occupancy=[0, 1], survivors=[1])
start = time.perf_counter()
print(rs.prove_starvation(trace), rs.report(trace).potentially_starving,
      time.perf_counter() - start)
"""


def test_prove_starvation_on_tiny_period_returns(tmp_path):
    # The last failure lies 5e299 periods in: the proof starts at the first
    # boundary after it instead of stepping to it.  In a child process under a
    # timeout, as a regression would never return.
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(rs.__file__))
    proc = subprocess.run([sys.executable, "-c", TINY_PERIOD_PROBE], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests])),
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    proven, flagged, seconds = proc.stdout.split()
    assert proven == flagged == "[1]" and float(seconds) < 0.5
