import functools
import math
import tracemalloc

import pytest
from hypothesis import given, settings

import ringsync as rs
import ringsync.scheduler as sch
from ringsync.errors import InvalidInstanceError
from ringsync.metrics import _gossip_scan
from ringsync.commgraph import dfs_forest
from ringsync.simulator import SimConfig, resolve_root, run
from ringsync.rng import Rng
from ringsync.trace import CHUNK_ROWS, SWITCH, Strategy, parse_strategy
from conftest import path_grid, reference_occupancy_check, trace_rows
from test_gossip import scheduled, simulations
from test_trace_table import reference_abandoned


def grid_setup(period=1.0):
    inst = rs.grid(3, 3)
    g = inst.graph()
    sched = rs.schedule_opposite_directions(g, period=period)
    return inst, g, sched


def test_meetings_once_per_edge_per_period():
    inst, g, sched = grid_setup()
    tr = run(inst, sched, SimConfig(horizon=10.0))
    meetings = trace_rows(tr, "meeting")
    assert len(meetings) == len(g.edges) * 10
    per_edge = {}
    for e in meetings:
        per_edge.setdefault(tuple(sorted(e["trajs"])), []).append(e["time"])
    for edge, times in per_edge.items():
        assert len(times) == 10
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(abs(gap - 1.0) < 1e-9 for gap in gaps)


def test_trace_time_ordered_and_occupancy_holds():
    inst, g, sched = grid_setup()
    tr = run(inst, sched, SimConfig(horizon=5.0, failures=[(4, 2.0)]))
    times = list(tr.time)
    assert times == sorted(times)
    assert reference_occupancy_check(tr, trace_rows(tr))
    assert tr.survivors == [a for a in range(9) if a != 4]


def test_failure_stops_participation():
    inst, g, sched = grid_setup()
    tr = run(inst, sched, SimConfig(horizon=5.0, strategy=Strategy("rand", p=0.0),
                                    failures=[(0, 1.5)]))
    assert not [e for e in trace_rows(tr) if 0 in e["agents"] and e["time"] > 1.5
                and e["kind"] not in ("failure",)]


def test_rand_zero_never_switches_rand_one_matches_alw():
    inst, g, sched = grid_setup()
    base = SimConfig(horizon=8.0, strategy=Strategy("rand", p=0.0),
                     failures=[(4, 0.0)])
    tr0 = run(inst, sched, base)
    assert not tr0.rows_of("switch")
    tr1 = run(inst, sched, SimConfig(horizon=8.0, strategy=Strategy("rand", p=1.0),
                                     failures=[(4, 0.0)]))
    tra = run(inst, sched, SimConfig(horizon=8.0, strategy=Strategy("alw"),
                                     failures=[(4, 0.0)]))
    key = lambda tr: [(e["time"], e["kind"], e["agents"], e["trajs"])
                      for e in trace_rows(tr, "switch", "meeting")]
    assert key(tr1) == key(tra)


def test_dfs_switches_only_on_tree_edges():
    inst, g, sched = grid_setup()
    tree = set(dfs_forest(g, 0).tree_edges())
    tr = run(inst, sched, SimConfig(horizon=20.0, strategy=Strategy("dfs", root=0),
                                    failures=[(4, 0.0), (1, 0.0)]))
    for e in trace_rows(tr, "switch"):
        assert tuple(sorted(e["trajs"])) in tree
    assert reference_occupancy_check(tr, trace_rows(tr))


def test_switch_adopts_target_and_counts_tours():
    # single survivor pair on a 2-chain: failing one end lets the other roam
    from ringsync.geometry import Circle, Point2
    inst = rs.Instance(mode="circle",
                       circles=[Circle(Point2(0, 0)), Circle(Point2(2.4, 0))],
                       comm_range=0.5)
    g = inst.graph()
    sched = rs.schedule_opposite_directions(g, period=1.0)
    tr = run(inst, sched, SimConfig(horizon=6.0, strategy=Strategy("alw"),
                                    failures=[(1, 0.0)]))
    switches = trace_rows(tr, "switch")
    assert switches and reference_occupancy_check(tr, trace_rows(tr))
    # agent 0 bounces between the two trajectories every period
    trajs = [e["trajs"][1] for e in switches]
    assert trajs == [1, 0] * (len(trajs) // 2) + ([1] if len(trajs) % 2 else [])


def test_gossip_eccentricity_bound():
    inst, g, sched = grid_setup()
    tr = run(inst, sched, SimConfig(horizon=20.0))
    emits, latest = _gossip_scan(tr, list(range(tr.n)))
    assert len(latest) == len(emits) > 0 and all(t < math.inf for t in latest)
    # grid diameter is 4 hops; one extra period covers the wait to first hop
    for t0, t in zip(emits.values(), latest):
        assert t - t0 <= (4 + 1) * 1.0 + 1e-9


def test_emission_window_and_rate():
    inst, g, sched = grid_setup()
    tr = run(inst, sched, SimConfig(horizon=10.0))
    emits = trace_rows(tr, "emit")
    assert all(e["time"] <= 6.0 for e in emits)   # window [0, horizon/2] per round
    per_agent = {}
    for e in emits:
        per_agent[e["agents"][0]] = per_agent.get(e["agents"][0], 0) + 1
    assert set(per_agent.values()) == {6}      # rounds 0..5 at period 1


def test_tour_complete_counts():
    inst, g, sched = grid_setup()
    tr = run(inst, sched, SimConfig(horizon=10.0))
    per_agent = {}
    for e in trace_rows(tr, "tour-complete"):
        per_agent[e["agents"][0]] = per_agent.get(e["agents"][0], 0) + 1
    assert set(per_agent.values()) == {10}


def reference_tours(trace):
    """(time, traj, agent) of every tour, by a replay of the failure and
    switch rows: an agent that entered a trajectory at t0 and left it at t1
    (or holds it at the horizon) completes tours at t0 + k*T for every
    k >= 1 with t0 + k*T <= t1 + 1e-9*T."""
    T = trace.period
    holds = {a: (a, 0.0) for a in range(trace.n)}     # agent -> (traj, entered)
    stays = []
    for ev in trace_rows(trace, "failure", "switch"):
        agent = ev["agents"][0]
        traj, entered = holds.pop(agent)
        stays.append((agent, traj, entered, ev["time"]))
        if ev["kind"] == "switch":
            holds[agent] = (ev["trajs"][1], ev["time"])
    stays += [(a, traj, entered, trace.horizon) for a, (traj, entered) in holds.items()]
    tours = []
    for agent, traj, entered, left in stays:
        k = 1
        while entered + k * T <= left + 1e-9 * T:
            tours.append((entered + k * T, traj, agent))
            k += 1
    return sorted(tours)


def tour_rows(trace):
    return [(e["time"], e["trajs"][0], e["agents"][0])
            for e in trace_rows(trace, "tour-complete")]


@given(simulations())
@settings(max_examples=150, deadline=None)
def test_tour_rows_match_stay_replay(trace):
    assert tour_rows(trace) == reference_tours(trace)


def test_tour_rows_of_a_bouncing_agent_match_stay_replay():
    # The survivor of a two-circle layout switches at every link instant, so
    # each stay lasts one period; on some layouts (seeds 1, 2 and 15 among
    # them) its tour lands a rounding error after the switch that ends it.
    for seed in range(31):
        inst, g, sched = scheduled("random", 2, seed)
        trace = run(inst, sched, SimConfig(horizon=20.0, failures=[(0, 0.0)]), graph=g)
        assert tour_rows(trace) == reference_tours(trace), seed


@functools.cache
def chunk_flush_trace(strategy):
    """Random 60 with a fifth of its agents failed at t=0, so the survivors
    switch hundreds of times while `run` flushes its rows to the columns."""
    inst, g, sched = scheduled("random", 60, 0)
    failures = [(a, 0.0) for a in Rng(0).choice(60, 12)]
    return run(inst, sched, SimConfig(horizon=60.0, strategy=parse_strategy(strategy),
                                      failures=failures), graph=g)


@pytest.mark.parametrize("strategy", ["rand:0.5", "alw"])
def test_tour_rows_match_stay_replay_across_chunk_flushes(strategy):
    trace = chunk_flush_trace(strategy)
    assert len(trace.time) > 4 * CHUNK_ROWS
    assert trace.kind.count(SWITCH) > 100
    assert tour_rows(trace) == reference_tours(trace)


@pytest.mark.parametrize("strategy", ["rand:0.5", "alw"])
def test_abandoned_time_matches_interval_reference_across_chunk_flushes(strategy):
    trace = chunk_flush_trace(strategy)
    rows = trace_rows(trace)
    assert reference_occupancy_check(trace, rows)
    assert repr(rs.abandoned_time(trace)) == repr(reference_abandoned(trace, rows))


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, "3", True, False, None])
def test_sim_config_seed_must_be_a_non_negative_int(seed):
    with pytest.raises(InvalidInstanceError, match="seed"):
        SimConfig(horizon=1.0, seed=seed)


def test_sim_config_takes_any_non_negative_int_seed():
    assert SimConfig(horizon=1.0, seed=2**70).seed == 2**70


def test_determinism_per_seed():
    inst, g, sched = grid_setup()
    cfg = dict(horizon=10.0, strategy=Strategy("rand", p=0.5),
               failures=[(4, 0.0)])
    a = run(inst, sched, SimConfig(seed=3, **cfg))
    b = run(inst, sched, SimConfig(seed=3, **cfg))
    c = run(inst, sched, SimConfig(seed=4, **cfg))
    as_tuples = lambda tr: [(e["time"], e["kind"], e["agents"], e["trajs"], e["msg"])
                            for e in trace_rows(tr)]
    assert as_tuples(a) == as_tuples(b)
    assert as_tuples(a) != as_tuples(c)


def test_occupancy_check_detects_corruption():
    inst, g, sched = grid_setup()
    tr = run(inst, sched, SimConfig(horizon=8.0, strategy=Strategy("alw"),
                                    failures=[(4, 0.0)]))
    assert reference_occupancy_check(tr, trace_rows(tr))
    first = tr.rows_of("switch")[0]
    tr.trajs[2 * first + 1] = tr.trajs[2 * first]  # switch onto itself
    assert not reference_occupancy_check(tr, trace_rows(tr))


def test_parse_strategy():
    assert parse_strategy("alw").kind == "alw"
    s = parse_strategy("rand:0.25")
    assert s.kind == "rand" and s.p == 0.25
    s = parse_strategy("dfs:topleft")
    assert s.kind == "dfs" and s.root == "topleft"
    assert parse_strategy("dfs:3").root == 3
    with pytest.raises(Exception):
        parse_strategy("walk")
    with pytest.raises(Exception):
        parse_strategy("rand:1.5")
    for text in (5, None, ["alw"]):
        with pytest.raises(InvalidInstanceError, match="unknown strategy"):
            parse_strategy(text)
    with pytest.raises(InvalidInstanceError, match="unknown strategy 'bogus'"):
        Strategy("bogus")


def test_resolve_root_topleft():
    inst, _, sched = grid_setup()
    assert resolve_root(Strategy("dfs", root="topleft"), inst) == 0
    assert resolve_root(Strategy("dfs", root=5), inst) == 5
    # run's header names the resolved root, as the CLI's traces do
    tr = run(inst, sched, SimConfig(horizon=2.0, strategy=Strategy("dfs", root="topleft")))
    assert tr.strategy == "dfs:0"


def test_invalid_config_rejected():
    with pytest.raises(Exception):
        SimConfig(horizon=-1.0)
    with pytest.raises(Exception):
        SimConfig(horizon=10.0, failures=[(0, 20.0)])


def test_dfs_on_long_chain():
    # 1,500 nodes is deeper than the interpreter's default recursion limit;
    # the chain has no geometry, so building it is O(n).
    from ringsync.commgraph import CommGraph, EdgeData
    n = 1500
    g = CommGraph(n=n, edges={(i, i + 1): EdgeData(beta=0.0, phi={i: 0.0, i + 1: math.pi})
                              for i in range(n - 1)})
    assert dfs_forest(g, 0).tree_edges() == [(i, i + 1) for i in range(n - 1)]
    sched = rs.schedule_opposite_directions(g, period=1.0)
    tr = run(None, sched, SimConfig(horizon=2.0, strategy=Strategy("dfs", root=n - 1),
                                    failures=[(0, 0.0)]), graph=g)
    assert [e["trajs"] for e in trace_rows(tr, "switch")][:1] == [[1, 0]]
    assert reference_occupancy_check(tr, trace_rows(tr))


def test_run_peak_memory_stays_near_its_table():
    # 81,835 rows of a 10x10 grid at period 1 over 300 s, 15 agents failed.
    # run appends its rows to the columns in trace order, about a chunk at
    # a time, so its peak is under 2.5 tables (1.3 here).
    inst = rs.grid(10, 10)
    g = rs.max_synch_subgraph(rs.max_bipartite_subgraph(inst.graph()))
    sched = rs.schedule_opposite_directions(g, period=1.0)
    config = SimConfig(horizon=300.0, strategy=Strategy("rand", p=0.5),
                       failures=[(a, 0.0) for a in range(0, 100, 7)])
    tracemalloc.start()
    try:
        trace = run(inst, sched, config, graph=g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The msg column counts one 8-byte reference per row.
    table = sum(memoryview(getattr(trace, key)).nbytes
                for key in ("time", "kind", "agents", "trajs")) + 8 * len(trace.msg)
    assert len(trace) == 81835
    assert peak < 2.5 * table


def test_run_computes_each_edge_arrivals_once(monkeypatch):
    # verify_schedule's check and the simulator's link epochs are one walk
    inst, g, sched = grid_setup()
    arrival_pair, edges = sch._arrival_pair, []

    def counted(g, s, i, j):
        edges.append((i, j))
        return arrival_pair(g, s, i, j)
    monkeypatch.setattr(sch, "_arrival_pair", counted)
    run(inst, sched, SimConfig(horizon=2.0), graph=g)
    assert edges == g.edge_list()


def test_run_rejects_schedule_that_does_not_fit_the_instance():
    inst = rs.grid(3, 3)
    sched = rs.schedule_opposite_directions(inst.graph(), period=1.0)
    config = SimConfig(horizon=2.0)
    short = rs.Schedule(mode=sched.mode, period=1.0, starts=sched.starts[:-1],
                        dirs=sched.dirs)
    with pytest.raises(InvalidInstanceError, match="8 starts and 9 directions for 9"):
        run(inst, short, config)
    with pytest.raises(InvalidInstanceError, match="9 starts and 9 directions for 16"):
        run(rs.grid(4, 4), sched, config)
    general = rs.Schedule(mode="general", period=1.0, starts=sched.starts,
                          dirs=sched.dirs, epochs=[{} for _ in range(9)])
    with pytest.raises(InvalidInstanceError,
                       match="general schedule does not fit a circle instance"):
        run(inst, general, config)
    paths = path_grid(3, 3)
    with pytest.raises(InvalidInstanceError,
                       match="opposite-directions schedule does not fit a path instance"):
        run(paths, sched, config, graph=inst.graph())
