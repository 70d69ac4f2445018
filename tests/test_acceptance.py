"""Acceptance gate: one test per stated criterion, at the stated tolerances."""

import itertools
import json
import math
import os
import time

import networkx as nx
import numpy as np
import pytest

import ringsync as rs
from conftest import (CASE_STUDY_CYCLES, cycle_feasible_opposite, cycle_residue,
                      paper_section_plan, phase_errors, reference_occupancy_check,
                      trace_rows)
from ringsync import cli
from ringsync.commgraph import CommGraph, EdgeData, edge_key
from ringsync.errors import NotSynchronizableError
from ringsync.geometry import Circle, Point2
from ringsync.simulator import SimConfig, run
from ringsync.trace import Strategy

TRACES = []  # every trace produced below; re-checked by the occupancy criterion


def _passline(num, text):
    print(f"criterion {num}: PASS — {text}")


# -- 1. scheduler soundness on 200 generated instances ------------------------

def test_criterion_1_scheduler_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        if checked % 2 == 0:
            r, c = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            inst = rs.grid(r, c)
        else:
            inst = rs.random_connected(int(rng.integers(4, 9)),
                                       seed=int(rng.integers(10 ** 6)))
        g = rs.max_synch_subgraph(rs.max_bipartite_subgraph(inst.graph()))
        sched = rs.schedule_opposite_directions(g, period=1.0)
        rs.verify_schedule(g, sched)
        assert max(phase_errors(g, sched), default=0.0) < 1e-9 * 1.0
        tr = run(inst, sched, SimConfig(horizon=10.0), graph=g)
        per_edge = {}
        for e in trace_rows(tr, "meeting"):
            edge = tuple(sorted(e["trajs"]))
            per_edge[edge] = per_edge.get(edge, 0) + 1
        assert set(per_edge) == set(g.edges)
        assert all(v == 10 for v in per_edge.values())
        TRACES.append(tr)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _passline(1, f"200 instances verified and simulated in {elapsed:.1f}s")


# -- 2. odd-cycle rejection ----------------------------------------------------

def test_criterion_2_odd_cycle_rejection(triangle):
    g = triangle.graph()
    with pytest.raises(NotSynchronizableError) as exc:
        rs.schedule_same_direction(g)
    assert len(exc.value.witness) == 3
    sub = rs.max_bipartite_subgraph(g)
    brute = max(sum(1 for (i, j) in g.edge_list() if sides[i] != sides[j])
                for sides in itertools.product([0, 1], repeat=3))
    assert len(sub.edges) == 2 == brute
    _passline(2, "triangle rejected with 3-cycle witness; max-cut keeps 2 edges")


# -- 3. square-grid cycle feasibility -----------------------------------------

def test_criterion_3_grid_cycles(grid33_graph):
    squares = [[r * 3 + c, r * 3 + c + 1, (r + 1) * 3 + c + 1, (r + 1) * 3 + c]
               for r in range(2) for c in range(2)]
    for cyc in squares:
        assert cycle_residue(cyc, grid33_graph) < 1e-9
        assert cycle_feasible_opposite(cyc, grid33_graph)
    sched = rs.schedule_opposite_directions(grid33_graph, period=1.0)
    rs.verify_schedule(grid33_graph, sched)
    assert max(phase_errors(grid33_graph, sched)) < 1e-9
    _passline(3, "all four 4-cycles feasible; non-tree closure exact")


# -- 4. case-study tau table ---------------------------------------------------

def test_criterion_4_case_study_tau_table():
    plan = paper_section_plan(1.0)
    zs = rs.validate_section_plan(plan, CASE_STUDY_CYCLES)
    assert zs == [2, 2]
    _passline(4, "published section times satisfy both cycle equations, z=2,2")


# -- 5. structural metrics reproduction ---------------------------------------

PUBLISHED_GRID_BT = 348.71


def test_criterion_5_grid_metrics():
    t0 = time.perf_counter()
    inst = rs.grid(3, 3)
    sched = rs.schedule_opposite_directions(inst.graph(), period=300.0)
    reports = []
    for seed in range(10):
        tr = run(inst, sched, SimConfig(horizon=15000.0, seed=seed))
        TRACES.append(tr)
        reports.append(rs.report(tr))
    agg = rs.aggregate(reports)
    assert agg.abandoned_time == 0.0
    assert math.isfinite(agg.broadcast_time)
    assert abs(agg.broadcast_time - PUBLISHED_GRID_BT) <= 0.15 * PUBLISHED_GRID_BT
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0 * 10
    _passline(5, f"Max AT 0.00 exact; Avg BT {agg.broadcast_time:.2f}s "
                 f"within 15% of {PUBLISHED_GRID_BT}")


# -- 6. starvation reproduction ------------------------------------------------

@pytest.mark.parametrize("name", ["fig9a", "fig9b", "fig11"])
def test_criterion_6_starvation(name):
    inst = rs.preset(name)
    g = inst.graph()
    T, H = inst.meta["period"], inst.meta["horizon"]
    assert (T, H) == (80.0, 4000.0)
    sched = rs.schedule_opposite_directions(g, period=T)
    failures = [(w, 0.0) for w in inst.meta["whites"]]
    tr = run(inst, sched, SimConfig(horizon=H, strategy=Strategy("alw"),
                                    failures=failures))
    TRACES.append(tr)
    rep = rs.report(tr)
    assert math.isinf(rep.broadcast_time)
    assert rep.starvation_time == H
    assert rep.starvation_proven
    finite = 0
    for seed in range(10):
        tr = run(inst, sched, SimConfig(horizon=H, seed=seed,
                                        strategy=Strategy("rand", p=0.5),
                                        failures=failures))
        TRACES.append(tr)
        finite += rs.report(tr).starvation_time < H
    assert finite >= 9
    _passline(6, f"{name}: alw starves provably (BT=inf, ST={H:.0f}); "
                 f"rand(1/2) finite in {finite}/10 seeds")


# -- 7. occupancy invariant ----------------------------------------------------

def test_criterion_7_occupancy_invariant():
    assert TRACES, "earlier criteria must run first"
    for tr in TRACES:
        assert reference_occupancy_check(tr, trace_rows(tr))
    _passline(7, f"occupancy invariant holds on all {len(TRACES)} traces")


# -- 8. cycle-basis sufficiency ------------------------------------------------

def _random_bipartite_beta_graph(rng):
    n = int(rng.integers(4, 11))
    sides = rng.integers(0, 2, size=n)
    if sides.min() == sides.max():
        sides[0] = 1 - sides[0]
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)
                if sides[i] != sides[j]]
    rng.shuffle(possible)
    m = int(rng.integers(n - 1, min(len(possible), 2 * n) + 1))
    edges = {}
    axis_aligned = rng.random() < 0.5
    for (i, j) in possible[:m]:
        beta = (float(rng.choice([0.0, math.pi / 2])) if axis_aligned
                else float(rng.uniform(0.0, math.pi)))
        edges[edge_key(i, j)] = EdgeData(beta=beta, phi={i: beta, j: beta})
    return CommGraph(n=n, edges=edges)


def test_criterion_8_cycle_basis_sufficiency():
    rng = np.random.default_rng(88)
    for _ in range(100):
        g = _random_bipartite_beta_graph(rng)
        gs = rs.max_synch_subgraph(g)
        G = nx.Graph(gs.edge_list())
        for cyc in nx.simple_cycles(G):
            if len(cyc) < 3:
                continue
            assert cycle_feasible_opposite(cyc, gs), \
                f"brute-force oracle found infeasible cycle {cyc}"
    _passline(8, "100/100 graphs: filtered subgraph has no infeasible simple cycle")


# -- 9. end-to-end determinism -------------------------------------------------

def test_criterion_9_pipeline_determinism(tmp_path):
    payloads = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        inst, sched = d / "inst.json", d / "sched.json"
        traces, summary = d / "traces", d / "summary.json"
        assert cli.main(["generate", "--grid", "3x3", "-o", str(inst)]) == 0
        assert cli.main(["schedule", "-i", str(inst), "--period", "300",
                         "-o", str(sched)]) == 0
        assert cli.main(["simulate", "-i", str(inst), "-s", str(sched),
                         "--horizon", "15000", "--strategy", "alw",
                         "--seeds", "10", "-o", str(traces)]) == 0
        assert cli.main(["report", "-t", str(traces), "--label", "grid",
                         "-o", str(summary)]) == 0
        payloads.append([inst.read_bytes(), sched.read_bytes(),
                         summary.read_bytes()] +
                        [(traces / f).read_bytes()
                         for f in sorted(os.listdir(traces))])
    assert payloads[0] == payloads[1]
    _passline(9, "repeated pipeline is byte-identical across all files")
