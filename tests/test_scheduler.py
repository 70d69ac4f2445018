import math
import re

import pytest

import ringsync as rs
from ringsync.errors import ClosureViolationError, InvalidInstanceError, NotSynchronizableError
from ringsync.geometry import Circle, Point2
from ringsync.scheduler import CCW, CW, PHASE_TOL, arrival_time
from conftest import link_arrivals, phase_errors

TWO_PI = 2.0 * math.pi


def collinear_chain(k, spacing=2.4):
    return rs.build_circle_graph(
        [Circle(Point2(spacing * i, 0.0)) for i in range(k)], 0.5)


def test_arrival_time_basics():
    assert arrival_time(0.0, CCW, math.pi, 2.0) == pytest.approx(1.0)
    assert arrival_time(0.0, CW, math.pi, 2.0) == pytest.approx(1.0)
    assert arrival_time(math.pi / 2, CCW, math.pi, 4.0) == pytest.approx(1.0)


def test_same_direction_chain_starts():
    g = collinear_chain(3)
    s = rs.schedule_same_direction(g, period=1.0)
    assert s.dirs == [CCW, CCW, CCW]
    assert s.starts == pytest.approx([0.0, math.pi, 0.0])
    rs.verify_schedule(g, s)


def test_same_direction_rejects_odd_cycle(triangle):
    with pytest.raises(NotSynchronizableError) as exc:
        rs.schedule_same_direction(triangle.graph())
    assert len(exc.value.witness) == 3


def test_lemma1_common_neighbor_phases_agree(grid33_graph):
    # a node synchronized with two same-direction neighbors forces them to
    # share a start phase
    s = rs.schedule_same_direction(grid33_graph)
    coloring, _ = rs.two_color(grid33_graph)
    for i in range(grid33_graph.n):
        phases = {round(s.starts[j], 9) for j in grid33_graph.neighbors(i)}
        assert len(phases) == 1


def test_opposite_directions_chain():
    g = collinear_chain(3)
    s = rs.schedule_opposite_directions(g, period=10.0)
    assert s.dirs[0] != s.dirs[1] and s.dirs[1] != s.dirs[2]
    rs.verify_schedule(g, s)
    assert max(phase_errors(g, s)) < 1e-9 * 10.0


def test_opposite_directions_grid_closure(grid33_graph):
    s = rs.schedule_opposite_directions(grid33_graph, period=300.0)
    rs.verify_schedule(grid33_graph, s)
    assert max(phase_errors(grid33_graph, s)) < 1e-9 * 300.0
    for (i, j) in grid33_graph.edge_list():
        assert s.dirs[i] != s.dirs[j]


def test_opposite_directions_rejects_odd_cycle(triangle):
    with pytest.raises(NotSynchronizableError):
        rs.schedule_opposite_directions(triangle.graph())


def test_opposite_directions_covers_disconnected_graph():
    circles = [Circle(Point2(0, 0)), Circle(Point2(2.4, 0)),
               Circle(Point2(20, 0)), Circle(Point2(22.4, 0))]
    g = rs.build_circle_graph(circles, 0.5)
    s = rs.schedule_opposite_directions(g)
    assert None not in s.starts and None not in s.dirs
    rs.verify_schedule(g, s)


def test_infeasible_random_chord_is_dropped():
    # generic chord angles violate the alternating-angle condition, so the
    # synchronizable subgraph of fig10a is a spanning tree
    inst = rs.preset("fig10a")
    g = inst.graph()
    assert len(g.edges) > g.n - 1
    gs = rs.max_synch_subgraph(rs.max_bipartite_subgraph(g))
    assert len(gs.edges) == gs.n - 1
    s = rs.schedule_opposite_directions(gs)
    rs.verify_schedule(gs, s)


# --- section plans and the general scheduler ---------------------------------

def test_section_times_need_trajectory_lengths(grid33_graph):
    # a circle graph has no trajectory lengths: a typed input error
    with pytest.raises(InvalidInstanceError, match="trajectory lengths"):
        rs.assign_section_times(grid33_graph, period=1.0)


def test_tree_plan_constant_speed():
    inst = rs.preset("case-study")
    g = inst.graph()
    tree = g.subgraph(g.forest.tree_edges())
    plan = rs.assign_section_times(tree, period=100.0)
    for i, times in plan.times.items():
        L = tree.lengths[i]
        for tau, sec in zip(times, plan.section_lengths[i]):
            assert tau == pytest.approx(sec * 100.0 / L, rel=1e-9)


def test_assigned_plan_validates():
    inst = rs.preset("case-study")
    g = inst.graph()
    plan = rs.assign_section_times(g, period=100.0)
    zs = rs.validate_section_plan(plan, inst.meta["cycles"])
    assert all(isinstance(z, int) for z in zs)
    for i, times in plan.times.items():
        assert sum(times) == pytest.approx(100.0, abs=1e-10)


def test_schedule_general_two_trajectories():
    g = rs.build_path_graph(*two_squares())
    plan = rs.assign_section_times(g, period=8.0)
    s = rs.schedule_general(g, plan)
    assert s.epochs[0][1] == pytest.approx(s.epochs[1][0] % 8.0, abs=1e-9)
    rs.verify_schedule(g, s)


def two_squares():
    import numpy as np
    from ringsync.geometry import ClosedPath
    a = ClosedPath(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]))
    b = ClosedPath(np.array([[2.4, 0.0], [4.4, 0.0], [4.4, 2.0], [2.4, 2.0]]))
    return [a, b], [0.5, 0.5]


def test_schedule_general_case_study_synchronizes():
    inst = rs.preset("case-study")
    g = inst.graph()
    plan = rs.assign_section_times(g, period=100.0)
    s = rs.schedule_general(g, plan)
    rs.verify_schedule(g, s)
    assert max(phase_errors(g, s)) < 1e-9 * 100.0


def test_schedule_general_closure_error_on_bad_plan():
    inst = rs.preset("case-study")
    g = inst.graph()
    plan = rs.assign_section_times(g, period=100.0)
    # corrupt one trajectory's times while keeping its period sum
    cyc_node = inst.meta["cycles"][0][0]
    times = plan.times[cyc_node]
    times[0] += 7.0
    times[1] -= 7.0
    with pytest.raises(ClosureViolationError) as exc:
        rs.schedule_general(g, plan)
    # tree edges close exactly, so the first bad edge is a non-tree edge
    assert exc.value.edge in g.edge_list()
    assert exc.value.edge not in g.forest.tree_edges()


def test_verify_schedule_names_every_edge_off_by_twice_the_tolerance():
    g = rs.preset("case-study").graph()
    s = rs.schedule_general(g, rs.assign_section_times(g, period=100.0))
    bad = [g.edge_list()[2], g.edge_list()[5]]
    for i, j in bad:
        s.epochs[i][j] += 2 * PHASE_TOL * s.period
    with pytest.raises(ClosureViolationError,
                       match=re.escape(f"cycle closure violated on edges {bad}")) as exc:
        rs.verify_schedule(g, s)
    assert exc.value.edge == bad[0]


@pytest.mark.parametrize("mode", ["same-direction", "opposite-directions", "general"])
def test_verify_schedule_returns_the_first_arrival_epochs(grid33_graph, mode):
    if mode == "general":
        g = rs.preset("case-study").graph()
        s = rs.schedule_general(g, rs.assign_section_times(g, period=100.0))
    else:
        g = grid33_graph
        scheduler = (rs.schedule_same_direction if mode == "same-direction"
                     else rs.schedule_opposite_directions)
        s = scheduler(g, period=300.0)
    epochs = rs.verify_schedule(g, s)
    assert list(epochs) == g.edge_list()
    assert epochs == {e: math.fmod(ti, s.period) for e, (ti, _) in link_arrivals(g, s).items()}


def test_section_plan_time_between():
    from conftest import paper_section_plan, section_time_between
    plan = paper_section_plan(1.0)
    assert section_time_between(plan, 2, 7, 5) == pytest.approx(0.40)
    assert section_time_between(plan, 2, 5, 7) == pytest.approx(0.60)
    assert section_time_between(plan, 2, 7, 7) == 0.0
    assert section_time_between(plan, 5, 8, 2) == pytest.approx(0.34)
