import math

import pytest

import ringsync as rs
from ringsync.cli import _EVENT_KEYS
from ringsync.trace import EVENT_KINDS, NO_ID, Trace


def trace_rows(trace, *kinds):
    """The trace's rows of the given kinds (all when none is given), in trace
    order, as the trace file's event objects: dicts with `cli._EVENT_KEYS`,
    read field by field from the columns, without the trace writer."""
    def ids(column, r):
        return column[2 * r:2 * r + (1 if column[2 * r + 1] == NO_ID else 2)].tolist()
    loc = trace.location
    return [{"time": trace.time[r], "kind": EVENT_KINDS[trace.kind[r]],
             "agents": ids(trace.agents, r), "trajs": ids(trace.trajs, r),
             "location": None if math.isnan(loc[2 * r]) else [loc[2 * r], loc[2 * r + 1]],
             "msg": trace.msg[r]}
            for r in (trace.rows_of(*kinds) if kinds else range(len(trace)))]


def trace_of(events, **header):
    """A trace of the header and the event objects, in the given order,
    built through `Trace.extend`."""
    trace = Trace(**header)
    trace.extend(*([e[key] for e in events] for key in _EVENT_KEYS))
    return trace


def event(time, kind, agents, msg=None):
    """An event object without a location whose trajectories are its agents'."""
    return {"time": time, "kind": kind, "agents": agents, "trajs": agents,
            "location": None, "msg": msg}


def trace_order(e):
    """The sort key of trace order: time, kind priority, trajectories,
    agents and msg."""
    return (e["time"], EVENT_KINDS.index(e["kind"]), e["trajs"], e["agents"], e["msg"] or "")


@pytest.fixture(scope="session")
def grid33():
    return rs.grid(3, 3)


@pytest.fixture(scope="session")
def grid33_graph(grid33):
    return grid33.graph()


@pytest.fixture(scope="session")
def triangle():
    """Three mutually adjacent unit circles (odd cycle)."""
    import math
    from ringsync import Circle, Instance, Point2
    d = 2.4
    centers = [(0.0, 0.0), (d, 0.0), (d / 2.0, d * math.sqrt(3) / 2.0)]
    return Instance(mode="circle",
                    circles=[Circle(Point2(x, y)) for x, y in centers],
                    comm_range=0.5, label="triangle")


@pytest.fixture(scope="session")
def two_rings():
    """A hexagon of unit circles, indexed 0, 2, 3, 1, 4, 5 around its ring,
    beside a ring of 25 (nodes 6 to 30).  Neighbours on a ring are 2.2
    apart and range 0.5 links only them: 31 links, one bipartite component
    and one odd, so a maximum bipartite subgraph keeps 30."""
    from ringsync import Circle, Instance, Point2
    centers = {}
    for labels, x0 in (([0, 2, 3, 1, 4, 5], 0.0), (range(6, 31), 30.0)):
        m = len(labels)
        radius = 1.1 / math.sin(math.pi / m)
        for k, label in enumerate(labels):
            theta = 2.0 * math.pi * k / m
            centers[label] = Point2(x0 + radius * math.cos(theta), radius * math.sin(theta))
    return Instance(mode="circle", circles=[Circle(centers[i]) for i in range(31)],
                    comm_range=0.5, label="two-rings")


def paper_section_plan(period: float = 1.0):
    """The published seven-trajectory section-time assignment (nodes 2..8)."""
    from ringsync import SectionPlan
    T = period
    return SectionPlan(
        period=T,
        link_order={2: [7, 5, 3], 8: [5, 7, 6], 3: [4, 2], 4: [3, 6],
                    5: [8, 2], 6: [8, 4], 7: [2, 8]},
        times={2: [0.40 * T, 0.18 * T, 0.42 * T],
               8: [0.28 * T, 0.50 * T, 0.22 * T],
               3: [0.40 * T, 0.60 * T],
               4: [0.30 * T, 0.70 * T],
               5: [0.34 * T, 0.66 * T],
               6: [0.64 * T, 0.36 * T],
               7: [0.34 * T, 0.66 * T]})


def section_time_between(plan, traj: int, from_nb: int, to_nb: int) -> float:
    """Travel time on traj from its link with from_nb to its link with to_nb:
    the plan's times of the sections `_sections_between` names."""
    from ringsync.scheduler import _sections_between
    return sum(plan.times[traj][k]
               for k in _sections_between(plan.link_order[traj], from_nb, to_nb))


CASE_STUDY_CYCLES = [[2, 7, 8, 5], [2, 5, 8, 6, 4, 3]]


# Bad trace header fields, each with a word of the InvalidInstanceError it
# raises; each merges into the header of a 3x3 grid trace.
BAD_TRACE_HEADERS = [
    ({"period": 0}, "period"), ({"period": -80}, "period"),
    ({"period": float("inf")}, "period"), ({"horizon": "x"}, "horizon"),
    ({"strategy": 5}, "strategy"), ({"strategy": "rand:x"}, "strategy"),
    ({"n": -1}, "n -1 is not an agent count"),
    ({"n": 2**70}, "is not an agent count"),
    ({"n": 1, "initial_occupancy": [0], "survivors": [5]}, "survivors holds 5"),
    ({"n": 2, "initial_occupancy": [0, 7], "survivors": [0, 1]}, "initial_occupancy holds 7"),
    ({"n": 1, "initial_occupancy": [0, 0], "survivors": [0]},
     "initial_occupancy has 2 entries for 1 trajectories"),
    ({"initial_occupancy": [*range(9), None]},
     "initial_occupancy has 10 entries for 9 trajectories"),
    ({"n": 2, "initial_occupancy": [1, 1], "survivors": [0, 1]},
     "initial_occupancy holds an agent twice"),
    ({"survivors": [0, *range(9)]}, "survivors holds an agent twice")]


# Header survivors that contradict the failure rows of a 3x3 grid trace, each
# with the --fail-at value its simulation ran with (None for no failure).
# `report` rejects each: its metrics would be taken over the wrong agents.
SURVIVOR_MISMATCHES = [
    (None, []),                            # nobody fails, yet nobody survives
    (None, [*range(8)]),                   # agent 8 neither fails nor survives
    ("3:0", [*range(9)]),                  # agent 3 fails and survives
    ("3:0", [0, 1, 2, 4, 5, 6, 7])]        # agent 3 fails; 8 neither fails nor survives


def path_grid(rows: int, cols: int, staggered: bool = True):
    """Unit squares 0.4 apart with range 0.5, so only grid neighbours link.

    Staggered grids shift row r by 0.1*r in x and column c by 0.1*c in y, so
    no two links of one square coincide.
    """
    import numpy as np
    from ringsync import ClosedPath, Instance
    paths = []
    for r in range(rows):
        for c in range(cols):
            x0 = 1.4 * c + (0.1 * r if staggered else 0.0)
            y0 = -1.4 * r + (0.1 * c if staggered else 0.0)
            paths.append(ClosedPath(np.array(
                [[x0, y0], [x0 + 1.0, y0], [x0 + 1.0, y0 + 1.0], [x0, y0 + 1.0]])))
    return Instance(mode="path", paths=paths, ranges=[0.5] * len(paths),
                    label=f"path-grid-{rows}x{cols}")


# Cycle-closure oracles: the alternating beta sum of a cycle, walked edge by
# edge.  The library decides each chord in O(1) from the reflection starts
# (`commgraph.max_synch_subgraph`); these judge it.

def cycle_alternating_beta_sum(cycle, g) -> float:
    """Alternating sum beta(c0,c1) - beta(c1,c2) + ... - beta(c_last,c0)."""
    total = 0.0
    k = len(cycle)
    for idx in range(k):
        term = g.beta(cycle[idx], cycle[(idx + 1) % k])
        total += term if idx % 2 == 0 else -term
    return total


def cycle_residue(cycle, g) -> float:
    """Distance of the alternating beta sum from the nearest multiple of pi."""
    r = math.fmod(cycle_alternating_beta_sum(cycle, g), math.pi)
    if r < 0:
        r += math.pi
    return min(r, math.pi - r)


def cycle_feasible_opposite(cycle, g) -> bool:
    """Whether an even cycle of g admits opposite-direction synchronization:
    its alternating beta sum is 0 mod pi within ANGLE_TOL."""
    from ringsync.geometry import ANGLE_TOL
    assert len(cycle) % 2 == 0, f"cycle length must be even, got {len(cycle)}"
    assert all(g.has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    return cycle_residue(cycle, g) <= ANGLE_TOL
