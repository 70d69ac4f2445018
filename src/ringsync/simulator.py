"""Deterministic simulation of scheduled agents.

Under a verified schedule every trajectory has a fixed timetable: its
occupant reaches each link position at a fixed epoch (mod T), and an agent
that switches trajectories adopts the target's phase at the link.  Meetings,
absent-neighbor detections, and switches therefore happen only at link
epochs, which the engine processes exactly as a discrete event queue.

`run` returns a `Trace`, the event table of `ringsync.trace`, whose names
can also be imported from here.  It builds the table in numpy and hands it
over as the standard-library columns `Trace` holds.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from struct import Struct

import numpy as np

from .commgraph import CommGraph, dfs_forest, edge_key
from .errors import InvalidInstanceError, check_positive
from .instance import Instance
from .scheduler import Schedule, link_epochs, verify_schedule
from .trace import (CHUNK_ROWS, EMIT, EVENT_KINDS, FAILURE, MEETING, NO_ID,
                    SWITCH, TOUR_COMPLETE, Occupancy, Strategy, Trace, TraceEvent,
                    occupancy_check, occupancy_replay, parse_strategy)


@dataclass
class SimConfig:
    horizon: float
    strategy: Strategy = field(default_factory=lambda: Strategy("alw"))
    seed: int = 0
    failures: list = field(default_factory=list)   # (agent id, time)
    emission_period: float | None = None           # default: schedule period

    def __post_init__(self):
        check_positive("horizon", self.horizon)
        if self.emission_period is not None:
            check_positive("emission_period", self.emission_period)
        for agent, t in self.failures:
            if not (0.0 <= t <= self.horizon):
                raise InvalidInstanceError(
                    f"failure time {t} for agent {agent} outside [0, horizon]")


def strategy_decide(strategy: Strategy, edge, rng, dfs_edges=None) -> bool:
    """True to switch across this edge when the expected neighbor is absent."""
    if strategy.kind == "alw":
        return True
    if strategy.kind == "rand":
        return bool(rng.random() < strategy.p)
    return edge_key(*edge) in dfs_edges


def resolve_root(strategy: Strategy, instance: Instance | None) -> int:
    if strategy.root != "topleft":
        return int(strategy.root)
    if instance is None or instance.mode != "circle":
        return 0
    pts = [(c.center.y, -c.center.x, i) for i, c in enumerate(instance.circles)]
    # top-left: maximum y, then minimum x
    return max(pts)[2]


def run(instance: Instance, schedule: Schedule, config: SimConfig,
        graph: CommGraph | None = None) -> Trace:
    """Simulate the scheduled team; returns a deterministic trace.

    Failures, message emissions and link instants form one timeline ordered
    by a lexsort.  Only the link instants need the Python loop, because a
    switch depends on the current occupancy.  The loop records each event
    once, by its timeline index and ids, and times, link positions and
    message keys are read from the timeline afterwards.  The tour-complete
    rows are the full periods of the occupation intervals `occupancy_replay`
    finds in those events.  `_trace_order` then puts all rows in the order of
    `TraceEvent.sort_key`.  A schedule that fails verify_schedule on graph
    (default: the instance's), has no start or direction per agent, or is in
    general mode on a circle instance or a circle mode on a path instance,
    or a failure agent or dfs root that is no agent id, raises
    InvalidInstanceError.
    """
    g = graph if graph is not None else instance.graph()
    n = g.n
    if len(schedule.starts) != n or len(schedule.dirs) != n:
        raise InvalidInstanceError(
            f"schedule has {len(schedule.starts)} starts and {len(schedule.dirs)} "
            f"directions for {n} agents")
    if instance is not None and (schedule.mode == "general") != (instance.mode == "path"):
        raise InvalidInstanceError(
            f"{schedule.mode} schedule does not fit a {instance.mode} instance")
    if not verify_schedule(g, schedule).all_synchronized:
        raise InvalidInstanceError("schedule is not synchronized; refusing to simulate")
    for agent, _ in config.failures:
        if not 0 <= agent < n:
            raise InvalidInstanceError(f"failure agent {agent} outside 0..{n - 1}")
    strategy = config.strategy
    dfs_edges = None
    if strategy.kind == "dfs":
        # The header names the resolved root: dfs:topleft is written as dfs:<id>.
        strategy = Strategy("dfs", root=resolve_root(strategy, instance))
        if not 0 <= strategy.root < n:
            raise InvalidInstanceError(f"dfs root {strategy.root} outside 0..{n - 1}")
        dfs_edges = set(dfs_forest(g, strategy.root).tree_edges())
    T = schedule.period
    horizon = config.horizon
    epochs = link_epochs(g, schedule)
    rng = np.random.default_rng(config.seed)

    edges, t_all, cls, a_all, b_all = _timeline(config, epochs, n, T, rng)

    occupancy = list(range(n))        # traj -> agent id or None
    agent_traj = list(range(n))       # agent -> traj, None once it failed
    # One record per event, (timeline index, kind, agent, other agent, traj,
    # other traj), packed as six int64 values.
    records = bytearray()
    record = Struct("6q").pack
    for index, (c, a) in enumerate(zip(cls.tolist(), a_all.tolist())):
        if c == 0:
            traj = agent_traj[a]
            if traj is not None:
                occupancy[traj] = agent_traj[a] = None
                records += record(index, FAILURE, a, NO_ID, traj, NO_ID)
        elif c == 1:
            if agent_traj[a] is not None:
                records += record(index, EMIT, a, NO_ID, agent_traj[a], NO_ID)
        else:
            i, j = edges[a]
            oi, oj = occupancy[i], occupancy[j]
            if oi is None and oj is None:
                continue
            if oi is not None and oj is not None:
                records += record(index, MEETING, oi, oj, i, j)
            elif strategy_decide(strategy, (i, j), rng, dfs_edges):
                agent, src, dst = (oi, i, j) if oi is not None else (oj, j, i)
                occupancy[src] = None
                occupancy[dst] = agent
                agent_traj[agent] = dst
                records += record(index, SWITCH, agent, NO_ID, src, dst)

    header = dict(n=n, period=T, horizon=horizon, strategy=strategy.describe(),
                  seed=config.seed, initial_occupancy=list(range(n)),
                  survivors=[a for a in range(n) if agent_traj[a] is not None])
    table = _event_columns(records, t_all, a_all, b_all, edges, g)
    del records, t_all, cls, a_all, b_all

    # Only the switch and failure rows move agents between trajectories.
    moves = np.flatnonzero((table["kind"] == FAILURE) | (table["kind"] == SWITCH))
    tours = _tour_columns(occupancy_replay(_as_trace(header, dict(table), moves)), horizon, T)
    # Column by column, so that one column's copies at a time sit beside the table.
    for key in table:
        table[key] = np.concatenate([table[key], tours.pop(key)])
    order = _trace_order(table["time"], table["kind"], table["agents"], table["trajs"],
                         table["msg"])
    return _as_trace(header, table, order)


def _as_trace(header: dict, table: dict, rows: np.ndarray) -> Trace:
    """A Trace of the given rows of the numpy columns in table, taken into
    its arrays one column at a time; table is emptied on the way.  An array
    column's typecode is also its numpy dtype."""
    trace = Trace(**header)
    for key in [key for key in table if key != "msg"]:
        values = table.pop(key)
        shape = (len(rows), *values.shape[1:])
        typecode = getattr(trace, key).typecode
        setattr(trace, key, array(typecode, [0]) * math.prod(shape))
        # mode="clip" writes straight into out; the default buffers a copy
        np.take(values, rows, axis=0, mode="clip",
                out=np.frombuffer(getattr(trace, key), dtype=typecode).reshape(shape))
    # Last, and without a name for the unordered keys, so that they are
    # freed before the list is built.
    trace.msg = table.pop("msg")[rows].tolist()
    return trace


def expand_ranges(first: np.ndarray, last: np.ndarray):
    """(g, k) for every k in first[g]..last[g] of every group g, in group order."""
    counts = np.maximum(last - first + 1, 0)
    group = np.repeat(np.arange(len(counts)), counts)
    k = np.arange(len(group)) - np.repeat(np.cumsum(counts) - counts, counts) + first[group]
    return group, k


def _timeline(config: SimConfig, epochs: dict, n: int, T: float, rng):
    """(edges, time, class, a, b) of run's timeline, in processing order: class
    0 = failure of agent a, 1 = emission seq b of agent a, 2 = link instant of
    edges[a].  Its own function, so that its intermediate arrays are freed
    before the event loop."""
    horizon = config.horizon
    fail_agents = [agent for agent, _ in config.failures]
    fail_times = [t for _, t in config.failures]
    em_period = config.emission_period if config.emission_period is not None else T
    # Each agent emits once per emission period of [0, horizon / 2] at a seeded
    # random phase, modeling messages issued at arbitrary instants of the patrol.
    rounds = 0
    while rounds * em_period <= horizon / 2.0:
        rounds += 1
    emit_times = ((np.arange(rounds)[:, None] + rng.random((rounds, n)))
                  * em_period).ravel()
    emitted = np.flatnonzero(emit_times <= horizon)
    edges = sorted(epochs)
    e0 = np.array([epochs[e] for e in edges], dtype=np.float64)
    link_edge, k = expand_ranges(np.where(e0 > 0, 0, 1),   # link events strictly after t=0
                            np.floor((horizon - e0) / T).astype(np.int64) + 1)
    link_times = e0[link_edge] + k * T
    links = link_times <= horizon
    link_edge, link_times = link_edge[links], link_times[links]
    t_all = np.concatenate([np.array(fail_times, dtype=np.float64),
                            emit_times[emitted], link_times])
    cls = np.repeat([0, 1, 2], [len(fail_times), len(emitted), len(link_times)])
    a_all = np.concatenate([np.array(fail_agents, dtype=np.int64),
                            emitted % max(n, 1), link_edge])
    b_all = np.concatenate([np.zeros(len(fail_times), dtype=np.int64),
                            emitted // max(n, 1), np.zeros(len(link_times), np.int64)])
    order = np.lexsort((b_all, a_all, cls, t_all))
    return (edges, *(col[order] for col in (t_all, cls, a_all, b_all)))


def _event_columns(records: bytearray, t_all, a_all, b_all, edges, g: CommGraph) -> dict:
    """The table columns of run's packed event records, in timeline order.

    Times, link positions and message keys are read from the timeline at
    each record's index: a link instant's a is its edge number, and an
    emission's (a, b) are its agent and sequence number.
    """
    rec = np.frombuffer(records, dtype=np.int64).reshape(-1, 6)
    at, kind = rec[:, 0], rec[:, 1].astype(np.int8)
    link = (kind == MEETING) | (kind == SWITCH)
    link_loc = np.array([(g.phi(i, j), g.phi(j, i)) for i, j in edges]).reshape(-1, 2)
    location = np.full((len(rec), 2), math.nan)
    location[link] = link_loc[a_all[at[link]]]
    emit = kind == EMIT
    msg = np.full(len(rec), None, dtype=object)
    msg[emit] = [f"{a}:{b}" for a, b in zip(a_all[at[emit]].tolist(), b_all[at[emit]].tolist())]
    return dict(time=t_all[at], kind=kind, agents=rec[:, 2:4], trajs=rec[:, 4:6],
                location=location, msg=msg)


def _tour_columns(occ: Occupancy, horizon: float, T: float) -> dict:
    """The tour-complete rows of the occupation intervals occ, as table columns.

    An interval from start to end (the horizon if still open) completes a
    tour at start + k*T for every k >= 1 with start + k*T <= end + 1e-9*T.
    occ must come from the events in timeline order, the order in which the
    switches happened.
    """
    start = np.array(occ.start, dtype=np.float64)
    limit = np.minimum(np.array(occ.end, dtype=np.float64), horizon) + 1e-9 * T
    stay, k = expand_ranges(np.ones(len(limit), dtype=np.int64),
                            np.floor((limit - start) / T).astype(np.int64) + 1)
    tour_times = start[stay] + k * T
    done = tour_times <= limit[stay]
    stay, tour_times = stay[done], tour_times[done]
    no_id = np.full(len(stay), NO_ID)
    return dict(time=tour_times, kind=np.full(len(stay), TOUR_COMPLETE, dtype=np.int8),
                agents=np.column_stack([np.array(occ.agent, dtype=np.int64)[stay], no_id]),
                trajs=np.column_stack([np.array(occ.traj, dtype=np.int64)[stay], no_id]),
                location=np.full((len(stay), 2), math.nan),
                msg=np.full(len(stay), None, dtype=object))


def _trace_order(time, kind, agents, trajs, msg) -> np.ndarray:
    """Stable row order of TraceEvent.sort_key.

    NO_ID (-1) puts a one-element id tuple before every two-element one with
    the same first entry, as tuple comparison does; msg ranks by string
    order with None read as "".
    """
    keyed = msg.astype(bool)
    msg_rank = np.zeros(len(msg), dtype=np.int64)
    msg_rank[keyed] = np.unique(msg[keyed].astype(str), return_inverse=True)[1].reshape(-1) + 1
    return np.lexsort((msg_rank, agents[:, 1], agents[:, 0],
                       trajs[:, 1], trajs[:, 0], kind, time))
