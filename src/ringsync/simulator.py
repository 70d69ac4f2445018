"""Deterministic simulation of scheduled agents.

Under a verified schedule every trajectory has a fixed timetable: its
occupant reaches each link position at a fixed epoch (mod T), and an agent
that switches trajectories adopts the target's phase at the link.  Meetings,
absent-neighbor detections, and switches therefore happen only at link
epochs, which the engine processes exactly as a discrete event queue.

`run` returns a `Trace`, the event table of `ringsync.trace`.  It appends
its rows, already in trace order, to the table's standard-library columns,
and draws from `ringsync.rng`, the stream of numpy's `default_rng`, so this
module needs no numpy.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from heapq import merge
from itertools import count
from operator import itemgetter
from struct import pack

from .commgraph import CommGraph, dfs_forest
from .errors import ClosureViolationError, InvalidInstanceError, check_positive
from .instance import Instance
from .rng import Rng
from .scheduler import Schedule, verify_schedule
from .trace import (CHUNK_ROWS, EMIT, FAILURE, MEETING, NO_ID, SWITCH, TOUR_COMPLETE,
                    Strategy, Trace, gc_paused)


class SimConfig:
    def __init__(self, horizon: float, strategy: Strategy | None = None, seed: int = 0,
                 failures: list | None = None, emission_period: float | None = None):
        check_positive("horizon", horizon)
        if type(seed) is not int or seed < 0:
            raise InvalidInstanceError(f"seed {seed!r} is not a non-negative integer")
        if emission_period is not None:
            check_positive("emission_period", emission_period)
        self.horizon = horizon
        self.strategy = Strategy("alw") if strategy is None else strategy
        self.seed = seed
        self.failures = [] if failures is None else failures   # (agent id, time)
        self.emission_period = emission_period                 # default: schedule period
        for agent, t in self.failures:
            if not (0.0 <= t <= horizon):
                raise InvalidInstanceError(
                    f"failure time {t} for agent {agent} outside [0, horizon]")


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

    Failures, message emissions and link instants form one timeline,
    `_timeline`, of candidate rows: each as it would read if no agent had
    moved, in trace order, which is also the order they are processed in.
    Only a switch depends on the current occupancy, and none happens before
    the first failure, so until then the candidates are the rows; after it
    each candidate is processed in turn.  The rows of each chunk of the
    timeline, with the tour-complete rows due before its last instant, are
    then sorted as (time, kind code, trajectory pair, agent pair, msg)
    tuples and appended to the columns, so they fill in trace order.  Tours
    come from cohorts, the occupation intervals that began at one instant.
    An interval from start to end (the horizon if still open) completes a
    tour at start + k*T for every k >= 1 with start + k*T <= end + 1e-9*T.
    InvalidInstanceError is raised for a schedule that fails
    verify_schedule on graph (default: the instance's), lacks the
    general-mode epoch of a link, has no start or direction per agent, or
    whose mode does not fit the instance (general mode on circles, circle
    mode on paths); for a failure agent or dfs root that is no agent id; and
    for a run of more than sys.maxsize rows.
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
    try:
        epochs = verify_schedule(g, schedule)
    except ClosureViolationError:
        raise InvalidInstanceError("schedule is not synchronized; refusing to simulate") from None
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
    links = [(epochs[i, j], i, j) for i, j in sorted(epochs)]
    rng = Rng(config.seed)
    timeline = _timeline(config, links, n, T, rng)
    first_failure = min((t for _, t in config.failures), default=math.inf)

    occupancy = list(range(n))        # traj -> agent id or None
    agent_traj = list(range(n))       # agent -> traj, None once it failed
    # Occupation intervals complete their tours in cohorts, the intervals
    # that began at one instant: cohorts[start] is [k, tails], where
    # start + k*T is its next tour not yet appended and tails maps each open
    # interval's trajectory to the tail of its tour rows
    # (traj, NO_ID, agent, NO_ID, None).  opened[traj] is the start
    # of the interval that traj's occupant holds.
    tol = 1e-9 * T
    open_limit = horizon + tol
    cohorts = {0.0: [1, {traj: (traj, NO_ID, traj, NO_ID, None) for traj in range(n)}]}
    opened = [0.0] * n
    columns = dict(time=array("d"), kind=array("b"), agents=array("q"), trajs=array("q"),
                   msg=[])
    # Rows as `_timeline` gives them: rows[:mark] are final and in trace
    # order, the rest are sorted and cut when a chunk of the timeline is done.
    rows, mark = [], 0

    def release(before: float) -> None:
        """Append the tour rows of the open intervals before the time
        `before` to rows, a cohort at a time."""
        for start, cohort in cohorts.items():
            k, tails = cohort
            while (tour := start + k * T) < before and tour <= open_limit:
                rows.extend(map((tour, TOUR_COMPLETE).__add__, tails.values()))
                k += 1
            cohort[0] = k

    def close(traj: int, t: float) -> None:
        """End the interval of traj's occupant at t: append its tour rows
        not yet released, up to t + 1e-9*T, and drop it from its cohort."""
        start = opened[traj]
        k, tails = cohorts[start]
        tail = tails.pop(traj)
        while (tour := start + k * T) <= t + tol:
            rows.append((tour, TOUR_COMPLETE) + tail)
            k += 1
        if not tails:
            del cohorts[start]

    with gc_paused():
        for chunk in timeline:
            if chunk[-1][0] < first_failure:
                rows += chunk         # no failure yet: the candidates are the rows
            else:
                for row in chunk:
                    t, kind, i, j, _, _, msg = row
                    if kind == MEETING:
                        oi, oj = occupancy[i], occupancy[j]
                        if oi == i and oj == j:
                            rows.append(row)
                        elif oi is not None and oj is not None:
                            rows.append((t, MEETING, i, j, oi, oj, None))
                        elif oi != oj and (strategy.kind == "alw" or (
                                rng.random() < strategy.p if strategy.kind == "rand"
                                else (i, j) in dfs_edges)):
                            # one occupant, whose neighbor's trajectory is vacant,
                            # and the strategy switches it across the edge
                            agent, src, dst = (oi, i, j) if oi is not None else (oj, j, i)
                            close(src, t)
                            occupancy[src] = None
                            occupancy[dst] = agent
                            agent_traj[agent] = dst
                            cohorts.setdefault(t, [1, {}])[1][dst] = (
                                dst, NO_ID, agent, NO_ID, None)
                            opened[dst] = t
                            rows.append((t, SWITCH, src, dst, agent, NO_ID, None))
                    else:                     # an emission or a failure of agent i
                        traj = agent_traj[i]
                        if traj == i:
                            rows.append(row)
                        elif traj is not None:
                            rows.append((t, kind, traj, NO_ID, i, NO_ID, msg))
                        if kind == FAILURE and traj is not None:
                            close(traj, t)
                            occupancy[traj] = agent_traj[i] = None
            # The chunk's last instant may go on in the next chunk: its rows,
            # and the tours from it on, wait to be sorted with it.
            last = chunk[-1][0]
            release(last)
            rows[mark:] = sorted(rows[mark:])
            mark = bisect_left(rows, (last,), mark)
            if mark >= CHUNK_ROWS:
                _append_rows(columns, rows[:mark])
                del rows[:mark]
                mark = 0
        release(math.inf)
        rows[mark:] = sorted(rows[mark:])
        _append_rows(columns, rows)
    return Trace(n=n, period=T, horizon=horizon, strategy=strategy.describe(),
                 seed=config.seed, initial_occupancy=list(range(n)),
                 survivors=[a for a in range(n) if agent_traj[a] is not None], **columns)


def _append_rows(columns: dict, rows: list) -> None:
    """Append rows, tuples as `run` builds them, to the table columns.
    struct packs a column several times faster than array() converts it."""
    if not rows:
        return
    time, kind, traj, traj2, agent, agent2, msg = zip(*rows)
    columns["time"].frombytes(pack(f"{len(rows)}d", *time))
    columns["kind"].frombytes(bytes(kind))
    for key, first, second in (("trajs", traj, traj2), ("agents", agent, agent2)):
        pairs = [0] * (2 * len(rows))
        pairs[0::2], pairs[1::2] = first, second
        columns[key].frombytes(pack(f"{len(pairs)}q", *pairs))
    columns["msg"] += msg


def _timeline(config: SimConfig, links: list, n: int, T: float, rng):
    """run's candidate rows, as `_append_rows` takes them, in trace order, a
    sorted list at a time: each failure and emission as if agent a still
    held trajectory a, and a meeting of i and j at every link instant of
    each edge (i, j) of links, (epoch, i, j) tuples.

    Each agent emits once per emission period of [0, horizon / 2] at a
    seeded random phase, modeling messages issued at arbitrary instants of
    the patrol.  Every phase is drawn here, before the run's other draws;
    a run of more than sys.maxsize rows raises InvalidInstanceError first.
    """
    horizon = config.horizon
    em = config.emission_period if config.emission_period is not None else T
    half = horizon / 2.0
    # Emission, link and tour rows, bounded in floats, so that a count past
    # every integer type reads inf.
    bound = n * (half / em + 1) + (len(links) + n) * (horizon / T + 2)
    if not bound <= sys.maxsize:
        raise InvalidInstanceError(
            f"horizon {horizon} gives about {bound:.3g} trace rows, more than {sys.maxsize}")
    # The emission rounds: the least r >= 1 with r * em > half, as the float
    # products decide it.
    rounds = int(half // em) + 1
    while rounds > 1 and (rounds - 1) * em > half:
        rounds -= 1
    while rounds * em <= half:
        rounds += 1
    phases = array("d", (rng.random() for _ in range(rounds * n)))

    def emissions():
        for k in range(rounds):
            chunk = sorted([(t, EMIT, a, NO_ID, a, NO_ID, f"{a}:{k}")
                            for a, u in enumerate(phases[k * n:(k + 1) * n])
                            if (t := (k + u) * em) <= horizon])
            if chunk:
                yield chunk

    def meetings():
        # Link instants come strictly after t=0: at e0 + k*T from k = 0 if
        # e0 > 0, else from k = 1.  Each group is in the order of (e0, i, j).
        groups = [sorted(link for link in links if (link[0] > 0) != later)
                  for later in (False, True)]
        for j in count():
            chunk = []
            for k, group in enumerate(groups):
                kT = (k + j) * T
                if group and group[-1][0] + kT <= horizon:
                    chunk += [(e0 + kT, MEETING, a, b, a, b, None) for e0, a, b in group]
                else:
                    chunk += [(t, MEETING, a, b, a, b, None) for e0, a, b in group
                              if (t := e0 + kT) <= horizon]
            if not chunk:
                return
            chunk.sort()
            yield chunk

    failures = sorted((float(t), FAILURE, int(a), NO_ID, int(a), NO_ID, None)
                      for a, t in config.failures)
    return _merge_sorted([iter([failures] if failures else []), emissions(), meetings()])


def _merge_sorted(sources):
    """The items of several sources of sorted lists, in one sorted order, a
    list at a time.

    The lists of one source must be non-empty and come in order of their
    first items, each a lower bound of the items that follow it.
    `heapq.merge` takes the lists in order of their first items; the first
    item of the next list then bounds every item not yet read, and every
    pending item below it is final.  Only one list per source is read ahead.
    """
    pending = []
    for chunk in merge(*sources, key=itemgetter(0)):
        cut = bisect_left(pending, chunk[0])
        if cut:
            yield pending[:cut]
            del pending[:cut]
        pending += chunk
        pending.sort()
    if pending:
        yield pending
