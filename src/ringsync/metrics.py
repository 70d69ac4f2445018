"""Evaluation measures over traces: broadcast, abandoned, starvation, tours."""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, compress, islice
from operator import and_, sub

from .errors import InvalidInstanceError
from .trace import (EMIT, MEETING, TOUR_COMPLETE, Occupancy, Trace, occupancy_replay,
                    parse_strategy)

INF = float("inf")


@dataclass
class MetricsReport:
    broadcast_time: float        # average, seconds; inf when undeliverable
    abandoned_time: float        # max over trajectories, seconds
    starvation_time: float       # max over surviving agents, seconds
    completed_tours: float       # average per trajectory
    starvation_proven: bool = False
    potentially_starving: list = field(default_factory=list)
    per_seed: list = field(default_factory=list)

    def row(self, label: str = "") -> str:
        bt = "inf" if math.isinf(self.broadcast_time) else f"{self.broadcast_time:.2f}"
        return (f"{label:>12} | {self.starvation_time:10.2f} | {self.completed_tours:8.2f}"
                f" | {self.abandoned_time:10.2f} | {bt:>10}")


TABLE_HEADER = (f"{'':>12} | {'Max. ST(s)':>10} | {'Avg. CT':>8}"
                f" | {'Max. AT(s)':>10} | {'Avg. BT(s)':>10}")


def _set_bits(x: int) -> list[int]:
    """Positions of the one bits of x, ascending."""
    return [m.start() for m in re.finditer("1", f"{x:b}"[::-1])]


def _gossip_scan(trace: Trace, groups: list):
    """When each message last reached a member of each group of agents.

    One earliest-arrival scan over the emits and meetings in trace order (the
    temporal-graph reachability of Wu et al., "Path Problems in Temporal
    Graphs", VLDB 2014): an emit gives its origin the message, and a meeting
    gives each agent every message the other knows, at the meeting time.
    Events at one instant apply in trace order: emits before meetings,
    meetings in edge order.  Each agent's knowledge is a Python int whose bit
    k is the k-th message, so one OR hands over every message at once, as in
    the multi-source traversal of Then et al., "The More the Merrier", VLDB
    2015.

    No agent-by-message times are kept.  The members' newly learned bits wait
    in a batch with their meeting times; once the batch holds as many entries
    as there are members, the AND of each group's knowledge tells which
    messages its last member learned inside the batch, and a pass back over
    the batch finds when.

    Returns (emits, latest): emits maps each message key to its emit time, in
    trace order; latest[g][k] is the last time a member of group g learned or
    emitted the k-th message of emits, inf if some member never knew it.
    """
    emit_rows = trace.rows_of("emit")
    emits = dict(zip([trace.msg[r] for r in emit_rows], [trace.time[r] for r in emit_rows]))
    column = {key: k for k, key in enumerate(emits)}
    group_of = {a: g for g, members in enumerate(groups) for a in members}
    latest = [[-INF] * len(emits) for _ in groups]
    known = [0] * trace.n             # per agent, bit k: it knows message k
    known_by_all = [0] * len(groups)  # per group, as of the last resolve()
    batch = []                        # (group, time, bits a member learned)

    def resolve():
        left = {}
        for g, members in enumerate(groups):
            now = reduce(and_, [known[a] for a in members])
            if now != known_by_all[g]:
                left[g] = now ^ known_by_all[g]
                known_by_all[g] = now
        for g, t, learned in reversed(batch):
            hit = learned & left.get(g, 0)
            if hit:
                row = latest[g]
                for k in _set_bits(hit):
                    if t > row[k]:
                        row[k] = t
                left[g] ^= hit
        batch.clear()

    agents = trace.agents
    for kind, t, a, b, msg in zip(trace.kind, trace.time, islice(agents, 0, None, 2),
                                  islice(agents, 1, None, 2), trace.msg):
        if kind == MEETING:
            known_a, known_b = known[a], known[b]
            if known_a == known_b:
                continue
            union = known[a] = known[b] = known_a | known_b
            if a in group_of and union != known_a:
                batch.append((group_of[a], t, union ^ known_a))
            if b in group_of and union != known_b:
                batch.append((group_of[b], t, union ^ known_b))
            if len(batch) >= len(group_of):
                resolve()
        elif kind == EMIT:
            k = column[msg]
            known[a] |= 1 << k
            if a in group_of:
                row = latest[group_of[a]]
                if t > row[k]:
                    row[k] = t
    resolve()
    everything = (1 << len(emits)) - 1
    for g, known_g in enumerate(known_by_all):
        for k in _set_bits(everything ^ known_g):
            latest[g][k] = INF
    return emits, latest


def arrival_times(trace: Trace):
    """First time each agent knows each message, from emits and meetings.

    Returns (emits, arrival): emits maps each message key to its emit time, in
    trace order; arrival[a][k] is when agent a first knew the k-th message of
    emits (the time of its last emit of that key, if it emitted one), inf if
    it never did.  This is the scan of `broadcast_time` with each agent as
    its own group, and the n lists hold n x messages floats.
    """
    return _gossip_scan(trace, [[a] for a in range(trace.n)])


def broadcast_time(trace: Trace) -> float:
    """Average time for a message to reach every surviving agent.

    Messages that never reach all survivors make the result infinite;
    otherwise the average is over all messages, summed in emit order.  One
    bit-parallel scan (`_gossip_scan`) gives each message's completion time,
    when its last survivor learns it, in memory of order agents x messages
    bits.
    """
    if not trace.survivors:
        return INF
    emits, latest = _gossip_scan(trace, [trace.survivors])
    if not emits:
        return INF
    latest = latest[0]
    if INF in latest:
        return INF
    return sum(t - t0 for t, t0 in zip(latest, emits.values())) / len(emits)


def abandoned_time(trace: Trace, occupancy: Occupancy | None = None) -> float:
    """Max over trajectories of the longest unattended interval; an
    occupation interval still open after the last row ends at the horizon."""
    occ = occupancy_replay(trace) if occupancy is None else occupancy
    reached = [0.0] * trace.n         # per trajectory: the latest end so far
    worst = 0.0
    for traj, start, end in zip(occ.traj, occ.start, occ.end):
        worst = max(worst, start - reached[traj])
        reached[traj] = max(reached[traj], trace.horizon if math.isinf(end) else end)
    return max([worst, *(trace.horizon - t for t in reached)])


def meeting_times(trace: Trace) -> dict:
    """Per agent, the times of its meetings as a list in trace order."""
    meets = [[] for _ in range(trace.n)]
    rows = trace.mask_of("meeting")
    agents = trace.agents
    for t, a, b in zip(compress(trace.time, rows),
                       compress(islice(agents, 0, None, 2), rows),
                       compress(islice(agents, 1, None, 2), rows)):
        meets[a].append(t)
        meets[b].append(t)
    return dict(enumerate(meets))


def starvation_time(trace: Trace, meets: dict | None = None):
    """Max over surviving agents of the longest gap between meetings.

    The gaps of an agent run from 0 to its first meeting, between its
    meetings, and from its last meeting to the horizon.  Returns (max_gap,
    potentially_starving): agents whose final gap runs to the end of the
    horizon are flagged as potentially starving.  meets is
    `meeting_times(trace)`, computed here when not given.
    """
    meets = meeting_times(trace) if meets is None else meets
    worst = 0.0
    flagged = []
    for a in trace.survivors:
        times = meets[a]
        final = trace.horizon - (times[-1] if times else 0.0)
        longest = max(map(sub, times, [0.0] + times), default=0.0)
        worst = max(worst, longest, final)
        if not times or final >= trace.period:
            flagged.append(a)
    return worst, flagged


def completed_tours(trace: Trace) -> float:
    """Average count of completed tours per trajectory."""
    return trace.kind.count(TOUR_COMPLETE) / trace.n if trace.n else 0.0


def _occupancy_at_boundaries(trace: Trace, occupancy: Occupancy, t_stable: float):
    """Boundary times k*T up to the horizon, and per boundary the occupant of
    each trajectory (-1 for none) once every switch and failure up to
    k*T + 1e-9*T has applied.

    The walk stops 3 periods after the later of t_stable and the last
    occupancy change: from there on the state is constant, so the boundaries
    at or after t_stable already hold a repeated state.
    """
    T = trace.period
    changes = [t for t in chain(occupancy.start, occupancy.end) if math.isfinite(t)]
    last = max([0.0, t_stable, *changes])
    stop = min(trace.horizon + 1e-9, last + 3 * T)
    times = []
    k = 0
    t_b = 0.0
    while t_b <= stop:
        times.append(t_b)
        k += 1
        t_b = k * T
    cut = [t + 1e-9 * T for t in times]
    states = [[-1] * trace.n for _ in times]
    for traj, agent, start, end in zip(occupancy.traj, occupancy.agent, occupancy.start,
                                       occupancy.end):
        # the interval holds boundary b when start <= cut[b] < end
        for b in range(bisect_left(cut, start), bisect_left(cut, end)):
            states[b][traj] = agent
    return times, states


def prove_starvation(trace: Trace, meets: dict | None = None,
                     occupancy: Occupancy | None = None) -> list:
    """Agents proven to starve by state-cycle detection.

    Only valid for deterministic strategies ("alw", "dfs", rand at p in
    {0, 1}): once all failures have occurred, a repeated occupancy state at a
    period boundary closes a cycle; survivors with no meeting inside the
    cycle will never meet again.  Returns the list of proven-starving agents
    (empty when no cycle is found or the strategy is randomized).  meets and
    occupancy are `meeting_times(trace)` and `occupancy_replay(trace)`,
    computed here when not given.
    """
    strategy = parse_strategy(trace.strategy)
    if strategy.kind == "rand" and strategy.p not in (0, 1):
        return []
    t_stable = max((trace.time[r] for r in trace.rows_of("failure")), default=0.0)
    occ = occupancy_replay(trace) if occupancy is None else occupancy
    seen = {}
    t0 = None
    for t_b, state in zip(*_occupancy_at_boundaries(trace, occ, t_stable)):
        if t_b < t_stable:
            continue
        key = tuple(state)
        if key in seen:
            t0 = seen[key]    # the recurrent state's first visit
            break
        seen[key] = t_b
    if t0 is None:
        return []
    meets = meeting_times(trace) if meets is None else meets
    # No meeting at or after the cycle's start: none in one full cycle of the
    # recurrent state, so none ever again.
    return [a for a in trace.survivors if not (meets[a] and max(meets[a]) >= t0)]


def report(trace: Trace) -> MetricsReport:
    """The trace's measures; raises InvalidInstanceError unless its header's
    survivors are exactly the agents that no failure row names."""
    failed = {trace.agents[2 * r] for r in trace.rows_of("failure")}
    if len(trace.survivors) + len(failed) != trace.n or not failed.isdisjoint(trace.survivors):
        raise InvalidInstanceError(
            f"trace header survivors are not the {trace.n - len(failed)} agents "
            "without a failure row")
    meets = meeting_times(trace)
    occupancy = occupancy_replay(trace)
    st, flagged = starvation_time(trace, meets)
    proven = prove_starvation(trace, meets, occupancy)
    return MetricsReport(
        broadcast_time=broadcast_time(trace),
        abandoned_time=abandoned_time(trace, occupancy),
        starvation_time=st,
        completed_tours=completed_tours(trace),
        starvation_proven=bool(proven),
        potentially_starving=sorted(set(flagged) | set(proven)),
    )


def aggregate(reports: list[MetricsReport]) -> MetricsReport:
    """Seed-batch aggregation: averages for BT/CT, maxima for AT/ST."""
    if not reports:
        raise ValueError("no reports to aggregate")
    bts = [r.broadcast_time for r in reports]
    bt = INF if any(math.isinf(b) for b in bts) else sum(bts) / len(bts)
    return MetricsReport(
        broadcast_time=bt,
        abandoned_time=max(r.abandoned_time for r in reports),
        starvation_time=max(r.starvation_time for r in reports),
        completed_tours=sum(r.completed_tours for r in reports) / len(reports),
        starvation_proven=any(r.starvation_proven for r in reports),
        potentially_starving=sorted({a for r in reports for a in r.potentially_starving}),
        per_seed=reports,
    )


def render_table(rows: list[tuple[str, MetricsReport]]) -> str:
    lines = [TABLE_HEADER, "-" * len(TABLE_HEADER)]
    lines += [rep.row(label) for label, rep in rows]
    return "\n".join(lines)
