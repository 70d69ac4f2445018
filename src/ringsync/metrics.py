"""Evaluation measures over traces: broadcast, abandoned, starvation, tours."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import and_

import numpy as np

from .trace import (CHUNK_ROWS, EMIT, FAILURE, TOUR_COMPLETE, Occupancy, Trace,
                    expand_ranges, occupancy_replay, parse_strategy)

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


def _set_bits(x: int) -> np.ndarray:
    """Positions of the one bits of x, ascending."""
    raw = np.frombuffer(x.to_bytes((x.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


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
    trace order; latest[g, k] is the last time a member of group g learned or
    emitted the k-th message of emits, inf if some member never knew it.
    """
    rows = trace.rows_of("emit", "meeting")
    emit_rows = rows[trace.kind[rows] == EMIT]
    emits = dict(zip(trace.msg[emit_rows].tolist(), trace.time[emit_rows].tolist()))
    column = {key: k for k, key in enumerate(emits)}
    group_of = {a: g for g, members in enumerate(groups) for a in members}
    latest = np.full((len(groups), len(emits)), -INF)
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
                ks = _set_bits(hit)
                latest[g, ks] = np.maximum(latest[g, ks], t)
                left[g] ^= hit
        batch.clear()

    for start in range(0, len(rows), CHUNK_ROWS):
        part = rows[start:start + CHUNK_ROWS]
        for kind, t, a, b, msg in zip(trace.kind[part].tolist(), trace.time[part].tolist(),
                                      trace.agents[part, 0].tolist(),
                                      trace.agents[part, 1].tolist(), trace.msg[part].tolist()):
            if kind == EMIT:
                k = column[msg]
                known[a] |= 1 << k
                if a in group_of:
                    g = group_of[a]
                    latest[g, k] = max(latest[g, k], t)
                continue
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
    resolve()
    everything = (1 << len(emits)) - 1
    for g, known_g in enumerate(known_by_all):
        latest[g, _set_bits(everything ^ known_g)] = INF
    return emits, latest


def arrival_times(trace: Trace):
    """First time each agent knows each message, from emits and meetings.

    Returns (emits, arrival): emits maps each message key to its emit time, in
    trace order; arrival[a, k] is when agent a first knew the k-th message of
    emits (the time of its last emit of that key, if it emitted one), inf if
    it never did.  This is the scan of `broadcast_time` with each agent as
    its own group, and the matrix holds n x messages floats.
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
    latest = latest[0].tolist()
    if INF in latest:
        return INF
    return sum(t - t0 for t, t0 in zip(latest, emits.values())) / len(emits)


def occupancy_intervals(trace: Trace, occupancy: Occupancy | None = None):
    """Per trajectory, list of (start, end, agent) occupation intervals.

    An interval still open at the end of the trace ends at the horizon.
    """
    occ = occupancy_replay(trace) if occupancy is None else occupancy
    intervals = {t: [] for t in range(trace.n)}
    ends = np.where(np.isinf(occ.end), trace.horizon, occ.end)
    for traj, start, end, agent in zip(occ.traj.tolist(), occ.start.tolist(),
                                       ends.tolist(), occ.agent.tolist()):
        intervals[traj].append((start, end, agent))
    return intervals


def abandoned_time(trace: Trace, occupancy: Occupancy | None = None) -> float:
    """Max over trajectories of the longest unattended interval."""
    worst = 0.0
    for traj, ivals in occupancy_intervals(trace, occupancy).items():
        t = 0.0
        gap = 0.0
        for start, end, _ in ivals:
            gap = max(gap, start - t)
            t = max(t, end)
        gap = max(gap, trace.horizon - t)
        worst = max(worst, gap)
    return worst


def meeting_times(trace: Trace) -> dict:
    """Per agent, the times of its meetings as an array in trace order."""
    rows = trace.rows_of("meeting")
    agents = trace.agents[rows].ravel()
    order = np.argsort(agents, kind="stable")
    bounds = np.cumsum(np.bincount(agents, minlength=trace.n))[:-1]
    return dict(enumerate(np.split(np.repeat(trace.time[rows], 2)[order], bounds)))


def starvation_time(trace: Trace, meets: dict | None = None):
    """Max over surviving agents of the longest gap between meetings.

    The gaps of an agent run from 0 to its first meeting, between its
    meetings, and from its last meeting to the horizon.  Returns (max_gap,
    potentially_starving): agents whose final gap runs to the end of the
    horizon are flagged as potentially starving.  meets is
    `meeting_times(trace)`, computed here when not given.
    """
    meets = meeting_times(trace) if meets is None else meets
    per_agent = [meets[a] for a in trace.survivors]
    counts = np.array([len(ts) for ts in per_agent], dtype=np.int64)
    met = counts > 0
    times = np.concatenate(per_agent) if per_agent else np.zeros(0)
    first = (np.cumsum(counts) - counts)[met]
    gaps = np.diff(times, prepend=0.0)
    gaps[first] = times[first]        # t - 0.0 before the first meeting
    longest = np.zeros(len(counts))
    if len(first):
        longest[met] = np.maximum(np.maximum.reduceat(gaps, first), 0.0)
    final = np.full(len(counts), trace.horizon - 0.0)
    final[met] = trace.horizon - times[first + counts[met] - 1]
    worst = max(np.maximum(longest, final).max(initial=0.0).item(), 0.0)
    flagged = [a for a, m, f in zip(trace.survivors, met.tolist(), final.tolist())
               if not m or f >= trace.period]
    return worst, flagged


def completed_tours(trace: Trace) -> float:
    """Average count of completed tours per trajectory."""
    tours = int(np.count_nonzero(trace.kind == TOUR_COMPLETE))
    return tours / trace.n if trace.n else 0.0


def _occupancy_at_boundaries(trace: Trace, occupancy: Occupancy, t_stable: float):
    """Boundary times k*T up to the horizon, and per boundary the occupant of
    each trajectory (-1 for none) once every switch and failure up to
    k*T + 1e-9*T has applied.

    The walk stops 3 periods after the later of t_stable and the last
    occupancy change: from there on the state is constant, so the boundaries
    at or after t_stable already hold a repeated state.
    """
    T = trace.period
    changes = np.concatenate((occupancy.start, occupancy.end))
    last = max(changes[np.isfinite(changes)].max(initial=0.0).item(), t_stable)
    stop = min(trace.horizon + 1e-9, last + 3 * T)
    times = []
    k = 0
    t_b = 0.0
    while t_b <= stop:
        times.append(t_b)
        k += 1
        t_b = k * T
    cut = np.array([t + 1e-9 * T for t in times])
    # an interval holds boundary b when start <= cut[b] < end
    held, b = expand_ranges(np.searchsorted(cut, occupancy.start),
                            np.searchsorted(cut, occupancy.end) - 1)
    states = np.full((len(times), trace.n), -1, dtype=np.int64)
    states[b, occupancy.traj[held]] = occupancy.agent[held]
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
    failures = trace.time[trace.kind == FAILURE]
    t_stable = failures.max().item() if len(failures) else 0.0
    occ = occupancy_replay(trace) if occupancy is None else occupancy
    seen = {}
    t0 = None
    for t_b, state in zip(*_occupancy_at_boundaries(trace, occ, t_stable)):
        if t_b < t_stable:
            continue
        key = state.tobytes()
        if key in seen:
            t0 = seen[key]    # the recurrent state's first visit
            break
        seen[key] = t_b
    if t0 is None:
        return []
    meets = meeting_times(trace) if meets is None else meets
    # No meeting at or after the cycle's start: none in one full cycle of the
    # recurrent state, so none ever again.
    return [a for a in trace.survivors if not (len(meets[a]) and meets[a].max() >= t0)]


def report(trace: Trace) -> MetricsReport:
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
