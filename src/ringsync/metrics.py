"""Evaluation measures over traces: broadcast, abandoned, starvation, tours."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .simulator import Trace

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


def arrival_times(trace: Trace):
    """First time each agent knows each message, from emits and meetings.

    One earliest-arrival scan over the trace in time order (the temporal-graph
    reachability of Wu et al., "Path Problems in Temporal Graphs", VLDB 2014):
    an emit gives its origin the message, and a meeting gives each agent every
    message the other knows, at the meeting time.  Events at one instant apply
    in trace order: emits before meetings, meetings in edge order.

    Returns (emits, arrival): emits maps each message key to its emit time, in
    trace order; arrival[a, k] is when agent a first knew the k-th message of
    emits, inf if it never did.
    """
    emits = {ev.msg: ev.time for ev in trace.events if ev.kind == "emit"}
    column = {key: k for k, key in enumerate(emits)}
    arrival = np.full((trace.n, len(emits)), INF)
    informed = np.zeros(arrival.shape, dtype=bool)
    for ev in trace.events:
        if ev.kind == "emit":
            agent, k = ev.agents[0], column[ev.msg]
            informed[agent, k] = True
            arrival[agent, k] = ev.time
        elif ev.kind == "meeting":
            a, b = ev.agents
            union = informed[a] | informed[b]
            np.copyto(arrival[a], ev.time, where=union > informed[a])
            np.copyto(arrival[b], ev.time, where=union > informed[b])
            informed[a] = union
            informed[b] = union
    return emits, arrival


def broadcast_time(trace: Trace) -> float:
    """Average time for a message to reach every surviving agent.

    Messages that never reach all survivors make the result infinite;
    otherwise the average is over all messages, summed in emit order.
    """
    if not trace.survivors:
        return INF
    emits, arrival = arrival_times(trace)
    if not emits:
        return INF
    latest = arrival[trace.survivors].max(axis=0).tolist()
    if INF in latest:
        return INF
    return sum(t - t0 for t, t0 in zip(latest, emits.values())) / len(emits)


def occupancy_intervals(trace: Trace):
    """Per trajectory, list of (start, end, agent) occupation intervals."""
    n = trace.n
    intervals = {t: [] for t in range(n)}
    current = {t: (0.0, a) for t, a in enumerate(trace.initial_occupancy)
               if a is not None}
    for ev in trace.events:
        if ev.kind == "failure":
            traj = ev.trajs[0]
            if traj in current:
                start, agent = current.pop(traj)
                intervals[traj].append((start, ev.time, agent))
        elif ev.kind == "switch":
            src, dst = ev.trajs
            if src in current:
                start, agent = current.pop(src)
                intervals[src].append((start, ev.time, agent))
            current[dst] = (ev.time, ev.agents[0])
    for traj, (start, agent) in current.items():
        intervals[traj].append((start, trace.horizon, agent))
    return intervals


def abandoned_time(trace: Trace) -> float:
    """Max over trajectories of the longest unattended interval."""
    worst = 0.0
    for traj, ivals in occupancy_intervals(trace).items():
        t = 0.0
        gap = 0.0
        for start, end, _ in ivals:
            gap = max(gap, start - t)
            t = max(t, end)
        gap = max(gap, trace.horizon - t)
        worst = max(worst, gap)
    return worst


def meeting_times(trace: Trace):
    out = {a: [] for a in range(trace.n)}
    for ev in trace.events:
        if ev.kind == "meeting":
            for a in ev.agents:
                out[a].append(ev.time)
    return out


def starvation_time(trace: Trace):
    """Max over surviving agents of the longest gap between meetings.

    Returns (max_gap, potentially_starving): agents whose final gap runs to
    the end of the horizon are flagged as potentially starving.
    """
    meets = meeting_times(trace)
    worst = 0.0
    flagged = []
    for a in trace.survivors:
        ts = meets[a]
        gap = 0.0
        prev = 0.0
        for t in ts:
            gap = max(gap, t - prev)
            prev = t
        final = trace.horizon - prev
        gap = max(gap, final)
        worst = max(worst, gap)
        if not ts or final >= trace.period:
            flagged.append(a)
    return worst, flagged


def completed_tours(trace: Trace) -> float:
    """Average count of completed tours per trajectory."""
    counts = [0] * trace.n
    for ev in trace.events:
        if ev.kind == "tour-complete":
            counts[ev.trajs[0]] += 1
    return sum(counts) / trace.n if trace.n else 0.0


def _occupancy_at_boundaries(trace: Trace):
    """Occupancy tuple (agent or None per trajectory) at each multiple of T."""
    n, T = trace.n, trace.period
    occ = list(trace.initial_occupancy)
    boundaries = []
    k = 0
    idx = 0
    events = trace.events
    t_b = 0.0
    while t_b <= trace.horizon + 1e-9:
        while idx < len(events) and events[idx].time <= t_b + 1e-9 * T:
            ev = events[idx]
            if ev.kind == "failure":
                occ[ev.trajs[0]] = None
            elif ev.kind == "switch":
                src, dst = ev.trajs
                occ[src] = None
                occ[dst] = ev.agents[0]
            idx += 1
        boundaries.append((t_b, tuple(occ)))
        k += 1
        t_b = k * T
    return boundaries


def prove_starvation(trace: Trace) -> list:
    """Agents proven to starve by state-cycle detection.

    Only valid for deterministic strategies ("alw", "dfs", rand at p in
    {0, 1}): once all failures have occurred, a repeated occupancy state at a
    period boundary closes a cycle; survivors with no meeting inside the
    cycle will never meet again.  Returns the list of proven-starving agents
    (empty when no cycle is found or the strategy is randomized).
    """
    kind = trace.strategy.split(":")[0]
    if kind == "rand" and trace.strategy not in ("rand:0.0", "rand:1.0"):
        return []
    failures = [ev.time for ev in trace.events if ev.kind == "failure"]
    t_stable = max(failures) if failures else 0.0
    boundaries = _occupancy_at_boundaries(trace)
    seen = {}
    cycle = None
    for t_b, occ in boundaries:
        if t_b < t_stable:
            continue
        if occ in seen:
            cycle = (seen[occ], t_b)
            break
        seen[occ] = t_b
    if cycle is None:
        return []
    t0, t1 = cycle
    meets = meeting_times(trace)
    proven = []
    for a in trace.survivors:
        if not any(t0 <= t < t1 for t in meets[a]):
            # no meeting in one full cycle of the recurrent state
            if not any(t >= t0 for t in meets[a]):
                proven.append(a)
    return proven


def report(trace: Trace) -> MetricsReport:
    st, flagged = starvation_time(trace)
    proven = prove_starvation(trace)
    return MetricsReport(
        broadcast_time=broadcast_time(trace),
        abandoned_time=abandoned_time(trace),
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
