"""Evaluation measures over traces: broadcast, abandoned, starvation, tours."""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from functools import reduce
from itertools import compress, count, islice, repeat
from operator import and_

from .errors import InvalidInstanceError
from .trace import EMIT, MEETING, SWITCH, TOUR_COMPLETE, Trace, parse_strategy

INF = float("inf")


class MetricsReport:
    def __init__(self, broadcast_time: float, abandoned_time: float, starvation_time: float,
                 completed_tours: float, starvation_proven: bool = False,
                 potentially_starving: list | None = None, per_seed: list | None = None):
        self.broadcast_time = broadcast_time      # average, seconds; inf when undeliverable
        self.abandoned_time = abandoned_time      # max over trajectories, seconds
        self.starvation_time = starvation_time    # max over surviving agents, seconds
        self.completed_tours = completed_tours    # average per trajectory
        self.starvation_proven = starvation_proven
        self.potentially_starving = [] if potentially_starving is None else potentially_starving
        self.per_seed = [] if per_seed is None else per_seed

    def row(self, label: str = "") -> str:
        bt = "inf" if math.isinf(self.broadcast_time) else f"{self.broadcast_time:.2f}"
        return (f"{label:>12} | {self.starvation_time:10.2f} | {self.completed_tours:8.2f}"
                f" | {self.abandoned_time:10.2f} | {bt:>10}")


TABLE_HEADER = (f"{'':>12} | {'Max. ST(s)':>10} | {'Avg. CT':>8}"
                f" | {'Max. AT(s)':>10} | {'Avg. BT(s)':>10}")


def _set_bits(x: int) -> list[int]:
    """Positions of the one bits of x, ascending."""
    return [m.start() for m in re.finditer("1", f"{x:b}"[::-1])]


def _gossip_scan(trace: Trace, members: list):
    """When each message last reached one of the given agents.

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
    as there are members, the AND of the members' knowledge tells which
    messages the last of them learned inside the batch, and a pass back over
    the batch finds when.

    Returns (emits, latest): emits maps each message key to its emit time, in
    trace order; latest[k] is the last time a member learned or emitted the
    k-th message of emits, inf if some member never knew it.  members must
    not be empty.
    """
    emit_rows = trace.rows_of("emit")
    emits = dict(zip([trace.msg[r] for r in emit_rows], [trace.time[r] for r in emit_rows]))
    column = {key: k for k, key in enumerate(emits)}
    member = set(members)
    latest = [-INF] * len(emits)
    known = [0] * trace.n             # per agent, bit k: it knows message k
    known_by_all = 0                  # the members' AND, as of the last resolve()
    batch = []                        # (time, bits a member learned)

    def resolve():
        nonlocal known_by_all
        now = reduce(and_, [known[a] for a in member])
        left = now ^ known_by_all
        known_by_all = now
        for t, learned in reversed(batch):
            if not left:
                break
            hit = learned & left
            if hit:
                for k in _set_bits(hit):
                    if t > latest[k]:
                        latest[k] = t
                left ^= hit
        batch.clear()

    agents = trace.agents
    for kind, t, a, b, msg in zip(trace.kind, trace.time, islice(agents, 0, None, 2),
                                  islice(agents, 1, None, 2), trace.msg):
        if kind == MEETING:
            known_a, known_b = known[a], known[b]
            if known_a == known_b:
                continue
            union = known[a] = known[b] = known_a | known_b
            if a in member and union != known_a:
                batch.append((t, union ^ known_a))
            if b in member and union != known_b:
                batch.append((t, union ^ known_b))
            if len(batch) >= len(member):
                resolve()
        elif kind == EMIT:
            k = column[msg]
            known[a] |= 1 << k
            if a in member and t > latest[k]:
                latest[k] = t
    resolve()
    for k in _set_bits(((1 << len(emits)) - 1) ^ known_by_all):
        latest[k] = INF
    return emits, latest


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
    emits, latest = _gossip_scan(trace, trace.survivors)
    if not emits:
        return INF
    if INF in latest:
        return INF
    return sum(t - t0 for t, t0 in zip(latest, emits.values())) / len(emits)


def abandoned_time(trace: Trace) -> float:
    """Max over trajectories of the longest unattended interval; one still
    vacant after the last row runs to the horizon.

    One fold over the failure and switch rows keeps per trajectory the time
    it became vacant, 0.0 for one empty at the start and None while it is
    held.  A row vacates its source only if the source is held, and a switch
    ends its target's vacancy only if the target is vacant.
    """
    vacant = [0.0 if a is None else None for a in trace.initial_occupancy]
    worst = 0.0
    time, kind, trajs = trace.time, trace.kind, trace.trajs
    for r in trace.rows_of("failure", "switch"):
        t, src = time[r], trajs[2 * r]
        if vacant[src] is None:
            vacant[src] = t
        if kind[r] == SWITCH:
            dst = trajs[2 * r + 1]
            if vacant[dst] is not None:
                worst = max(worst, t - vacant[dst])
                vacant[dst] = None
    return max([worst, *(trace.horizon - t for t in vacant if t is not None)])


def starvation_time(trace: Trace):
    """Max over surviving agents of the longest gap between meetings.

    The gaps of an agent run from 0 to its first meeting, between its
    meetings, and from its last meeting to the horizon.  Returns (max_gap,
    potentially_starving): agents whose final gap runs to the end of the
    horizon are flagged as potentially starving.  One fold over the meeting
    rows keeps per agent its latest meeting time (0.0 before any) and its
    longest gap so far, -inf until its first meeting, which is the flag of
    an agent that never met.
    """
    last = [0.0] * trace.n
    longest = [-INF] * trace.n
    rows = trace.mask_of("meeting")
    agents = trace.agents
    for t, a, b in zip(compress(trace.time, rows),
                       compress(islice(agents, 0, None, 2), rows),
                       compress(islice(agents, 1, None, 2), rows)):
        gap = t - last[a]
        if gap > longest[a]:
            longest[a] = gap
        last[a] = t
        gap = t - last[b]
        if gap > longest[b]:
            longest[b] = gap
        last[b] = t
    worst = 0.0
    flagged = []
    for a in trace.survivors:
        final = trace.horizon - last[a]
        worst = max(worst, longest[a], final)
        if longest[a] == -INF or final >= trace.period:
            flagged.append(a)
    return worst, flagged


def completed_tours(trace: Trace) -> float:
    """Average count of completed tours per trajectory."""
    return trace.kind.count(TOUR_COMPLETE) / trace.n if trace.n else 0.0


def prove_starvation(trace: Trace) -> list:
    """Agents proven to starve by state-cycle detection.

    Only valid for deterministic strategies ("alw", "dfs", rand at p in
    {0, 1}): once all failures have occurred, a repeated occupancy state at a
    period boundary closes a cycle; survivors with no meeting inside the
    cycle will never meet again.  Returns the list of proven-starving agents
    (empty when no cycle is found or the strategy is randomized).

    One replay of the switch and failure rows, in trace order, keeps the
    occupant of each trajectory (None for none).  The state at boundary k*T
    is that list once every row up to k*T + 1e-9*T has applied; states are
    kept from the first boundary at or after the last failure up to the
    first repeat or the last boundary at or before horizon + 1e-9*T, and
    the rows before the first boundary apply in one pass.
    Where k*T cannot tell k from k + 1 (the last failure at or past 2**53
    periods), that boundary is the last failure's time, and the next one,
    no later, repeats its state.
    """
    strategy = parse_strategy(trace.strategy)
    if strategy.kind == "rand" and strategy.p not in (0, 1):
        return []
    time, kind, agents, trajs = trace.time, trace.kind, trace.agents, trace.trajs
    T = trace.period
    t_stable = max([0.0, *(time[r] for r in trace.rows_of("failure"))])
    if t_stable / T < 2**53:
        # ceil of the rounded quotient is the first k or the one after it
        k = math.ceil(t_stable / T)
        if k and (k - 1) * T >= t_stable:
            k -= 1
        elif k * T < t_stable:
            k += 1
        boundaries = (j * T for j in count(k))
    else:
        boundaries = repeat(t_stable)
    rows = trace.rows_of("failure", "switch")
    occupant = list(trace.initial_occupancy)
    seen = {}
    t0 = None
    i = 0
    for t_b in boundaries:
        if t_b > trace.horizon + 1e-9 * T:
            break
        cut = t_b + 1e-9 * T
        while i < len(rows) and time[rows[i]] <= cut:
            r = rows[i]
            occupant[trajs[2 * r]] = None
            if kind[r] == SWITCH:
                occupant[trajs[2 * r + 1]] = agents[2 * r]
            i += 1
        state = tuple(occupant)
        if state in seen:
            t0 = seen[state]        # the recurrent state's first visit
            break
        seen[state] = t_b
    if t0 is None:
        return []
    # No meeting at or after the cycle's start: none in one full cycle of the
    # recurrent state, so none ever again.
    start = bisect_left(time, t0)
    rows = trace.mask_of("meeting")[start:]
    met = set(compress(islice(agents, 2 * start, None, 2), rows))
    met.update(compress(islice(agents, 2 * start + 1, None, 2), rows))
    return [a for a in trace.survivors if a not in met]


def report(trace: Trace) -> MetricsReport:
    """The trace's measures; raises InvalidInstanceError unless its header's
    survivors are exactly the agents that no failure row names."""
    failed = {trace.agents[2 * r] for r in trace.rows_of("failure")}
    if len(trace.survivors) + len(failed) != trace.n or not failed.isdisjoint(trace.survivors):
        raise InvalidInstanceError(
            f"trace header survivors are not the {trace.n - len(failed)} agents "
            "without a failure row")
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
