"""The columnar trace table against row-based references.

The references are the row-at-a-time code the table replaced, over the rows
as the trace file's event objects, which `conftest.trace_rows` reads field
by field from the columns: trace order by (time, kind priority, trajs,
agents, msg), one `_dumps` call per event line, and metrics that walk the
rows.  On the simulations of `test_gossip.py` (grids and random layouts,
every strategy, failures at link instants), the table must give the same
lines, survive a write and read column for column, rebuild through
`Trace.extend`, and give the same report.  The report must also equal the
references on hand-built traces that no simulation writes.
"""

from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

import ringsync as rs
from ringsync.errors import InvalidInstanceError
from ringsync.simulator import SimConfig, run
from ringsync.trace import FORMAT_VERSION, Trace, _dumps, trace_from_lines
from conftest import (BAD_TRACE_HEADERS, event, reference_intervals, trace_lines, trace_of,
                      trace_order, trace_rows)
from test_gossip import reference_arrivals, reference_broadcast_time, simulations

HEADER_KEYS = ("n", "period", "horizon", "strategy", "seed", "initial_occupancy",
               "survivors")


def reference_lines(trace, events):
    header = {"format_version": FORMAT_VERSION, "type": "header",
              **{key: getattr(trace, key) for key in HEADER_KEYS}}
    return [_dumps(header)] + [_dumps({"type": "event", **e}) for e in events]


def reference_abandoned(trace, events):
    worst = 0.0
    for ivals in reference_intervals(trace, events).values():
        t = gap = 0.0
        for start, end, _ in ivals:
            gap = max(gap, start - t)
            t = max(t, end)
        worst = max(worst, gap, trace.horizon - t)
    return worst


def reference_meeting_times(trace, events):
    out = {a: [] for a in range(trace.n)}
    for ev in events:
        if ev["kind"] == "meeting":
            for a in ev["agents"]:
                out[a].append(ev["time"])
    return out


def reference_starvation(trace, events):
    meets = reference_meeting_times(trace, events)
    worst = 0.0
    flagged = []
    for a in trace.survivors:
        gap = prev = 0.0
        for t in meets[a]:
            gap = max(gap, t - prev)
            prev = t
        final = trace.horizon - prev
        worst = max(worst, gap, final)
        if not meets[a] or final >= trace.period:
            flagged.append(a)
    return worst, flagged


def reference_proven(trace, events):
    if trace.strategy.startswith("rand") and float(trace.strategy[5:]) not in (0.0, 1.0):
        return []
    failures = [ev["time"] for ev in events if ev["kind"] == "failure"]
    t_stable = max(failures) if failures else 0.0
    occ = list(trace.initial_occupancy)
    seen, t0, idx, k = {}, None, 0, 0
    while k * trace.period <= trace.horizon + 1e-9:
        t_b = k * trace.period
        while idx < len(events) and events[idx]["time"] <= t_b + 1e-9 * trace.period:
            ev = events[idx]
            if ev["kind"] == "failure":
                occ[ev["trajs"][0]] = None
            elif ev["kind"] == "switch":
                occ[ev["trajs"][0]] = None
                occ[ev["trajs"][1]] = ev["agents"][0]
            idx += 1
        if t_b >= t_stable:
            if tuple(occ) in seen:
                t0 = seen[tuple(occ)]
                break
            seen[tuple(occ)] = t_b
        k += 1
    if t0 is None:
        return []
    meets = reference_meeting_times(trace, events)
    return [a for a in trace.survivors if not any(t >= t0 for t in meets[a])]


def reference_report(trace, events):
    st, flagged = reference_starvation(trace, events)
    proven = reference_proven(trace, events)
    tours = sum(1 for ev in events if ev["kind"] == "tour-complete")
    return (reference_abandoned(trace, events), st,
            tours / trace.n if trace.n else 0.0, bool(proven),
            sorted(set(flagged) | set(proven)))


def assert_same_table(a, b):
    for key in HEADER_KEYS:
        assert getattr(a, key) == getattr(b, key), key
    # Bytes, so that the NO_ID and NaN padding is compared too.
    for key in ("time", "kind", "agents", "trajs", "location"):
        col_a, col_b = getattr(a, key), getattr(b, key)
        assert col_a.typecode == col_b.typecode and col_a.tobytes() == col_b.tobytes(), key
    assert a.msg == b.msg


@given(simulations())
@settings(max_examples=100, deadline=None)
def test_table_matches_row_references(trace):
    events = trace_rows(trace)
    keys = list(map(trace_order, events))
    assert keys == sorted(keys)
    lines = trace_lines(trace)
    assert lines == reference_lines(trace, events)
    assert_same_table(trace_from_lines(lines), trace)
    header = {key: getattr(trace, key) for key in HEADER_KEYS}
    assert_same_table(trace_of(events, **header), trace)
    rep = rs.report(trace)
    assert (rep.abandoned_time, rep.starvation_time, rep.completed_tours,
            rep.starvation_proven, rep.potentially_starving) == \
        reference_report(trace, events)
    assert rep.broadcast_time == reference_broadcast_time(trace, reference_arrivals(trace))


@given(simulations())
@settings(max_examples=100, deadline=None)
def test_read_table_and_report_equal_the_simulated(trace):
    # The reader's table is the simulator's, column for column, padding included.
    read = trace_from_lines(trace_lines(trace))
    m = len(trace)
    for table in (trace, read):
        assert [(getattr(table, key).typecode, len(getattr(table, key)))
                for key in ("time", "kind", "agents", "trajs", "location")] == \
            [("d", m), ("b", m), ("q", 2 * m), ("q", 2 * m), ("d", 2 * m)]
        assert type(table.msg) is list and len(table.msg) == m
    assert_same_table(read, trace)
    assert vars(rs.report(read)) == vars(rs.report(trace))


@st.composite
def hand_built_traces(draw):
    """Traces that no simulation writes: switches from a trajectory the agent
    does not hold and onto an occupied one, failures on any trajectory,
    agents that meet themselves, empty initial trajectories and survivors
    that may never meet, under every deterministic strategy and rand:0.5.
    Rows fall at period boundaries k*T, just after them (1e-10*T and
    1e-9*T, the boundary's cut, then 2e-9*T) and mid-period, up to the last
    instant a trace may hold, horizon + 1e-9*T."""
    n = draw(st.integers(1, 5))
    T = draw(st.sampled_from([1.0, 0.3, 80.0]))
    periods = draw(st.integers(1, 6))
    horizon = periods * T + draw(st.sampled_from([0.0, 0.5])) * T
    agent = st.integers(0, n - 1)
    time = st.builds(lambda k, offset: k * T + offset * T, st.integers(0, periods),
                     st.sampled_from([0.0, 1e-10, 1e-9, 2e-9, 0.5])
                     ).filter(lambda t: t <= horizon + 1e-9 * T)

    def row(kind, agents, trajs):
        return {"time": draw(time), "kind": kind, "agents": agents, "trajs": trajs,
                "location": None, "msg": None}

    failed = draw(st.lists(agent, unique=True))
    events = [row("failure", [a], [draw(agent)]) for a in failed]
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["meeting", "switch", "tour-complete"]))
        if kind == "meeting":
            pair = [draw(agent), draw(agent)]
            events.append(row(kind, pair, pair))
        elif kind == "switch":
            events.append(row(kind, [draw(agent)], [draw(agent), draw(agent)]))
        else:
            a = draw(agent)
            events.append(row(kind, [a], [a]))
    events.sort(key=itemgetter("time"))
    held = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    occupancy = [a if keep else None
                 for a, keep in zip(draw(st.permutations(range(n))), held)]
    survivors = draw(st.permutations([a for a in range(n) if a not in failed]))
    strategy = draw(st.sampled_from(["alw", "dfs:0", "rand:0", "rand:1", "rand:0.5"]))
    return trace_of(events, n=n, period=T, horizon=horizon, strategy=strategy, seed=0,
                    initial_occupancy=occupancy, survivors=survivors)


@given(hand_built_traces())
@settings(max_examples=500, deadline=None)
def test_report_matches_row_references_on_hand_built_traces(trace):
    rep = rs.report(trace)
    assert (rep.abandoned_time, rep.starvation_time, rep.completed_tours,
            rep.starvation_proven, rep.potentially_starving) == \
        reference_report(trace, trace_rows(trace))


def signed_zero_table(build: str) -> Trace:
    """A table whose first chunk holds a -0.0 and a 0.0 time, in both orders."""
    if build == "run":
        inst = rs.grid(2, 2)
        sched = rs.schedule_opposite_directions(inst.graph(), period=10.0)
        return run(inst, sched, SimConfig(horizon=20.0, failures=[(1, -0.0), (2, 0.0)]))
    return trace_of(
        [event(0.0, "failure", [0]), event(-0.0, "failure", [1]),
         event(0.0, "emit", [2], msg="2:0"), event(1.5, "emit", [2], msg="2:1")],
        n=3, period=1.0, horizon=2.0, strategy="alw", seed=0,
        initial_occupancy=[0, 1, 2], survivors=[2])


@pytest.mark.parametrize("build", ["run", "extend"])
def test_signed_zero_times_are_written_with_their_sign(build):
    # -0.0 == 0.0, so a memo of time strings keyed by the float wrote the
    # first zero's sign for both
    trace = signed_zero_table(build)
    assert {repr(t) for t in trace.time} >= {"-0.0", "0.0"}
    assert trace_lines(trace) == reference_lines(trace, trace_rows(trace))


@pytest.mark.parametrize("time,ok", [
    (-5.0, False), (-1e-300, False), (-0.0, True), (0.0, True),
    (30.0, True), (30.0 + 1e-9 * 3.0, True), (30.0 + 2e-9 * 3.0, False), (55.0, False)])
def test_event_times_outside_the_horizon_are_errors(time, ok):
    """A row lies in [0, horizon + 1e-9*T], the last instant at which the
    simulator completes a tour."""
    header = dict(n=2, period=3.0, horizon=30.0, strategy="alw", seed=0,
                  initial_occupancy=[0, 1], survivors=[0, 1])
    events = [event(time, "emit", [0], msg="0:0")]
    if ok:
        assert list(trace_of(events, **header).time) == [time]
    else:
        with pytest.raises(InvalidInstanceError, match="outside"):
            trace_of(events, **header)


@pytest.mark.parametrize("fields,word", BAD_TRACE_HEADERS)
def test_trace_built_with_bad_header_is_error(fields, word):
    """A Trace built in the library rejects each header the trace reader
    rejects, with the same message."""
    header = dict(n=9, period=300.0, horizon=3000.0, strategy="alw", seed=0,
                  initial_occupancy=list(range(9)), survivors=list(range(9)))
    with pytest.raises(InvalidInstanceError, match=word):
        Trace(**{**header, **fields})
