"""Message dissemination derived from emits and meetings.

The oracle is the hand-off loop the simulator used to run at every meeting:
per-agent sets of known messages, where a meeting gives each agent the
messages only the other knows and leaves both with the union.  Replayed over
a trace's emit and meeting events in trace order, it must give exactly the
completion times of the library's gossip scan, `metrics._gossip_scan`, for
every message and every member list tried (each agent alone, which gives its
first-knowledge times, the survivors and all agents), and the same
`broadcast_time`.  An emit of a key that was emitted before keeps the key's
first column and takes the later emit time, in the oracle as in the scan.
"""

import tracemalloc
from functools import lru_cache

from hypothesis import given, settings, strategies as st

import ringsync as rs
from conftest import event, trace_of, trace_order, trace_rows
from ringsync.metrics import INF, _gossip_scan, broadcast_time
from ringsync.scheduler import verify_schedule
from ringsync.simulator import SimConfig, run
from ringsync.trace import Strategy


def reference_arrivals(trace):
    """Per message key, {agent: first time it knew the message}, by known sets."""
    known = [set() for _ in range(trace.n)]
    received = {}
    for ev in trace_rows(trace, "emit", "meeting"):
        if ev["kind"] == "emit":
            agent = ev["agents"][0]
            known[agent].add(ev["msg"])
            received.setdefault(ev["msg"], {})[agent] = ev["time"]
        else:
            a, b = ev["agents"]
            for msg in known[a] - known[b]:
                received[msg][b] = ev["time"]
            for msg in known[b] - known[a]:
                received[msg][a] = ev["time"]
            union = known[a] | known[b]
            known[a] = set(union)
            known[b] = set(union)
    return received


def reference_broadcast_time(trace, received):
    """The average over messages of the time to reach every survivor."""
    survivors = set(trace.survivors)
    if not survivors:
        return INF
    emit = {ev["msg"]: ev["time"] for ev in trace_rows(trace, "emit")}
    if not emit:
        return INF
    times = []
    for key, t0 in emit.items():
        got = received.get(key, {})
        if not survivors <= set(got):
            return INF
        times.append(max(got[a] for a in survivors) - t0)
    return sum(times) / len(times)


def assert_matches_reference(trace):
    received = reference_arrivals(trace)
    emit = {ev["msg"]: ev["time"] for ev in trace_rows(trace, "emit")}
    groups = [[a] for a in range(trace.n)] + [trace.survivors, list(range(trace.n))]
    for members in filter(None, groups):
        emits, latest = _gossip_scan(trace, members)
        assert list(emits.items()) == list(emit.items())
        assert latest == [max(received[key].get(a, INF) for a in members)
                          for key in emits], members
    assert broadcast_time(trace) == reference_broadcast_time(trace, received)


@lru_cache(maxsize=None)
def scheduled(kind, a, b):
    """(instance, synchronized subgraph, schedule) of a grid or random layout."""
    inst = rs.grid(a, b) if kind == "grid" else rs.random_connected(a, seed=b)
    g = rs.max_synch_subgraph(rs.max_bipartite_subgraph(inst.graph()))
    return inst, g, rs.schedule_opposite_directions(g, period=1.0)


@st.composite
def simulations(draw):
    if draw(st.booleans()):
        layout = ("grid", draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    else:
        layout = ("random", draw(st.integers(2, 12)), draw(st.integers(0, 30)))
    inst, g, sched = scheduled(*layout)
    horizon = float(draw(st.integers(1, 8)))
    link_instants = sorted(e + k for e in verify_schedule(g, sched).values()
                           for k in range(int(horizon)) if e + k <= horizon)
    # Half the failures land on a link instant, so they tie with meetings.
    fail_time = st.floats(0.0, horizon)
    if link_instants:
        fail_time = st.one_of(fail_time, st.sampled_from(link_instants))
    failed = draw(st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.n // 2))
    strategy = draw(st.one_of(
        st.just(Strategy("alw")),
        st.floats(0.0, 1.0).map(lambda p: Strategy("rand", p=p)),
        st.integers(0, g.n - 1).map(lambda root: Strategy("dfs", root=root))))
    config = SimConfig(horizon=horizon, strategy=strategy,
                       seed=draw(st.integers(0, 10_000)),
                       failures=[(agent, draw(fail_time)) for agent in failed],
                       emission_period=draw(st.sampled_from([None, 0.4, 2.5])))
    return run(inst, sched, config, graph=g)


@given(simulations())
@settings(max_examples=150, deadline=None)
def test_arrival_times_match_known_set_handoff(trace):
    # The simulator never emits a key twice.
    keys = [ev["msg"] for ev in trace_rows(trace, "emit")]
    assert len(set(keys)) == len(keys)
    assert_matches_reference(trace)


@st.composite
def synthetic_traces(draw):
    """Emits and meetings on a few integer instants, so most events tie;
    some emits repeat a key."""
    n = draw(st.integers(2, 5))
    agent = st.integers(0, n - 1)
    time = st.integers(0, 4).map(float)
    events = []
    for k in range(draw(st.integers(0, 25))):
        if draw(st.booleans()):
            origin = draw(agent)
            key = draw(st.sampled_from([f"{origin}:{k}", "shared", "other"]))
            events.append(event(draw(time), "emit", [origin], msg=key))
        else:
            a, b = sorted(draw(st.lists(agent, min_size=2, max_size=2, unique=True)))
            events.append(event(draw(time), "meeting", [a, b]))
    events.sort(key=trace_order)
    survivors = draw(st.lists(agent, unique=True))
    return trace_of(events, n=n, period=1.0, horizon=5.0, strategy="alw", seed=0,
                    initial_occupancy=list(range(n)), survivors=sorted(survivors))


@given(synthetic_traces())
@settings(max_examples=300, deadline=None)
def test_arrival_times_match_reference_on_ties(trace):
    assert_matches_reference(trace)


def test_same_instant_order():
    # At t=1: agent 1 emits, then links (0,1) and (1,2) meet in edge order.
    # Agent 0 learns agent 2's message only at t=2, through agent 1.
    events = [event(1.0, "meeting", [1, 2]), event(1.0, "meeting", [0, 1]),
              event(1.0, "emit", [1], msg="1:0"), event(0.5, "emit", [2], msg="2:0"),
              event(2.0, "meeting", [0, 1])]
    events.sort(key=trace_order)
    trace = trace_of(events, n=3, period=1.0, horizon=3.0, strategy="alw", seed=0,
                     initial_occupancy=[0, 1, 2], survivors=[0, 1, 2])
    assert _gossip_scan(trace, [0, 1, 2]) == ({"2:0": 0.5, "1:0": 1.0}, [2.0, 1.0])
    arrival = [_gossip_scan(trace, [a])[1] for a in range(3)]     # each agent alone
    assert arrival == [[2.0, 1.0], [1.0, 1.0], [0.5, 1.0]]
    assert broadcast_time(trace) == ((2.0 - 0.5) + (1.0 - 1.0)) / 2
    assert_matches_reference(trace)


def test_repeated_emit_key():
    # "k" is emitted by 0, then again by 1 and 2 after they learned it, and
    # "x" by 2 and later by the non-survivor 3: each key keeps its first
    # column and its last emit time, and an emit restarts the emitter's
    # arrival time, even after every survivor knew the key.
    events = [event(0.5, "emit", [0], msg="k"), event(1.0, "meeting", [0, 1]),
              event(1.5, "emit", [2], msg="x"), event(2.0, "emit", [1], msg="k"),
              event(2.5, "meeting", [1, 2]), event(3.0, "emit", [2], msg="k"),
              event(3.5, "meeting", [0, 1]), event(4.0, "emit", [3], msg="x")]
    trace = trace_of(events, n=4, period=1.0, horizon=5.0, strategy="alw", seed=0,
                     initial_occupancy=[0, 1, 2, 3], survivors=[0, 1, 2])
    emits, latest = _gossip_scan(trace, [0, 1, 2])
    assert emits == {"k": 3.0, "x": 4.0} and list(emits) == ["k", "x"]
    assert latest == [3.0, 3.5]
    arrival = [_gossip_scan(trace, [a])[1] for a in range(4)]     # each agent alone
    assert arrival == [[0.5, 3.5], [2.0, 2.5], [3.0, 1.5], [INF, 4.0]]
    assert broadcast_time(trace) == ((3.0 - 3.0) + (3.5 - 4.0)) / 2
    assert_matches_reference(trace)


def test_broadcast_time_memory_is_far_below_arrival_matrices():
    # Hypercube gossip: 1024 agents each emit at t=0, and at t=r+1 every
    # agent meets the one whose id differs in bit r.  After round r each
    # agent knows 2**(r+1) messages, so every message reaches its last
    # agent at t=10.  A float arrival matrix and a bool informed matrix
    # would take 9 bytes per agent and message.
    n, rounds = 1024, 10
    events = [event(0.0, "emit", [a], msg=f"{a}:0") for a in range(n)]
    for r in range(rounds):
        events += [event(r + 1.0, "meeting", [a, a | 1 << r])
                   for a in range(n) if not a & 1 << r]
    trace = trace_of(events, n=n, period=1.0, horizon=11.0, strategy="alw", seed=0,
                     initial_occupancy=list(range(n)), survivors=list(range(n)))
    tracemalloc.start()
    try:
        bt = broadcast_time(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bt == 10.0
    assert peak < 9 * n * n / 10, peak
