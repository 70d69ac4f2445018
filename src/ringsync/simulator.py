"""Deterministic simulation of scheduled agents.

Under a verified schedule every trajectory has a fixed timetable: its
occupant reaches each link position at a fixed epoch (mod T), and an agent
that switches trajectories adopts the target's phase at the link.  Meetings,
absent-neighbor detections, and switches therefore happen only at link
epochs, which the engine processes exactly as a discrete event queue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .commgraph import CommGraph, dfs_forest, edge_key
from .errors import InvalidInstanceError
from .instance import Instance
from .scheduler import Schedule, link_epochs, verify_schedule

# Event sort priorities within one timestamp.
_PRIORITY = {"failure": 0, "emit": 1, "enter-region": 2, "meeting": 3,
             "switch": 4, "exit-region": 5, "tour-complete": 6}


@dataclass
class Strategy:
    kind: str          # "alw" | "rand" | "dfs"
    p: float = 0.5     # rand switch probability
    root: int | str = 0  # dfs root node index, or "topleft"

    def __post_init__(self):
        if self.kind not in ("alw", "rand", "dfs"):
            raise InvalidInstanceError(f"unknown strategy {self.kind!r}")
        if self.kind == "rand" and not (0.0 <= self.p <= 1.0):
            raise InvalidInstanceError(f"rand probability {self.p} outside [0,1]")

    def describe(self) -> str:
        if self.kind == "rand":
            return f"rand:{self.p}"
        if self.kind == "dfs":
            return f"dfs:{self.root}"
        return "alw"


def parse_strategy(text: str) -> Strategy:
    """Parse 'alw', 'rand:<p>', or 'dfs:<root>|dfs:topleft'."""
    parts = text.split(":", 1)
    if parts[0] == "alw":
        return Strategy("alw")
    if parts[0] == "rand":
        p = float(parts[1]) if len(parts) > 1 else 0.5
        return Strategy("rand", p=p)
    if parts[0] == "dfs":
        root = parts[1] if len(parts) > 1 else 0
        if root != "topleft":
            root = int(root)
        return Strategy("dfs", root=root)
    raise InvalidInstanceError(f"unknown strategy {text!r}")


@dataclass
class SimConfig:
    horizon: float
    strategy: Strategy = field(default_factory=lambda: Strategy("alw"))
    seed: int = 0
    failures: list = field(default_factory=list)   # (agent id, time)
    emission_period: float | None = None           # default: schedule period
    record_region_events: bool = False

    def __post_init__(self):
        if self.horizon <= 0:
            raise InvalidInstanceError("horizon must be positive")
        for agent, t in self.failures:
            if not (0.0 <= t <= self.horizon):
                raise InvalidInstanceError(
                    f"failure time {t} for agent {agent} outside [0, horizon]")


@dataclass
class TraceEvent:
    time: float
    kind: str
    agents: list = field(default_factory=list)
    trajs: list = field(default_factory=list)
    location: list | None = None
    msg: str | None = None

    def sort_key(self):
        return (self.time, _PRIORITY[self.kind], tuple(self.trajs),
                tuple(self.agents), self.msg or "")


@dataclass
class Trace:
    n: int
    period: float
    horizon: float
    strategy: str
    seed: int
    initial_occupancy: list          # per trajectory: agent id (identity at start)
    events: list = field(default_factory=list)
    survivors: list = field(default_factory=list)

    def events_of(self, kind: str):
        return [e for e in self.events if e.kind == kind]


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
    """Simulate the scheduled team; returns a deterministic trace."""
    g = graph if graph is not None else instance.graph()
    report = verify_schedule(g, schedule, tol=1e-6)
    if not report.all_synchronized:
        raise InvalidInstanceError("schedule is not synchronized; refusing to simulate")
    n = g.n
    for agent, _ in config.failures:
        if not 0 <= agent < n:
            raise InvalidInstanceError(f"failure agent {agent} outside 0..{n - 1}")
    T = schedule.period
    horizon = config.horizon
    epochs = link_epochs(g, schedule)
    strategy = config.strategy
    rng = np.random.default_rng(config.seed)
    dfs_edges = None
    if strategy.kind == "dfs":
        dfs_edges = set(dfs_forest(g, resolve_root(strategy, instance)).tree_edges())

    occupancy = list(range(n))        # traj -> agent id or None
    agent_traj = list(range(n))       # agent -> traj or None
    entry_time = [0.0] * n            # agent -> time it entered its current traj
    alive = [True] * n
    events: list[TraceEvent] = []

    def close_tours(agent, leave_time):
        """Emit tour-complete events for full periods spent on the (left) trajectory."""
        t0 = entry_time[agent]
        traj = agent_traj[agent]
        k = 1
        while t0 + k * T <= min(leave_time, horizon) + 1e-9 * T:
            events.append(TraceEvent(time=t0 + k * T, kind="tour-complete",
                                     agents=[agent], trajs=[traj]))
            k += 1

    # Timeline construction: failures, emissions, and link epochs merged by time.
    items = []
    for agent, t in config.failures:
        items.append((t, 0, ("failure", agent)))
    em_period = config.emission_period if config.emission_period is not None else T
    # Each agent emits once per emission period of [0, horizon / 2] at a seeded
    # random phase, modeling messages issued at arbitrary instants of the patrol.
    seq = 0
    while seq * em_period <= horizon / 2.0:
        for agent in range(n):
            t_emit = (seq + rng.random()) * em_period
            if t_emit <= horizon:
                items.append((t_emit, 1, ("emit", agent, seq)))
        seq += 1
    for e in sorted(epochs):
        e0 = epochs[e]
        k0 = 0 if e0 > 0 else 1      # link events strictly after t=0
        k = k0
        while e0 + k * T <= horizon:
            items.append((e0 + k * T, 2, ("link", e)))
            k += 1
    items.sort(key=lambda it: (it[0], it[1], it[2]))

    for t, _, item in items:
        if item[0] == "failure":
            agent = item[1]
            if not alive[agent]:
                continue
            close_tours(agent, t)
            traj = agent_traj[agent]
            alive[agent] = False
            occupancy[traj] = None
            agent_traj[agent] = None
            events.append(TraceEvent(time=t, kind="failure", agents=[agent], trajs=[traj]))
        elif item[0] == "emit":
            _, agent, s = item
            if alive[agent]:
                events.append(TraceEvent(time=t, kind="emit", agents=[agent],
                                         trajs=[agent_traj[agent]], msg=f"{agent}:{s}"))
        else:
            i, j = item[1]
            oi, oj = occupancy[i], occupancy[j]
            if oi is None and oj is None:
                continue
            loc = [g.phi(i, j), g.phi(j, i)]
            if oi is not None and oj is not None:
                events.append(TraceEvent(time=t, kind="meeting",
                                         agents=[oi, oj], trajs=[i, j], location=loc))
            else:
                agent = oi if oi is not None else oj
                src = i if oi is not None else j
                dst = j if oi is not None else i
                if strategy_decide(strategy, (i, j), rng, dfs_edges):
                    assert occupancy[dst] is None
                    close_tours(agent, t)
                    occupancy[src] = None
                    occupancy[dst] = agent
                    agent_traj[agent] = dst
                    entry_time[agent] = t
                    events.append(TraceEvent(time=t, kind="switch", agents=[agent],
                                             trajs=[src, dst], location=loc))

    for agent in range(n):
        if alive[agent]:
            close_tours(agent, horizon)

    if config.record_region_events and instance is not None and instance.mode == "circle":
        events.extend(_region_events(instance, g, schedule,
                                     [e for e in events if e.kind == "meeting"],
                                     horizon))

    events.sort(key=TraceEvent.sort_key)
    return Trace(n=n, period=T, horizon=horizon, strategy=strategy.describe(),
                 seed=config.seed, initial_occupancy=list(range(n)),
                 events=events, survivors=[a for a in range(n) if alive[a]])


def _region_events(instance, g, schedule, meetings, horizon):
    """Enter/exit communication-region events bracketing each meeting (circle mode)."""
    out = []
    r = instance.comm_range
    T = schedule.period
    for ev in meetings:
        i, j = ev.trajs
        half = _region_half_width(instance, g, schedule, i, j, ev.time, r, T)
        if half is None:
            continue
        out.append(TraceEvent(time=max(ev.time - half, 0.0), kind="enter-region",
                              agents=list(ev.agents), trajs=[i, j]))
        out.append(TraceEvent(time=min(ev.time + half, horizon), kind="exit-region",
                              agents=list(ev.agents), trajs=[i, j]))
    return out


def _region_half_width(instance, g, schedule, i, j, t_meet, r, T):
    """Bisect for the dwell half-width where inter-agent distance <= range."""
    ci, cj = instance.circles[i], instance.circles[j]
    w = 2.0 * math.pi / T

    def dist(dt):
        t = t_meet + dt
        ai = schedule.starts[i] + (w * t if schedule.dirs[i] == "CCW" else -w * t)
        aj = schedule.starts[j] + (w * t if schedule.dirs[j] == "CCW" else -w * t)
        xi = ci.center.x + ci.radius * math.cos(ai)
        yi = ci.center.y + ci.radius * math.sin(ai)
        xj = cj.center.x + cj.radius * math.cos(aj)
        yj = cj.center.y + cj.radius * math.sin(aj)
        return math.hypot(xj - xi, yj - yi)

    if dist(0.0) > r:
        return None
    lo, hi = 0.0, T / 2.0
    if dist(hi) <= r:
        return hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dist(mid) <= r:
            lo = mid
        else:
            hi = mid
    return lo


def occupancy_check(trace: Trace) -> bool:
    """True iff no instant has two agents on one trajectory."""
    occupancy = {t: a for t, a in enumerate(trace.initial_occupancy) if a is not None}
    where = {a: t for t, a in occupancy.items()}
    for ev in trace.events:
        if ev.kind == "failure":
            agent = ev.agents[0]
            traj = where.pop(agent, None)
            if traj is not None:
                occupancy.pop(traj, None)
        elif ev.kind == "switch":
            agent = ev.agents[0]
            src, dst = ev.trajs
            if occupancy.get(dst) is not None and occupancy.get(dst) != agent:
                return False
            if occupancy.get(src) != agent:
                return False
            del occupancy[src]
            occupancy[dst] = agent
            where[agent] = dst
    return True
