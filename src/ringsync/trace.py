"""The trace: a simulation's header and its event table.

A trace stores its events as one table of numpy columns (see `Trace`);
`TraceEvent` is the row type that tests, demos and oracles read through
`Trace.events` and `Trace.events_of`.  Which agent held which trajectory
when is computed in one place, `occupancy_replay`: the simulator takes its
tour rows from it, and the metrics read abandoned time and starvation from
it.  This module needs numpy only, so reading and measuring a trace loads no
geometry, graph or scheduling code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import is_not

import numpy as np

from .errors import InvalidInstanceError, check_positive

# Event kinds; a kind's code in the table is its index here, which is also
# its sort priority among events at one timestamp.
EVENT_KINDS = ("failure", "emit", "meeting", "switch", "tour-complete")
FAILURE, EMIT, MEETING, SWITCH, TOUR_COMPLETE = range(len(EVENT_KINDS))
_PRIORITY = {kind: code for code, kind in enumerate(EVENT_KINDS)}
# Per kind code: how many agents and how many trajectories an event names.
_ARITY = np.array([(1, 1), (1, 1), (2, 2), (1, 2), (1, 1)])
# The second agent or trajectory id of an event that names only one.
NO_ID = -1
# Rows that the trace writer, the trace reader and the gossip scan hold as
# Python values at a time, so that their memory beyond the table does not
# grow with the trace.
CHUNK_ROWS = 1024


@dataclass
class Strategy:
    """A switch strategy; `describe()` is the trace header's `strategy`."""
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
    parts = text.split(":", 1) if type(text) is str else [None]
    if parts[0] == "alw":
        return Strategy("alw")
    try:
        if parts[0] == "rand":
            return Strategy("rand", p=float(parts[1]) if len(parts) > 1 else 0.5)
        if parts[0] == "dfs":
            root = parts[1] if len(parts) > 1 else "0"
            return Strategy("dfs", root=root if root == "topleft" else int(root))
    except ValueError:
        raise InvalidInstanceError(f"malformed strategy parameter in {text!r}") from None
    raise InvalidInstanceError(f"unknown strategy {text!r}")


@dataclass
class TraceEvent:
    """One trace row, as tests, demos and oracles read it."""
    time: float
    kind: str
    agents: list = field(default_factory=list)
    trajs: list = field(default_factory=list)
    location: list | None = None
    msg: str | None = None

    def sort_key(self):
        return (self.time, _PRIORITY[self.kind], tuple(self.trajs),
                tuple(self.agents), self.msg or "")


def _ids(shape=(0, 2)):
    return np.full(shape, NO_ID, dtype=np.int64)


@dataclass(eq=False)
class Trace:
    """A simulation's header and its event table, one row per event in trace order.

    Columns, each indexed by row:
      time      float64 event time;
      kind      int8 code into EVENT_KINDS (also the priority at one instant);
      agents    m x 2 int64 agent ids, NO_ID (-1) in the second column
                when the event names one agent;
      trajs     m x 2 int64 trajectory ids, padded the same way;
      location  m x 2 float64 link positions, NaN where the event has none;
      msg       object array: the message key of an emit, None otherwise.
    `events` and `events_of` view rows as `TraceEvent` objects;
    `from_events` and `from_columns` build a table from Python values.  A
    period or horizon that is not finite and positive raises
    InvalidInstanceError, since the metrics step through time by them.
    """
    n: int
    period: float
    horizon: float
    strategy: str
    seed: int
    initial_occupancy: list          # per trajectory: agent id (identity at start)
    survivors: list = field(default_factory=list)
    time: np.ndarray = field(default_factory=lambda: np.zeros(0))
    kind: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int8))
    agents: np.ndarray = field(default_factory=_ids)
    trajs: np.ndarray = field(default_factory=_ids)
    location: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    msg: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=object))

    def __post_init__(self):
        check_positive("trace header period", self.period)
        check_positive("trace header horizon", self.horizon)

    def __len__(self) -> int:
        return len(self.time)

    def rows_of(self, *kinds: str) -> np.ndarray:
        """Indices of the rows of the given kinds, in trace order."""
        return np.flatnonzero(np.isin(self.kind, [_PRIORITY[k] for k in kinds]))

    def _rows(self, idx) -> list[TraceEvent]:
        cols = (self.time[idx].tolist(), self.kind[idx].tolist(),
                self.agents[idx].tolist(), self.trajs[idx].tolist(),
                self.location[idx].tolist(), self.msg[idx].tolist())
        return [TraceEvent(time=t, kind=EVENT_KINDS[k], agents=a[:1] if a[1] == NO_ID else a,
                           trajs=j[:1] if j[1] == NO_ID else j,
                           location=None if math.isnan(loc[0]) else loc, msg=m)
                for t, k, a, j, loc, m in zip(*cols)]

    @property
    def events(self) -> list[TraceEvent]:
        """Every row as a TraceEvent (a copy: editing it leaves the table unchanged)."""
        return self._rows(slice(None))

    def events_of(self, kind: str) -> list[TraceEvent]:
        return self._rows(self.rows_of(kind))

    @classmethod
    def from_events(cls, events, **header) -> Trace:
        """Table of the given rows, in the given order."""
        return cls.from_columns([e.time for e in events], [e.kind for e in events],
                                [e.agents for e in events], [e.trajs for e in events],
                                [e.location for e in events], [e.msg for e in events],
                                **header)

    @classmethod
    def from_columns(cls, time, kind, agents, trajs, location, msg, **header) -> Trace:
        """Table from per-event Python values, validated once per column.

        kind holds names, agents and trajs lists of ids, location a list of
        two numbers or None, msg a str or None.  Raises InvalidInstanceError
        for an unknown kind, ids that are not 1-2 ints in 0..n-1 (as many as
        the kind names), a non-finite time or location, or times out of order.
        """
        n, m = header["n"], len(time)
        try:
            codes = list(map(_PRIORITY.get, kind))
        except TypeError:             # an unhashable kind
            codes = [None]
        if None in codes:
            bad = next(k for k in kind if type(k) is not str or k not in _PRIORITY)
            raise InvalidInstanceError(f"trace event kind {bad!r} is not one of {EVENT_KINDS}")
        codes = np.array(codes, dtype=np.int8)
        times = _finite_column(time, "time")
        if np.any(times[1:] < times[:-1]):
            raise InvalidInstanceError("trace events are not in time order")
        present = np.fromiter(map(is_not, location, repeat(None)), dtype=bool, count=m)
        pairs = [loc for loc in location if loc is not None]
        if not (set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) <= {2}):
            bad = next(p for p in pairs if type(p) not in (list, tuple) or len(p) != 2)
            raise InvalidInstanceError(f"trace event location {bad!r} is not null "
                                       "or two numbers")
        locs = np.full((m, 2), math.nan)
        locs[present] = _finite_column(list(chain.from_iterable(pairs)),
                                       "location").reshape(-1, 2)
        if not set(map(type, msg)) <= {str, type(None)}:
            bad = next(x for x in msg if x is not None and type(x) is not str)
            raise InvalidInstanceError(f"trace event msg {bad!r} is not a string or null")
        return cls(**header, time=times, kind=codes,
                   agents=_id_column(agents, n, _ARITY[codes, 0], "agents"),
                   trajs=_id_column(trajs, n, _ARITY[codes, 1], "trajs"),
                   location=locs, msg=np.array(msg, dtype=object))


def _id_column(values, n: int, arity: np.ndarray, key: str) -> np.ndarray:
    """m x 2 ids, NO_ID padded, from lists of ids whose lengths must equal arity."""
    ok = set(map(type, values)) <= {list, tuple} and list(map(len, values)) == arity.tolist()
    flat = list(chain.from_iterable(values)) if ok else []
    ok = ok and set(map(type, flat)) <= {int}
    try:
        ids = np.array(flat if ok else [], dtype=np.int64)
    except OverflowError:         # an int beyond int64, so not an id either
        ok = False
    if not ok or (ids.size and not 0 <= ids.min() <= ids.max() < n):
        bad = next(v for v, k in zip(values, arity)
                   if type(v) not in (list, tuple) or len(v) != k
                   or any(type(a) is not int or not 0 <= a < n for a in v))
        raise InvalidInstanceError(
            f"trace event {key} {bad!r} is not a list of 1-2 ids in 0..{n - 1} "
            "matching its kind")
    starts = np.cumsum(arity) - arity
    out = _ids((len(values), 2))
    out[:, 0] = ids[starts]
    two = arity == 2
    out[two, 1] = ids[starts[two] + 1]
    return out


def _finite_column(values, key: str) -> np.ndarray:
    """float64 column of JSON numbers, all finite."""
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise InvalidInstanceError(f"trace event {key} {bad!r} is not a number")
    try:
        col = np.array(values, dtype=np.float64)
    except OverflowError:
        raise InvalidInstanceError(f"trace event {key} holds an integer beyond "
                                   "the float range") from None
    if not np.isfinite(col).all():
        bad = values[int(np.flatnonzero(~np.isfinite(col))[0])]
        raise InvalidInstanceError(f"trace event {key} {bad!r} is not finite")
    return col


def expand_ranges(first: np.ndarray, last: np.ndarray):
    """(g, k) for every k in first[g]..last[g] of every group g, in group order."""
    counts = np.maximum(last - first + 1, 0)
    group = np.repeat(np.arange(len(counts)), counts)
    k = np.arange(len(group)) - np.repeat(np.cumsum(counts) - counts, counts) + first[group]
    return group, k


@dataclass
class Occupancy:
    """Occupation intervals from one replay of a trace's switch and failure rows.

    Interval k: `agent[k]` held `traj[k]` from `start[k]` to `end[k]`; `end`
    is inf when the agent still holds the trajectory after the last row.  Per
    trajectory, intervals are in time order.  `consistent` is False when some
    row moves or fails an agent that does not hold the row's source
    trajectory, or a switch lands on a trajectory another agent holds.
    """
    traj: np.ndarray
    agent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    consistent: bool


def occupancy_replay(trace: Trace) -> Occupancy:
    """Replay the switch and failure rows once, in trace order."""
    current = {traj: (0.0, a) for traj, a in enumerate(trace.initial_occupancy)
               if a is not None}
    closed = []                       # (traj, agent, start, end)
    consistent = True
    rows = trace.rows_of("failure", "switch")
    for t, kind, agent, (src, dst) in zip(trace.time[rows].tolist(),
                                          trace.kind[rows].tolist(),
                                          trace.agents[rows, 0].tolist(),
                                          trace.trajs[rows].tolist()):
        held = current.pop(src, None)
        if held is not None:
            closed.append((src, held[1], held[0], t))
        if held is None or held[1] != agent:
            consistent = False
        if kind == SWITCH:
            other = current.get(dst)
            if other is not None:
                consistent = False
                closed.append((dst, other[1], other[0], t))
            current[dst] = (t, agent)
    closed += [(traj, a, start, math.inf) for traj, (start, a) in current.items()]
    traj, agent, start, end = (np.array(col) for col in zip(*closed)) if closed else \
        (np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), np.zeros(0))
    order = np.argsort(traj, kind="stable")
    return Occupancy(traj=traj[order], agent=agent[order], start=start[order],
                     end=end[order], consistent=consistent)


def occupancy_check(trace: Trace) -> bool:
    """True iff every switch and failure moves the agent holding its source
    trajectory, and no switch lands on a trajectory another agent holds, so
    no instant has two agents on one trajectory."""
    return occupancy_replay(trace).consistent
