"""The trace: a simulation's header and its event table.

A trace stores its events as one table of standard-library columns (see
`Trace`); the trace file's event object, one JSON line per row, is the only
other form a row takes.  Which agent held which trajectory when is read back
from a trace in one place, `occupancy_replay`, from which the metrics take
abandoned time and starvation; the simulator, which makes the moves,
releases each occupation's tour rows as it goes.
This module needs only the standard library, so reading and measuring a
trace loads neither numpy nor any geometry, graph or scheduling code.
"""

from __future__ import annotations

import gc
import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress, count
from operator import itemgetter

from .errors import InvalidInstanceError, check_positive

# Event kinds; a kind's code in the table is its index here, which is also
# its sort priority among events at one timestamp.
EVENT_KINDS = ("failure", "emit", "meeting", "switch", "tour-complete")
FAILURE, EMIT, MEETING, SWITCH, TOUR_COMPLETE = range(len(EVENT_KINDS))
_PRIORITY = {kind: code for code, kind in enumerate(EVENT_KINDS)}
# Per kind code: how many agents and how many trajectories an event names.
_AGENT_ARITY = (1, 1, 2, 1, 1)
_TRAJ_ARITY = (1, 1, 2, 2, 1)
# The second agent or trajectory id of an event that names only one.
NO_ID = -1
# The location of an event that has none.
_NO_LOCATION = (math.nan, math.nan)
# Rows that the trace writer and the trace reader hold as Python values at a
# time, so that their memory beyond the table does not grow with the trace.
CHUNK_ROWS = 1024


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector while a trace's rows are built as
    Python objects: they hold no cycles, so its collections would only
    rescan them.  They took about a tenth of the parse time of a 40x40 grid
    trace, and two fifths of `simulator.run` on a 60x60 grid."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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


@dataclass(eq=False)
class Trace:
    """A simulation's header and its event table, one row per event in trace order.

    Columns, each indexed by row; the pair columns hold row r's two entries
    at 2r and 2r + 1:
      time      array('d'): event time;
      kind      array('b'): code into EVENT_KINDS (also the priority at one
                instant);
      agents    array('q'), pairs: agent ids, NO_ID (-1) second when the
                event names one agent;
      trajs     array('q'), pairs: trajectory ids, padded the same way;
      location  array('d'), pairs: link positions, NaN where the event has
                none;
      msg       list: the message key of an emit, None otherwise.
    The header is checked when a Trace is built, and each row by `extend`,
    which the trace reader calls; columns given to the constructor are not
    checked.
    """
    n: int
    period: float
    horizon: float
    strategy: str
    seed: int
    initial_occupancy: list          # per trajectory: agent id (identity at start)
    survivors: list = field(default_factory=list)
    time: array = field(default_factory=lambda: array("d"))
    kind: array = field(default_factory=lambda: array("b"))
    agents: array = field(default_factory=lambda: array("q"))
    trajs: array = field(default_factory=lambda: array("q"))
    location: array = field(default_factory=lambda: array("d"))
    msg: list = field(default_factory=list)

    def __post_init__(self):
        n, survivors, occupancy = self.n, self.survivors, self.initial_occupancy
        if type(n) is not int or not 0 <= n <= 2**63:     # ids are int64
            raise InvalidInstanceError(f"trace header n {n!r} is not an agent count")
        if not (isinstance(survivors, list) and isinstance(occupancy, list)):
            raise InvalidInstanceError("trace header survivors and initial_occupancy must be lists")
        held = [a for a in occupancy if a is not None]
        for key, ids in (("survivors", survivors), ("initial_occupancy", held)):
            bad = [a for a in ids if type(a) is not int or not 0 <= a < n]
            if bad:
                raise InvalidInstanceError(
                    f"trace header {key} holds {bad[0]!r}, not an agent id in 0..{n - 1}")
        if len(occupancy) != n:
            raise InvalidInstanceError(f"trace header initial_occupancy has {len(occupancy)} "
                                       f"entries for {n} trajectories")
        for key, ids in (("survivors", survivors), ("initial_occupancy", held)):
            if len(set(ids)) != len(ids):
                raise InvalidInstanceError(f"trace header {key} holds an agent twice")
        check_positive("trace header period", self.period)
        check_positive("trace header horizon", self.horizon)
        parse_strategy(self.strategy)

    def __len__(self) -> int:
        return len(self.time)

    def rows_of(self, *kinds: str) -> list[int]:
        """Indices of the rows of the given kinds, in trace order."""
        return list(compress(count(), self.mask_of(*kinds)))

    def mask_of(self, *kinds: str) -> bytes:
        """One byte per row, 1 where the row is of one of the given kinds, else 0."""
        codes = {_PRIORITY[k] for k in kinds}
        return self.kind.tobytes().translate(bytes(code in codes for code in range(256)))

    def extend(self, time, kind, agents, trajs, location, msg) -> None:
        """Append rows from per-event Python values, validated once per column.

        kind holds names, agents and trajs lists of ids, location a list of
        two numbers or None, msg a str or None.  Raises InvalidInstanceError
        for an unknown kind, ids that are not 1-2 ints in 0..n-1 (as many as
        the kind names), a non-finite time or location, or times out of order.
        """
        try:
            codes = list(map(_PRIORITY.get, kind))
        except TypeError:             # an unhashable kind
            codes = [None]
        if None in codes:
            bad = next(k for k in kind if type(k) is not str or k not in _PRIORITY)
            raise InvalidInstanceError(f"trace event kind {bad!r} is not one of {EVENT_KINDS}")
        times = _finite_column(time, "time")
        ordered = times.tolist()
        if ordered != sorted(ordered):
            raise InvalidInstanceError("trace events are not in time order")
        pairs = [loc for loc in location if loc is not None]
        if not (set(map(type, pairs)) <= {list, tuple} and set(map(len, pairs)) <= {2}):
            bad = next(p for p in pairs if type(p) not in (list, tuple) or len(p) != 2)
            raise InvalidInstanceError(f"trace event location {bad!r} is not null "
                                       "or two numbers")
        _finite_column(list(chain.from_iterable(pairs)), "location")
        locs = array("d", list(chain.from_iterable(
            [_NO_LOCATION if loc is None else loc for loc in location])))
        if not set(map(type, msg)) <= {str, type(None)}:
            bad = next(x for x in msg if x is not None and type(x) is not str)
            raise InvalidInstanceError(f"trace event msg {bad!r} is not a string or null")
        agent_ids = _id_column(agents, self.n, [_AGENT_ARITY[c] for c in codes], "agents")
        traj_ids = _id_column(trajs, self.n, [_TRAJ_ARITY[c] for c in codes], "trajs")
        if times and self.time and times[0] < self.time[-1]:
            raise InvalidInstanceError("trace events are not in time order")
        self.time += times
        self.kind += array("b", codes)
        self.agents += agent_ids
        self.trajs += traj_ids
        self.location += locs
        self.msg += msg


def _id_column(values, n: int, arity: list, key: str) -> array:
    """Padded id pairs from lists of ids whose lengths must equal arity."""
    ok = set(map(type, values)) <= {list, tuple} and list(map(len, values)) == arity
    flat = list(chain.from_iterable(values)) if ok else []
    if not (ok and set(map(type, flat)) <= {int}
            and (not flat or 0 <= min(flat) and max(flat) < n)):
        bad = next(v for v, k in zip(values, arity)
                   if type(v) not in (list, tuple) or len(v) != k
                   or any(type(a) is not int or not 0 <= a < n for a in v))
        raise InvalidInstanceError(
            f"trace event {key} {bad!r} is not a list of 1-2 ids in 0..{n - 1} "
            "matching its kind")
    ids = [NO_ID] * (2 * len(values))
    ids[0::2] = [v[0] for v in values]
    ids[1::2] = [v[1] if k == 2 else NO_ID for v, k in zip(values, arity)]
    return array("q", ids)


def _finite_column(values, key: str) -> array:
    """float64 column of JSON numbers, all finite."""
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise InvalidInstanceError(f"trace event {key} {bad!r} is not a number")
    try:
        col = array("d", values)
    except OverflowError:
        raise InvalidInstanceError(f"trace event {key} holds an integer beyond "
                                   "the float range") from None
    # A finite sum needs finite terms; an infinite one may be an overflow.
    if not math.isfinite(sum(col)) and not all(map(math.isfinite, col)):
        bad = next(v for v, x in zip(values, col) if not math.isfinite(x))
        raise InvalidInstanceError(f"trace event {key} {bad!r} is not finite")
    return col


@dataclass
class Occupancy:
    """Occupation intervals from one replay of a trace's switch and failure rows.

    Interval k: `agent[k]` held `traj[k]` from `start[k]` to `end[k]`; `end`
    is inf when the agent still holds the trajectory after the last row.  Per
    trajectory, intervals are in time order.  `consistent` is False when some
    row moves or fails an agent that does not hold the row's source
    trajectory, or a switch lands on a trajectory another agent holds.
    """
    traj: list
    agent: list
    start: list
    end: list
    consistent: bool


def occupancy_replay(trace: Trace) -> Occupancy:
    """Replay the switch and failure rows once, in trace order."""
    current = {traj: (0.0, a) for traj, a in enumerate(trace.initial_occupancy)
               if a is not None}
    closed = []                       # (traj, agent, start, end)
    consistent = True
    time, kind, agents, trajs = trace.time, trace.kind, trace.agents, trace.trajs
    for r in trace.rows_of("failure", "switch"):
        t, agent, src = time[r], agents[2 * r], trajs[2 * r]
        held = current.pop(src, None)
        if held is not None:
            closed.append((src, held[1], held[0], t))
        if held is None or held[1] != agent:
            consistent = False
        if kind[r] == SWITCH:
            dst = trajs[2 * r + 1]
            other = current.get(dst)
            if other is not None:
                consistent = False
                closed.append((dst, other[1], other[0], t))
            current[dst] = (t, agent)
    closed += [(traj, a, start, math.inf) for traj, (start, a) in current.items()]
    closed.sort(key=itemgetter(0))    # stable: each trajectory's stays keep their order
    traj, agent, start, end = map(list, zip(*closed)) if closed else ([], [], [], [])
    return Occupancy(traj=traj, agent=agent, start=start, end=end, consistent=consistent)

