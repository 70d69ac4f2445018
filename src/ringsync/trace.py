"""The trace: a simulation's header and its event table.

A trace stores its events as one table of standard-library columns (see
`Trace`); the trace file's event object, one JSON line per row, is the only
other form a row takes.  Who held which trajectory when is not stored: the
metrics fold it from the switch and failure rows, abandoned time as each
trajectory's vacancy and the starvation proof as a list of occupants, and
the simulator, which makes the moves, releases each occupation's tour rows
as it goes.  This module needs only the standard library, so reading and
measuring a trace loads neither numpy nor any geometry, graph or scheduling
code.

The trace file, line-delimited JSON, is written by `write_trace` and read
by `trace_from_lines`, both here.  They handle CHUNK_ROWS lines at a time,
so `simulate` and `report` hold at most one chunk of lines, beside the
trace table, in memory.
"""

from __future__ import annotations

import gc
import json
import math
from array import array
from contextlib import contextmanager
from itertools import chain, compress, count, islice
from struct import iter_unpack, unpack

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
# The default of a trace's survivors: a new list per trace.  A marker, not
# None, so that a header's null survivors is rejected as the non-list it is.
_NEW_LIST = object()
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


class Strategy:
    """A switch strategy; `describe()` is the trace header's `strategy`."""

    def __init__(self, kind: str, p: float = 0.5, root: int | str = 0):
        if kind not in ("alw", "rand", "dfs"):
            raise InvalidInstanceError(f"unknown strategy {kind!r}")
        if kind == "rand" and not (0.0 <= p <= 1.0):
            raise InvalidInstanceError(f"rand probability {p} outside [0,1]")
        self.kind = kind   # "alw" | "rand" | "dfs"
        self.p = p         # rand switch probability
        self.root = root   # dfs root node index, or "topleft"

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
    checked.  initial_occupancy holds each trajectory's agent at the start,
    None for none.
    """

    def __init__(self, n: int, period: float, horizon: float, strategy: str, seed: int,
                 initial_occupancy: list, survivors: list = _NEW_LIST,
                 time: array | None = None, kind: array | None = None,
                 agents: array | None = None, trajs: array | None = None,
                 location: array | None = None, msg: list | None = None):
        if survivors is _NEW_LIST:
            survivors = []
        self.n, self.period, self.horizon, self.strategy, self.seed = (
            n, period, horizon, strategy, seed)
        self.initial_occupancy, self.survivors = initial_occupancy, survivors
        self.time = array("d") if time is None else time
        self.kind = array("b") if kind is None else kind
        self.agents = array("q") if agents is None else agents
        self.trajs = array("q") if trajs is None else trajs
        self.location = array("d") if location is None else location
        self.msg = [] if msg is None else msg
        occupancy = initial_occupancy
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
        check_positive("trace header period", period)
        check_positive("trace header horizon", horizon)
        parse_strategy(strategy)

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
        the kind names), a non-finite time or location, times out of order,
        or a time below 0 or past horizon + 1e-9 * period, the last instant
        at which the simulator completes a tour.
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
        limit = self.horizon + 1e-9 * self.period
        if times and (times[0] < 0 or times[-1] > limit):
            bad = times[0] if times[0] < 0 else times[-1]
            raise InvalidInstanceError(f"trace event time {bad!r} is outside [0, {limit!r}], "
                                       "the horizon and its tour tolerance")
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


# ---------------------------------------------------------------------------
# The trace file: a header line, then one line per event row.

FORMAT_VERSION = 2   # 2: no per-delivery events; gossip is derived from meetings
# The header's keys besides format_version and type, in `Trace`'s argument order.
_HEADER_KEYS = ("n", "period", "horizon", "strategy", "seed", "initial_occupancy",
                "survivors")
# The event keys, which are also the names of the table's columns.
_EVENT_KEYS = ("time", "kind", "agents", "trajs", "location", "msg")
# Strings a `_Memo` holds at most.
_MEMO_KEYS = 1 << 16

# The canonical encoder of every line; json.dumps with these arguments would
# build a new JSONEncoder per call.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_KIND_TEXT = [_dumps(kind) for kind in EVENT_KINDS]


class _Memo(dict):
    """fmt(key) per key, computed on the key's first lookup.  It forgets
    everything when it holds `_MEMO_KEYS` keys, so that a trace whose rows
    share no fields does not hold one string per row."""

    def __init__(self, fmt):
        super().__init__()
        self.fmt = fmt

    def __missing__(self, key):
        if len(self) >= _MEMO_KEYS:
            self.clear()
        value = self[key] = self.fmt(key)
        return value


def _line_ends(key: tuple) -> tuple:
    """The text of an event line before its msg and after its time, from
    the row's `write_trace` key.  A line holds the keys of `_dumps` in
    sorted order, agents, kind, location, msg, time, trajs and type, each
    formatted as the encoder would: ints by str, floats by float.__repr__
    and strings by `_dumps`."""
    agent, agent2, traj, traj2, x, y, kind = unpack("<4q2dq", key[0])
    agents = f"[{agent}]" if agent2 == NO_ID else f"[{agent},{agent2}]"
    trajs = f"[{traj}]" if traj2 == NO_ID else f"[{traj},{traj2}]"
    location = "null" if math.isnan(x) else f"[{x!r},{y!r}]"
    return (f'{{"agents":{agents},"kind":{_KIND_TEXT[kind]},"location":{location},'
            '"msg":', f',"trajs":{trajs},"type":"event"}}')


def write_trace(file, trace: Trace) -> None:
    """Write the trace file to the open text file: the header line alone,
    then the event lines of CHUNK_ROWS rows per write.

    Each event line is byte for byte the `_dumps` encoding of the row's
    {"type": "event", "time", "kind", "agents", "trajs", "location", "msg"}
    object, built from the text before its msg, the msg, the time and the
    text after it.  Rows repeat their agents, trajs, location and kind, so
    the two ends are formatted once per distinct key, those four fields as
    the 56 raw bytes of seven int64 words (raw, so that a NaN location finds
    its string), and times once per distinct value in a chunk, keyed by the
    float unless the chunk may hold -0.0 and 0.0, which are equal.
    """
    file.write(_dumps({"format_version": FORMAT_VERSION, "type": "header",
                       **{key: getattr(trace, key) for key in _HEADER_KEYS}}) + "\n")
    ends = _Memo(_line_ends)
    for start in range(0, len(trace), CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        pairs = slice(2 * rows.start, 2 * rows.stop)
        kind = trace.kind[rows]
        words = array("q", bytes(56 * len(kind)))
        for k, column in enumerate((trace.agents[pairs], trace.trajs[pairs],
                                    array("q", trace.location[pairs].tobytes()))):
            words[2 * k::7], words[2 * k + 1::7] = column[0::2], column[1::2]
        words[6::7] = array("q", kind)
        time = trace.time[rows]    # in time order: only a chunk spanning 0 has -0.0 and 0.0
        times = map(float.__repr__ if time[0] <= 0.0 <= time[-1] else
                    _Memo(float.__repr__).__getitem__, time)
        msg = ["null" if m is None else _dumps(m) for m in trace.msg[rows]]
        file.write("\n".join([f'{head}{m},"time":{t}{tail}' for (head, tail), m, t in
                              zip(map(ends.__getitem__, iter_unpack("56s", words)),
                                  msg, times)]) + "\n")


def _events_table(body: list[str]) -> list[list]:
    """The columns of event lines body, in `_EVENT_KEYS` order, parsed by one
    `json.loads` over their joined text."""
    try:
        events = json.loads("[" + ",".join(body) + "]")
    except (ValueError, RecursionError):   # not JSON, an integer too long, or too deep
        events = None
    if events is None or len(events) != len(body) or not set(map(type, events)) <= {dict}:
        raise InvalidInstanceError("each trace event line must hold one JSON object")
    return [[event[key] for event in events] for key in _EVENT_KEYS]


def trace_from_lines(lines) -> Trace:
    """Parse a trace file's lines, from a list or an open file, into a trace
    table; blank lines are skipped.

    The event lines are parsed CHUNK_ROWS at a time, and `Trace.extend`
    checks each chunk's columns and appends them, so at most one chunk of
    lines and their parsed objects is held beside the table.  A line that is
    not one JSON object, a missing key, a format_version other than 2 and
    whatever `Trace` rejects raise InvalidInstanceError.
    """
    lines = iter(lines)
    try:
        head = json.loads(next(lines, ""))
    except (ValueError, RecursionError):   # not JSON, an integer too long, or too deep
        head = None
    if type(head) is not dict:
        raise InvalidInstanceError("trace header line must hold one JSON object")
    if head.get("format_version") != FORMAT_VERSION:
        raise InvalidInstanceError(
            f"unsupported trace format_version {head.get('format_version')!r}")
    try:
        trace = Trace(**{key: head[key] for key in _HEADER_KEYS})
        body = filter(str.strip, lines)
        with gc_paused():
            while chunk := list(islice(body, CHUNK_ROWS)):
                trace.extend(*_events_table(chunk))
    except KeyError as exc:
        raise InvalidInstanceError(f"trace document lacks key {exc}") from None
    return trace
