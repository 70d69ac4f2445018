"""Command-line front end: generate, schedule, simulate, and report.

File formats are versioned JSON (instances, schedules, summaries) and
line-delimited JSON for traces, whose writer and reader are
`ringsync.trace.write_trace` and `trace_from_lines`.  All randomness flows
from explicit seeds, so a pipeline re-run with the same arguments is
byte-identical.

Importing this module loads neither numpy nor any layer of the package:
each command imports what it calls when it runs.  `generate`, `simulate`
and `report` never load numpy; `schedule` loads it only for a path layout's
section-time LP and for the exact max cut of a small odd component.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING

from .errors import InvalidInstanceError, RingsyncError, check_positive

if TYPE_CHECKING:
    from .instance import Instance
    from .scheduler import Schedule, SectionPlan

# The layer entry points the commands call: name here -> (module, name there).
# Each is imported on first access through __getattr__ (PEP 562), and the
# commands call them through `_self`, this module, so that a wrapper set on
# the module attribute is the one called.
_LAYER_ENTRIES = {
    "max_bipartite_subgraph": ("commgraph", "max_bipartite_subgraph"),
    "max_synch_subgraph": ("commgraph", "max_synch_subgraph"),
    "assign_section_times": ("scheduler", "assign_section_times"),
    "schedule_general": ("scheduler", "schedule_general"),
    "schedule_opposite_directions": ("scheduler", "schedule_opposite_directions"),
    "schedule_same_direction": ("scheduler", "schedule_same_direction"),
    "run": ("simulator", "run"),
    "metrics_report": ("metrics", "report"),
    "trace_from_lines": ("trace", "trace_from_lines"),
}
_self = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAYER_ENTRIES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _LAYER_ENTRIES[name]
    # __import__ rather than importlib.import_module, as in the package root.
    layer = __import__(f"{__package__}.{module}", fromlist=[attr])
    value = globals()[name] = getattr(layer, attr)
    return value


FORMAT_VERSION = 1
OUTPUT_DIR_ENV = "RINGSYNC_OUTPUT_DIR"


# ---------------------------------------------------------------------------
# Serialization

# One encoder for every document and error line; json.dumps with these
# arguments would build a new JSONEncoder per call.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _out_path(path: str) -> str:
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


@contextmanager
def _required_keys(kind: str):
    """Report a key missing from a parsed document as InvalidInstanceError."""
    try:
        yield
    except KeyError as exc:
        raise InvalidInstanceError(f"{kind} document lacks key {exc}") from None


def instance_to_json(inst: Instance) -> dict:
    doc = {"format_version": FORMAT_VERSION, "mode": inst.mode,
           "label": inst.label, "meta": inst.meta}
    if inst.mode == "circle":
        doc["circles"] = [[c.center.x, c.center.y, c.radius] for c in inst.circles]
        doc["comm_range"] = inst.comm_range
    else:
        doc["paths"] = [[list(v) for v in p.vertices] for p in inst.paths]
        doc["ranges"] = list(inst.ranges)
    return doc


def instance_from_json(doc: dict) -> Instance:
    if doc.get("format_version") != FORMAT_VERSION:
        raise InvalidInstanceError(
            f"unsupported instance format_version {doc.get('format_version')!r}")
    from .geometry import Circle, ClosedPath, Point2
    from .instance import Instance
    with _required_keys("instance"):
        if doc["mode"] == "circle":
            rows = doc["circles"]
            if type(rows) is not list or not all(
                    type(row) is list and len(row) == 3 for row in rows):
                raise InvalidInstanceError("instance circles must be [x, y, radius] lists")
            circles = [Circle(Point2(x, y), radius) for x, y, radius in rows]
            return Instance(mode="circle", circles=circles,
                            comm_range=doc["comm_range"],
                            label=doc.get("label", ""), meta=doc.get("meta", {}))
        paths = doc["paths"]
        if type(paths) is not list or not all(
                type(path) is list and all(type(v) is list and len(v) == 2
                                           and {type(v[0]), type(v[1])} <= {int, float}
                                           for v in path) for path in paths):
            raise InvalidInstanceError("instance paths must be lists of [x, y] vertices")
        paths = [ClosedPath(v) for v in paths]
        return Instance(mode=doc["mode"], paths=paths, ranges=doc["ranges"],
                        label=doc.get("label", ""), meta=doc.get("meta", {}))


def schedule_to_json(sched: Schedule, retained_edges, dropped,
                     plan: SectionPlan | None = None) -> dict:
    doc = {"format_version": FORMAT_VERSION, "mode": sched.mode,
           "period": sched.period, "starts": list(sched.starts),
           "dirs": list(sched.dirs),
           "retained_edges": [list(e) for e in sorted(retained_edges)],
           "dropped_edges": {k: [list(e) for e in sorted(v)]
                             for k, v in dropped.items()}}
    if sched.epochs is not None:
        doc["epochs"] = [{str(nb): t for nb, t in ep.items()}
                         for ep in sched.epochs]
    if plan is not None:
        doc["plan"] = {"period": plan.period,
                       "link_order": {str(i): nbs for i, nbs in plan.link_order.items()},
                       "times": {str(i): ts for i, ts in plan.times.items()},
                       "section_lengths": None if plan.section_lengths is None else
                       {str(i): ls for i, ls in plan.section_lengths.items()}}
    return doc


def schedule_from_json(doc: dict) -> tuple[Schedule, list, SectionPlan | None]:
    if doc.get("format_version") != FORMAT_VERSION:
        raise InvalidInstanceError(
            f"unsupported schedule format_version {doc.get('format_version')!r}")
    from .scheduler import Schedule, SectionPlan, check_plan_shape
    with _required_keys("schedule"):
        check_positive("schedule period", doc["period"])
        epochs = doc.get("epochs")
        if epochs is not None:
            if type(epochs) is not list:
                raise InvalidInstanceError("schedule epochs must be a list")
            epochs = [_by_agent(ep, "schedule epochs entry") for ep in epochs]
        sched = Schedule(mode=doc["mode"], period=doc["period"],
                         starts=doc["starts"], dirs=doc["dirs"], epochs=epochs)
        retained = doc["retained_edges"]
        if type(retained) is not list or not all(
                type(e) is list and len(e) == 2 and type(e[0]) is type(e[1]) is int
                for e in retained):
            raise InvalidInstanceError("schedule retained_edges must be pairs of agent ids")
        retained = [tuple(e) for e in retained]
        plan = None
        if (p := doc.get("plan")) is not None:
            if type(p) is not dict:
                raise InvalidInstanceError("schedule plan must be an object")
            check_positive("section plan period", p["period"])
            plan = SectionPlan(
                period=p["period"],
                link_order=_by_agent(p["link_order"], "section plan link_order"),
                times=_by_agent(p["times"], "section plan times"),
                section_lengths=None if p["section_lengths"] is None else
                _by_agent(p["section_lengths"], "section plan section_lengths"))
            check_plan_shape(plan)
    return sched, retained, plan


def _by_agent(doc, what: str) -> dict:
    """A JSON object keyed by agent ids, with int keys."""
    try:
        return {int(key): value for key, value in doc.items()}
    except (AttributeError, ValueError):
        raise InvalidInstanceError(f"{what} is not an object keyed by agent ids") from None


def _write_json(path: str, doc: dict) -> None:
    with open(_out_path(path), "w", encoding="utf-8") as f:
        f.write(_dumps(doc) + "\n")


def _read_json(path: str) -> dict:
    def parse_int(text):
        if math.isinf(float(text)):
            raise InvalidInstanceError(f"{path} holds an integer beyond the float range")
        return int(text)
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f, parse_int=parse_int)
        except RecursionError:
            raise InvalidInstanceError(f"{path} nests JSON values too deeply") from None
    if type(doc) is not dict:
        raise InvalidInstanceError(f"{path} does not hold a JSON object")
    return doc


# ---------------------------------------------------------------------------
# Subcommands

def _parse(kind, text, what: str):
    """kind(text); InvalidInstanceError naming the argument what if that fails."""
    try:
        return kind(text)
    except ValueError:
        raise InvalidInstanceError(f"{what} {text!r} is not a valid {kind.__name__}") from None


def _seed(value, what: str) -> int:
    """value as a random seed: a non-negative int."""
    seed = _parse(int, value, what)
    if seed < 0:
        raise InvalidInstanceError(f"{what} {seed} is negative")
    return seed


def cmd_generate(args) -> int:
    from . import generator
    if args.grid:
        rows, _, cols = args.grid.partition("x")
        inst = generator.grid(_parse(int, rows, "--grid rows"),
                              _parse(int, cols, "--grid columns"),
                              spacing=args.spacing, r=args.range)
    elif args.random is not None:
        inst = generator.random_connected(args.random, r=args.range,
                                          seed=_seed(args.seed, "--seed"))
    else:
        inst = generator.preset(args.preset)
    g = generator.validate_instance(inst)
    _write_json(args.output, instance_to_json(inst))
    print(f"{inst.label or 'instance'}: {g.n} nodes, {len(g.edges)} edges "
          f"-> {args.output}")
    return 0


def cmd_schedule(args) -> int:
    inst = instance_from_json(_read_json(args.instance))
    period = args.period if args.period is not None else inst.meta.get("period", 1.0)
    g = inst.graph()
    gb = _self.max_bipartite_subgraph(g)
    odd_dropped = sorted(set(g.edges) - set(gb.edges))
    plan = None
    if inst.mode == "path":
        plan = _self.assign_section_times(gb, period=period)
        gs = gb
        sched = _self.schedule_general(gs, plan)
    else:
        gs = _self.max_synch_subgraph(gb) if args.mode != "same" else gb
        if args.mode == "same":
            sched = _self.schedule_same_direction(gs, period=period)
        else:
            sched = _self.schedule_opposite_directions(gs, period=period)
    retained = sorted(gs.edges)
    dropped = {"odd-cycle": odd_dropped,
               "infeasible-cycle": sorted(set(gb.edges) - set(gs.edges))}
    _write_json(args.output, schedule_to_json(sched, retained, dropped, plan))
    n_drop = len(odd_dropped) + len(dropped["infeasible-cycle"])
    reasons = []
    if odd_dropped:
        reasons.append(f"{len(odd_dropped)} odd cycle")
    if dropped["infeasible-cycle"]:
        reasons.append(f"{len(dropped['infeasible-cycle'])} infeasible cycle")
    note = f" ({', '.join(reasons)})" if reasons else ""
    print(f"{sched.mode}: {len(retained)} edges synchronized, "
          f"{n_drop} dropped{note} -> {args.output}")
    if len(retained) == g.n - 1 and len(gs.components()) == 1:
        print("retained subgraph is a tree")
    return 0


def _resolve_failures(args, inst: Instance, n: int) -> list:
    if args.fail_at:
        out = []
        for part in args.fail_at.split(","):
            agent, _, t = part.partition(":")
            out.append((_parse(int, agent, "--fail-at agent"),
                        _parse(float, t, "--fail-at time") if t else 0.0))
        return out
    if args.fail_whites:
        whites = inst.meta.get("whites")
        if whites is None:
            raise InvalidInstanceError("instance has no white agent list")
        return [(w, 0.0) for w in whites]
    if args.fail:
        if not 0 < args.fail <= n:
            raise InvalidInstanceError(f"cannot fail {args.fail} of {n} agents")
        from .rng import Rng
        agents = Rng(_seed(args.fail_seed, "--fail-seed")).choice(n, args.fail)
        return [(a, 0.0) for a in agents]
    return []


def cmd_simulate(args) -> int:
    from .simulator import SimConfig
    from .trace import parse_strategy, write_trace
    inst = instance_from_json(_read_json(args.instance))
    sched, retained, _ = schedule_from_json(_read_json(args.schedule))
    g = inst.graph()
    missing = next((e for e in retained if not g.has_edge(*e)), None)
    if missing is not None:
        raise InvalidInstanceError(
            f"schedule retains edge {list(missing)}, which the instance lacks")
    g = g.subgraph(retained)
    strategy = parse_strategy(args.strategy)
    failures = _resolve_failures(args, inst, g.n)
    if args.seed_list:
        seeds = [_seed(s, "--seed-list entry") for s in args.seed_list.split(",")]
        repeated = next((s for k, s in enumerate(seeds) if s in seeds[:k]), None)
        if repeated is not None:
            raise InvalidInstanceError(f"--seed-list repeats seed {repeated}")
    elif args.seeds is not None and args.seeds < 1:
        raise InvalidInstanceError(f"--seeds {args.seeds} is not a positive count")
    else:
        seeds = list(range(args.seeds or 1))
    outdir = _out_path(args.output)
    os.makedirs(outdir, exist_ok=True)
    for seed in seeds:
        config = SimConfig(horizon=args.horizon, strategy=strategy, seed=seed,
                           failures=failures,
                           emission_period=args.emission_period)
        trace = _self.run(inst, sched, config, graph=g)
        with open(os.path.join(outdir, f"trace-{seed}.jsonl"), "w", encoding="utf-8") as f:
            write_trace(f, trace)
        del trace    # the table goes before the next seed's run builds its own
    print(f"wrote {len(seeds)} trace(s) to {outdir}")
    return 0


def cmd_report(args) -> int:
    from .metrics import TABLE_HEADER, aggregate
    files = sorted(f for f in os.listdir(args.traces)
                   if f.startswith("trace-") and f.endswith(".jsonl"))
    if not files:
        raise InvalidInstanceError(f"no trace files in {args.traces!r}")
    reports = []
    for name in files:
        with open(os.path.join(args.traces, name), encoding="utf-8") as f:
            reports.append(_self.metrics_report(_self.trace_from_lines(f)))
    agg = aggregate(reports)
    label = args.label or os.path.basename(os.path.normpath(args.traces))
    print(TABLE_HEADER)
    print(agg.row(label))
    if args.output:
        def as_doc(r):
            return {"broadcast_time": ("inf" if math.isinf(r.broadcast_time)
                                       else r.broadcast_time),
                    "abandoned_time": r.abandoned_time,
                    "starvation_time": r.starvation_time,
                    "completed_tours": r.completed_tours,
                    "starvation_proven": r.starvation_proven,
                    "potentially_starving": r.potentially_starving}
        _write_json(args.output,
                    {"format_version": FORMAT_VERSION, "label": label,
                     "aggregate": as_doc(agg),
                     "per_seed": [as_doc(r) for r in reports]})
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ringsync",
                                 description="Trajectory synchronization toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="produce an instance file")
    src = g.add_mutually_exclusive_group(required=True)
    src.add_argument("--grid", metavar="RxC")
    src.add_argument("--random", type=int, metavar="N")
    src.add_argument("--preset", metavar="NAME")
    g.add_argument("--spacing", type=float, default=2.4)
    g.add_argument("--range", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output", default="instance.json")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("schedule", help="compute a synchronized schedule")
    s.add_argument("-i", "--instance", required=True)
    s.add_argument("--mode", choices=["opposite", "same"], default="opposite")
    s.add_argument("--period", type=float, default=None)
    s.add_argument("-o", "--output", default="schedule.json")
    s.set_defaults(func=cmd_schedule)

    m = sub.add_parser("simulate", help="run seeded simulations")
    m.add_argument("-i", "--instance", required=True)
    m.add_argument("-s", "--schedule", required=True)
    m.add_argument("--horizon", type=float, required=True)
    m.add_argument("--strategy", default="alw",
                   help="alw | rand:<p> | dfs:<root> | dfs:topleft")
    # The options of one group would override each other, so argparse rejects
    # two of them.  Defaults are None: argparse lets an option through that
    # is given its default value, and int("1") is the default 1 itself.
    seeds = m.add_mutually_exclusive_group()
    seeds.add_argument("--seeds", type=int, default=None, help="run seeds 0..N-1 (default 1)")
    seeds.add_argument("--seed-list", default=None, help="explicit seeds, comma separated")
    fail = m.add_mutually_exclusive_group()
    fail.add_argument("--fail", type=int, default=None,
                      help="fail this many random agents at t=0")
    m.add_argument("--fail-seed", type=int, default=0)
    fail.add_argument("--fail-at", default=None, help="explicit failures agent:time,...")
    fail.add_argument("--fail-whites", action="store_true",
                      help="fail the instance's marked white agents at t=0")
    m.add_argument("--emission-period", type=float, default=None)
    m.add_argument("-o", "--output", default="traces")
    m.set_defaults(func=cmd_simulate)

    r = sub.add_parser("report", help="aggregate traces into a metrics table")
    r.add_argument("-t", "--traces", required=True)
    r.add_argument("--label", default=None)
    r.add_argument("-o", "--output", default=None)
    r.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RingsyncError, OSError, ValueError) as exc:
        sys.stderr.write(_dumps({"error": type(exc).__name__,
                                 "message": str(exc)}) + "\n")
        return 1


def process_main() -> int:
    """The process entry, `python -m ringsync.cli` and the `ringsync` script:
    `main`, then `gc.freeze()`, so that the collection the interpreter runs
    at exit skips every object still alive (a `report` then exits in 8 ms,
    not 29).  `main` leaves the collector alone, for callers that go on."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(process_main())
