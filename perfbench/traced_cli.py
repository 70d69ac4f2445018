"""Run one ringsync CLI command in-process with spans around each layer.

Usage: python3 traced_cli.py SPANS_JSON COMMAND [ARGS...]   (ringsync importable)

The program is not edited: after `import ringsync.cli` the public functions
of each layer are replaced by timing wrappers at the module attributes the
CLI and the library call them through.  Spans (name, start, end, parent
index) are kept in memory and written to SPANS_JSON when the command ends,
whether it succeeds or not.  The exit code is the command's.
"""

import builtins
import functools
import json
import os
import sys
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span and counter collector for one process."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1]
        self.counts = {}
        self.wrapped = []
        self._stack = []

    def begin(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def wrap(self, owner, attr: str, name: str | None, after=None) -> None:
        """Replace owner.attr by a wrapper that records a span named name.

        after(result) runs on each result, to derive counters.  Names the
        program does not define are skipped, so the harness keeps working
        when a layer's entry points change.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name) if name else None
            try:
                result = fn(*args, **kwargs)
            finally:
                if idx is not None:
                    self.end(idx)
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, traced)
        self.wrapped.append(f"{getattr(owner, '__name__', owner)}.{attr}")


# Imports that dominate start-up, timed wherever they first happen.
_TIMED_IMPORTS = {"numpy": "cli.import_numpy", "scipy": "cli.import_scipy"}


def time_imports(tracer: Tracer) -> None:
    real_import = builtins.__import__
    active = []

    def timed_import(name, globals=None, locals=None, fromlist=(), level=0):
        top = name.partition(".")[0]
        span = _TIMED_IMPORTS.get(top) if level == 0 else None
        if span is None or active or name in sys.modules:
            return real_import(name, globals, locals, fromlist, level)
        active.append(span)     # imports nested in a timed one stay in it
        try:
            with tracer.span(span):
                return real_import(name, globals, locals, fromlist, level)
        finally:
            active.pop()

    builtins.__import__ = timed_import


class _TracedFile:
    """File proxy whose reads, writes and close are spans."""

    def __init__(self, f, tracer: Tracer, name: str):
        self._f, self._tracer, self._name = f, tracer, name

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        with self._tracer.span(self._name):
            self._f.close()

    def __iter__(self):
        return iter(self._f)

    def write(self, data):
        with self._tracer.span(self._name):
            return self._f.write(data)

    def read(self, *args):
        with self._tracer.span(self._name):
            return self._f.read(*args)

    def readlines(self, *args):
        with self._tracer.span(self._name):
            return self._f.readlines(*args)

    def __getattr__(self, attr):
        return getattr(self._f, attr)


def install(tracer: Tracer) -> None:
    import ringsync.cli as cli
    import ringsync.generator as generator
    import ringsync.metrics as metrics
    import ringsync.scheduler as scheduler
    import ringsync.simulator as simulator
    from ringsync.instance import Instance

    for name in ("grid", "random_connected", "preset", "validate_instance"):
        tracer.wrap(generator, name, "generator")
    tracer.wrap(Instance, "graph", "commgraph.build")
    for name in ("max_bipartite_subgraph", "max_synch_subgraph"):
        tracer.wrap(cli, name, "commgraph.filter")
    for name in ("assign_section_times", "schedule_general",
                 "schedule_opposite_directions", "schedule_same_direction"):
        tracer.wrap(cli, name, "scheduler")
    for module in (cli, scheduler, simulator):
        tracer.wrap(module, "verify_schedule", "scheduler.verify")
    for name in ("linprog", "milp"):
        tracer.wrap(scheduler, name, "scheduler.solver",
                    after=lambda res: tracer.count("scheduler.solver_feasible",
                                                   int(res.status == 0)))
    tracer.wrap(scheduler, "cycle_basis", None,
                after=lambda cycles: tracer.count("scheduler.cycles", len(cycles)))
    tracer.wrap(cli, "run", "simulator.run")
    tracer.wrap(cli, "metrics_report", "metrics.report")
    tracer.wrap(metrics, "broadcast_time", "metrics.broadcast")
    tracer.wrap(metrics, "starvation_time", "metrics.starvation")
    tracer.wrap(metrics, "prove_starvation", "metrics.starvation")
    tracer.wrap(metrics, "abandoned_time", "metrics.abandoned")
    tracer.wrap(cli, "trace_to_lines", "cli.trace_write")
    tracer.wrap(cli, "trace_from_lines", "cli.trace_read")

    def traced_open(file, mode="r", *args, **kwargs):
        if not os.path.basename(os.fspath(file)).startswith("trace-"):
            return open(file, mode, *args, **kwargs)
        name = "cli.trace_write" if "w" in mode else "cli.trace_read"
        with tracer.span(name):
            f = open(file, mode, *args, **kwargs)
        return _TracedFile(f, tracer, name)

    cli.open = traced_open   # shadows the builtin inside ringsync.cli only
    tracer.wrapped.append("ringsync.cli.open")


def main(spans_path: str, argv: list) -> int:
    tracer = Tracer()
    time_imports(tracer)
    rc = 1
    try:
        with tracer.span("cli.startup"):
            import ringsync.cli
        install(tracer)
        with tracer.span("cli." + argv[0]):
            rc = ringsync.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "wrapped": tracer.wrapped}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
