#!/usr/bin/env python3
"""Benchmark of the ringsync `generate -> schedule -> simulate -> report` CLI.

Run from the root of a checkout (the package is taken from ./src):

    python3 perfbench/run.py --workload grid-gossip --seed 0 --seconds 25 --trace 0

Each CLI command runs as its own process, one at a time, as a user runs it.
Set-up (the instance files) runs three times and reports its median wall
time; the pipeline (every schedule, simulate and report command) repeats
until --seconds have passed and reports medians over its passes.  Every
output is checked (checks.py); a command that exits non-zero or whose output
fails a check counts as a failed operation.

With --trace 1 each pass runs twice, plain and through traced_cli.py, and the
per-layer self times and counters of the traced pass are reported instead.
The spans are written to .perfbench/spans-<workload>-s<seed>.json.

--record rewrites reference.json from the current program's outputs for the
reference seeds.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from checks import Checker, output_files
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEEDS = (0, 7)
SETUP_REPEATS = 3
DEADLINE_S = 165.0          # a run must end within 180 s
THREADS = "1"               # the pipeline is single-threaded; pin BLAS/OpenMP

# Span name -> per-layer metric that sums the span's self time.
SELF_TIME_METRICS = {
    "generator": "generator.s",
    "commgraph.build": "commgraph.build_s",
    "commgraph.filter": "commgraph.filter_s",
    "scheduler": "scheduler.s",
    "scheduler.verify": "scheduler.verify_s",
    "scheduler.solver": "scheduler.solver_s",
    "simulator.run": "simulator.run_s",
    "metrics.report": "metrics.report_s",
    "metrics.broadcast": "metrics.broadcast_s",
    "metrics.starvation": "metrics.starvation_s",
    "metrics.abandoned": "metrics.abandoned_s",
    "cli.startup": "cli.startup_s",
    "cli.import_numpy": "cli.startup_s",
    "cli.import_scipy": "cli.startup_s",
    "cli.generate": "cli.generate_s",
    "cli.schedule": "cli.schedule_s",
    "cli.simulate": "cli.simulate_s",
    "cli.report": "cli.report_s",
    "cli.trace_write": "cli.trace_write_s",
    "cli.trace_read": "cli.trace_read_s",
}
# Span name -> per-layer metric that sums the span's whole duration.
DURATION_METRICS = {"cli.import_numpy": "cli.import_numpy_s",
                    "cli.import_scipy": "cli.import_scipy_s"}
EVENT_KINDS = ("emit", "meeting", "deliver", "switch", "failure", "tour-complete")


@dataclass
class Proc:
    rc: int
    wall: float
    rss_mb: float
    stderr: str
    spans: dict | None = None     # what traced_cli.py recorded


def _remove(path: str) -> None:
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.exists(path):
        os.remove(path)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


class Bench:
    def __init__(self, root: str, workload: str, seed: int, reference: dict | None):
        self.seed = seed
        self.workload = WORKLOADS[workload](seed)
        self.work = os.path.join(root, ".perfbench")
        self.rundir = os.path.join(self.work, f"{workload}-s{seed}")
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env.pop("RINGSYNC_OUTPUT_DIR", None)
        self.env.update(PYTHONPATH=os.path.join(root, "src"), OMP_NUM_THREADS=THREADS,
                        OPENBLAS_NUM_THREADS=THREADS, MKL_NUM_THREADS=THREADS)
        self.checker = Checker(self.rundir, seed, reference)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_files = None   # contents of the first set-up's files
        self.setup_spans = []     # traced set-up commands
        self.pass_spans = []      # per traced pass, its commands

    # -- processes ---------------------------------------------------------

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list) -> Proc:
        """Run argv in the run directory; wall time and peak RSS of the process."""
        err_path = os.path.join(self.work, f"stderr-{os.getpid()}")
        with open(err_path, "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.rundir, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        os.remove(err_path)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0, stderr)

    def cli(self, args: list, traced: bool) -> Proc:
        """One ringsync CLI command; traced commands also record their spans."""
        if not traced:
            return self.spawn([sys.executable, "-m", "ringsync.cli", *args])
        spans_path = os.path.join(self.work, f"spans-{os.getpid()}.json")
        proc = self.spawn([sys.executable, os.path.join(HERE, "traced_cli.py"),
                           spans_path, *args])
        try:
            with open(spans_path, encoding="utf-8") as f:
                proc.spans = {"argv": args, "wall": proc.wall, **json.load(f)}
            os.remove(spans_path)
        except (OSError, ValueError) as exc:
            self.problems.append(f"traced {args[0]}: no spans ({exc})")
        return proc

    def op(self, label: str, proc: Proc, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]

    # -- phases ------------------------------------------------------------

    def setup(self, traced: bool) -> float:
        """Write the instance files afresh; returns the set-up wall time."""
        setup_dir = os.path.join(self.rundir, "setup")
        shutil.rmtree(setup_dir, ignore_errors=True)
        os.makedirs(setup_dir)
        wall = 0.0
        for args in self.workload.setup:
            proc = self.cli(args, traced)
            wall += proc.wall
            if proc.spans:
                self.setup_spans.append(proc.spans)
            ok = proc.rc == 0 and os.path.exists(os.path.join(self.rundir, args[-1]))
            self.op(" ".join(args), proc,
                    [] if ok else [f"exit {proc.rc}: {proc.stderr.strip()[-300:]}"])
        if self.workload.write_layouts:
            proc = self.spawn([sys.executable, os.path.join(HERE, "write_layouts.py"),
                               "setup", *self.workload.write_layouts])
            wall += proc.wall
            self.op("write_layouts", proc,
                    [] if proc.rc == 0 else [f"exit {proc.rc}: {proc.stderr[-300:]}"])
        files = {name: _read_bytes(os.path.join(setup_dir, name))
                 for name in sorted(os.listdir(setup_dir))}
        if self.setup_files is None:
            self.setup_files = files
        elif files != self.setup_files:
            self.problems.append("set-up files differ between repetitions")
        return wall

    def pipeline_pass(self, traced: bool) -> dict:
        """Run every pipeline step once; returns the pass's end-to-end figures."""
        for step in self.workload.steps:
            _remove(os.path.join(self.rundir, step.output))
        walls, rss, trace_bytes = [], 0.0, 0
        spans = []
        for step in self.workload.steps:
            proc = self.cli(step.argv, traced)
            if proc.spans:
                spans.append(proc.spans)
            walls.append(proc.wall)
            rss = max(rss, proc.rss_mb)
            self.op(" ".join(step.argv[:3]), proc, self.checker.check(step, proc))
            if step.kind == "simulate":
                trace_bytes += sum(os.path.getsize(f) for f in
                                   output_files(self.rundir, step.output))
        if traced:
            self.pass_spans.append(spans)
        return {"walls": walls, "peak_rss_mb": rss, "trace_mb": trace_bytes / 1e6}

    def out_of_time(self, last_pass: float) -> bool:
        return self.remaining() < 1.5 * last_pass + 5.0

    # -- runs --------------------------------------------------------------

    def run(self, seconds: float, traced: bool) -> dict:
        """Set up, run passes for `seconds`; returns metric name -> value."""
        shutil.rmtree(self.rundir, ignore_errors=True)
        os.makedirs(self.rundir)
        setups = [self.setup(traced)]
        while not traced and len(setups) < SETUP_REPEATS:
            setups.append(self.setup(False))
        plain, marked = [], []
        t0 = time.perf_counter()
        while True:
            order = (False, True) if len(plain) % 2 == 0 else (True, False)
            for mode in (order if traced else (False,)):
                (marked if mode else plain).append(self.pipeline_pass(mode))
            spent = time.perf_counter() - t0
            print(f"pass {len(plain)}: plain {sum(plain[-1]['walls']):.3f} s"
                  + (f", traced {sum(marked[-1]['walls']):.3f} s" if traced else ""),
                  flush=True)
            # Stop where the measured time comes closest to `seconds`.
            per_pass = spent / len(plain)
            if spent + per_pass / 2 >= seconds or self.out_of_time(per_pass):
                break
        if traced:
            metrics = self.layer_metrics(plain, marked)
        else:
            metrics = {k: statistics.median(p[k] for p in plain)
                       for k in ("peak_rss_mb", "trace_mb")}
            metrics["pipeline_s"] = pipeline_seconds(plain)
            metrics["setup_s"] = statistics.median(setups)
            metrics["ops_ok_frac"] = (self.attempted - self.failed) / self.attempted
        shutil.rmtree(self.rundir, ignore_errors=True)
        return metrics

    def layer_metrics(self, plain: list, marked: list) -> dict:
        """Per-layer figures of the traced set-up plus one traced pass (median)."""
        passes = [self._layers(self.setup_spans + cmds) for cmds in self.pass_spans]
        out = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
        for kind in EVENT_KINDS:
            out[f"simulator.events.{kind}"] = sum(
                c["events"].get(kind, 0) for counts in self.checker.counts.values()
                for c in counts.values())
        meetings = out["simulator.events.meeting"]
        out["simulator.us_per_meeting"] = (out["simulator.run_s"] / meetings * 1e6
                                           if meetings else 0.0)
        schedules = self.checker.record["schedules"].values()
        out["commgraph.edges_kept"] = sum(len(s["retained_edges"]) for s in schedules)
        out["commgraph.edges_dropped_odd"] = sum(
            len(s["dropped_edges"]["odd-cycle"]) for s in schedules)
        out["commgraph.edges_dropped_infeasible"] = sum(
            len(s["dropped_edges"]["infeasible-cycle"]) for s in schedules)
        out["bench.expected_failures"] = len(self.checker.expected_failures)
        out["bench.trace_overhead_frac"] = (pipeline_seconds(marked)
                                            / pipeline_seconds(plain))
        self.write_spans()
        return out

    def _layers(self, commands: list) -> dict:
        out = {m: 0.0 for m in SELF_TIME_METRICS.values()}
        out.update({m: 0.0 for m in DURATION_METRICS.values()})
        out["cli.unattributed_s"] = 0.0
        builds = calls = feasible = cycles = 0
        for cmd in commands:
            spans = cmd["spans"]
            if any(s[2] is None for s in spans):
                self.problems.append(f"traced {cmd['argv'][0]}: unclosed span")
                continue
            child_time = [0.0] * len(spans)
            for name, start, end, parent in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            covered = 0.0
            for (name, start, end, parent), inner in zip(spans, child_time):
                out[SELF_TIME_METRICS[name]] += end - start - inner
                if name in DURATION_METRICS:
                    out[DURATION_METRICS[name]] += end - start
                if parent < 0:
                    covered += end - start
                builds += name == "commgraph.build"
                calls += name == "scheduler.solver"
            out["cli.unattributed_s"] += cmd["wall"] - covered
            feasible += cmd["counts"].get("scheduler.solver_feasible", 0)
            cycles += cmd["counts"].get("scheduler.cycles", 0)
        out.update({"commgraph.builds": builds, "scheduler.solver_calls": calls,
                    "scheduler.solver_feasible_ratio": feasible / calls if calls else 0.0,
                    "scheduler.cycles": cycles})
        return out

    def write_spans(self) -> None:
        path = os.path.join(self.work, f"spans-{self.workload.name}-s{self.seed}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"setup": self.setup_spans, "passes": self.pass_spans}, f)


def pipeline_seconds(passes: list) -> float:
    """Sum over the steps of each step's median wall time across passes."""
    return sum(statistics.median(walls) for walls in zip(*(p["walls"] for p in passes)))


def record(root: str) -> dict:
    """Reference outputs of the current program for REFERENCE_SEEDS."""
    ref = {}
    for name in WORKLOADS:
        seeds = {}
        for seed in REFERENCE_SEEDS:
            bench = Bench(root, name, seed, None)
            os.makedirs(bench.rundir, exist_ok=True)
            bench.setup(False)
            bench.pipeline_pass(False)
            shutil.rmtree(bench.rundir, ignore_errors=True)
            if bench.problems:
                raise SystemExit(f"{name} seed {seed}: {bench.problems}")
            seeds[str(seed)] = bench.checker.record
        schedules = [s["schedules"] for s in seeds.values()]
        if any(s != schedules[0] for s in schedules):
            raise SystemExit(f"{name}: schedules depend on the seed")
        ref[name] = {"schedules": schedules[0],
                     "seeds": {k: s["simulations"] for k, s in seeds.items()}}
    return ref


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite reference.json from the current program")
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ringsync", "cli.py")):
        print("perfbench: run from a ringsync checkout (src/ringsync/cli.py not found)",
              file=sys.stderr)
        return 2
    if args.record:
        ref = record(root)
        text = json.dumps(ref, indent=1, sort_keys=True)
        # One line per list that holds no list, object or string, such as an edge.
        text = re.sub(r"\[[^][{}\"]*\]", lambda m: re.sub(r"\s+", "", m.group(0)), text)
        with open(REFERENCE, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        print(f"wrote {REFERENCE}")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    with open(REFERENCE, encoding="utf-8") as f:
        reference = json.load(f)[args.workload]
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    bench = Bench(root, args.workload, args.seed, reference)
    values = bench.run(args.seconds, bool(args.trace))
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            bench.problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{args.workload:>16} {m['name']:<36} {values[m['name']]:>14.6g} {m['unit']}")
    for problem in bench.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
