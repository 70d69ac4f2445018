"""Output checks for the pipeline steps, independent of the ringsync package.

Every check reads the files a CLI step wrote.  Layout-level facts (retained
and dropped edges, the optimal speed deviation of a section plan) are the
same for every seed and are compared on every run.  Simulation outputs are
compared with the recorded reference only for the seeds in reference.json;
on other seeds they must satisfy invariants that tie the report to the
traces.  Outputs of a repeated step must be byte-identical to its first run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter, deque

SUMMARY_FIELDS = ("broadcast_time", "abandoned_time", "starvation_time",
                  "completed_tours")
CHECKED_EVENTS = ("meeting", "switch", "failure", "tour-complete")
CLOSURE_TOL = 1e-9      # per cycle, in units of T times the cycle length
PERIOD_SUM_TOL = 1e-9   # per trajectory, in units of T
LAMBDA_TOL = 1e-6       # absolute, on the optimal relative speed deviation


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_files(rundir: str, output: str) -> list:
    """The files a step wrote: the output file, or the traces in a directory."""
    path = os.path.join(rundir, output)
    if os.path.isdir(path):
        return sorted(os.path.join(path, f) for f in os.listdir(path)
                      if f.startswith("trace-") and f.endswith(".jsonl"))
    return [path] if os.path.exists(path) else []


def trace_counts(path: str) -> dict:
    """Agent count and event counts by kind of one trace file."""
    counts = Counter()
    with open(path, encoding="utf-8") as f:
        head = json.loads(f.readline())
        for line in f:
            if line.strip():
                counts[json.loads(line)["kind"]] += 1
    return {"n": head["n"], "events": dict(counts)}


# ---------------------------------------------------------------------------
# Section plans

def _time_between(order: list, times: list, from_nb: int, to_nb: int) -> float:
    """Travel time from the link with from_nb to the link with to_nb."""
    if from_nb not in order or to_nb not in order:
        return math.nan
    k = order.index(from_nb)
    total = 0.0
    while True:
        total += times[k]
        k = (k + 1) % len(order)
        if order[k] == to_nb:
            return total


def fundamental_cycles(edges: list) -> list:
    """One cycle per non-tree edge of a BFS forest, as node lists."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    parent, depth, tree = {}, {}, set()
    for root in sorted(adj):
        if root in parent:
            continue
        parent[root], depth[root] = None, 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in sorted(adj[u]):
                if v not in parent:
                    parent[v], depth[v] = u, depth[u] + 1
                    tree.add((min(u, v), max(u, v)))
                    queue.append(v)
    cycles = []
    for a, b in sorted((min(e), max(e)) for e in edges):
        if (a, b) in tree:
            continue
        left, right = [a], [b]
        while left[-1] != right[-1]:
            if depth[left[-1]] >= depth[right[-1]]:
                left.append(parent[left[-1]])
            else:
                right.append(parent[right[-1]])
        cycles.append(left + right[-2::-1])
    return cycles


def plan_lambda(plan: dict) -> float:
    """Largest relative deviation of a section's speed from its path's mean."""
    worst = 0.0
    for traj, times in plan["times"].items():
        lengths = plan["section_lengths"][traj]
        total = math.fsum(lengths)
        for length, tau in zip(lengths, times):
            worst = max(worst, abs(length * plan["period"] / total / tau - 1.0))
    return worst


def plan_problems(doc: dict) -> list:
    """Section times must be positive, sum to T, and close every basis cycle."""
    plan = doc.get("plan")
    if not plan:
        return ["path schedule has no section plan"]
    T = plan["period"]
    problems = []
    for traj, times in plan["times"].items():
        if min(times) <= 0.0:
            problems.append(f"non-positive section time on trajectory {traj}")
        if abs(math.fsum(times) - T) > PERIOD_SUM_TOL * T:
            problems.append(f"section times on trajectory {traj} sum to {math.fsum(times)}")
    for cyc in fundamental_cycles([tuple(e) for e in doc["retained_edges"]]):
        k = len(cyc)
        total = 0.0
        for idx, node in enumerate(cyc):
            key = str(node)
            total += _time_between(plan["link_order"][key], plan["times"][key],
                                   cyc[(idx + 1) % k], cyc[idx - 1])
        z = round(total / T)
        if not 0 < z < k or abs(total - z * T) > CLOSURE_TOL * T * k:
            problems.append(f"cycle {cyc} sums to {total / T!r} T")
    return problems


# ---------------------------------------------------------------------------
# Steps

def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _error_name(stderr: str) -> str | None:
    for line in reversed(stderr.strip().splitlines()):
        try:
            return json.loads(line).get("error")
        except (ValueError, AttributeError):
            continue
    return None


class Checker:
    """Checks each step's outputs; keeps what later steps and runs compare with.

    reference: this workload's entry of reference.json, or None when
    recording.  record: filled with the values a reference would hold.
    """

    def __init__(self, rundir: str, seed: int, reference: dict | None):
        self.rundir = rundir
        self.reference = reference
        self.seed_ref = (reference or {}).get("seeds", {}).get(str(seed))
        self.digests = {}     # output name -> list of file digests
        self.counts = {}      # simulate output -> {trace file: counts}
        self.expected_failures = set()   # steps that failed as recorded
        self.record = {"schedules": {}, "simulations": {}}

    def check(self, step, proc) -> list:
        """Problems with one finished step; an empty list means it passed."""
        if step.expected_error and proc.rc != 0:
            if proc.rc == 1 and _error_name(proc.stderr) == step.expected_error:
                self.expected_failures.add(step.output)
                return []
            return [f"expected {step.expected_error} (exit 1), got exit {proc.rc}: "
                    f"{proc.stderr.strip()[-300:]}"]
        if proc.rc != 0:
            return [f"exit {proc.rc}: {proc.stderr.strip()[-300:]}"]
        files = output_files(self.rundir, step.output)
        if not files:
            return [f"no output at {step.output}"]
        digests = [file_digest(f) for f in files]
        first = self.digests.setdefault(step.output, digests)
        if digests != first:
            return [f"{step.output} differs from the first run of this step"]
        if first is not digests:
            return []     # identical to an output already checked
        try:
            return getattr(self, "_" + step.kind)(step, files)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output {step.output}: {exc!r}"]

    def _schedule(self, step, files) -> list:
        doc = _read_json(files[0])
        got = {"retained_edges": doc["retained_edges"],
               "dropped_edges": doc["dropped_edges"], "lambda": None}
        problems = []
        if doc["mode"] == "general":
            problems += plan_problems(doc)
            got["lambda"] = plan_lambda(doc["plan"])
        self.record["schedules"][step.layout] = got
        if self.reference is None:
            return problems
        want = self.reference["schedules"].get(step.layout)
        if want is None:
            return problems if step.expected_error else [
                f"no reference for layout {step.layout}"]
        for key in ("retained_edges", "dropped_edges"):
            if got[key] != want[key]:
                problems.append(f"{key} differ from the reference")
        if (want["lambda"] is None) != (got["lambda"] is None) or (
                want["lambda"] is not None
                and abs(got["lambda"] - want["lambda"]) > LAMBDA_TOL):
            problems.append(f"speed deviation {got['lambda']!r}, "
                            f"reference {want['lambda']!r}")
        return problems

    def _simulate(self, step, files) -> list:
        names = [os.path.basename(f) for f in files]
        want_names = sorted(f"trace-{s}.jsonl" for s in step.sim_seeds)
        if names != want_names:
            return [f"trace files {names}, expected {want_names}"]
        counts = {os.path.basename(f): trace_counts(f) for f in files}
        self.counts[step.output] = counts
        self.record["simulations"][step.output] = {
            name: {k: c["events"].get(k, 0) for k in CHECKED_EVENTS}
            for name, c in counts.items()}
        problems = []
        for name, c in counts.items():
            if c["events"].get("failure", 0) != step.failed_agents:
                problems.append(f"{name}: {c['events'].get('failure', 0)} failures, "
                                f"expected {step.failed_agents}")
            if c["events"].get("meeting", 0) == 0:
                problems.append(f"{name}: no meetings")
        if self.seed_ref is not None:
            if self.record["simulations"][step.output] != self.seed_ref.get(step.output):
                problems.append(f"{step.output}: event counts differ from the reference")
        return problems

    def _report(self, step, files) -> list:
        doc = _read_json(files[0])
        agg, per_seed = doc["aggregate"], doc["per_seed"]
        got = {"aggregate": {k: agg[k] for k in SUMMARY_FIELDS},
               "per_seed": [{k: r[k] for k in SUMMARY_FIELDS} for r in per_seed]}
        self.record["simulations"][step.output] = got
        problems = []
        counts = self.counts.get(step.sim)
        if counts is None:
            return [f"{step.sim} was not checked before its report"]
        if len(per_seed) != len(counts):
            return [f"{len(per_seed)} per-seed rows for {len(counts)} traces"]
        for row, (name, c) in zip(per_seed, sorted(counts.items())):
            tours = c["events"].get("tour-complete", 0)
            if abs(row["completed_tours"] * c["n"] - tours) > 1e-6:
                problems.append(f"{name}: CT {row['completed_tours']!r} vs {tours} tours")
        finite = [r["broadcast_time"] for r in per_seed]
        bt = "inf" if "inf" in finite else sum(finite) / len(finite)
        expect = {"broadcast_time": bt,
                  "abandoned_time": max(r["abandoned_time"] for r in per_seed),
                  "starvation_time": max(r["starvation_time"] for r in per_seed),
                  "completed_tours": sum(r["completed_tours"] for r in per_seed)
                  / len(per_seed)}
        for k, v in expect.items():
            a = agg[k]
            if isinstance(v, str) or isinstance(a, str):
                ok = a == v
            else:
                ok = math.isclose(a, v, rel_tol=1e-12, abs_tol=1e-9)
            if not ok:
                problems.append(f"aggregate {k} {a!r} is not the per-seed {v!r}")
        if self.seed_ref is not None and got != self.seed_ref.get(step.output):
            problems.append(f"{step.output}: BT/AT/ST/CT differ from the reference")
        return problems
