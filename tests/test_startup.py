"""What a fresh process loads: `import ringsync`, each CLI command, and the
per-layer tracing of `perfbench/traced_cli.py`, which wraps the layer entry
points at their `ringsync.cli` attributes."""

import gc
import json
import os
import subprocess
import sys

import pytest

import ringsync as rs
from ringsync import cli

SRC = os.path.dirname(os.path.dirname(rs.__file__))
TRACED_CLI = os.path.join(os.path.dirname(SRC), "perfbench", "traced_cli.py")
LAYERS = {"commgraph", "geometry", "instance", "scheduler", "simulator", "generator",
          "metrics", "trace", "rng"}


def _run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop(cli.OUTPUT_DIR_ENV, None)
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def loaded_modules(argv, cwd) -> set:
    """The modules a fresh `python -X importtime ARGV` imports."""
    stderr = _run(["-X", "importtime", *argv], cwd).stderr
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")}


def loaded_layers(argv, cwd) -> set:
    """The ringsync layers a fresh `python -X importtime ARGV` imports."""
    return {name.partition(".")[2] for name in loaded_modules(argv, cwd)
            if name.startswith("ringsync.")}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A case-study instance, its schedule and one trace; a 4x4 circle grid
    and its schedule."""
    d = tmp_path_factory.mktemp("startup")
    for argv in (["generate", "--preset", "case-study", "-o", "inst.json"],
                 ["schedule", "-i", "inst.json", "-o", "sched.json"],
                 ["simulate", "-i", "inst.json", "-s", "sched.json", "--horizon", "2000",
                  "-o", "traces"],
                 ["generate", "--grid", "4x4", "-o", "circles.json"],
                 ["schedule", "-i", "circles.json", "-o", "circles-sched.json"]):
        _run(["-m", "ringsync.cli", *argv], d)
    return d


def test_import_ringsync_loads_no_layer(tmp_path):
    assert loaded_layers(["-c", "import ringsync"], tmp_path) == set()


@pytest.mark.parametrize("argv,unused", [
    (["report", "-t", "traces"],
     {"commgraph", "geometry", "instance", "scheduler", "simulator", "generator", "rng"}),
    (["schedule", "-i", "inst.json", "-o", "s.json"],
     {"simulator", "metrics", "generator", "trace", "rng"}),
    (["simulate", "-i", "inst.json", "-s", "sched.json", "--horizon", "500", "-o", "t"],
     {"metrics", "generator"}),
    (["generate", "--grid", "3x3", "-o", "g.json"],
     {"scheduler", "simulator", "metrics", "trace", "rng"}),
])
def test_command_loads_only_its_layers(workdir, argv, unused):
    loaded = loaded_layers(["-m", "ringsync.cli", *argv], workdir)
    assert loaded <= LAYERS | {"errors"}
    assert not loaded & unused, sorted(loaded & unused)


@pytest.mark.parametrize("argv", [
    ["-m", "ringsync.cli", "report", "-t", "traces"],
    ["-c", "import ringsync.cli"],
    ["-m", "ringsync.cli", "generate", "--grid", "3x3", "-o", "grid.json"],
    ["-m", "ringsync.cli", "generate", "--random", "50", "-o", "random.json"],
    ["-m", "ringsync.cli", "generate", "--preset", "fig10a", "-o", "fig10a.json"],
    ["-m", "ringsync.cli", "schedule", "-i", "circles.json", "-o", "circles-sched.json"],
    ["-m", "ringsync.cli", "simulate", "-i", "circles.json", "-s", "circles-sched.json",
     "--horizon", "3000", "--strategy", "rand:0.5", "--fail", "10", "-o", "circle-traces"],
    ["-m", "ringsync.cli", "simulate", "-i", "circles.json", "-s", "circles-sched.json",
     "--horizon", "3000", "--strategy", "alw", "-o", "circle-traces-alw"]])
def test_report_and_cli_import_load_no_numpy(workdir, argv):
    # The report step, and circle layouts (grids, random layouts and the
    # random fig10a preset), schedules and simulations, run on the standard
    # library alone; path layouts (ClosedPath) and the LP do not.
    loaded = {name.partition(".")[0] for name in loaded_modules(argv, workdir)}
    assert not loaded & {"numpy", "scipy"}, sorted(loaded & {"numpy", "scipy"})


def test_package_names_resolve():
    for name in rs.__all__:
        module = sys.modules[getattr(rs, name).__module__]
        assert module.__name__.startswith("ringsync.")
        assert name in dir(rs)
    assert rs.Trace is sys.modules["ringsync.trace"].Trace
    assert rs.run is sys.modules["ringsync.simulator"].run
    with pytest.raises(AttributeError):
        rs.no_such_name


def test_cli_layer_entries_resolve():
    from ringsync import metrics, simulator
    assert cli.run is simulator.run and cli.metrics_report is metrics.report
    for name in cli._LAYER_ENTRIES:
        assert callable(getattr(cli, name))
    with pytest.raises(AttributeError):
        cli.verify_schedule


def test_only_process_entry_freezes_collector(tmp_path, monkeypatch):
    frozen = gc.get_freeze_count()
    assert cli.main(["generate", "--grid", "2x2", "-o", str(tmp_path / "a.json")]) == 0
    assert gc.get_freeze_count() == frozen
    monkeypatch.setattr(sys, "argv", ["ringsync", "generate", "--grid", "2x2",
                                      "-o", str(tmp_path / "b.json")])
    try:
        assert cli.process_main() == 0
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


@pytest.mark.skipif(not os.path.isfile(TRACED_CLI), reason="perfbench/ is absent")
def test_traced_pipeline_keeps_layer_spans(workdir):
    spans = set()
    for k, argv in enumerate((["schedule", "-i", "inst.json", "-o", "ts.json"],
                              ["simulate", "-i", "inst.json", "-s", "ts.json",
                               "--horizon", "2000", "-o", "tt"],
                              ["report", "-t", "tt"])):
        _run([TRACED_CLI, f"spans-{k}.json", *argv], workdir)
        doc = json.loads((workdir / f"spans-{k}.json").read_text())
        spans |= {span[0] for span in doc["spans"]}
    assert {"scheduler", "scheduler.solver", "commgraph.build", "commgraph.filter",
            "simulator.run", "metrics.report", "metrics.broadcast", "cli.trace_write",
            "cli.trace_read"} <= spans
