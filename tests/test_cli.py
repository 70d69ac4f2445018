import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ringsync as rs
import ringsync.scheduler as sch
from conftest import BAD_TRACE_HEADERS, SURVIVOR_MISMATCHES, path_grid
from ringsync import cli, commgraph
from ringsync.errors import InvalidInstanceError


def invoke(*argv):
    return cli.main(list(argv))


def test_generate_grid(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert invoke("generate", "--grid", "3x3", "-o", str(out)) == 0
    assert "9 nodes, 12 edges" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["format_version"] == 1 and len(doc["circles"]) == 9


def test_generate_random_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    invoke("generate", "--random", "10", "--seed", "7", "-o", str(a))
    invoke("generate", "--random", "10", "--seed", "7", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_generate_preset(tmp_path):
    out = tmp_path / "f.json"
    assert invoke("generate", "--preset", "fig9a", "-o", str(out)) == 0
    inst = cli.instance_from_json(json.loads(out.read_text()))
    assert inst.label == "fig9a" and inst.n == 4


def test_generate_unknown_preset_error(tmp_path, capsys):
    assert invoke("generate", "--preset", "nope",
                  "-o", str(tmp_path / "x.json")) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] and "nope" in err["message"]


def test_schedule_triangle_reports_dropped_edge(tmp_path, capsys, triangle):
    inst_file = tmp_path / "tri.json"
    inst_file.write_text(cli._dumps(cli.instance_to_json(triangle)))
    sched_file = tmp_path / "sched.json"
    assert invoke("schedule", "-i", str(inst_file), "-o", str(sched_file)) == 0
    out = capsys.readouterr().out
    assert "1 dropped" in out and "odd cycle" in out
    doc = json.loads(sched_file.read_text())
    assert len(doc["retained_edges"]) == 2
    assert len(doc["dropped_edges"]["odd-cycle"]) == 1


def test_schedule_grid_no_drops(tmp_path, capsys):
    inst_file, sched_file = tmp_path / "g.json", tmp_path / "s.json"
    invoke("generate", "--grid", "3x3", "-o", str(inst_file))
    assert invoke("schedule", "-i", str(inst_file), "--period", "300",
                  "-o", str(sched_file)) == 0
    assert "0 dropped" in capsys.readouterr().out


def test_schedule_tree_note(tmp_path, capsys):
    inst_file, sched_file = tmp_path / "g.json", tmp_path / "s.json"
    invoke("generate", "--preset", "fig9a", "-o", str(inst_file))
    invoke("schedule", "-i", str(inst_file), "-o", str(sched_file))
    assert "tree" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["opposite", "same"])
def test_schedule_two_rings_is_no_tree(tmp_path, capsys, two_rings, mode):
    # 30 links on 31 nodes, but in two components, one holding a 6-cycle
    inst_file, sched_file = tmp_path / "rings.json", tmp_path / "s.json"
    inst_file.write_text(cli._dumps(cli.instance_to_json(two_rings)))
    assert invoke("schedule", "-i", str(inst_file), "--mode", mode,
                  "-o", str(sched_file)) == 0
    out = capsys.readouterr().out
    assert "30 edges synchronized, 1 dropped (1 odd cycle)" in out
    assert "tree" not in out


@pytest.mark.parametrize("layout,forests", [(["--grid", "10x10"], 2),
                                            (["--preset", "case-study"], 1),
                                            (["--random", "400"], 3)])
def test_schedule_builds_each_forest_once(tmp_path, monkeypatch, layout, forests):
    # one per graph: the instance's, the bipartite filter's when it drops a
    # link, and the chord filter's
    inst_file = tmp_path / "inst.json"
    assert invoke("generate", *layout, "-o", str(inst_file)) == 0
    built, real = [], commgraph.Forest
    monkeypatch.setattr(commgraph, "Forest", lambda *a: built.append(a) or real(*a))
    assert invoke("schedule", "-i", str(inst_file), "-o", str(tmp_path / "s.json")) == 0
    assert len(built) == forests


def pipeline(tmp_path, *, strategy="alw", seeds="2", extra=()):
    inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
    traces = tmp_path / "traces"
    invoke("generate", "--grid", "3x3", "-o", str(inst))
    invoke("schedule", "-i", str(inst), "--period", "300", "-o", str(sched))
    assert invoke("simulate", "-i", str(inst), "-s", str(sched),
                  "--horizon", "3000", "--strategy", strategy,
                  "--seeds", seeds, "-o", str(traces), *extra) == 0
    return inst, sched, traces


def test_simulate_and_report_round_trip(tmp_path, capsys):
    _, _, traces = pipeline(tmp_path)
    assert sorted(os.listdir(traces)) == ["trace-0.jsonl", "trace-1.jsonl"]
    summary = tmp_path / "summary.json"
    assert invoke("report", "-t", str(traces), "--label", "grid",
                  "-o", str(summary)) == 0
    out = capsys.readouterr().out
    assert "Max. ST(s)" in out and "grid" in out
    doc = json.loads(summary.read_text())
    assert doc["aggregate"]["abandoned_time"] == 0.0
    assert len(doc["per_seed"]) == 2


def test_trace_round_trip(tmp_path):
    _, _, traces = pipeline(tmp_path, strategy="rand:0.5", seeds="1",
                            extra=("--fail", "2", "--fail-seed", "5"))
    lines = (traces / "trace-0.jsonl").read_text().splitlines()
    tr = cli.trace_from_lines(lines)
    assert "\n".join(cli.trace_to_lines(tr)) == "\n".join(lines)


def test_pipeline_byte_identical(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    d1.mkdir(), d2.mkdir()
    outs = []
    for d in (d1, d2):
        _, _, traces = pipeline(d, strategy="rand:0.5", seeds="2")
        summary = d / "summary.json"
        invoke("report", "-t", str(traces), "--label", "x", "-o", str(summary))
        outs.append([(traces / f).read_bytes()
                     for f in sorted(os.listdir(traces))] +
                    [summary.read_bytes()])
    assert outs[0] == outs[1]


def test_simulate_fail_whites_and_dfs(tmp_path, capsys):
    inst, sched = tmp_path / "i.json", tmp_path / "s.json"
    invoke("generate", "--preset", "fig9a", "-o", str(inst))
    invoke("schedule", "-i", str(inst), "-o", str(sched))
    traces = tmp_path / "t"
    assert invoke("simulate", "-i", str(inst), "-s", str(sched),
                  "--horizon", "4000", "--strategy", "dfs:topleft",
                  "--fail-whites", "-o", str(traces)) == 0
    # the header names the root dfs:topleft resolved to, fig9a's agent 3
    head = (traces / "trace-0.jsonl").read_text().split("\n", 1)[0]
    assert json.loads(head)["strategy"] == "dfs:3"
    assert invoke("report", "-t", str(traces)) == 0


def test_report_empty_dir_is_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert invoke("report", "-t", str(empty)) == 1
    assert json.loads(capsys.readouterr().err)["error"]


def test_output_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    outdir = tmp_path / "redirected"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(outdir))
    assert invoke("generate", "--grid", "2x2", "-o", "inst.json") == 0
    assert (outdir / "inst.json").exists()
    assert not (tmp_path / "inst.json").exists()


def test_instance_file_round_trip(tmp_path):
    for name in ("fig9a", "case-study"):
        inst = rs.preset(name)
        doc = cli.instance_to_json(inst)
        again = cli.instance_to_json(cli.instance_from_json(doc))
        assert cli._dumps(doc) == cli._dumps(again)


def test_schedule_file_round_trip(tmp_path):
    inst = rs.preset("case-study")
    g = inst.graph()
    plan = rs.assign_section_times(g, period=100.0)
    sched = rs.schedule_general(g, plan)
    doc = cli.schedule_to_json(sched, sorted(g.edges),
                               {"odd-cycle": [], "infeasible-cycle": []}, plan)
    sched2, retained, plan2 = cli.schedule_from_json(json.loads(cli._dumps(doc)))
    doc2 = cli.schedule_to_json(sched2, retained,
                                {"odd-cycle": [], "infeasible-cycle": []}, plan2)
    assert cli._dumps(doc) == cli._dumps(doc2)


def test_bad_format_version(tmp_path):
    with pytest.raises(Exception):
        cli.instance_from_json({"format_version": 99, "mode": "circle"})


def test_simulate_fail_at_unknown_agent_is_error(tmp_path, capsys):
    inst, sched = tmp_path / "i.json", tmp_path / "s.json"
    invoke("generate", "--grid", "3x3", "-o", str(inst))
    invoke("schedule", "-i", str(inst), "--period", "300", "-o", str(sched))
    capsys.readouterr()
    assert invoke("simulate", "-i", str(inst), "-s", str(sched),
                  "--horizon", "600", "--fail-at", "99:0",
                  "-o", str(tmp_path / "t")) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInstanceError" and "99" in err["message"]


# Times that are not finite and > 0; each must fail with InvalidInstanceError.
BAD_TIMES = ["0", "-1", "nan", "inf"]


def _invalid_instance_error(capsys, name):
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInstanceError"
    assert err["message"].startswith(f"{name} must be finite and positive")


@pytest.mark.parametrize("value", BAD_TIMES)
@pytest.mark.parametrize("layout,mode", [("--preset=case-study", "opposite"),
                                         ("--grid=3x3", "opposite"),
                                         ("--grid=3x3", "same")])
def test_schedule_bad_period_is_error(tmp_path, capsys, layout, mode, value):
    inst, sched = tmp_path / "i.json", tmp_path / "s.json"
    invoke("generate", layout, "-o", str(inst))
    capsys.readouterr()
    assert invoke("schedule", "-i", str(inst), "--mode", mode, "--period", value,
                  "-o", str(sched)) == 1
    _invalid_instance_error(capsys, "period")
    assert not sched.exists()


@pytest.mark.parametrize("value", BAD_TIMES)
@pytest.mark.parametrize("option", ["--horizon", "--emission-period"])
def test_simulate_bad_time_is_error(tmp_path, capsys, option, value):
    inst, sched, traces = tmp_path / "i.json", tmp_path / "s.json", tmp_path / "t"
    invoke("generate", "--grid", "3x3", "-o", str(inst))
    invoke("schedule", "-i", str(inst), "--period", "300", "-o", str(sched))
    capsys.readouterr()
    assert invoke("simulate", "-i", str(inst), "-s", str(sched), "--horizon", "600",
                  option, value, "-o", str(traces)) == 1
    _invalid_instance_error(capsys, option[2:].replace("-", "_"))
    assert not (traces / "trace-0.jsonl").exists()


def test_simulate_horizon_past_any_row_count_is_error(tmp_path, capsys):
    # 1e300 / 300 link instants per edge: an int64 count of them overflowed,
    # and simulate wrote a trace with no meeting and no tour and exited 0.
    inst, sched, traces = tmp_path / "i.json", tmp_path / "s.json", tmp_path / "t"
    invoke("generate", "--grid", "10x10", "-o", str(inst))
    invoke("schedule", "-i", str(inst), "--period", "300", "-o", str(sched))
    capsys.readouterr()
    assert invoke("simulate", "-i", str(inst), "-s", str(sched), "--horizon", "1e300",
                  "--emission-period", "1e299", "-o", str(traces)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInstanceError" and "trace rows" in err["message"]
    assert not (traces / "trace-0.jsonl").exists()


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), "100", None])
@pytest.mark.parametrize("where", ["schedule", "section plan"])
def test_schedule_file_bad_period_is_error(where, value):
    g = rs.preset("case-study").graph()
    plan = rs.assign_section_times(g, period=100.0)
    doc = cli.schedule_to_json(rs.schedule_general(g, plan), sorted(g.edges),
                               {"odd-cycle": [], "infeasible-cycle": []}, plan)
    (doc if where == "schedule" else doc["plan"])["period"] = value
    with pytest.raises(rs.InvalidInstanceError, match=f"^{where} period must be"):
        cli.schedule_from_json(doc)


def test_instance_missing_key_is_error(tmp_path, capsys):
    doc = cli.instance_to_json(rs.grid(2, 2))
    del doc["comm_range"]
    inst = tmp_path / "i.json"
    inst.write_text(cli._dumps(doc))
    assert invoke("schedule", "-i", str(inst), "-o", str(tmp_path / "s.json")) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInstanceError" and "comm_range" in err["message"]


# (layout, file, path, value): the layout's instance or schedule document
# gets doc[path[0]]...[path[-1]] = value, or loses that entry when value is
# DELETE.  Case-study agent 0 links with 1, 3 and 5.
DELETE = object()
MALFORMED_DOCS = [
    ("grid", "instance", ("circles", 0), [0, "a", 1.0]),
    ("grid", "instance", ("circles",), None), ("grid", "instance", ("circles", 0), None),
    ("grid", "schedule", ("starts",), None), ("grid", "schedule", ("dirs",), None),
    ("case-study", "instance", ("paths",), 5),
    ("case-study", "instance", ("paths", 0, 0), ["a", 0]),
    ("case-study", "instance", ("paths", 0, 1), [1.0]),
    ("case-study", "schedule", ("epochs",), 5),
    ("case-study", "schedule", ("epochs",), DELETE),
    ("case-study", "schedule", ("epochs", -1), DELETE),
    ("case-study", "schedule", ("epochs", 0, "1"), "a"),
    ("case-study", "schedule", ("epochs", 0, "x"), 1.0),
    ("case-study", "schedule", ("epochs", 0, "1"), DELETE),
    ("case-study", "schedule", ("plan", "link_order"), 5)]
LAYOUTS = {"grid": ("--grid", "3x3"), "case-study": ("--preset", "case-study")}


@pytest.mark.parametrize("layout,kind,path,value", MALFORMED_DOCS,
                         ids=["string-coordinate", "null-circles", "null-circle",
                              "null-starts", "null-dirs", "paths-not-a-list",
                              "string-vertex", "ragged-vertex", "epochs-not-a-list",
                              "no-epochs", "too-few-epochs", "string-epoch",
                              "string-epoch-key", "missing-neighbour-epoch",
                              "link-order-not-an-object"])
def test_malformed_instance_or_schedule_is_error(tmp_path, capsys, layout, kind, path,
                                                 value):
    inst, sched = tmp_path / "inst.json", tmp_path / "sched.json"
    assert invoke("generate", *LAYOUTS[layout], "-o", str(inst)) == 0
    assert invoke("schedule", "-i", str(inst), "-o", str(sched)) == 0
    bad = inst if kind == "instance" else sched
    doc = json.loads(bad.read_text())
    *keys, last = path
    target = doc
    for key in keys:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    argv = (["schedule", "-i", str(inst), "-o", str(tmp_path / "s.json")]
            if kind == "instance" else
            ["simulate", "-i", str(inst), "-s", str(sched), "--horizon", "10",
             "-o", str(tmp_path / "t")])
    assert invoke(*argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInstanceError"


def test_schedule_disconnected_path_layout(tmp_path, capsys):
    # two separate pairs of unit squares: each component gets its own anchor
    squares = [rs.ClosedPath(np.array([[x, 0.0], [x + 1.0, 0.0], [x + 1.0, 1.0], [x, 1.0]]))
               for x in (0.0, 1.4, 10.0, 11.4)]
    inst = rs.Instance(mode="path", paths=squares, ranges=[0.5] * 4)
    g = inst.graph()
    assert g.components() == [[0, 1], [2, 3]]
    sched = rs.schedule_general(g, rs.assign_section_times(g, period=10.0))
    assert rs.verify_schedule(g, sched).all_synchronized
    inst_file = tmp_path / "pairs.json"
    inst_file.write_text(cli._dumps(cli.instance_to_json(inst)))
    assert invoke("schedule", "-i", str(inst_file), "--period", "10",
                  "-o", str(tmp_path / "s.json")) == 0


@pytest.mark.parametrize("drop", ["header", "event"])
def test_trace_missing_key_is_error(tmp_path, capsys, drop):
    _, _, traces = pipeline(tmp_path, seeds="1")
    path = traces / "trace-0.jsonl"
    lines = path.read_text().splitlines()
    row = 0 if drop == "header" else 1
    doc = json.loads(lines[row])
    key = "survivors" if drop == "header" else "agents"
    del doc[key]
    lines[row] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert invoke("report", "-t", str(traces)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInstanceError" and key in err["message"]


@pytest.mark.parametrize("key,value", [
    ("survivors", [0, 1, 2, 9]), ("survivors", [0, 1, 2, -1]),
    ("initial_occupancy", [0, 1, 2, 3, 4, 5, 6, 7, 9]),
    ("initial_occupancy", [0, 1, 2, 3, 4, 5, 6, 7, -1])])
def test_trace_agent_id_out_of_range_is_error(tmp_path, capsys, key, value):
    _, _, traces = pipeline(tmp_path, seeds="1")
    path = traces / "trace-0.jsonl"
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    head[key] = value
    lines[0] = json.dumps(head)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert invoke("report", "-t", str(traces)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInstanceError" and key in err["message"]
    assert str(value[-1]) in err["message"]


@pytest.mark.parametrize("kind,key,value", [
    ("meeting", "agents", [0, 9]), ("meeting", "agents", [0, -1]),
    ("tour-complete", "trajs", [9]), ("meeting", "kind", "meetx"),
    ("emit", "time", float("nan")), ("meeting", "location", [float("inf"), 0.0]),
    ("emit", "time", 1e9), ("meeting", "kind", "enter-region")])
def test_trace_bad_event_is_error(tmp_path, capsys, kind, key, value):
    # time 1e9 puts the first emit after every other event
    _, _, traces = pipeline(tmp_path, seeds="1")
    path = traces / "trace-0.jsonl"
    lines = path.read_text().splitlines()
    row = next(k for k, line in enumerate(lines) if json.loads(line).get("kind") == kind)
    doc = json.loads(lines[row])
    doc[key] = value
    lines[row] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert invoke("report", "-t", str(traces)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInstanceError" and key in err["message"]


@pytest.mark.parametrize("head,word", [
    ([1], "JSON object"), (3, "JSON object"), *BAD_TRACE_HEADERS,
    ("not json", "JSON object"), (None, "JSON object")])
def test_trace_bad_header_is_error(tmp_path, capsys, head, word):
    """A header line that is a JSON non-object, the text head or, for None,
    an empty file; or the trace's header with the fields head."""
    _, _, traces = pipeline(tmp_path, seeds="1")
    path = traces / "trace-0.jsonl"
    lines = path.read_text().splitlines()
    if isinstance(head, dict):
        head = {**json.loads(lines[0]), **head}
    if head is None:
        lines = []
    else:
        lines[0] = head if isinstance(head, str) else json.dumps(head)
    # Parsed directly first: report on a header that passes the parse may
    # never return (a zero period steps its period boundaries by zero).
    with pytest.raises(InvalidInstanceError, match=word):
        cli.trace_from_lines(lines)
    path.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    assert invoke("report", "-t", str(traces)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInstanceError" and word in err["message"]


@pytest.mark.parametrize("fail_at,survivors", SURVIVOR_MISMATCHES)
def test_report_of_survivors_contradicting_failure_rows_is_error(tmp_path, capsys,
                                                                 fail_at, survivors):
    extra = () if fail_at is None else ("--fail-at", fail_at)
    _, _, traces = pipeline(tmp_path, strategy="rand:0.5", seeds="1", extra=extra)
    path = traces / "trace-0.jsonl"
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    assert head["survivors"] != survivors
    lines[0] = json.dumps({**head, "survivors": survivors})
    trace = cli.trace_from_lines(lines)
    with pytest.raises(InvalidInstanceError, match="survivors are not the"):
        rs.report(trace)
    path.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    assert invoke("report", "-t", str(traces)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "InvalidInstanceError",
                   "message": "trace header survivors are not the "
                              f"{8 if fail_at else 9} agents without a failure row"}


@pytest.mark.parametrize("source,builds", [
    (("--grid", "3x3"), 1), (("--preset", "case-study"), 1), (("--random", "12"), 1)])
def test_generate_builds_graph_once_in_command(tmp_path, monkeypatch, capsys,
                                               source, builds):
    calls = []
    real = rs.Instance.graph
    monkeypatch.setattr(rs.Instance, "graph", lambda self: calls.append(1) or real(self))
    assert invoke("generate", *source, "-o", str(tmp_path / "i.json")) == 0
    assert len(calls) == builds
    g = real(cli.instance_from_json(json.loads((tmp_path / "i.json").read_text())))
    assert f"{g.n} nodes, {len(g.edges)} edges" in capsys.readouterr().out


def test_trace_lines_match_json_dumps(tmp_path):
    _, _, traces = pipeline(tmp_path, seeds="1", extra=("--fail-at", "4:600"))
    lines = (traces / "trace-0.jsonl").read_text().splitlines()
    trace = cli.trace_from_lines(lines)
    assert cli.trace_to_lines(trace) == lines == [
        json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
        for line in lines]


def test_simulate_trace_has_no_deliver_events(tmp_path):
    _, _, traces = pipeline(tmp_path, seeds="1", extra=("--fail-at", "4:600"))
    lines = (traces / "trace-0.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["format_version"] == 2
    assert {json.loads(line)["kind"] for line in lines[1:]} == {
        "emit", "meeting", "switch", "failure", "tour-complete"}


def test_report_rejects_version_1_trace(tmp_path, capsys):
    _, _, traces = pipeline(tmp_path, seeds="1")
    path = traces / "trace-0.jsonl"
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    head["format_version"] = 1
    lines[0] = json.dumps(head)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert invoke("report", "-t", str(traces)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidInstanceError" and "format_version 1" in err["message"]


SCIPY_PROBE = """
import json, sys
import ringsync.cli as cli
loaded = {"import": "scipy" in sys.modules}
optimize = {"import": "scipy.optimize" in sys.modules}
steps = [
    ("generate", ["generate", "--grid", "3x3", "-o", "grid.json"]),
    ("schedule", ["schedule", "-i", "grid.json", "--period", "300", "-o", "s.json"]),
    ("simulate", ["simulate", "-i", "grid.json", "-s", "s.json", "--horizon", "600",
                  "-o", "traces"]),
    ("report", ["report", "-t", "traces"]),
    ("schedule-aligned", ["schedule", "-i", "aligned.json", "--period", "100",
                          "-o", "as.json"]),
    ("generate-path", ["generate", "--preset", "case-study", "-o", "paths.json"]),
    ("schedule-path", ["schedule", "-i", "paths.json", "--period", "100",
                       "-o", "ps.json"]),
]
codes = {}
for name, argv in steps:
    codes[name] = cli.main(argv)
    loaded[name] = "scipy" in sys.modules
    optimize[name] = "scipy.optimize" in sys.modules
print(json.dumps({"loaded": loaded, "optimize": optimize, "codes": codes}))
"""


def test_scipy_loaded_only_by_path_schedule(tmp_path):
    # the aligned 2x2 path grid fails without an LP: the interval cut
    # rejects every z, so that schedule leaves scipy unloaded
    aligned = cli.instance_to_json(path_grid(2, 2, staggered=False))
    (tmp_path / "aligned.json").write_text(cli._dumps(aligned))
    src = os.path.dirname(os.path.dirname(rs.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(cli.OUTPUT_DIR_ENV, None)
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["codes"] == {"generate": 0, "schedule": 0, "simulate": 0, "report": 0,
                            "schedule-aligned": 1, "generate-path": 0,
                            "schedule-path": 0}
    assert json.loads(proc.stderr)["error"] == "InfeasibleSectionTimesError"
    assert doc["loaded"] == {"import": False, "generate": False, "schedule": False,
                             "simulate": False, "report": False,
                             "schedule-aligned": False, "generate-path": False,
                             "schedule-path": True}
    # the section-time LPs load scipy's HiGHS extension alone
    assert not any(doc["optimize"].values())


IMPORT_ORDER_PROBE = """
import json, sys
import numpy as np
import ringsync as rs
import ringsync.scheduler as sch

lp = dict(A_eq=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], b_eq=[1.0, 1.5],
          bounds=[(0.1, 1.0)] * 3)

def ringsync_solve():
    g = rs.max_bipartite_subgraph(rs.preset("case-study").graph())
    rs.assign_section_times(g, period=100.0)
    return sch.linprog(np.zeros(3), **lp)

def scipy_solve():
    from scipy.optimize import linprog
    return linprog(np.zeros(3), **lp)

steps = [ringsync_solve, scipy_solve]
if sys.argv[1] == "scipy-first":
    steps.reverse()
res = {step.__name__: step() for step in steps}
from scipy.optimize._highspy import _highs_wrapper
core = sys.modules["scipy.optimize._highspy._core"]
print(json.dumps({"same_core": sch._highs_core() is core and _highs_wrapper._h is core,
                  "status": {k: int(r.status) for k, r in res.items()},
                  "x": {k: r.x.tolist() for k, r in res.items()}}))
"""


@pytest.mark.parametrize("order", ["ringsync-first", "scipy-first"])
def test_highs_core_shared_with_scipy_optimize(tmp_path, order):
    # pybind11 registers the extension's types once per process, so a second
    # load of the module, in either import order, would fail
    src = os.path.dirname(os.path.dirname(rs.__file__))
    proc = subprocess.run([sys.executable, "-c", IMPORT_ORDER_PROBE, order], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, check=True)
    doc = json.loads(proc.stdout)
    assert doc["same_core"]
    assert doc["status"] == {"ringsync_solve": 0, "scipy_solve": 0}
    assert doc["x"]["ringsync_solve"] == doc["x"]["scipy_solve"]


def test_scipy_without_highs_bindings_names_the_floor(tmp_path):
    # a scipy older than 1.15 has no scipy/optimize/_highspy/_core extension
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text('__version__ = "1.14.1"\n')
    src = os.path.dirname(os.path.dirname(rs.__file__))
    inst = tmp_path / "i.json"
    inst.write_text(cli._dumps(cli.instance_to_json(rs.preset("case-study"))))
    proc = subprocess.run(
        [sys.executable, "-m", "ringsync.cli", "schedule", "-i", str(inst),
         "-o", str(tmp_path / "s.json")], cwd=tmp_path, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), src])))
    assert proc.returncode != 0
    assert "ImportError: path-mode scheduling needs scipy>=1.15" in proc.stderr
    assert "scipy 1.14.1 lacks them" in proc.stderr


def test_schedule_over_solve_budget_is_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sch, "SECTION_LP_BUDGET", 10)
    inst_file = tmp_path / "grid.json"
    inst_file.write_text(cli._dumps(cli.instance_to_json(path_grid(3, 3))))
    assert invoke("schedule", "-i", str(inst_file), "--period", "100",
                  "-o", str(tmp_path / "s.json")) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SectionSearchBudgetError"
    assert "4 cycles" in err["message"] and "10 LP solves" in err["message"]
    assert not (tmp_path / "s.json").exists()


def _grid_schedule(tmp_path, capsys):
    """A 3x3 grid instance and its period-300 opposite-direction schedule."""
    inst, sched = tmp_path / "i.json", tmp_path / "s.json"
    assert invoke("generate", "--grid", "3x3", "-o", str(inst)) == 0
    assert invoke("schedule", "-i", str(inst), "--period", "300", "-o", str(sched)) == 0
    capsys.readouterr()
    return inst, sched


def _simulate_error(tmp_path, capsys, inst, sched, *extra):
    """The JSON error line of a simulate run that must exit 1."""
    assert invoke("simulate", "-i", str(inst), "-s", str(sched), "--horizon", "600",
                  *extra, "-o", str(tmp_path / "t")) == 1
    return json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("strategy", ["dfs:99", "dfs:-1"])
def test_simulate_dfs_root_outside_agents_is_error(tmp_path, capsys, strategy):
    inst, sched = _grid_schedule(tmp_path, capsys)
    err = _simulate_error(tmp_path, capsys, inst, sched, "--strategy", strategy)
    assert err["error"] == "InvalidInstanceError"
    assert strategy[4:] in err["message"]


@pytest.mark.parametrize("strategy", ["rand:abc", "dfs:x"])
def test_simulate_malformed_strategy_is_error(tmp_path, capsys, strategy):
    inst, sched = _grid_schedule(tmp_path, capsys)
    err = _simulate_error(tmp_path, capsys, inst, sched, "--strategy", strategy)
    assert err["error"] == "InvalidInstanceError" and strategy in err["message"]


MALFORMED_NUMBERS = [
    (("simulate", "--fail-at", "x:0"), "--fail-at agent 'x' is not a valid int"),
    (("simulate", "--fail-at", "3:abc"), "--fail-at time 'abc' is not a valid float"),
    (("simulate", "--seed-list", "1,b"), "--seed-list entry 'b' is not a valid int"),
    (("simulate", "--seed-list", "-1"), "--seed-list entry -1 is negative"),
    (("simulate", "--fail", "2", "--fail-seed", "-1"), "--fail-seed -1 is negative"),
    (("generate", "--grid", "3xq"), "--grid columns 'q' is not a valid int"),
    (("generate", "--grid", "3"), "--grid columns '' is not a valid int"),
    (("generate", "--random", "5", "--seed", "-1"), "--seed -1 is negative"),
    (("generate", "--random", "5", "--range", "inf"),
     "range inf must be finite and non-negative")]


@pytest.mark.parametrize("args,message", MALFORMED_NUMBERS,
                         ids=[" ".join(args) for args, _ in MALFORMED_NUMBERS])
def test_malformed_number_argument_is_typed_error(tmp_path, capsys, args, message):
    if args[0] == "simulate":
        inst, sched = _grid_schedule(tmp_path, capsys)
        err = _simulate_error(tmp_path, capsys, inst, sched, *args[1:])
    else:
        assert invoke(*args, "-o", str(tmp_path / "i.json")) == 1
        err = json.loads(capsys.readouterr().err)
    assert err == {"error": "InvalidInstanceError", "message": message}


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_generate_grid_with_non_finite_range_is_error_without_output(tmp_path, capsys, value):
    out = tmp_path / "i.json"
    assert invoke("generate", "--grid", "2x2", "--range", value, "-o", str(out)) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "InvalidInstanceError",
        "message": f"range {value} must be finite and non-negative"}
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (("--seeds", "0"), "--seeds 0 is not a positive count"),
    (("--seeds", "-1"), "--seeds -1 is not a positive count"),
    (("--seed-list", "1,1"), "--seed-list repeats seed 1"),
    (("--seed-list", "3,1,2,1"), "--seed-list repeats seed 1")])
def test_simulate_bad_seed_set_is_error_without_output(tmp_path, capsys, args, message):
    """No seeds, or a seed twice (whose second trace would overwrite the
    first), fails before the output directory is made."""
    inst, sched = _grid_schedule(tmp_path, capsys)
    err = _simulate_error(tmp_path, capsys, inst, sched, *args)
    assert err == {"error": "InvalidInstanceError", "message": message}
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("args", [
    ("--fail", "3", "--fail-at", "0:0", "--seeds", "2", "--seed-list", "5"),
    ("--fail", "0", "--fail-whites"), ("--fail-at", "0:0", "--fail-whites"),
    ("--seeds", "1", "--seed-list", "5")])
def test_simulate_options_that_override_each_other_are_usage_errors(tmp_path, capsys, args):
    inst, sched = _grid_schedule(tmp_path, capsys)
    with pytest.raises(SystemExit) as exc:
        invoke("simulate", "-i", str(inst), "-s", str(sched), "--horizon", "600",
               *args, "-o", str(tmp_path / "t"))
    assert exc.value.code == 2 and "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("count", ["10", "20", "-1"])
def test_simulate_fail_more_than_the_agents_is_error(tmp_path, capsys, count):
    inst, sched = _grid_schedule(tmp_path, capsys)
    err = _simulate_error(tmp_path, capsys, inst, sched, "--fail", count)
    assert err["error"] == "InvalidInstanceError" and count in err["message"]


def test_simulate_fail_whites_without_whites_is_error(tmp_path, capsys):
    inst, sched = _grid_schedule(tmp_path, capsys)
    err = _simulate_error(tmp_path, capsys, inst, sched, "--fail-whites")
    assert err == {"error": "InvalidInstanceError",
                   "message": "instance has no white agent list"}


def test_simulate_agent_failed_twice_fails_once(tmp_path, capsys):
    inst, sched = _grid_schedule(tmp_path, capsys)
    traces = tmp_path / "t"
    assert invoke("simulate", "-i", str(inst), "-s", str(sched), "--horizon", "600",
                  "--fail-at", "4:0,4:100", "-o", str(traces)) == 0
    tr = cli.trace_from_lines((traces / "trace-0.jsonl").read_text().splitlines())
    rows = tr.rows_of("failure")
    assert [tr.agents[2 * r] for r in rows] == [4] and [tr.time[r] for r in rows] == [0.0]


def test_simulate_refuses_schedule_off_by_1e_7_periods(tmp_path, capsys):
    """simulate checks the schedule it reads at the schedulers' tolerance,
    1e-9 of the period: one start moved by 1e-7 of a turn is refused."""
    inst, sched = _grid_schedule(tmp_path, capsys)
    doc = json.loads(sched.read_text())
    doc["starts"][4] += 1e-7 * 2.0 * np.pi
    sched.write_text(cli._dumps(doc))
    err = _simulate_error(tmp_path, capsys, inst, sched)
    assert err["error"] == "InvalidInstanceError" and "not synchronized" in err["message"]


def test_schedule_file_bad_format_version_is_error(tmp_path, capsys):
    inst, sched = _grid_schedule(tmp_path, capsys)
    doc = json.loads(sched.read_text())
    doc["format_version"] = 2
    sched.write_text(cli._dumps(doc))
    err = _simulate_error(tmp_path, capsys, inst, sched)
    assert err == {"error": "InvalidInstanceError",
                   "message": "unsupported schedule format_version 2"}


def test_schedule_reports_infeasible_cycle_drops(tmp_path, capsys):
    """Random circles keep chords whose fundamental cycles do not close;
    the opposite-direction filter drops them and says why."""
    inst, sched = tmp_path / "i.json", tmp_path / "s.json"
    assert invoke("generate", "--random", "400", "-o", str(inst)) == 0
    assert invoke("schedule", "-i", str(inst), "--period", "300", "-o", str(sched)) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"opposite-directions: 390 edges synchronized, 190 dropped "
        f"(132 odd cycle, 58 infeasible cycle) -> {sched}")
    dropped = json.loads(sched.read_text())["dropped_edges"]
    assert (len(dropped["odd-cycle"]), len(dropped["infeasible-cycle"])) == (132, 58)


def test_simulate_general_schedule_on_grid_is_error(tmp_path, capsys):
    """The case study's seven-agent section schedule retains edges a 3x3
    circle grid lacks; simulate used to drop them and run the rest."""
    inst, _ = _grid_schedule(tmp_path, capsys)
    case, sched = tmp_path / "case.json", tmp_path / "case-sched.json"
    assert invoke("generate", "--preset", "case-study", "-o", str(case)) == 0
    assert invoke("schedule", "-i", str(case), "-o", str(sched)) == 0
    capsys.readouterr()
    err = _simulate_error(tmp_path, capsys, inst, sched)
    assert err == {"error": "InvalidInstanceError",
                   "message": "schedule retains edge [0, 5], which the instance lacks"}
    assert not (tmp_path / "t").exists()


def test_simulate_schedule_of_smaller_grid_is_error(tmp_path, capsys):
    """A 3x3 grid schedule on a 4x4 grid: nine starts for sixteen agents,
    and grid edge (0, 3) is no edge of the larger grid."""
    small, sched = _grid_schedule(tmp_path, capsys)
    inst = tmp_path / "big.json"
    assert invoke("generate", "--grid", "4x4", "-o", str(inst)) == 0
    capsys.readouterr()
    err = _simulate_error(tmp_path, capsys, inst, sched)
    assert err == {"error": "InvalidInstanceError",
                   "message": "schedule retains edge [0, 3], which the instance lacks"}


def test_simulate_circle_schedule_on_path_instance_is_error(tmp_path, capsys):
    """A 3x3 path grid has the 3x3 circle grid's edges, so only the modes
    tell the schedule does not fit."""
    _, sched = _grid_schedule(tmp_path, capsys)
    inst = tmp_path / "paths.json"
    cli._write_json(str(inst), cli.instance_to_json(path_grid(3, 3)))
    err = _simulate_error(tmp_path, capsys, inst, sched)
    assert err == {"error": "InvalidInstanceError",
                   "message": "opposite-directions schedule does not fit a path instance"}


def test_report_of_header_only_trace_with_tiny_period_returns(tmp_path):
    """A billion period boundaries and no events: the starvation walk stops
    three periods after the last occupancy change instead of visiting each.
    In a child process under a timeout, so a regression fails, not hangs."""
    traces = tmp_path / "t"
    traces.mkdir()
    header = {"format_version": 2, "horizon": 1000.0, "initial_occupancy": [0, 1],
              "n": 2, "period": 1e-6, "seed": 0, "strategy": "alw",
              "survivors": [0, 1], "type": "header"}
    (traces / "trace-0.jsonl").write_text(json.dumps(header) + "\n")
    src = os.path.dirname(os.path.dirname(rs.__file__))
    proc = subprocess.run([sys.executable, "-m", "ringsync.cli", "report", "-t", str(traces),
                           "-o", str(tmp_path / "summary.json")],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "summary.json").read_text())["aggregate"]
    assert summary["starvation_proven"] and summary["potentially_starving"] == [0, 1]


def _two_squares():
    return rs.Instance(mode="path", ranges=[0.5, 0.5], paths=[
        rs.ClosedPath([[x, 0.0], [x + 1.0, 0.0], [x + 1.0, 1.0], [x, 1.0]]) for x in (0.0, 1.4)])


def _set(key, value, path=False):
    """An instance document of a 2x2 grid, or of two squares if path, with
    doc[key] = value; key may be a (key, index) pair into a list."""
    def make():
        doc = cli.instance_to_json(_two_squares() if path else rs.grid(2, 2))
        if isinstance(key, tuple):
            doc[key[0]][key[1]] = value
        else:
            doc[key] = value
        return doc
    return make


# Instance documents that `generate` never writes, each with a word of the
# InvalidInstanceError that `schedule` exits with.
BAD_INSTANCES = {
    "comm-range-null": (_set("comm_range", None), "range None"),
    "comm-range-string": (_set("comm_range", "0.5"), "range '0.5'"),
    "comm-range-nan": (_set("comm_range", float("nan")), "range nan"),
    "comm-range-negative": (_set("comm_range", -0.5), "range -0.5"),
    "comm-range-inf": (_set("comm_range", float("inf")), "range inf"),
    "radius-string": (_set(("circles", 0), [0.0, 0.0, "1.0"]), "radius must be positive"),
    "meta-list": (_set("meta", []), "meta [] is not an object"),
    "mode-unknown": (_set("mode", "polygon", path=True), "unknown instance mode 'polygon'"),
    "top-level-list": (lambda: [cli.instance_to_json(rs.grid(2, 2))],
                       "does not hold a JSON object"),
    "three-ranges-two-paths": (_set("ranges", [0.5, 0.5, 0.5], path=True), "one per path"),
    "ranges-null": (_set("ranges", None, path=True), "one per path"),
    "range-nan": (_set(("ranges", 1), float("nan"), path=True), "range nan"),
    "range-negative": (_set(("ranges", 0), -0.1, path=True), "range -0.1"),
}


@pytest.mark.parametrize("name", BAD_INSTANCES)
def test_schedule_of_bad_instance_is_error(tmp_path, capsys, name):
    make, word = BAD_INSTANCES[name]
    inst = tmp_path / "i.json"
    inst.write_text(cli._dumps(make()))
    assert invoke("schedule", "-i", str(inst), "-o", str(tmp_path / "s.json")) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] in ("InvalidInstanceError", "DegenerateGeometryError")
    assert word in err["message"]
    assert not (tmp_path / "s.json").exists()
    if name != "top-level-list":   # the library reader takes a parsed object
        with pytest.raises(rs.RingsyncError, match=word.replace("[", r"\[")):
            cli.instance_from_json(make())


# Schedule document edits that no scheduler writes, each with a word of the
# InvalidInstanceError that `simulate` exits with.
BAD_SCHEDULES = {
    "start-nan": (lambda d: d["starts"].__setitem__(0, float("nan")), "start nan"),
    "start-inf": (lambda d: d["starts"].__setitem__(3, float("inf")), "start inf"),
    "start-string": (lambda d: d["starts"].__setitem__(0, "0"), "start '0'"),
    "mode-unknown": (lambda d: d.__setitem__("mode", "sideways"), "mode 'sideways'"),
    "dir-unknown": (lambda d: d["dirs"].__setitem__(1, "up"), "direction 'up'"),
    "edge-one-id": (lambda d: d.__setitem__("retained_edges", [[0]]), "retained_edges"),
    "edge-float-id": (lambda d: d["retained_edges"].__setitem__(0, [0, 1.0]),
                      "retained_edges"),
    "edges-null": (lambda d: d.__setitem__("retained_edges", None), "retained_edges"),
}


@pytest.mark.parametrize("name", [*BAD_SCHEDULES, "top-level-list"])
def test_simulate_of_bad_schedule_is_error(tmp_path, capsys, name):
    inst, sched = _grid_schedule(tmp_path, capsys)
    doc = json.loads(sched.read_text())
    if name == "top-level-list":
        doc, word = [doc], "does not hold a JSON object"
    else:
        edit, word = BAD_SCHEDULES[name]
        edit(doc)
    sched.write_text(cli._dumps(doc))
    err = _simulate_error(tmp_path, capsys, inst, sched)
    assert err["error"] == "InvalidInstanceError" and word in err["message"]
    assert not (tmp_path / "t").exists()
