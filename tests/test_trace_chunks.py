"""The trace writer and reader at chunk boundaries.

Both handle CHUNK_ROWS event lines at a time; each test here uses a trace
of more than two chunks and edits lines at or next to a boundary.
"""

import json
from functools import lru_cache

import pytest

import ringsync as rs
from ringsync.errors import InvalidInstanceError
from ringsync.simulator import SimConfig, run
from ringsync.trace import CHUNK_ROWS, Strategy, _dumps, trace_from_lines, write_trace
from conftest import trace_lines, trace_rows
from test_trace_table import assert_same_table, reference_lines


@lru_cache(maxsize=None)
def long_trace():
    """A 3x3 grid at period 1 over 200 periods, with a failure and rand
    switches: about five chunks of event lines."""
    inst = rs.grid(3, 3)
    g = rs.max_synch_subgraph(rs.max_bipartite_subgraph(inst.graph()))
    sched = rs.schedule_opposite_directions(g, period=1.0)
    config = SimConfig(horizon=200.0, strategy=Strategy("rand", p=0.5), seed=3,
                       failures=[(4, 50.0)])
    trace = run(inst, sched, config, graph=g)
    assert len(trace) > 2 * CHUNK_ROWS + 1
    return trace


def lines():
    """A fresh copy of the long trace's lines; line k + 1 is event row k."""
    return trace_lines(long_trace())


def parse_error(edited) -> str:
    with pytest.raises(InvalidInstanceError) as exc:
        trace_from_lines(edited)
    return str(exc.value)


def test_round_trip_over_chunks():
    text = lines()
    trace = trace_from_lines(text)
    assert_same_table(trace, long_trace())
    assert trace_lines(trace) == text


def test_file_writer_matches_lines(tmp_path):
    # against the row-at-a-time encoding of every line
    path = tmp_path / "trace-0.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        write_trace(f, long_trace())
    reference = reference_lines(long_trace(), trace_rows(long_trace()))
    assert path.read_text(encoding="utf-8") == "\n".join(reference) + "\n"


def test_open_file_and_list_parse_alike(tmp_path):
    path = tmp_path / "trace-0.jsonl"
    path.write_text("\n".join(lines()) + "\n", encoding="utf-8")
    with open(path, encoding="utf-8") as f:
        from_file = trace_from_lines(f)
    assert_same_table(from_file, trace_from_lines(lines()))
    assert_same_table(from_file, long_trace())


@pytest.mark.parametrize("row", [CHUNK_ROWS - 1, CHUNK_ROWS])
def test_time_inversion_across_a_boundary_is_error(row):
    # Row CHUNK_ROWS - 1 ends the first chunk and row CHUNK_ROWS starts the
    # second: each chunk alone stays in time order.
    text = lines()
    before = json.loads(text[CHUNK_ROWS])["time"]
    after = json.loads(text[CHUNK_ROWS + 1])["time"]
    doc = json.loads(text[row + 1])
    doc["time"] = after + 0.5 if row == CHUNK_ROWS - 1 else before - 0.5
    text[row + 1] = _dumps(doc)
    assert parse_error(text) == "trace events are not in time order"


@pytest.mark.parametrize("line", ["{\"kind\": \"emit\"", "[1, 2]", "3", "{} {}", "{},{}",
                                  pytest.param("{\"time\": 1" + "0" * 5000 + "}",
                                               id="5001-digit-time")])
def test_bad_line_in_last_chunk_is_error(line):
    text = lines()
    text[-1] = line
    assert parse_error(text) == "each trace event line must hold one JSON object"


def test_blank_lines_at_a_boundary_are_skipped():
    text = lines()
    edited = text[:CHUNK_ROWS + 1] + ["", "  \n", "\n"] + text[CHUNK_ROWS + 1:] + [""]
    assert_same_table(trace_from_lines(edited), long_trace())
