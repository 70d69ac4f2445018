"""Pinned outputs of four circle-layout pipelines.

Each pipeline runs `generate → schedule → simulate → report` through
`cli.main` and must write trace files and a summary whose sha256 digests
equal the ones recorded here.  A change to the simulator, the trace writer
or the metrics that moves any byte of these files fails the test; one that
means to change them must record new digests and say why.  Path layouts are
left out, because their traces are expected to change with the link
positions of path trajectories.
"""

import hashlib

import pytest

from ringsync import cli

# name -> (generate args, schedule args, simulate args)
PIPELINES = {
    "grid-10x10-alw": (["--grid", "10x10"], ["--period", "300"],
                       ["--horizon", "7500", "--strategy", "alw"]),
    "random-400-rand": (["--random", "400"], ["--period", "300"],
                        ["--horizon", "6000", "--strategy", "rand:0.5", "--fail", "80",
                         "--seeds", "3"]),
    "fig7-starve-whites": (["--preset", "fig7-starve"], [],
                           ["--horizon", "4000", "--fail-whites"]),
    "grid-3x3-same": (["--grid", "3x3"], ["--mode", "same", "--period", "300"],
                      ["--horizon", "15000", "--fail-at", "4:300"]),
}

# name -> {output file name: sha256 of its bytes}
DIGESTS = {
    "fig7-starve-whites": {
        "summary.json": "570b669316ff34e3b6d5e404068857d8e35ad106964efe9d04231c222380fc89",
        "trace-0.jsonl": "37b3f6e07d82f91cc79c8ca6610499ba52c85d29050f1427e0e63279e3cbd7b5",
    },
    "grid-10x10-alw": {
        "summary.json": "b96b433a27d09450dc6a64dd11dbd6c4da24264214709bd4fc2feeee93bb02ad",
        "trace-0.jsonl": "a580482d833090a00b575d4afca3ef1466bf86ad8faf0606e0ec17f8ae88b84e",
    },
    "grid-3x3-same": {
        "summary.json": "006bb672299536528c079508b6cda48dd646c71ed550818956389fd7b9027490",
        "trace-0.jsonl": "160929252ab5d89e9d90f06bb03839c7c0be259cd150d8207fdafc7d1b0ce608",
    },
    "random-400-rand": {
        "summary.json": "a6c14a1b7af8d86f2a4ed038fdd55a9104f4d3abc14fc55d32d636254fac8428",
        "trace-0.jsonl": "091515a9c86246d2457280cfe0509c35c6eff85f5e4c50fc238a9898e2f14e87",
        "trace-1.jsonl": "ce095b8f5413acfe443877a6e0ed53f347816eafaf4846c6a9257d1393c7c642",
        "trace-2.jsonl": "c39c8425d7d8c00698a1eea3549154ae18792ae84fc3ded31058b22cd67ed3f4",
    },
}


def digests(tmp_path, name) -> dict:
    """File name -> sha256 of every trace file and the summary of a pipeline."""
    generate, schedule, simulate = PIPELINES[name]
    inst, sched = str(tmp_path / "inst.json"), str(tmp_path / "sched.json")
    traces, summary = tmp_path / "traces", tmp_path / "summary.json"
    for argv in (["generate", *generate, "-o", inst],
                 ["schedule", "-i", inst, *schedule, "-o", sched],
                 ["simulate", "-i", inst, "-s", sched, *simulate, "-o", str(traces)],
                 ["report", "-t", str(traces), "--label", name, "-o", str(summary)]):
        assert cli.main(argv) == 0, argv
    files = sorted(traces.iterdir()) + [summary]
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_pipeline_outputs_match_recorded_digests(tmp_path, name):
    assert digests(tmp_path, name) == DIGESTS[name]
