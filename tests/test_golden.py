"""Pinned outputs of four circle-layout pipelines.

Each pipeline runs `generate → schedule → simulate → report` through
`cli.main` and must write trace files and a summary whose sha256 digests
equal the ones recorded here.  A change to the simulator, the trace writer
or the metrics that moves any byte of these files fails the test; one that
means to change them must record new digests and say why.  Path layouts are
left out, because their traces are expected to change with the link
positions of path trajectories.

The trace digests are of format 4.  Each trace, rewritten in format 3 with
its rows' link locations from the instance, must still hash to the digest
recorded for the format-3 file: format 4 only drops the location.
"""

import hashlib
import json

import pytest

from ringsync import cli
from ringsync.trace import trace_from_lines
from test_trace_table import old_format_lines

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
        "trace-0.jsonl": "53ec95773e346198e9edf0ea691c692a1569927be7ad5ddaf3c01fe10c009b56",
    },
    "grid-10x10-alw": {
        "summary.json": "b96b433a27d09450dc6a64dd11dbd6c4da24264214709bd4fc2feeee93bb02ad",
        "trace-0.jsonl": "b61245a233494c4de41cdbfd25b75c2b53d54f738f6c0c316e493ff3c94fa832",
    },
    "grid-3x3-same": {
        "summary.json": "006bb672299536528c079508b6cda48dd646c71ed550818956389fd7b9027490",
        "trace-0.jsonl": "f7d84c03c83a61f88b8c57d1f562b53b6f9285f61235e98ca5f5584701529540",
    },
    "random-400-rand": {
        "summary.json": "a6c14a1b7af8d86f2a4ed038fdd55a9104f4d3abc14fc55d32d636254fac8428",
        "trace-0.jsonl": "fa891576a2c1af84a0a8edf97bc1285e683603129cd1428c98a2be8ee6b9bb43",
        "trace-1.jsonl": "93d2702fa4bdec76da7a67b4ef397757765d0cc4dd9c6a1695e982f759d6e846",
        "trace-2.jsonl": "1dbe403f794589e65676d8e4966bcb09a14e5fb20007aad5c554ba27955a2256",
    },
}


# name -> {trace file name: sha256 of the format-3 file that format 3 wrote}
FORMAT_3_DIGESTS = {
    "fig7-starve-whites": {
        "trace-0.jsonl": "37b3f6e07d82f91cc79c8ca6610499ba52c85d29050f1427e0e63279e3cbd7b5",
    },
    "grid-10x10-alw": {
        "trace-0.jsonl": "a580482d833090a00b575d4afca3ef1466bf86ad8faf0606e0ec17f8ae88b84e",
    },
    "grid-3x3-same": {
        "trace-0.jsonl": "160929252ab5d89e9d90f06bb03839c7c0be259cd150d8207fdafc7d1b0ce608",
    },
    "random-400-rand": {
        "trace-0.jsonl": "091515a9c86246d2457280cfe0509c35c6eff85f5e4c50fc238a9898e2f14e87",
        "trace-1.jsonl": "ce095b8f5413acfe443877a6e0ed53f347816eafaf4846c6a9257d1393c7c642",
        "trace-2.jsonl": "c39c8425d7d8c00698a1eea3549154ae18792ae84fc3ded31058b22cd67ed3f4",
    },
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """name -> the directory of a pipeline's files, each pipeline run once."""
    done = {}

    def run(name):
        if name not in done:
            generate, schedule, simulate = PIPELINES[name]
            out = done[name] = tmp_path_factory.mktemp(name)
            inst, sched = str(out / "inst.json"), str(out / "sched.json")
            traces, summary = str(out / "traces"), str(out / "summary.json")
            for argv in (["generate", *generate, "-o", inst],
                         ["schedule", "-i", inst, *schedule, "-o", sched],
                         ["simulate", "-i", inst, "-s", sched, *simulate, "-o", traces],
                         ["report", "-t", traces, "--label", name, "-o", summary]):
                assert cli.main(argv) == 0, argv
        return done[name]
    return run


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_pipeline_outputs_match_recorded_digests(outputs, name):
    out = outputs(name)
    files = sorted((out / "traces").iterdir()) + [out / "summary.json"]
    assert {f.name: sha256(f.read_bytes()) for f in files} == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_format_3_rewrite_matches_recorded_format_3_digests(outputs, name):
    out = outputs(name)
    g = cli.instance_from_json(json.loads((out / "inst.json").read_text())).graph()
    rewritten = {}
    for f in sorted((out / "traces").iterdir()):
        trace = trace_from_lines(f.read_text().splitlines())
        rewritten[f.name] = sha256("".join(line + "\n" for line in
                                           old_format_lines(trace, g, 3)).encode())
    assert rewritten == FORMAT_3_DIGESTS[name]
