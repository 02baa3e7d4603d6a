"""The benchmark's tracer still sees the layers it wraps by name.

bench/tracing.py patches module attributes (core.project_covering, ...)
from outside src/. A refactor that stops looking them up at call time
would leave `--trace 1` counting nothing without any error, so this runs
the tracer on tiny matching, set cover and spanning tree replays, in a
subprocess to keep its patches out of the other tests, and checks its
counts against the report.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

MATCHING = "\n".join(json.dumps(r) for r in [
    {"problem": "matching", "n": 8},
    {"op": "insert", "u": "a", "v": "b"},
    {"op": "insert", "u": "c", "v": "d"},
    {"op": "insert", "u": "b", "v": "c"},
    {"op": "delete", "u": "a", "v": "b"},
]) + "\n"

SETCOVER = "\n".join(json.dumps(r) for r in [
    {"problem": "setcover", "sets": [{"cost": 1.0, "elements": [0, 1]},
                                     {"cost": 2.0, "elements": [1, 2]},
                                     {"cost": 1.5, "elements": [0, 2, 3]}]},
    {"op": "insert", "element": 0},
    {"op": "insert", "element": 2},
    {"op": "insert", "element": 1},
    {"op": "delete", "element": 0},
    {"op": "insert", "element": 3},
]) + "\n"

MST = "\n".join(json.dumps(r) for r in [
    {"problem": "mst", "vertices": [0, 1, 2, 3]},
    {"op": "insert", "u": 0, "v": 1, "cost": 1.0},
    {"op": "insert", "u": 1, "v": 2, "cost": 2.0},
    {"op": "insert", "u": 2, "v": 3, "cost": 1.5},
    {"op": "insert", "u": 0, "v": 2, "cost": 0.5},
    {"op": "delete", "u": 1, "v": 2},
]) + "\n"

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from bodychase import cli
tracer = tracing.Tracer()
tracing.install(tracer)
rc = cli.main(json.loads(sys.argv[3]))
spans = {name: tracer.name.count(k) for k, name in enumerate(tracer.names)}
log = tracer.log
kept = None if log is None else {"steps": len(log.steps), "megabytes": tracing.log_megabytes(log)}
print(json.dumps({"rc": rc, "counts": tracer.counts, "spans": spans, "log": kept}))
"""


def traced_replay(tmp_path, text, argv, offline=False):
    """The tracer's output (counts, spans per name, the log it kept) and
    the report's records of one CLI replay."""
    updates, report = tmp_path / "u.jsonl", tmp_path / "r.jsonl"
    updates.write_text(text)
    argv = [argv[0], str(updates), *argv[1:], "--report", str(report)]
    if not offline:
        argv.append("--no-offline")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench"),
         json.dumps(argv)],
        capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(done.stdout)
    assert out["rc"] == 0
    return out, [json.loads(line) for line in report.read_text().splitlines()]


def test_tracer_counts_every_projection(tmp_path):
    traced, records = traced_replay(tmp_path, MATCHING, ["matching", "--round", "on"])
    counts = traced["counts"]
    rows = [r for r in records if r["kind"] == "update"]
    projections = sum(r["projections"] for r in rows)
    assert projections > 0
    assert counts.get("core.projections", 0) == projections
    assert counts.get("core.rootfind_iters", 0) == sum(r["rootfind_iterations"] for r in rows)


@pytest.mark.parametrize("text, argv", [
    (MATCHING, ["matching", "--round", "on"]),
    (SETCOVER, ["setcover", "--round", "det"]),
    (MST, ["mst", "--round", "on"]),
], ids=["matching", "setcover", "mst"])
def test_every_problem_asks_one_traced_oracle(tmp_path, text, argv):
    # every body is a PositiveBody, so each oracle call of a chase is one
    # core.oracle span: one per projection and the last that finds nothing
    traced, records = traced_replay(tmp_path, text, argv)
    chased = [r for r in records if r["kind"] == "update" and "skipped" not in r]
    assert sum(r["projections"] for r in chased) > 0
    assert traced["counts"].get("core.oracle_calls", 0) == \
        sum(r["projections"] + 1 for r in chased)


def test_tracer_sees_the_certificate_layer(tmp_path):
    traced, records = traced_replay(tmp_path, MATCHING, ["matching", "--round", "on"])
    projections = sum(r["projections"] for r in records if r["kind"] == "update")
    spans = traced["spans"]
    # the log's appends are looked up at call time, so every one is a span
    assert spans.get("certify.log", 0) >= projections > 0
    assert traced["log"]["steps"] >= projections
    assert traced["log"]["megabytes"] > 0
    assert spans.get("certify.warmup", 0) == 1


def test_tracer_sees_both_certificates(tmp_path):
    # the set cover replay is clamp-free, so its run builds the refined
    # certificate too: refine_ytilde and build_refined_dual are one span each
    traced, records = traced_replay(tmp_path, SETCOVER, ["setcover", "--round", "det"])
    assert records[-1]["refined_bound"] is not None
    assert traced["spans"].get("certify.warmup", 0) == 1
    assert traced["spans"].get("certify.refined", 0) == 2


def test_tracer_counts_every_cover_lp_pivot(tmp_path):
    traced, records = traced_replay(tmp_path, SETCOVER, ["setcover", "--round", "det"])
    counts = traced["counts"]
    total = records[-1]["lp_pivots"]
    assert total > 0
    assert total == sum(r["lp_pivots"] for r in records if r["kind"] == "update")
    assert counts.get("simplex.adapters_pivots", 0) == total


def test_tracer_sees_the_offline_lp(tmp_path):
    traced, records = traced_replay(tmp_path, MST, ["mst", "--round", "on"], offline=True)
    counts = traced["counts"]
    assert records[-1]["offline_opt"] > 0
    # the solver is looked up at call time, so the one offline solve is a span
    assert traced["spans"].get("simplex.offline", 0) == 1
    assert counts.get("simplex.offline_pivots", 0) == records[-1]["offline_pivots"] > 0
    assert counts.get("offline.lp_vars", 0) > 0
    # the sparse build is one span, sized by its rows and its nonzeros
    assert traced["spans"].get("offline.build", 0) == 1
    assert counts.get("offline.lp_rows", 0) > 0
    assert counts.get("offline.lp_mb", 0) > 0


@pytest.mark.parametrize("text, argv, spans, per_update", [
    (MATCHING, ["matching", "--round", "on"],
     ("round_matching.stabilizer", "round_matching.repair"), 4),
    (MST, ["mst", "--round", "on"], ("round_mst.sampler", "round_mst.repair"), 3),
])
def test_tracer_sees_every_rounding_step(tmp_path, text, argv, spans, per_update):
    # the runner's rounding step looks its functions up at call time: one
    # span each per update it rounds (the spanning tree skips its warm-up)
    traced, records = traced_replay(tmp_path, text, argv)
    rounded = [r for r in records if r["kind"] == "update" and "skipped" not in r]
    assert len(rounded) == per_update
    assert [traced["spans"].get(name, 0) for name in spans] == [per_update] * 2


def test_tracer_sees_every_cover_rounding(tmp_path):
    traced, records = traced_replay(tmp_path, SETCOVER, ["setcover", "--round", "det"])
    updates = [r for r in records if r["kind"] == "update"]
    assert traced["spans"].get("round_setcover.round", 0) >= len(updates) == 5
