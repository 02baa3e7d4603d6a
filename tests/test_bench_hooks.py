"""The benchmark's tracer still sees the layers it wraps by name.

bench/tracing.py patches module attributes (core.project_covering, ...)
from outside src/. A refactor that stops looking them up at call time
would leave `--trace 1` counting nothing without any error, so this runs
the tracer on a tiny matching replay, in a subprocess to keep its patches
out of the other tests, and checks its counts against the report.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MATCHING = "\n".join(json.dumps(r) for r in [
    {"problem": "matching", "n": 8},
    {"op": "insert", "u": "a", "v": "b"},
    {"op": "insert", "u": "c", "v": "d"},
    {"op": "insert", "u": "b", "v": "c"},
    {"op": "delete", "u": "a", "v": "b"},
]) + "\n"

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracing
from bodychase import cli
tracer = tracing.Tracer()
tracing.install(tracer)
rc = cli.main(["matching", sys.argv[3], "--round", "on", "--no-offline",
               "--report", sys.argv[4]])
print(json.dumps({"rc": rc, "counts": tracer.counts}))
"""


def test_tracer_counts_every_projection(tmp_path):
    updates, report = tmp_path / "m.jsonl", tmp_path / "r.jsonl"
    updates.write_text(MATCHING)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench"),
         str(updates), str(report)],
        capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(done.stdout)
    assert out["rc"] == 0
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    rows = [r for r in rows if r["kind"] == "update"]
    projections = sum(r["projections"] for r in rows)
    assert projections > 0
    assert out["counts"].get("core.projections", 0) == projections
    assert out["counts"].get("core.rootfind_iters", 0) == sum(r["rootfind_iterations"] for r in rows)
