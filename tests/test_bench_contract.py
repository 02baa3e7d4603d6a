"""What the benchmark's harness relies on beyond the names test_bench_hooks
checks: the item loops it stamps, and the ledger span the log now drives.

bench/child.py stamps item boundaries by giving `runner` a module-level
`enumerate`, so runner's stream loop and update loop must be its only
`enumerate` calls. bench/tracing.py times `core.RecourseLedger.record_step`
on the class, so the log's ledger must look it up at call time.
"""

import ast
from pathlib import Path

from test_bench_hooks import MATCHING, traced_replay

RUNNER = Path(__file__).resolve().parents[1] / "src" / "bodychase" / "runner.py"


def test_runner_calls_enumerate_only_in_its_two_item_loops():
    tree = ast.parse(RUNNER.read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "enumerate"]
    assert len(calls) == 2
    loops = {id(node.iter): node for node in ast.walk(tree) if isinstance(node, ast.For)}
    iterated = sorted(ast.unparse(call.args[0]) for call in calls if id(call) in loops)
    assert iterated == ["events", "stream"]


def test_tracer_times_every_ledger_step_through_the_log(tmp_path):
    traced, records = traced_replay(tmp_path, MATCHING, ["matching", "--round", "on"])
    steps = traced["log"]["steps"]
    assert steps >= sum(r["projections"] for r in records if r["kind"] == "update") > 0
    assert traced["spans"].get("core.ledger", 0) == steps
