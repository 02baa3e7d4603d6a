"""End-to-end drivers: chase runs, problem replays, replication."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bodychase.adapters import AdapterError, UpdateEvent
from bodychase.formats import parse_stream
from bodychase.offline import build_compressed_lp, solve_recourse_lp
from bodychase.runner import RunConfig, apply_freeze, replicate, run_chase, run_problem
from bodychase import runner
from bodychase.core import (ConstraintError, FractionalPoint, HalfspaceConstraint, Kind,
                            stream_steps)


def summary_of(records):
    assert records[-1]["kind"] == "summary"
    return records[-1]


def rows_of(records, kind):
    return [r for r in records if r["kind"] == kind]


def test_single_covering_row_example():
    # one row 2 x_1 >= 1 at eps = 1: pay 1/2, certificate tight, LP agrees
    records = run_chase(RunConfig(eps=1.0), parse_stream(["C 1:2"]))
    s = summary_of(records)
    assert s["upward_recourse"] == pytest.approx(0.5, abs=1e-9)
    assert s["warmup_bound"] == pytest.approx(0.5, abs=1e-9)
    assert s["offline_opt"] == pytest.approx(0.5, abs=1e-9)
    assert s["ratio_vs_opt"] == pytest.approx(1.0, abs=1e-9)
    cert = rows_of(records, "certificate")[0]
    assert cert["ratio_warmup"] == pytest.approx(1.0, abs=1e-9)


def test_empty_stream():
    records = run_chase(RunConfig(), [])
    s = summary_of(records)
    assert s["upward_recourse"] == 0.0
    assert s["offline_opt"] == 0.0
    assert s["ratio_vs_opt"] == 1.0
    block = rows_of(records, "offline")[0]
    assert (block["pivots"], block["cs_residual"], block["duality_gap"]) == (0, 0.0, 0.0)


def test_offline_block_reports_the_solve():
    stream = parse_stream(["C 0:1 1:2", "P 0:1", "C 1:1 2:1", "F 1", "C 0:2 2:1"])
    block = rows_of(run_chase(RunConfig(eps=0.5), stream), "offline")[0]
    res = solve_recourse_lp(build_compressed_lp(stream, np.ones(3)))
    assert res.iterations > 0
    assert block == {"kind": "offline", "skipped": None, "opt": max(0.0, res.objective),
                     "pivots": res.iterations, "cs_residual": res.cs_residual,
                     "duality_gap": res.duality_gap}


def test_freeze_line_clamps_and_blocks_refined():
    stream = parse_stream(["C 0:1", "F 0", "C 1:1"])
    records = run_chase(RunConfig(eps=0.5), stream)
    steps = rows_of(records, "step")
    assert [r["tag"] for r in steps] == ["C", "F", "C"]
    assert steps[1]["upward_step"] == 0.0
    assert steps[1]["l1_step"] == pytest.approx(1.0, abs=1e-9)
    cert = rows_of(records, "certificate")[0]
    assert cert["refined_bound"] is None
    assert cert["warmup_bound"] > 0.0
    s = summary_of(records)
    # forced to pay for coordinate 0, then again for coordinate 1
    assert s["upward_recourse"] == pytest.approx(2.0, abs=1e-9)
    assert s["offline_opt"] == pytest.approx(2.0, abs=1e-9)


@pytest.fixture
def projections(monkeypatch):
    """Every ProjectionResult the engine returns during a test, in order."""
    from bodychase import core

    results = []

    def recorded(project):
        def run(*args, **kwargs):
            results.append(project(*args, **kwargs))
            return results[-1]
        return run

    monkeypatch.setattr(core, "project_covering", recorded(core.project_covering))
    monkeypatch.setattr(core, "project_packing", recorded(core.project_packing))
    return results


def test_chase_reports_root_finder_cost(projections):
    # one equal-rate row lands in one Newton step; the satisfied repeat and
    # the freeze account for 0, the mixed-rate rows for more than 1
    stream = parse_stream(["C 0:2", "C 0:2", "F 0", "C 1:1 2:4 3:0.5", "P 2:8 3:1"])
    w = np.array([1.0, 1.0, 0.01, 10.0])
    records = run_chase(RunConfig(eps=0.5), stream, w)
    iters = [r["rootfind_iterations"] for r in rows_of(records, "step")]
    assert iters[:3] == [1, 0, 0] and min(iters[3:]) > 1
    assert [i for i in iters if i] == [r.iterations for r in projections]
    s = summary_of(records)
    assert s["rootfind_iterations"] == sum(iters)
    assert s["max_projection_residual"] == max(r.residual for r in projections)
    assert s["max_projection_residual"] <= 1e-12 * 1.5


def test_problem_reports_root_finder_cost(projections):
    header = {"problem": "matching", "n": 8}
    events = _events("matching", [("insert", {"u": "a", "v": "b"}),
                                  ("insert", {"u": "a", "v": "d"}),
                                  ("insert", {"u": "c", "v": "d"}),
                                  ("delete", {"u": "a", "v": "b"})])
    records = run_problem(RunConfig(problem="matching"), ("matching", header, events))
    updates = rows_of(records, "update")
    assert sum(r["projections"] for r in updates) == len(projections) > 0
    # matching rows have equal rates: one Newton step per projection
    assert [r["rootfind_iterations"] for r in updates] == [r["projections"] for r in updates]
    s = summary_of(records)
    assert s["rootfind_iterations"] == sum(r.iterations for r in projections)
    assert s["max_projection_residual"] == max(r.residual for r in projections)


def test_weights_shape_mismatch_rejected():
    from bodychase.formats import FormatError

    with pytest.raises(FormatError):
        run_chase(RunConfig(), parse_stream(["C 3:1"]), np.ones(2))


def test_apply_freeze_records_movement():
    from bodychase.certify import MultiplierLog

    x = FractionalPoint(np.array([0.4, 0.2]), np.array([2.0, 1.0]))
    values, log = x.values, MultiplierLog(x.weights)
    y = apply_freeze(x, [0], log)
    # the clamp moves the point in place, as a projection does
    assert y is x and x.values is values
    assert y.values[0] == 0.0 and y.values[1] == 0.2
    assert log.ledger.upward_total == 0.0
    assert log.ledger.l1_total == pytest.approx(0.8)
    assert log.steps[-1].x_before.tolist() == [0.4]


def _events(problem, seq):
    return [UpdateEvent(problem, op, payload) for op, payload in seq]


SETCOVER_HEADER = {
    "problem": "setcover",
    "sets": [
        {"cost": 1.0, "elements": [0, 1]},
        {"cost": 2.0, "elements": [1, 2]},
        {"cost": 1.5, "elements": [0, 2]},
    ],
}


def test_setcover_det_pipeline():
    events = _events("setcover", [("insert", {"element": 0}),
                                  ("insert", {"element": 2}),
                                  ("delete", {"element": 0}),
                                  ("insert", {"element": 1})])
    cfg = RunConfig(problem="setcover", round_mode="det")
    records = run_problem(cfg, ("setcover", SETCOVER_HEADER, events))
    updates = rows_of(records, "update")
    assert len(updates) == 4
    assert all(u["cover_feasible"] for u in updates)
    s = summary_of(records)
    assert s["offline_opt"] is not None
    assert s["upward_recourse"] >= s["warmup_bound"] - 1e-9
    # fractional layer is identical without rounding
    plain = run_problem(RunConfig(problem="setcover"), ("setcover", SETCOVER_HEADER, events))
    assert summary_of(plain)["upward_recourse"] == pytest.approx(s["upward_recourse"])


def test_setcover_rows_report_cover_lp_pivots():
    events = _events("setcover", [("insert", {"element": 0}),
                                  ("insert", {"element": 2}),
                                  ("delete", {"element": 0}),
                                  ("delete", {"element": 2}),
                                  ("insert", {"element": 1})])
    records = run_problem(RunConfig(problem="setcover"), ("setcover", SETCOVER_HEADER, events))
    pivots = [u["lp_pivots"] for u in rows_of(records, "update")]
    assert pivots[0] > 0
    assert pivots[3] == 0  # nothing live
    assert summary_of(records)["lp_pivots"] == sum(pivots)
    matching = run_problem(RunConfig(problem="matching"),
                           ("matching", {"problem": "matching"},
                            _events("matching", [("insert", {"u": 0, "v": 1})])))
    assert all("lp_pivots" not in r for r in matching)


MST_HEADER = {"problem": "mst", "vertices": [0, 1, 2, 3]}
MST_EVENTS = [("insert", {"u": 0, "v": 1, "cost": 1.0}),
              ("insert", {"u": 1, "v": 2, "cost": 2.0}),
              ("insert", {"u": 2, "v": 3, "cost": 1.5}),
              ("insert", {"u": 0, "v": 2, "cost": 0.5}),
              ("delete", {"u": 1, "v": 2})]


def test_replay_summary_reports_offline_pivots(monkeypatch):
    from bodychase import runner

    seen = []
    block = runner._offline_block

    def keep(stream, weights, cap):
        seen.append((stream, weights))
        return block(stream, weights, cap)

    monkeypatch.setattr(runner, "_offline_block", keep)
    updates = ("mst", MST_HEADER, _events("mst", MST_EVENTS))
    s = summary_of(run_problem(RunConfig(problem="mst"), updates))
    (stream, weights), = seen
    lp_res = solve_recourse_lp(build_compressed_lp(stream, weights))
    assert s["offline_pivots"] == lp_res.iterations > 0
    assert s["offline_opt"] == max(0.0, lp_res.objective)
    skipped = summary_of(run_problem(RunConfig(problem="mst", oracle_cap=1), updates))
    assert skipped["offline_pivots"] is None and skipped["offline_opt"] is None


# what every run's summary reports, streams and replays alike
RUN_KEYS = {"kind", "upward_recourse", "l1_recourse", "rootfind_iterations",
            "max_projection_residual"}
TAIL_KEYS = RUN_KEYS | {"warmup_bound", "refined_bound", "ratio_warmup", "ratio_refined",
                        "offline_opt", "offline_pivots", "offline_skipped", "ratio_vs_opt"}


def test_stream_and_replay_summaries_share_one_tail():
    stream = parse_stream(["C 0:1 1:2", "P 0:1", "F 1", "C 1:1 2:1"])
    updates = ("mst", MST_HEADER, _events("mst", MST_EVENTS))
    for config, keys in ((RunConfig(), TAIL_KEYS),
                         (RunConfig(certify=False, offline=False), RUN_KEYS)):
        chased = summary_of(run_chase(config, stream))
        replayed = summary_of(run_problem(config, updates))
        assert set(chased) - {"final_point", "T"} == set(replayed) - {"n"} == keys


@pytest.mark.parametrize("updates", [("setcover", SETCOVER_HEADER, []),
                                     ("mst", MST_HEADER, _events("mst", MST_EVENTS[:2]))])
def test_replay_that_chased_nothing_solves_the_empty_offline_lp(updates):
    # as test_empty_stream requires of an empty stream
    s = summary_of(run_problem(RunConfig(), updates))
    # n counts the coordinates defined: the header's 3 sets, the 2 inserted edges
    assert s["n"] == {"setcover": 3, "mst": 2}[updates[0]]
    assert s["upward_recourse"] == 0.0
    assert (s["offline_opt"], s["offline_pivots"], s["offline_skipped"]) == (0.0, 0, None)
    assert s["ratio_vs_opt"] == 1.0


def test_eps_is_pinned_to_delta():
    # a replay chases at eps = delta/20, so its certificate may read no other eps
    updates = ("setcover", SETCOVER_HEADER, _events("setcover", [("insert", {"element": 0})]))
    with pytest.raises(ValueError, match="eps = delta / 20"):
        run_problem(RunConfig(delta=0.2, eps=0.3), updates)
    with pytest.raises(ValueError, match="eps = delta / 20"):
        replicate(RunConfig(delta=0.2, eps=0.3, round_mode="rand", runs=2), updates)
    pinned = summary_of(run_problem(RunConfig(delta=0.2, eps=0.01), updates))
    assert pinned == summary_of(run_problem(RunConfig(delta=0.2), updates))


def test_replicate_runs_neither_certify_nor_solve_offline(monkeypatch):
    from bodychase import runner

    def fail(*args, **kwargs):
        raise AssertionError("replicate ran a layer its aggregate does not read")

    monkeypatch.setattr(runner, "certify_run", fail)
    monkeypatch.setattr(runner, "_offline_block", fail)
    events = _events("setcover", [("insert", {"element": 0}), ("insert", {"element": 1})])
    cfg = RunConfig(problem="setcover", round_mode="rand", runs=2)
    meta, agg = replicate(cfg, ("setcover", SETCOVER_HEADER, events))
    assert meta["config"]["certify"] is False and meta["config"]["offline"] is False
    assert agg["runs"] == 2 and "cover_cost_mean" in agg


def test_setcover_f_below_frequency_rejected():
    events = _events("setcover", [("insert", {"element": 0})])
    cfg = RunConfig(problem="setcover", round_mode="det", f=1)
    with pytest.raises(AdapterError):
        run_problem(cfg, ("setcover", SETCOVER_HEADER, events))


def test_adapter_rejection_names_update_index():
    events = _events("setcover", [("insert", {"element": 0}),
                                  ("insert", {"element": 0})])
    with pytest.raises(AdapterError) as err:
        run_problem(RunConfig(problem="setcover"), ("setcover", SETCOVER_HEADER, events))
    assert "update 1" in str(err.value)


def test_matching_delete_clamps_coordinate():
    header = {"problem": "matching", "n": 8}
    events = _events("matching", [("insert", {"u": "a", "v": "b"}),
                                  ("insert", {"u": "c", "v": "d"}),
                                  ("delete", {"u": "a", "v": "b"})])
    records = run_problem(RunConfig(problem="matching"), ("matching", header, events))
    s = summary_of(records)
    # deletes freeze coordinates, so the refined certificate is withheld
    assert s["refined_bound"] is None
    assert s["upward_recourse"] > 0
    assert s["ratio_vs_opt"] is not None


def test_mst_warmup_then_static_triangle_is_quiet():
    header = {"problem": "mst", "vertices": [0, 1, 2]}
    events = _events("mst", [("insert", {"u": 0, "v": 1, "cost": 1.0}),
                             ("insert", {"u": 1, "v": 2, "cost": 1.0}),
                             ("insert", {"u": 0, "v": 2, "cost": 1.0})])
    cfg = RunConfig(problem="mst", round_mode="on", seed=2)
    records = run_problem(cfg, ("mst", header, events))
    updates = rows_of(records, "update")
    assert updates[0]["skipped"].startswith("warmup")
    # after connectivity, the remaining insert changes nothing downstream
    assert updates[2]["upward_step"] == pytest.approx(0.0, abs=1e-9)
    assert updates[2]["tree_recourse_step"] == 0
    assert updates[1]["tree_cost"] == pytest.approx(2.0)


def test_mst_disconnection_after_start_is_an_error():
    header = {"problem": "mst", "vertices": [0, 1, 2]}
    events = _events("mst", [("insert", {"u": 0, "v": 1, "cost": 1.0}),
                             ("insert", {"u": 1, "v": 2, "cost": 1.0}),
                             ("delete", {"u": 1, "v": 2})])
    with pytest.raises(AdapterError) as err:
        run_problem(RunConfig(problem="mst"), ("mst", header, events))
    assert "update 2" in str(err.value)


def test_loadbalance_is_fractional_only():
    header = {"problem": "loadbalance", "machines": ["m0"]}
    events = _events("loadbalance", [("insert", {"job": "j", "loads": {"m0": 1.0}})])
    from bodychase.formats import FormatError

    with pytest.raises(FormatError):
        run_problem(RunConfig(problem="loadbalance", round_mode="det"),
                    ("loadbalance", header, events))
    records = run_problem(RunConfig(problem="loadbalance"),
                          ("loadbalance", header, events))
    assert summary_of(records)["upward_recourse"] > 0.9


def test_problem_mismatch_rejected():
    from bodychase.formats import FormatError

    events = _events("setcover", [])
    with pytest.raises(FormatError):
        run_problem(RunConfig(problem="mst"), ("setcover", SETCOVER_HEADER, events))


def test_replicate_statistics_and_determinism():
    header = {"problem": "setcover",
              "sets": [{"cost": 1.0, "elements": [0]},
                       {"cost": 1.0, "elements": [0, 1]},
                       {"cost": 3.0, "elements": [1]}]}
    events = _events("setcover", [("insert", {"element": 0}),
                                  ("insert", {"element": 1}),
                                  ("delete", {"element": 0})])
    cfg = RunConfig(problem="setcover", round_mode="rand", seed=7, runs=3)
    a = replicate(cfg, ("setcover", header, events))
    b = replicate(cfg, ("setcover", header, events))
    assert a == b
    agg = a[-1]
    assert agg["kind"] == "aggregate"
    assert agg["seeds"] == [7, 8, 9]
    assert agg["l1_recourse_se"] == pytest.approx(0.0, abs=1e-12)
    assert "cover_cost_mean" in agg and "cover_cost_se" in agg
    with pytest.raises(Exception):
        replicate(replace(cfg, runs=1), ("setcover", header, events))


@pytest.mark.parametrize("given, beta", [(RunConfig(), 2.0), (RunConfig(beta=3.0), 3.0)])
def test_replicate_meta_echoes_the_file_problem_and_its_beta(given, beta):
    events = _events("setcover", [("insert", {"element": 0}), ("insert", {"element": 2})])
    cfg = replace(given, round_mode="rand", runs=2)
    meta, agg = replicate(cfg, ("setcover", SETCOVER_HEADER, events))
    assert meta["config"]["problem"] == "setcover"
    assert meta["config"]["beta"] == beta
    # the runs themselves read the same config
    run_meta = run_problem(replace(cfg, seed=0, certify=False, offline=False),
                           ("setcover", SETCOVER_HEADER, events))[0]
    assert run_meta["config"] == {**meta["config"], "seed": 0}
    assert agg["seeds"] == [0, 1]


def test_oracle_cap_skips_offline_block():
    stream = parse_stream(["C %d:1" % i for i in range(6)])
    records = run_chase(RunConfig(oracle_cap=3), stream)
    block = rows_of(records, "offline")[0]
    assert block["opt"] is None
    assert "above the cap" in block["skipped"]
    assert "ratio_vs_opt" in summary_of(records)
    assert summary_of(records)["ratio_vs_opt"] is None


def test_oracle_cap_fires_before_the_lp_is_built(monkeypatch):
    # the cap is checked on the sparse LP, before the solve densifies it
    from bodychase import offline, runner

    def solve(lp):
        raise AssertionError("an LP above the cap was densified")

    monkeypatch.setattr(offline, "solve_recourse_lp", solve)
    stream = parse_stream(["C %d:1" % i for i in range(6)])
    block = runner._offline_block(stream, np.ones(6), 3)
    assert block == {"kind": "offline", "opt": None,
                     "skipped": "LP has 12 variables, above the cap of 3",
                     "pivots": None, "cs_residual": None, "duality_gap": None}
    with pytest.raises(offline.OracleCapExceeded):
        offline.solve_optimal_recourse(stream, np.ones(6), variable_cap=3)

    # 10,000 variables: dense, the constraint matrix alone would be 800 MB
    n = 5000
    stream = [HalfspaceConstraint.covering({i: 1.0}) for i in range(n)]
    tracemalloc.start()
    try:
        block = runner._offline_block(stream, np.ones(n), 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block["skipped"] == "LP has 10000 variables, above the cap of 4000"
    assert peak < 10 * 2**20


def _bench_updates(problem, seed):
    """A small replay from the benchmark's generator, parsed."""
    import importlib.util
    from pathlib import Path

    from bodychase.formats import parse_updates

    spec = importlib.util.spec_from_file_location(
        "gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    rng = np.random.default_rng([seed, 12])
    if problem == "setcover":
        text = gen.setcover_text(rng, 12, 4, 20, 8, 30)
    elif problem == "matching":
        text = gen.matching_text(rng, 3, 3, 6, 30)
    else:
        text = gen.mst_text(rng, 5, 6, 20)
    return parse_updates(text.splitlines())


@pytest.mark.parametrize("problem, mode", [("setcover", "rand"), ("matching", "on"),
                                           ("mst", "on")])
def test_replicate_aggregate_is_byte_identical_to_per_run_replays(problem, mode):
    from bodychase.formats import dump_records
    from oracles import per_run_replicate

    for seed in (1, 2):
        updates = _bench_updates(problem, seed)
        cfg = RunConfig(round_mode=mode, seed=10 * seed, runs=4)
        got = dump_records(replicate(cfg, updates))
        assert got == dump_records(per_run_replicate(cfg, updates))
        # the seeds were rounded apart (MST rounding does not vary on these inputs)
        varies = {"setcover": "cover_recourse_se",
                  "matching": "stabilizer_copy_recourse_se"}.get(problem)
        if varies:
            assert json.loads(got.splitlines()[-1])[varies] > 0


@pytest.mark.parametrize("problem, mode", [("setcover", "rand"), ("matching", "on"),
                                           ("mst", "on")])
def test_replicate_chases_once(monkeypatch, problem, mode):
    from bodychase import core

    updates = _bench_updates(problem, 1)
    calls = []
    for name in ("project_covering", "project_packing"):
        def counted(*args, _fn=getattr(core, name), **kwargs):
            calls.append(1)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(core, name, counted)
    run_problem(RunConfig(round_mode=mode, certify=False, offline=False), updates)
    once = len(calls)
    assert once > 0
    replicate(RunConfig(round_mode=mode, runs=3), updates)
    assert len(calls) == 2 * once


def _string_id_mst_replay() -> str:
    """A 54-update spanning tree replay on string vertex ids: every pair is
    inserted (a path first, so the graph stays connected), then 13 edges
    off the path are deleted and inserted again."""
    verts = ["v%d" % i for i in range(8)]
    path = [(verts[i], verts[i + 1]) for i in range(7)]
    rest = [(u, v) for i, u in enumerate(verts) for v in verts[i + 2:]]
    cost = {e: 0.5 + (7 * k % 11) / 4.0 for k, e in enumerate(path + rest)}
    events = [("insert", e) for e in path + rest]
    for e in rest[:13]:
        events += [("delete", e), ("insert", e)]
    lines = [{"problem": "mst", "vertices": verts}]
    for op, (u, v) in events:
        record = {"op": op, "u": u, "v": v}
        if op == "insert":
            record["cost"] = cost[(u, v)]
        lines.append(record)
    return "".join(json.dumps(r) + "\n" for r in lines)


def test_mst_replay_with_string_ids_does_not_depend_on_the_hash_seed(tmp_path):
    # string hashes, and so set order, change with PYTHONHASHSEED; criterion 9
    # repeats a run in one process, so only two processes can see this
    import os
    import subprocess
    import sys
    from pathlib import Path

    updates = tmp_path / "u.jsonl"
    updates.write_text(_string_id_mst_replay())
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = []
    for seed in ("1", "2"):
        report = tmp_path / ("r%s.jsonl" % seed)
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from bodychase.cli import main; sys.exit(main(sys.argv[1:]))",
             "mst", str(updates), "--round", "on", "--no-offline", "--report", str(report)],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            check=True, timeout=120)
        reports.append(report.read_bytes())
    assert b'"tree_cost"' in reports[0]
    assert reports[0] == reports[1]


def test_one_kind_tags_stream_items_step_records_and_log_steps(monkeypatch):
    stream = parse_stream(["C 0:1 1:2", "P 0:1 2:0.5; F 1", "c 2:1"])
    members = [member for group in stream_steps(stream) for member in group]
    kinds = [Kind.COVERING, Kind.PACKING, Kind.FREEZE, Kind.COVERING]
    assert [m.kind for m in members] == kinds
    logs = []

    class KeptLog(runner.MultiplierLog):
        def __init__(self, weights):
            super().__init__(weights)
            logs.append(self)

    monkeypatch.setattr(runner, "MultiplierLog", KeptLog)
    steps = rows_of(run_chase(RunConfig(certify=False, offline=False), stream), "step")
    assert [r["tag"] for r in steps] == [k.value for k in kinds]
    assert [s.kind for s in logs[0].steps] == kinds
    with pytest.raises(ConstraintError, match="Kind.COVERING or Kind.PACKING"):
        HalfspaceConstraint(Kind.FREEZE, {0: 1.0})
