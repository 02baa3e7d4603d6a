"""End-to-end drivers: chase runs, problem replays, replication."""

import numpy as np
import pytest

from bodychase.adapters import AdapterError, UpdateEvent
from bodychase.formats import parse_stream
from bodychase.runner import RunConfig, apply_freeze, replicate, run_chase, run_problem
from bodychase.core import FractionalPoint


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


def test_weights_shape_mismatch_rejected():
    from bodychase.formats import FormatError

    with pytest.raises(FormatError):
        run_chase(RunConfig(), parse_stream(["C 3:1"]), np.ones(2))


def test_apply_freeze_records_movement():
    x = FractionalPoint(np.array([0.4, 0.2]), np.array([2.0, 1.0]))
    from bodychase.core import RecourseLedger

    ledger = RecourseLedger()
    y = apply_freeze(x, [0], ledger)
    assert y.values[0] == 0.0 and y.values[1] == 0.2
    assert ledger.upward_total == 0.0
    assert ledger.l1_total == pytest.approx(0.8)


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
        replicate(cfg, ("setcover", header, events), runs=1)


def test_oracle_cap_skips_offline_block():
    stream = parse_stream(["C %d:1" % i for i in range(6)])
    records = run_chase(RunConfig(oracle_cap=3), stream)
    block = rows_of(records, "offline")[0]
    assert block["opt"] is None
    assert "above the cap" in block["skipped"]
    assert "ratio_vs_opt" in summary_of(records)
    assert summary_of(records)["ratio_vs_opt"] is None


@pytest.mark.parametrize("formulation", ["compressed", "full"])
def test_oracle_cap_fires_before_the_lp_is_built(monkeypatch, formulation):
    from bodychase import offline, runner

    def build(stream, weights):
        raise AssertionError("an LP above the cap was built")

    monkeypatch.setattr(offline, "build_compressed_lp", build)
    monkeypatch.setattr(offline, "build_full_lp", build)
    stream = parse_stream(["C %d:1" % i for i in range(6)])
    block = runner._offline_block(stream, np.ones(6), 3)
    assert block == {"kind": "offline", "opt": None,
                     "skipped": "LP has 12 variables, above the cap of 3"}
    with pytest.raises(offline.OracleCapExceeded):
        offline.solve_optimal_recourse(stream, np.ones(6), formulation=formulation,
                                       variable_cap=3)
