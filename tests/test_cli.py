"""Command line surface: exit codes, reports, replay determinism."""

import json

import numpy as np
import pytest

from bodychase.cli import main
from bodychase.formats import parse_stream
from bodychase.offline import build_compressed_lp, solve_recourse_lp

STREAM = "C 0:1 1:2\nC 2:1\nF 1\nP 0:1 2:0.5\n"

COVER = "\n".join([
    json.dumps({"problem": "setcover",
                "sets": [{"cost": 1.0, "elements": [0, 1]},
                         {"cost": 2.0, "elements": [1, 2]},
                         {"cost": 1.5, "elements": [0, 2]}]}),
    json.dumps({"op": "insert", "element": 0}),
    json.dumps({"op": "insert", "element": 2}),
    json.dumps({"op": "delete", "element": 0}),
]) + "\n"


@pytest.fixture
def stream_file(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text(STREAM)
    return str(p)


@pytest.fixture
def cover_file(tmp_path):
    p = tmp_path / "u.jsonl"
    p.write_text(COVER)
    return str(p)


def read_report(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def test_chase_writes_report(stream_file, tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    code = main(["chase", stream_file, "--eps", "0.25", "--report", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    records = read_report(out)
    kinds = [r["kind"] for r in records]
    assert kinds[0] == "meta" and kinds[-1] == "summary"
    assert kinds.count("step") == 4
    summary = records[-1]
    assert summary["offline_opt"] == pytest.approx(1.5)
    # report totals match the sum over step rows
    total = sum(r["upward_step"] for r in records if r["kind"] == "step")
    assert summary["upward_recourse"] == pytest.approx(total)


def test_reports_are_byte_identical(stream_file, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["chase", stream_file, "--eps", "0.25", "--report", str(a)]) == 0
    assert main(["chase", stream_file, "--eps", "0.25", "--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_chase_stdout_is_json_lines(stream_file, capsys):
    assert main(["chase", stream_file, "--no-offline"]) == 0
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        json.loads(line)


def test_certify_filters_step_records(stream_file, capsys):
    assert main(["certify", stream_file, "--eps", "0.25"]) == 0
    kinds = {json.loads(l)["kind"] for l in capsys.readouterr().out.splitlines()}
    assert "certificate" in kinds
    assert "step" not in kinds


def test_offline_opt_with_trajectory(stream_file, capsys):
    assert main(["offline-opt", stream_file, "--dump-trajectory"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["opt"] == pytest.approx(1.5)
    # what the solve cost, as the solver reports it
    stream = parse_stream(stream_file)
    res = solve_recourse_lp(build_compressed_lp(stream, np.ones(record["n"])))
    assert record["pivots"] == res.iterations > 0
    assert record["cs_residual"] == res.cs_residual
    assert record["duality_gap"] == res.duality_gap
    assert len(record["trajectory"]) == 4
    # clamp at t=2 forces coordinate 1 to zero
    assert record["trajectory"][2][1] == pytest.approx(0.0, abs=1e-9)


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("C zzz\n")
    assert main(["chase", str(bad)]) == 2
    assert "expected idx:value" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    assert main(["chase", "/nonexistent/stream.txt"]) == 1


def test_bad_flag_exits_2(stream_file, capsys):
    assert main(["chase", stream_file, "--bogus"]) == 2


@pytest.mark.parametrize("argv,name", [
    (["chase", "--delta", "2"], "delta"),
    (["chase", "--delta", "-1", "--eps", "0.25"], "delta"),
    (["chase", "--eps", "5"], "eps"),
    (["chase", "--eps", "0"], "eps"),
    (["chase", "--oracle-cap", "-5"], "oracle_cap"),
    (["offline-opt", "--oracle-cap", "-5"], "oracle_cap"),
    (["setcover", "--delta", "2"], "delta"),
    (["replicate", "--delta", "0", "--runs", "2"], "delta"),
])
def test_out_of_range_parameter_exits_2_before_the_input_is_read(argv, name, capsys):
    # the input does not exist: reading it first would exit 1
    assert main([argv[0], "/nonexistent/input", *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: %s " % name)
    assert captured.err.count("\n") == 1


def test_root_finder_failure_exits_1_without_traceback(stream_file, monkeypatch, capsys):
    from bodychase import core

    def fail(*args, **kwargs):
        raise core.ConvergenceError("multiplier search stalled")

    monkeypatch.setattr(core, "_root", fail)
    assert main(["chase", stream_file, "--eps", "0.25"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: multiplier search stalled\n"
    assert captured.out == ""


def test_failed_lp_exits_1_without_traceback(stream_file, monkeypatch, capsys):
    from bodychase import offline
    from bodychase.simplex import SimplexError

    def fail(*args, **kwargs):
        raise SimplexError("pivot budget exhausted after 3 iterations")

    monkeypatch.setattr(offline, "solve_inequality_lp", fail)
    assert main(["offline-opt", stream_file]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: pivot budget exhausted after 3 iterations\n"
    assert captured.out == ""


def test_contradictory_stream_exits_1_with_one_error_line(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("C 0:1; P 0:3\n")
    assert main(["offline-opt", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: stream admits no feasible trajectory\n"
    assert captured.out == ""


def test_setcover_det_against_updates(cover_file, capsys):
    assert main(["setcover", cover_file, "--round", "det"]) == 0
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    updates = [r for r in records if r["kind"] == "update"]
    assert len(updates) == 3
    assert all(u["cover_feasible"] for u in updates)
    summary = records[-1]
    assert summary["cover_cost"] <= 2 * 2 * summary["upward_recourse"] + 1e-9


def test_problem_mismatch_exits_2(cover_file, capsys):
    assert main(["mst", cover_file]) == 2


def test_replicate_outputs_aggregate(cover_file, capsys):
    assert main(["replicate", cover_file, "--round", "rand",
                 "--runs", "3", "--seed", "5"]) == 0
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    agg = records[-1]
    assert agg["kind"] == "aggregate"
    assert agg["seeds"] == [5, 6, 7]
    assert agg["runs"] == 3


def test_round_modes_outside_the_table_exit_2(cover_file, tmp_path, capsys):
    assert main(["replicate", cover_file, "--round", "on", "--runs", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "none, det, rand" in err
    jobs = tmp_path / "lb.jsonl"
    jobs.write_text(json.dumps({"problem": "loadbalance", "machines": ["m0"]}) + "\n"
                    + json.dumps({"op": "insert", "job": "j", "loads": {"m0": 1.0}}) + "\n")
    assert main(["replicate", str(jobs), "--round", "det", "--runs", "2"]) == 2
    captured = capsys.readouterr()
    assert "loadbalance round mode must be one of none" in captured.err
    assert captured.out == ""


def test_matching_updates_via_cli(tmp_path, capsys):
    p = tmp_path / "m.jsonl"
    p.write_text("\n".join([
        json.dumps({"problem": "matching", "n": 8}),
        json.dumps({"op": "insert", "u": "a", "v": "b"}),
        json.dumps({"op": "insert", "u": "c", "v": "d"}),
    ]) + "\n")
    assert main(["matching", str(p), "--round", "on", "--delta", "1.0"]) == 0
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert records[-1]["matching_size"] == 2

    q = tmp_path / "m2.jsonl"
    q.write_text("\n".join([
        json.dumps({"problem": "matching"}),
        json.dumps({"op": "insert", "u": "a", "v": "b"}),
    ]) + "\n")
    # rounding needs the vertex budget in the header
    assert main(["matching", str(q), "--round", "on"]) == 2
    assert main(["matching", str(q)]) == 0


@pytest.mark.parametrize("command,flag", [
    ("certify", ["--no-certify"]),
    ("offline-opt", ["--formulation", "full"]),
    *[("setcover", f) for f in (["--eps", "0.025"], ["--weights", "w.txt"],
                                ["--runs", "7"], ["--gamma", "2"])],
    *[("matching", f) for f in (["--eps", "0.025"], ["--weights", "w.txt"],
                                ["--runs", "7"], ["--gamma", "2"], ["--f", "3"])],
    *[("mst", f) for f in (["--eps", "0.025"], ["--weights", "w.txt"],
                           ["--runs", "7"], ["--f", "3"])],
    *[("loadbalance", f) for f in (["--eps", "0.025"], ["--weights", "w.txt"],
                                   ["--runs", "7"], ["--alpha", "2"], ["--gamma", "2"],
                                   ["--f", "3"], ["--seed", "1"])],
    ("replicate", ["--eps", "0.025"]),
    ("replicate", ["--weights", "w.txt"]),
    # replicate never certifies or solves the offline LP
    ("replicate", ["--no-offline"]),
    ("replicate", ["--no-certify"]),
    ("replicate", ["--oracle-cap", "10"]),
    # a stream chase draws nothing at random
    ("chase", ["--seed", "1"]),
    ("certify", ["--seed", "1"]),
])
def test_flag_no_run_of_the_subcommand_reads_exits_2(command, flag, stream_file,
                                                      cover_file, capsys):
    source = stream_file if command in ("chase", "certify", "offline-opt") else cover_file
    assert main([command, source, *flag]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: %s" % flag[0] in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("problem,header,event", [
    ("setcover", {"sets": [{"cost": 1.0, "elements": [0]}]},
     {"op": "insert", "elem": 0}),
    ("mst", {"vertices": [0, 1]}, {"op": "insert", "u": 0, "v": 1}),
    ("matching", {"n": 4}, {"op": "insert", "u": [0], "v": 1}),
    # ids of two JSON types in one file; `event` may list several events
    ("setcover", {"sets": [{"cost": 1.0, "elements": [0, 1]}]},
     {"op": "insert", "element": "1"}),
    ("matching", {"n": 4}, [{"op": "insert", "u": 0, "v": 1},
                            {"op": "insert", "u": "a", "v": "b"}]),
])
def test_malformed_event_exits_2_with_one_error_line(problem, header, event,
                                                     tmp_path, capsys):
    events = event if isinstance(event, list) else [event]
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(json.dumps(r) + "\n"
                            for r in [{"problem": problem, **header}, *events]))
    assert main([problem, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: %s:%d: " % (path, 1 + len(events)))
    assert captured.err.count("\n") == 1


def test_f_below_the_instance_frequency_fails_before_any_update(cover_file, capsys,
                                                                 monkeypatch):
    from bodychase import runner

    def body(state, beta):
        raise AssertionError("an update ran before --f was checked")

    monkeypatch.setattr(runner, "setcover_body", body)
    # element 0 lies in two of the three sets
    assert main(["setcover", cover_file, "--round", "det", "--f", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: f=1 below the instance frequency 2\n"
    assert captured.out == ""
