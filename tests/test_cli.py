"""Command line surface: exit codes, reports, replay determinism."""

import json
import math
import warnings

import numpy as np
import pytest

from bodychase.certify import FEASIBILITY_TOL
from bodychase.cli import main
from bodychase.formats import MAX_DIMENSION, FormatError, parse_stream, stream_dimension
from bodychase.offline import build_compressed_lp, solve_recourse_lp
from bodychase.runner import RunConfig, run_chase

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


def test_record_json_cannot_hold_exits_1_with_one_line(stream_file, monkeypatch, capsys):
    from bodychase import cli

    monkeypatch.setattr(cli, "run_chase", lambda *args: [{"kind": "summary", "x": np.nan}])
    assert main(["chase", stream_file]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: summary record is not plain JSON")
    assert out.err.count("\n") == 1


@pytest.mark.parametrize("command, stream, weights", [
    ("chase", "C 0:1 99999999999:1\n", None),
    ("chase", "C 0:1 99999999999999999999:1\n", None),
    ("offline-opt", "C 0:1\nF 99999999999\n", None),
    ("certify", "C 0:1\n", "99999999999:2\n"),
])
def test_a_coordinate_past_the_dimension_bound_exits_2_before_allocating(
        command, stream, weights, tmp_path, capsys):
    import tracemalloc

    path = tmp_path / "s.txt"
    path.write_text(stream)
    argv = [command, str(path)]
    if weights is not None:
        (tmp_path / "w.txt").write_text(weights)
        argv += ["--weights", str(tmp_path / "w.txt")]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "coordinate 99999999999" in err and "past the largest" in err
    assert peak < 4 * 2**20
    assert MAX_DIMENSION > 10**7


@pytest.mark.parametrize("line", ["C %d:1", "P 0:1 %d:2", "F 0 %d"])
def test_the_largest_supported_coordinate_is_accepted(line):
    stream = parse_stream([line % (MAX_DIMENSION - 1)])
    assert stream_dimension(stream) == MAX_DIMENSION
    with pytest.raises(FormatError, match="coordinate %d is past" % MAX_DIMENSION):
        parse_stream([line % MAX_DIMENSION])


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
    (["mst", "--round", "on", "--gamma", "0"], "gamma"),
    (["mst", "--round", "on", "--gamma", "-1"], "gamma"),
    (["mst", "--round", "on", "--gamma", "inf"], "gamma"),
    (["mst", "--round", "on", "--alpha", "-1"], "alpha"),
    (["setcover", "--round", "rand", "--alpha", "-3"], "alpha"),
    (["matching", "--round", "on", "--alpha", "nan"], "alpha"),
    (["setcover", "--beta", "0.5"], "beta"),
    (["setcover", "--beta", "nan"], "beta"),
    (["setcover", "--beta", "inf"], "beta"),
    (["matching", "--beta", "2"], "beta"),
    (["matching", "--beta", "0"], "beta"),
    (["mst", "--beta", "0.5"], "beta"),
    (["loadbalance", "--beta", "0.9"], "beta"),
    (["replicate", "--beta", "nan", "--runs", "2"], "beta"),
])
def test_out_of_range_parameter_exits_2_before_the_input_is_read(argv, name, capsys):
    # the input does not exist: reading it first would exit 1
    assert main([argv[0], "/nonexistent/input", *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: %s " % name)
    assert captured.err.count("\n") == 1


def test_replicate_checks_beta_against_the_files_problem(cover_file, tmp_path, capsys):
    # replicate learns its problem, and so beta's range, from the file
    assert main(["replicate", cover_file, "--beta", "0.5", "--runs", "2"]) == 2
    assert capsys.readouterr().err.startswith("error: beta ")
    edges = tmp_path / "m.jsonl"
    edges.write_text('{"problem": "matching", "n": 2}\n{"op": "insert", "u": 0, "v": 1}\n')
    assert main(["replicate", str(edges), "--beta", "0.5", "--runs", "2"]) == 0


def test_weights_file_runs_match_the_same_weights_as_an_array(stream_file, tmp_path):
    weights = tmp_path / "w.txt"
    weights.write_text("0:2.5\n2:0.5\n")
    chased, solved = tmp_path / "c.jsonl", tmp_path / "o.jsonl"
    assert main(["chase", stream_file, "--weights", str(weights), "--report", str(chased)]) == 0
    assert main(["offline-opt", stream_file, "--weights", str(weights),
                 "--report", str(solved)]) == 0
    stream = parse_stream(STREAM.splitlines())
    expected = run_chase(RunConfig(), stream, np.array([2.5, 1.0, 0.5]))
    assert read_report(chased) == expected
    opt = expected[-1]["offline_opt"]
    assert read_report(solved)[0]["opt"] == opt
    assert opt != run_chase(RunConfig(), stream)[-1]["offline_opt"]


@pytest.mark.parametrize("command", ["chase", "offline-opt"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_weight_exits_2_naming_its_line(command, value, stream_file, tmp_path,
                                                   capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("1:2\n0:%s\n" % value)
    assert main([command, stream_file, "--weights", str(weights)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s:2: weights must be finite and positive\n" % weights


def test_small_positive_alpha_still_meets_the_clock_rate_check(cover_file, capsys):
    # alpha passes the range check, but alpha * n = 0.3 gives no clock rate
    assert main(["setcover", cover_file, "--round", "rand", "--alpha", "0.1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: alpha * n must exceed 1 for the clock rate\n"


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


@pytest.mark.parametrize("command", ["chase", "certify"])
@pytest.mark.parametrize("eps", ["1e-300", "1e-160"])
def test_an_eps_whose_square_leaves_float_range_still_certifies(command, eps, tmp_path, capsys):
    # clamp-free, so the refined certificate runs; eps * eps underflows to 0
    # at 1e-300, and 40 d^2 / eps^2 overflows at 1e-160
    path = tmp_path / "s.txt"
    path.write_text("C 0:1 1:2\nC 2:1\nP 0:1 2:0.5\nC 0:3 2:1\n")
    assert main([command, str(path), "--eps", eps]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    (cert,) = [r for r in map(json.loads, captured.out.splitlines()) if r["kind"] == "certificate"]
    d = cert["d"]
    assert cert["A_refined"] == pytest.approx(math.log(40.0 * d * d) - 2.0 * math.log(float(eps)))
    assert 0.0 < cert["refined_bound"] <= cert["upward_recourse"]
    assert math.isfinite(cert["theoretical_cap"])


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


MATCHING_UPDATES = "\n".join(json.dumps(r) for r in [
    {"problem": "matching", "n": 6},
    {"op": "insert", "u": 0, "v": 3},
    {"op": "insert", "u": 1, "v": 4},
]) + "\n"

TREE_UPDATES = "\n".join(json.dumps(r) for r in [
    {"problem": "mst", "vertices": [0, 1, 2]},
    {"op": "insert", "u": 0, "v": 1, "cost": 1.0},
    {"op": "insert", "u": 1, "v": 2, "cost": 2.0},
]) + "\n"


@pytest.mark.parametrize("argv", [
    ["matching", "M", "--round", "on", "--delta", "1e-300"],
    ["mst", "T", "--round", "on", "--delta", "1e-300"],
    ["replicate", "M", "--round", "on", "--delta", "1e-300", "--runs", "2"],
    ["replicate", "T", "--round", "on", "--delta", "1e-300", "--runs", "2"],
    ["matching", "M", "--round", "on", "--delta", "1e-160"],
    ["mst", "T", "--round", "on", "--delta", "1e-160"],
    ["matching", "M", "--round", "on", "--alpha", "1e300"],
    ["matching", "M", "--round", "on", "--alpha", "1e6"],
    ["mst", "T", "--round", "on", "--alpha", "1e300", "--gamma", "1e300"],
])
def test_a_sampler_past_float_range_or_its_copy_cap_exits_1_before_drawing(
        argv, tmp_path, monkeypatch, capsys):
    # delta^2 underflows at 1e-300 and 1e-160 makes the copy count inf; alpha
    # 1e6 asks for 716,706,655 copies an edge: each is refused before a draw
    from bodychase import round_matching, round_mst

    def refuse(*args):
        raise AssertionError("a threshold was drawn")

    monkeypatch.setattr(round_matching, "substream", refuse)
    monkeypatch.setattr(round_mst, "substream", refuse)
    files = {"M": MATCHING_UPDATES, "T": TREE_UPDATES}
    path = tmp_path / "u.jsonl"
    path.write_text(files[argv[1]])
    assert main([argv[0], str(path), *argv[2:]]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("text, message", [
    ("C 0:1e308 1:1\nC 0:1\n", "coefficients must be finite, at most 1e+100"),
    ("C 0:1 1:1e-320\nC 0:1\n", "coefficients must be positive, at least 1e-100"),
    ("C 0:1\nP 0:1e101\n", "coefficients must be finite, at most 1e+100"),
])
def test_a_coefficient_past_the_row_range_exits_2_at_its_line_without_warnings(
        text, message, tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["chase", str(path)]) == 2
    line = text.count("\n", 0, text.index("e"))  # the line of the first exponent
    assert capsys.readouterr().err == "error: %s:%d: %s\n" % (path, line + 1, message)


@pytest.mark.parametrize("text", [
    "C 0:1e100 7:3.963285 10:6.793918\nC 0:7.865160 1:7.731600 3:6.073530\n"
    "C 0:5.520046 3:6.039366 6:6.848985\nC 11:1.0\n",
    "C 0:3.182820 7:1e100 10:6.793918\nC 3:1.277150 7:4.700125 9:4.215351\n"
    "P 4:2.820682 7:6.879171 9:4.566471\nC 11:1.0\n",
])
def test_the_widest_coefficients_at_the_smallest_delta_exit_without_warnings(
        text, tmp_path, capsys):
    # eps = 5e-302 underflows the shift of a 1e100 coefficient to 0: its step
    # caps the exponent as the root finder does, and the warm-up duals take
    # their log form; the refined damping threshold 10 d c / eps overflows,
    # so that certificate is refused up front, as for a clamped log. The
    # warm-up dual fails its own check by about 1e99, so it bounds nothing
    path, out = tmp_path / "s.txt", tmp_path / "r.jsonl"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["chase", str(path), "--delta", "1e-300", "--report", str(out)])
    assert rc == 0 and capsys.readouterr().err == ""
    records = [json.loads(line) for line in out.read_text().splitlines()]
    (cert,), summary = [r for r in records if r["kind"] == "certificate"], records[-1]
    assert cert["warmup_max_violation"] > FEASIBILITY_TOL
    for record in (cert, summary):
        assert record["warmup_max_violation"] == cert["warmup_max_violation"]
        for scheme in ("warmup", "refined"):
            assert record[scheme + "_bound"] is None and record["ratio_" + scheme] is None
    assert cert["A_warmup"] is None and cert["A_refined"] is None


@pytest.mark.parametrize("problem, events", [
    ("matching", [{"op": "insert", "u": "a", "v": "b"}, {"op": "insert", "u": "c", "v": "d"},
                  {"op": "insert", "u": "b", "v": "c"}]),
    ("setcover", [{"op": "insert", "element": 2}, {"op": "insert", "element": 3},
                  {"op": "insert", "element": 0}, {"op": "delete", "element": 2}]),
])
def test_a_replay_at_the_smallest_delta_hands_the_projectors_only_violated_rows(
        problem, events, tmp_path, capsys):
    # at delta 1e-300 the cover floor 1 - delta/10 rounds to 1.0; the chase
    # stops at the projectors' own slack instead, so no satisfied row is
    # handed over (each run exited 1 with "oracle returned a satisfied row")
    header = {"problem": "matching", "n": 4} if problem == "matching" else {
        "problem": "setcover", "sets": [{"cost": 2.023643, "elements": [2, 3]},
                                        {"cost": 2.900927, "elements": [0, 3]},
                                        {"cost": 1.288319, "elements": [0, 3]}]}
    path = tmp_path / "u.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in [header, *events]) + "\n")
    assert main([problem, str(path), "--delta", "1e-300", "--no-offline"]) == 0
    assert capsys.readouterr().err == ""


def test_loads_too_small_for_the_makespan_search_exit_1(tmp_path, capsys):
    path = tmp_path / "u.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in [
        {"problem": "loadbalance", "machines": ["m0", "m1"]},
        {"op": "insert", "job": "j0", "loads": {"m0": 1e-300, "m1": 3.0}},
    ]) + "\n")
    assert main(["loadbalance", str(path)]) == 1
    assert capsys.readouterr().err == \
        "error: live loads too small: the optimal makespan is 0 within 1e-9\n"
