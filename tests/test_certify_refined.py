"""The refined certificate read off the log's view, against the list-based
damping scan and suffix-maximum loop it replaced (tests/oracles.py), and
the certificates' self-check in the reports."""

import json

import numpy as np
import pytest

from bodychase import (
    HalfspaceConstraint,
    MultiplierLog,
    build_refined_dual,
    certify_run,
    refine_ytilde,
)
from bodychase import certify
from bodychase.certify import FEASIBILITY_TOL, max_window_sums
from bodychase.cli import main

from oracles import (
    dense_max_window_sums,
    list_refine_ytilde,
    list_refined_movement,
    logged_step,
    random_mixed_stream,
)


def corpus(seed, coeff_lo, coeff_hi, count=300):
    """Fixed-seed random logs over small and large n, T, eps, d and packing
    shares."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 12))
        T = int(rng.integers(1, 61))
        eps = float(rng.choice([0.05, 0.25, 0.5, 1.0]))
        dmax = int(rng.integers(1, 6))
        pack_prob = float(rng.choice([0.1, 0.35, 0.6]))
        log, _, _, _ = random_mixed_stream(rng, n, T, eps, coeff_lo, coeff_hi,
                                           pack_prob=pack_prob, dmax=dmax)
        yield log, eps


# a row damps an earlier one only where that one's coefficient is at least
# 10 d / eps times its own, so [1, 8] never damps and [0.01, 100] often does
@pytest.mark.parametrize("seed,coeff_lo,coeff_hi,damping", [
    (1313, 1.0, 8.0, False), (1314, 0.01, 100.0, True)])
def test_refined_certificate_matches_the_list_scan(seed, coeff_lo, coeff_hi, damping):
    damped = 0
    for log, eps in corpus(seed, coeff_lo, coeff_hi):
        ytilde = refine_ytilde(log, eps)
        assert np.array_equal(ytilde, list_refine_ytilde(log, eps))
        damped += bool(np.any(ytilde != log.entries().y))
        cert = build_refined_dual(log, ytilde, eps)
        start, after = list_refined_movement(log, ytilde, eps)
        assert np.array_equal(cert.r_bar.start, start)
        assert np.array_equal(cert.r_bar.after, after)
        np.testing.assert_allclose(max_window_sums(log, ytilde),
                                   dense_max_window_sums(log, ytilde), rtol=1e-12, atol=0.0)
    assert (damped >= 30) if damping else (damped == 0)


def all_packing_log(T=4):
    """Both coordinates on every step: weights 1, multiplier 0.5,
    coefficients 2 and 1, so every window of either coordinate is negative."""
    log = MultiplierLog(np.ones(2))
    x = np.array([1.0, 1.0])
    row = HalfspaceConstraint.packing({0: 2.0, 1: 1.0})
    for _ in range(T):
        log.append_projection(row, logged_step(row, 0.5, x, x * 0.5))
        x = x * 0.5
    return log


def test_a_certificate_runs_its_suffix_pass_once(monkeypatch):
    rng = np.random.default_rng(1415)
    log, _, _, _ = random_mixed_stream(rng, 8, 60, 0.5, 0.01, 100.0)
    expected = json.dumps(certify_run(log, 0.5))
    passes = []

    def counted(e, ytilde, _pass=certify._suffix_sums):
        passes.append(len(ytilde))
        return _pass(e, ytilde)

    monkeypatch.setattr(certify, "_suffix_sums", counted)
    log._entries = None  # a fresh view, holding no sums yet
    assert json.dumps(certify_run(log, 0.5)) == expected
    assert passes == [log.horizon]
    # another ytilde is not served the kept sums
    ytilde = refine_ytilde(log, 0.5)
    assert len(passes) == 1
    np.testing.assert_allclose(max_window_sums(log, 0.5 * ytilde),
                               dense_max_window_sums(log, 0.5 * ytilde), rtol=1e-12, atol=0.0)
    assert len(passes) == 2


def test_window_over_every_step_stays_negative():
    log = all_packing_log()
    ytilde = refine_ytilde(log, eps=0.5)
    assert np.array_equal(ytilde, np.zeros(log.horizon))
    best = max_window_sums(log, ytilde)
    assert best.tolist() == [-1.0, -0.5]
    assert np.array_equal(best, dense_max_window_sums(log, ytilde))
    cert = build_refined_dual(log, ytilde, eps=0.5)
    start, after = list_refined_movement(log, ytilde, 0.5)
    assert np.array_equal(cert.r_bar.start, start)
    assert np.array_equal(cert.r_bar.after, after)


def test_window_sums_of_unnamed_coordinates():
    log = all_packing_log(T=1)
    log.extend_weights(np.ones(3))
    assert max_window_sums(log, np.zeros(1)).tolist() == [-1.0, -0.5, 0.0]
    empty = MultiplierLog(np.ones(2))
    assert max_window_sums(empty, np.zeros(0)).tolist() == [-np.inf, -np.inf]


# the criterion-9 stream clamps coordinate 1, so only the warmup certificate
# is built on it; without the clamp both are
CLAMPED = "C 0:1 1:2\nC 2:1\nF 1\nP 0:1 2:0.5\n"
CLAMP_FREE = "C 0:1 1:2\nC 2:1\nP 0:1 2:0.5\n"


def certificate_record(tmp_path, command, text):
    stream, report = tmp_path / "s.txt", tmp_path / ("%s.jsonl" % command)
    stream.write_text(text)
    argv = [command, str(stream), "--eps", "0.25", "--report", str(report)]
    assert main(argv) == 0
    first = report.read_bytes()
    assert main(argv) == 0
    assert report.read_bytes() == first
    records = [json.loads(line) for line in first.decode().splitlines()]
    return next(r for r in records if r["kind"] == "certificate")


def test_reports_carry_the_certificates_self_check(tmp_path):
    for command in ("chase", "certify"):
        clamped = certificate_record(tmp_path, command, CLAMPED)
        assert isinstance(clamped["warmup_max_violation"], float)
        assert clamped["warmup_max_violation"] <= FEASIBILITY_TOL
        assert clamped["refined_max_violation"] is None
        cert = certificate_record(tmp_path, command, CLAMP_FREE)
        assert isinstance(cert["warmup_max_violation"], float)
        assert isinstance(cert["refined_max_violation"], float)
        assert cert["warmup_max_violation"] <= FEASIBILITY_TOL
        assert cert["refined_max_violation"] <= FEASIBILITY_TOL


def test_no_self_check_without_a_certificate(tmp_path):
    empty = certify_run(MultiplierLog(np.ones(2)), eps=0.5)
    assert empty["warmup_max_violation"] is None
    assert empty["refined_max_violation"] is None
    # replay summaries carry both checks next to their bounds
    updates = tmp_path / "u.jsonl"
    updates.write_text(json.dumps({"problem": "setcover", "sets": [
        {"cost": 1.0, "elements": [0, 1]}, {"cost": 2.0, "elements": [1]}]})
        + "\n" + json.dumps({"op": "insert", "element": 1}) + "\n")
    report = tmp_path / "r.jsonl"
    assert main(["setcover", str(updates), "--no-offline", "--report", str(report)]) == 0
    summary = json.loads(report.read_text().splitlines()[-1])
    assert summary["kind"] == "summary" and summary["refined_bound"] is not None
    for key in ("warmup_max_violation", "refined_max_violation"):
        assert isinstance(summary[key], float) and summary[key] <= FEASIBILITY_TOL
