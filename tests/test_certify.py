"""Dual certificate construction: frozen arithmetic on tiny runs,
feasibility and lemma checks on random streams."""

import math

import numpy as np
import pytest

from bodychase import (
    CertificateError,
    FractionalPoint,
    HalfspaceConstraint,
    MultiplierLog,
    RecourseLedger,
    build_refined_dual,
    build_warmup_dual,
    certified_report,
    certify_run,
    process_constraint,
    project_covering,
    refine_ytilde,
)
from bodychase.certify import (
    FEASIBILITY_TOL,
    check_dual_feasibility,
    check_ineq1,
    check_ineq2,
    check_movement_bound,
    check_subset_lemma,
    check_z_bound,
    max_window_sums,
)
from oracles import coeff_matrices, random_mixed_stream


def run_single_covering():
    """The one-step reference run: c = {0:2}, eps = 1, from the origin."""
    w = np.ones(1)
    x = FractionalPoint.zeros(1, w)
    log = MultiplierLog(w)
    ledger = RecourseLedger()
    row = HalfspaceConstraint.covering({0: 2.0})
    x = process_constraint(x, row, 1.0, ledger=ledger, log=log)
    return x, log, ledger


def test_log_extreme_tracking():
    log = MultiplierLog(np.ones(1))
    c1 = HalfspaceConstraint.covering({0: 2.0})
    log.append_projection(c1, 0.8, [0.0], [0.5])
    assert log.aspect_ratio == 1.0
    assert log.sparsity == 1
    c2 = HalfspaceConstraint.covering({0: 4.0})
    log.append_projection(c2, 0.1, [0.5], [0.5])
    assert log.aspect_ratio == 2.0
    p = HalfspaceConstraint.packing({0: 1.0})
    log.append_projection(p, 0.3, [0.5], [0.4])
    assert log.aspect_ratio == 2.0
    assert log.sparsity == 1
    with pytest.raises(ValueError):
        log.append_projection(c1, -0.2, [0.4], [0.5])


def test_warmup_single_covering_arithmetic():
    x, log, ledger = run_single_covering()
    cert = build_warmup_dual(log, eps=1.0)
    assert cert.scaling == pytest.approx(math.log(5.0))
    assert cert.y_bar[0] == pytest.approx(0.5, abs=1e-9)
    assert cert.r_bar.at(0, 0) == pytest.approx(1.0)
    assert cert.objective == pytest.approx(0.5, abs=1e-9)
    assert cert.max_violation <= FEASIBILITY_TOL
    report = certified_report(cert, ledger, eps=1.0)
    assert report["upward_recourse"] == pytest.approx(0.5, abs=1e-9)
    assert report["ratio"] == pytest.approx(1.0, abs=1e-8)
    assert report["theoretical_cap"] == pytest.approx(6.0 * math.log(5.0))
    assert report["ratio"] <= report["theoretical_cap"]


def test_warmup_packing_only_clamps_to_zero():
    w = np.ones(2)
    x = FractionalPoint([2.0, 1.0], w)
    log = MultiplierLog(w)
    ledger = RecourseLedger()
    row = HalfspaceConstraint.packing({0: 1.0, 1: 1.0})
    process_constraint(x, row, 0.5, ledger=ledger, log=log)
    cert = build_warmup_dual(log, eps=0.5)
    assert cert.objective < 0.0
    assert cert.certified_bound == 0.0
    report = certified_report(cert, ledger, eps=0.5)
    assert report["ratio"] is None  # no upward movement either


def test_warmup_r_is_weight_at_origin():
    # any coordinate still at zero keeps the full movement dual w_i
    w = np.array([1.0, 3.0])
    log = MultiplierLog(w)
    x = FractionalPoint.zeros(2, w)
    row = HalfspaceConstraint.covering({0: 1.0})
    res = project_covering(x, row, 0.5)
    log.append_projection(row, res.multiplier, x.values[row.indices], res.point.values[row.indices])
    cert = build_warmup_dual(log, eps=0.5)
    assert cert.r_bar.at(1, 0) == 3.0
    assert cert.r_bar.at(0, 0) == 1.0


def test_refined_single_covering_arithmetic():
    _, log, ledger = run_single_covering()
    ytilde = refine_ytilde(log, eps=1.0)
    assert ytilde[0] == pytest.approx(math.log(5.0) / 2.0, abs=1e-9)
    cert = build_refined_dual(log, ytilde, eps=1.0)
    assert cert.scaling == pytest.approx(math.log(41.0))
    assert cert.r_bar.at(0, 0) == pytest.approx(math.log(5.0) / math.log(41.0), abs=1e-9)
    assert cert.r_bar.at(0, 0) == pytest.approx(0.4334, abs=2e-4)
    assert cert.r_bar.at(0, 0) <= 1.0


def test_refined_budget_spends_on_latest_heavy_time():
    # second covering row is 100x lighter, so the first multiplier is cut
    # by exactly budget / heavy coefficient
    w = np.ones(1)
    x = FractionalPoint.zeros(1, w)
    log = MultiplierLog(w)
    x = process_constraint(x, HalfspaceConstraint.covering({0: 100.0}), 1.0, log=log)
    x = process_constraint(x, HalfspaceConstraint.covering({0: 1.0}), 1.0, log=log)
    y0 = log.steps[0].multiplier
    y1 = log.steps[1].multiplier
    ytilde = refine_ytilde(log, eps=1.0)
    assert ytilde[1] == y1
    assert ytilde[0] == pytest.approx(y0 - min(y0, y1 / 100.0), abs=1e-12)


def test_refined_packing_time_changes_nothing():
    w = np.ones(2)
    x = FractionalPoint.zeros(2, w)
    log = MultiplierLog(w)
    x = process_constraint(x, HalfspaceConstraint.covering({0: 1.0, 1: 1.0}), 0.5, log=log)
    x = process_constraint(x, HalfspaceConstraint.packing({0: 4.0}), 0.5, log=log)
    ytilde = refine_ytilde(log, eps=0.5)
    assert ytilde[0] == log.steps[0].multiplier
    assert ytilde[1] == 0.0


def test_freeze_blocks_refined_but_not_warmup():
    w = np.ones(1)
    x = FractionalPoint.zeros(1, w)
    log = MultiplierLog(w)
    ledger = RecourseLedger()
    x = process_constraint(x, HalfspaceConstraint.covering({0: 1.0}), 0.5, ledger=ledger, log=log)
    frozen = FractionalPoint.zeros(1, w)
    ledger.record_step(w, x.values, frozen.values)
    log.append_freeze([0], x.values, frozen.values)
    x = process_constraint(frozen, HalfspaceConstraint.covering({0: 1.0}), 0.5, ledger=ledger, log=log)
    with pytest.raises(CertificateError):
        refine_ytilde(log, eps=0.5)
    cert = build_warmup_dual(log, eps=0.5)
    assert cert.max_violation <= FEASIBILITY_TOL
    summary = certify_run(log, ledger, eps=0.5)
    assert summary["refined_bound"] is None
    assert summary["ratio_refined"] is None
    assert summary["warmup_bound"] > 0.0
    assert summary["A_warmup"] == pytest.approx(math.log(1.0 + 4.0 / 0.5))


def test_certify_run_empty_log():
    summary = certify_run(MultiplierLog(np.ones(2)), RecourseLedger(), eps=0.5)
    assert summary["upward_recourse"] == 0.0
    assert summary["warmup_bound"] == 0.0
    assert summary["ratio_warmup"] is None


def test_zero_multiplier_arrivals_are_recorded():
    w = np.ones(1)
    x = FractionalPoint([2.0], w)
    log = MultiplierLog(w)
    row = HalfspaceConstraint.covering({0: 1.0})
    x2 = process_constraint(x, row, 0.5, log=log)
    assert x2 is x
    assert log.horizon == 1
    assert log.steps[0].multiplier == 0.0


@pytest.mark.parametrize("eps", [0.25, 1.0])
def test_random_streams_certify_cleanly(eps):
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        T = int(rng.integers(5, 51))
        log, ledger, _, w = random_mixed_stream(rng, n, T, eps)
        # movement and multiplier-sum lemmas on the raw log
        assert check_movement_bound(log, eps) <= 1e-9
        assert check_z_bound(log, eps) >= -1e-9
        warm = build_warmup_dual(log, eps)
        assert warm.max_violation <= FEASIBILITY_TOL
        ytilde = refine_ytilde(log, eps)
        assert np.all(ytilde >= -1e-15)
        refined = build_refined_dual(log, ytilde, eps)
        assert refined.max_violation <= FEASIBILITY_TOL
        assert refined.objective >= -1e-9
        # realized recourse against the certified cap
        cap = (2.0 + eps) * (1.0 + eps) / eps * refined.scaling
        if refined.certified_bound > 0.0:
            assert ledger.upward_total / refined.certified_bound <= cap * (1.0 + 1e-9)


def test_subset_lemma_sampled():
    rng = np.random.default_rng(5)
    eps = 0.5
    log, _, _, _ = random_mixed_stream(rng, 6, 40, eps)
    cover_times = [t for t, s in enumerate(log.steps) if s.kind.value == "C"]
    for _ in range(200):
        s = int(rng.integers(0, log.horizon))
        t = int(rng.integers(s, log.horizon))
        i = int(rng.integers(0, log.n))
        window = [tau for tau in cover_times if s <= tau <= t]
        keep = [tau for tau in window if rng.random() < 0.6]
        gap = check_subset_lemma(log, eps, i, s, t, keep)
        assert gap <= 1e-9


def test_window_sums_match_triple_loop():
    rng = np.random.default_rng(6)
    eps = 1.0
    log, _, _, _ = random_mixed_stream(rng, 4, 25, eps)
    ytilde = refine_ytilde(log, eps)
    fast = max_window_sums(log, ytilde)
    # literal definition, nonempty windows
    C, P, _, z = coeff_matrices(log)
    a = C * ytilde - P * z
    for i in range(log.n):
        slow = max(
            a[i, s : t + 1].sum() for s in range(log.horizon) for t in range(s, log.horizon)
        )
        assert fast[i] == pytest.approx(slow, abs=1e-12)
    excess, _ = check_ineq1(log, ytilde, eps)
    assert excess <= FEASIBILITY_TOL
    assert check_ineq2(log, ytilde, eps) <= FEASIBILITY_TOL
