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
    build_refined_dual,
    build_warmup_dual,
    certify_run,
    project_and_record,
    project_covering,
    refine_ytilde,
)
from bodychase.certify import (
    FEASIBILITY_TOL,
    check_dual_feasibility,
    check_ineq1,
    check_ineq2,
    max_window_sums,
)
from oracles import (
    check_movement_bound,
    check_subset_lemma,
    check_z_bound,
    coeff_matrices,
    logged_step,
    random_mixed_stream,
)


def run_single_covering():
    """The one-step reference run: c = {0:2}, eps = 1, from the origin."""
    w = np.ones(1)
    x = FractionalPoint.zeros(1, w)
    log = MultiplierLog(w)
    row = HalfspaceConstraint.covering({0: 2.0})
    x = project_and_record(x, row, 1.0, log=log)[0]
    return x, log, log.ledger


def test_log_extreme_tracking():
    log = MultiplierLog(np.ones(1))
    c1 = HalfspaceConstraint.covering({0: 2.0})
    log.append_projection(c1, logged_step(c1, 0.8, [0.0], [0.5]))
    assert log.entries().aspect_ratio == 1.0
    assert log.entries().sparsity == 1
    c2 = HalfspaceConstraint.covering({0: 4.0})
    log.append_projection(c2, logged_step(c2, 0.1, [0.5], [0.5]))
    assert log.entries().aspect_ratio == 2.0
    p = HalfspaceConstraint.packing({0: 1.0})
    log.append_projection(p, logged_step(p, 0.3, [0.5], [0.4]))
    assert log.entries().aspect_ratio == 2.0
    assert log.entries().sparsity == 1
    with pytest.raises(ValueError):
        log.append_projection(c1, logged_step(c1, -0.2, [0.4], [0.5]))


def test_warmup_single_covering_arithmetic():
    _, log, _ = run_single_covering()
    cert = build_warmup_dual(log, eps=1.0)
    assert cert.scaling == pytest.approx(math.log(5.0))
    assert cert.y_bar[0] == pytest.approx(0.5, abs=1e-9)
    assert cert.r_bar.at(0, 0) == pytest.approx(1.0)
    assert cert.objective == pytest.approx(0.5, abs=1e-9)
    assert cert.max_violation <= FEASIBILITY_TOL
    report = certify_run(log, eps=1.0)
    assert report["upward_recourse"] == pytest.approx(0.5, abs=1e-9)
    assert report["ratio_warmup"] == pytest.approx(1.0, abs=1e-8)
    assert report["A_warmup"] == cert.scaling
    # the clamp-free log builds the refined certificate too, whose cap overrides the warmup's
    assert report["theoretical_cap"] == pytest.approx(6.0 * report["A_refined"])
    assert report["ratio_warmup"] <= 6.0 * math.log(5.0) <= report["theoretical_cap"]


def test_warmup_packing_only_clamps_to_zero():
    w = np.ones(2)
    x = FractionalPoint([2.0, 1.0], w)
    log = MultiplierLog(w)
    row = HalfspaceConstraint.packing({0: 1.0, 1: 1.0})
    project_and_record(x, row, 0.5, log=log)
    cert = build_warmup_dual(log, eps=0.5)
    assert cert.objective < 0.0
    assert cert.certified_bound == 0.0
    report = certify_run(log, eps=0.5)
    assert report["warmup_bound"] == 0.0
    assert report["ratio_warmup"] is None  # no upward movement either
    # upward movement against the zero bound has no ratio either, not inf: a
    # packing step, then a covering step whose multiplier is smaller
    moved = MultiplierLog(w)
    point = FractionalPoint([0.9, 2.0], w)
    project_and_record(point, HalfspaceConstraint.packing({1: 1.0}), 0.5, log=moved)
    project_and_record(point, HalfspaceConstraint.covering({0: 1.0}), 0.5, log=moved)
    packing, covering = (step.multiplier for step in moved.steps)
    assert covering - packing <= 0.0 < moved.ledger.upward_total
    report = certify_run(moved, eps=0.5)
    assert report["warmup_bound"] == 0.0
    assert report["ratio_warmup"] is None


def test_warmup_r_is_weight_at_origin():
    # any coordinate still at zero keeps the full movement dual w_i
    w = np.array([1.0, 3.0])
    log = MultiplierLog(w)
    x = FractionalPoint.zeros(2, w)
    row = HalfspaceConstraint.covering({0: 1.0})
    res = project_covering(x, row, 0.5)
    log.append_projection(row, res)
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
    x = project_and_record(x, HalfspaceConstraint.covering({0: 100.0}), 1.0, log=log)[0]
    x = project_and_record(x, HalfspaceConstraint.covering({0: 1.0}), 1.0, log=log)[0]
    y0 = log.steps[0].multiplier
    y1 = log.steps[1].multiplier
    ytilde = refine_ytilde(log, eps=1.0)
    assert ytilde[1] == y1
    assert ytilde[0] == pytest.approx(y0 - min(y0, y1 / 100.0), abs=1e-12)


def test_refined_packing_time_changes_nothing():
    w = np.ones(2)
    x = FractionalPoint.zeros(2, w)
    log = MultiplierLog(w)
    x = project_and_record(x, HalfspaceConstraint.covering({0: 1.0, 1: 1.0}), 0.5, log=log)[0]
    x = project_and_record(x, HalfspaceConstraint.packing({0: 4.0}), 0.5, log=log)[0]
    ytilde = refine_ytilde(log, eps=0.5)
    assert ytilde[0] == log.steps[0].multiplier
    assert ytilde[1] == 0.0


def test_freeze_blocks_refined_but_not_warmup():
    w = np.ones(1)
    x = FractionalPoint.zeros(1, w)
    log = MultiplierLog(w)
    x = project_and_record(x, HalfspaceConstraint.covering({0: 1.0}), 0.5, log=log)[0]
    frozen = FractionalPoint.zeros(1, w)
    log.append_freeze([0], x.values, frozen.values)
    x = project_and_record(frozen, HalfspaceConstraint.covering({0: 1.0}), 0.5, log=log)[0]
    with pytest.raises(CertificateError):
        refine_ytilde(log, eps=0.5)
    cert = build_warmup_dual(log, eps=0.5)
    assert cert.max_violation <= FEASIBILITY_TOL
    summary = certify_run(log, eps=0.5)
    assert summary["refined_bound"] is None
    assert summary["ratio_refined"] is None
    assert summary["warmup_bound"] > 0.0
    assert summary["A_warmup"] == pytest.approx(math.log(1.0 + 4.0 / 0.5))


def test_certify_run_empty_log():
    summary = certify_run(MultiplierLog(np.ones(2)), eps=0.5)
    assert summary["upward_recourse"] == 0.0
    assert summary["warmup_bound"] == 0.0
    assert summary["ratio_warmup"] is None


def test_zero_multiplier_arrivals_are_recorded():
    w = np.ones(1)
    x = FractionalPoint([2.0], w)
    log = MultiplierLog(w)
    row = HalfspaceConstraint.covering({0: 1.0})
    x2 = project_and_record(x, row, 0.5, log=log)[0]
    assert x2 is x
    assert log.horizon == 1
    assert log.steps[0].multiplier == 0.0


def assert_certifies_cleanly(log, ledger, eps):
    """The lemmas and both certificates of one random log; returns ytilde."""
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
    return ytilde


@pytest.mark.parametrize("eps", [0.25, 1.0])
def test_random_streams_certify_cleanly(eps):
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        T = int(rng.integers(5, 51))
        log, ledger, _, w = random_mixed_stream(rng, n, T, eps)
        assert_certifies_cleanly(log, ledger, eps)


# refine_ytilde lowers an earlier multiplier only where that row's coefficient
# is at least 10 d / eps times the current one, which coefficients drawn from
# the default [1, 8] never reach: this corpus runs the back-scan
@pytest.mark.parametrize("eps", [0.25, 1.0])
def test_wide_coefficient_streams_certify_cleanly_with_damping(eps):
    rng = np.random.default_rng(78)
    damped = 0
    for _ in range(25):
        n = int(rng.integers(2, 9))
        T = int(rng.integers(5, 51))
        log, ledger, _, _ = random_mixed_stream(rng, n, T, eps, coeff_lo=0.01, coeff_hi=100.0)
        ytilde = assert_certifies_cleanly(log, ledger, eps)
        damped += bool(np.any(ytilde != log.entries().y))
    assert damped >= 1


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


def test_warmup_duals_take_their_log_form_past_float_range():
    # 4 d cmax x / eps overflows for coordinate 0 at eps 1e-300; its dual is
    # read in log form, as A is, and the certificate stays finite
    import warnings

    log = MultiplierLog(np.ones(2))
    row = HalfspaceConstraint.covering({0: 1e100, 1: 1.0})
    log.append_projection(row, logged_step(row, 0.5, [0.0, 0.0], [1.0, 0.5]))
    eps = 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = build_warmup_dual(log, eps)
    A = cert.scaling
    assert A == pytest.approx(math.log(8.0) - math.log(eps))  # each coordinate has one c
    for i, (cmax, x) in enumerate([(1e100, 1.0), (1.0, 0.5)]):
        lifted = math.log(8.0 * cmax * x) - math.log(eps)
        assert cert.r_bar.after[i] == pytest.approx(1.0 - lifted / A, rel=1e-12, abs=1e-12)
    assert math.isfinite(cert.objective) and math.isfinite(cert.max_violation)


def test_refined_certificate_is_refused_when_its_damping_threshold_leaves_float_range():
    # 10 d c / eps = 20 * 1e100 / 5e-302 overflows: nothing would be damped and
    # the window check would fail, so the construction is refused up front
    w, eps = np.ones(2), 5e-302
    log = MultiplierLog(w)
    project_and_record(FractionalPoint.zeros(2, w), HalfspaceConstraint.covering({0: 1e100, 1: 1.0}),
                       eps, log=log)
    with pytest.raises(CertificateError, match="float range"):
        refine_ytilde(log, eps)
    summary = certify_run(log, eps)
    assert summary["refined_bound"] is None and summary["A_refined"] is None
    # the warm-up dual fails its own check by about 1e100 there, so it bounds nothing
    assert summary["warmup_max_violation"] > FEASIBILITY_TOL
    assert summary["warmup_bound"] is None and summary["A_warmup"] is None
    assert summary["ratio_warmup"] is None
    # the same row chased at an eps whose thresholds stay finite is certified both ways
    log = MultiplierLog(w)
    project_and_record(FractionalPoint.zeros(2, w), HalfspaceConstraint.covering({0: 1e100, 1: 1.0}),
                       0.025, log=log)
    assert certify_run(log, 0.025)["refined_bound"] > 0.0
