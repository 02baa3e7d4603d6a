"""Single-halfspace projection tests: worked examples, KKT residuals,
and agreement with the brute-force minimizer."""

import numpy as np
import pytest

from bodychase import (
    ConstraintError,
    FractionalPoint,
    HalfspaceConstraint,
    NotViolatedError,
    project_covering,
    project_packing,
)
from oracles import (
    applied,
    brute_project,
    covering_residuals,
    kl_objective,
    packing_residuals,
    random_covering_case,
    random_packing_case,
)

KKT_TOL = 1e-8


def full_divergence(x_prev, row, eps, x_new):
    """Objective rewritten as a proper divergence (>= 0 at any point)."""
    shift = np.zeros(row.sparsity)
    if row.kind.value == "C":
        shift = eps / (4.0 * row.sparsity * row.coeffs)
    w = x_prev.weights[row.indices]
    prev = x_prev.values[row.indices]
    base = kl_objective(x_new[row.indices], prev, w, shift)
    return float(base[0] + w @ (prev + shift))


def test_covering_symmetric_pair():
    x0 = FractionalPoint.zeros(2)
    c = HalfspaceConstraint.covering({0: 1.0, 1: 1.0})
    res = project_covering(x0, c, eps=1.0)
    assert res.x_after == pytest.approx([0.5, 0.5], abs=1e-9)
    assert res.multiplier >= 0.0


def test_covering_singleton_multiplier():
    # tightness forces x = 0.5; the multiplier follows from the closed form
    x0 = FractionalPoint.zeros(1)
    c = HalfspaceConstraint.covering({0: 2.0})
    res = project_covering(x0, c, eps=1.0)
    assert res.x_after[0] == pytest.approx(0.5, abs=1e-9)
    assert res.multiplier == pytest.approx(np.log(5.0) / 2.0, abs=1e-9)


def test_covering_leaves_off_support_alone():
    x0 = FractionalPoint([0.6, 0.0])
    c = HalfspaceConstraint.covering({1: 1.0})
    res = project_covering(x0, c, eps=0.5)
    assert applied(x0, c, res)[0] == 0.6
    assert applied(x0, c, res)[1] == pytest.approx(1.0, abs=1e-9)


def test_packing_symmetric_scale():
    x0 = FractionalPoint([1.0, 1.0])
    p = HalfspaceConstraint.packing({0: 1.0, 1: 1.0})
    res = project_packing(x0, p, eps=0.5)
    assert res.x_after == pytest.approx([0.75, 0.75], abs=1e-9)


def test_packing_uniform_factor():
    x0 = FractionalPoint([2.0, 1.0])
    p = HalfspaceConstraint.packing({0: 1.0, 1: 1.0})
    res = project_packing(x0, p, eps=0.0)
    assert res.multiplier == pytest.approx(np.log(3.0), abs=1e-9)
    assert res.x_after == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-9)


def test_packing_boundary_is_not_violated():
    x0 = FractionalPoint([1.0, 0.0])
    p = HalfspaceConstraint.packing({0: 1.0, 1: 5.0})
    with pytest.raises(NotViolatedError):
        project_packing(x0, p, eps=0.0)


def test_covering_satisfied_refuses():
    x0 = FractionalPoint([2.0])
    c = HalfspaceConstraint.covering({0: 1.0})
    with pytest.raises(NotViolatedError):
        project_covering(x0, c, eps=0.5)


def test_kind_mismatch_rejected():
    x0 = FractionalPoint.zeros(1)
    p = HalfspaceConstraint.packing({0: 1.0})
    with pytest.raises(ConstraintError):
        project_covering(x0, p, eps=0.5)
    c = HalfspaceConstraint.covering({0: 3.0})
    with pytest.raises(ConstraintError):
        project_packing(FractionalPoint([10.0]), c, eps=0.5)


def test_constraint_construction_rejects_garbage():
    with pytest.raises(ConstraintError):
        HalfspaceConstraint.covering({})
    with pytest.raises(ConstraintError):
        HalfspaceConstraint.covering({0: 0.0})
    with pytest.raises(ConstraintError):
        HalfspaceConstraint.packing({0: -1.0})
    with pytest.raises(ConstraintError):
        HalfspaceConstraint.covering({-2: 1.0})


def test_eps_ranges():
    x0 = FractionalPoint.zeros(1)
    c = HalfspaceConstraint.covering({0: 1.0})
    with pytest.raises(ValueError):
        project_covering(x0, c, eps=0.0)
    with pytest.raises(ValueError):
        project_covering(x0, c, eps=1.5)
    with pytest.raises(ValueError):
        project_packing(FractionalPoint([3.0]), HalfspaceConstraint.packing({0: 1.0}), eps=-0.1)


def test_random_covering_kkt_and_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x0, c, eps = random_covering_case(rng)
        res = project_covering(x0, c, eps)
        tight, mult = covering_residuals(x0, c, eps, res)
        assert tight <= KKT_TOL
        assert mult <= KKT_TOL
        assert res.multiplier >= 0.0
        # never moves down, never touches the complement of the support
        assert np.all(applied(x0, c, res) >= x0.values - 1e-15)
        off = np.setdiff1d(np.arange(x0.dim), c.indices)
        assert np.array_equal(applied(x0, c, res)[off], x0.values[off])
        assert full_divergence(x0, c, eps, applied(x0, c, res)) >= -1e-12


def test_random_packing_kkt_and_monotonicity():
    rng = np.random.default_rng(12)
    for _ in range(200):
        x0, p, eps = random_packing_case(rng)
        res = project_packing(x0, p, eps)
        tight, mult = packing_residuals(x0, p, eps, res)
        assert tight <= KKT_TOL
        assert mult <= KKT_TOL
        assert res.multiplier >= 0.0
        assert np.all(applied(x0, p, res) <= x0.values + 1e-15)
        zero = x0.values[p.indices] == 0.0
        assert np.all(res.x_after[zero] == 0.0)
        off = np.setdiff1d(np.arange(x0.dim), p.indices)
        assert np.array_equal(applied(x0, p, res)[off], x0.values[off])
        assert full_divergence(x0, p, eps, applied(x0, p, res)) >= -1e-12


def test_matches_brute_minimizer_small():
    rng = np.random.default_rng(13)
    for _ in range(25):
        x0, c, eps = random_covering_case(rng, nmax=3, dmax=3)
        res = project_covering(x0, c, eps)
        ref = brute_project(x0.values, x0.weights, c, eps)
        assert np.max(np.abs(applied(x0, c, res) - ref)) <= 1e-6
    for _ in range(25):
        x0, p, eps = random_packing_case(rng, nmax=3, dmax=3)
        res = project_packing(x0, p, eps)
        ref = brute_project(x0.values, x0.weights, p, eps)
        assert np.max(np.abs(applied(x0, p, res) - ref)) <= 1e-6


def test_coefficients_span_the_row_range_and_no_further():
    from bodychase.core import COEFF_MAX, COEFF_MIN
    from bodychase.formats import MAX_DIMENSION

    row = HalfspaceConstraint.covering({0: COEFF_MIN, 1: COEFF_MAX})
    k = row.constants(1.0, np.ones(2))
    assert np.isfinite(k.shift).all() and np.isfinite(k.rate).all() and np.isfinite(k.const)
    # the widest support and the extreme eps the range is sized for stay finite
    assert np.isfinite(1.0 / (4.0 * MAX_DIMENSION * COEFF_MIN))
    assert np.isfinite(4.0 * MAX_DIMENSION * (COEFF_MAX / COEFF_MIN) / 1e-100)
    for value in (np.nextafter(COEFF_MIN, 0.0), np.nextafter(COEFF_MAX, np.inf), 0.0, -1.0,
                  np.nan, np.inf, -np.inf):
        # first, between and last: the message names the bound a numpy reduction breaks
        for coeffs in ({0: value, 3: 1.0, 5: 2.0}, {0: 1.0, 3: value, 5: 2.0},
                       {0: 1.0, 3: 2.0, 5: value}, {0: value, 3: -value}):
            values = np.array(list(coeffs.values()))
            bound = "finite" if not values.max() <= COEFF_MAX else "positive"
            with pytest.raises(ConstraintError, match="coefficients must be " + bound):
                HalfspaceConstraint.packing(coeffs)


def test_a_step_whose_root_needs_a_capped_exponent_moves_no_coordinate_to_inf():
    # at eps 5e-302 the shift of the 1e100 coefficient underflows to 0, so
    # the root lies where its exponent passes the cap: the step takes the
    # capped exponent the root finder solved for, and stays finite
    import warnings

    row = HalfspaceConstraint.covering({0: 1e100, 1: 4.0, 2: 7.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = project_covering(FractionalPoint.zeros(3), row, 5e-302)
    assert np.isfinite(res.x_after).all() and res.x_after[0] == 0.0
    assert float(res.x_after @ row.coeffs) == pytest.approx(1.0, rel=1e-9)
