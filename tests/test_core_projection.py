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
    assert res.after == pytest.approx([0.5, 0.5], abs=1e-9)
    assert res.multiplier >= 0.0


def test_covering_singleton_multiplier():
    # tightness forces x = 0.5; the multiplier follows from the closed form
    x0 = FractionalPoint.zeros(1)
    c = HalfspaceConstraint.covering({0: 2.0})
    res = project_covering(x0, c, eps=1.0)
    assert res.after[0] == pytest.approx(0.5, abs=1e-9)
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
    assert res.after == pytest.approx([0.75, 0.75], abs=1e-9)


def test_packing_uniform_factor():
    x0 = FractionalPoint([2.0, 1.0])
    p = HalfspaceConstraint.packing({0: 1.0, 1: 1.0})
    res = project_packing(x0, p, eps=0.0)
    assert res.multiplier == pytest.approx(np.log(3.0), abs=1e-9)
    assert res.after == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-9)


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
        assert np.all(res.after[zero] == 0.0)
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
