"""The Newton multiplier root finder against the bracket-and-bisect
projections it replaced (kept in tests/oracles.py), on random rows and on
rows built to be hard, plus its iteration budget and its failure path."""

import math

import numpy as np
import pytest

from bodychase import (
    ConvergenceError,
    DimensionMismatch,
    FractionalPoint,
    HalfspaceConstraint,
    Kind,
    project_covering,
    project_packing,
)
from bodychase import core
from bodychase.core import _EXP_CAP, covering_violated, packing_violated

from oracles import (
    applied,
    bisect_project_covering,
    bisect_project_packing,
    random_mixed_stream,
    random_packing_case,
)

REL = 1e-10
# Both finders stop at |g| <= tol * rhs, which pins the multiplier only to
# within tol / g'(y): on a row violated by 1e-3 that is about 1e-9 of y.
# The reference therefore bisects to a residual 100 times smaller.
REF_TOL = 1e-14


def both(x_prev, row, eps):
    """(new, reference) projections of one violated row from one point."""
    if row.kind is Kind.COVERING:
        ref = bisect_project_covering(x_prev, row, eps, tol=REF_TOL)
        return project_covering(x_prev, row, eps), ref
    ref = bisect_project_packing(x_prev, row, eps, tol=REF_TOL)
    return project_packing(x_prev, row, eps), ref


def assert_agree(new, ref, row):
    assert new.multiplier == pytest.approx(ref.multiplier, rel=REL, abs=0.0)
    # coordinates shrunk by exp(-rate * z) to far below the point's scale
    # carry the multiplier's error times rate * z, so they are held to the
    # point's scale rather than their own
    scale = float(np.max(np.abs(ref.point.values)))
    np.testing.assert_allclose(new.x_after, ref.point.values[row.indices], rtol=REL, atol=REL * scale)
    assert new.residual <= 2e-12


def violated(x, row, eps):
    value = row.value_at(x.values)
    if row.kind is Kind.COVERING:
        return covering_violated(value)
    return packing_violated(value, eps)


def test_random_rows_agree_with_bisection_within_budget():
    iterations = []
    for eps, seed in ((0.25, 7), (1.0, 8)):
        rng = np.random.default_rng(seed)
        for _ in range(10):
            _, _, rows, w = random_mixed_stream(rng, 12, 60, eps)
            x = FractionalPoint.zeros(12, w)
            for row in rows:
                if violated(x, row, eps):
                    new, ref = both(x, row, eps)
                    assert_agree(new, ref, row)
                    iterations.append(new.iterations)
                    x = FractionalPoint(applied(x, row, new), w)
    rng = np.random.default_rng(9)
    for _ in range(200):
        x0, p, eps = random_packing_case(rng, eps_choices=(0.0,))
        new, ref = both(x0, p, eps)
        assert_agree(new, ref, p)
        iterations.append(new.iterations)
    assert len(iterations) > 600
    assert np.mean(iterations) <= 8
    assert max(iterations) <= 20


def test_shifts_near_one_in_a_million():
    row = HalfspaceConstraint.covering({0: 1000.0, 1: 1500.0, 2: 2000.0, 3: 2500.0, 4: 800.0})
    eps = 0.02
    shift = eps / (4.0 * row.sparsity * row.coeffs)
    assert 3e-7 < shift.min() and shift.max() < 2e-6
    x0 = FractionalPoint.zeros(5, np.array([1.0, 2.0, 0.5, 1.5, 1.0]))
    new, ref = both(x0, row, eps)
    assert_agree(new, ref, row)
    assert new.iterations <= 8


RATES = np.logspace(-3.0, 3.0, 7)
SPREAD = np.array([0.5, 1.0, 2.0, 4.0, 1.0, 0.25, 3.0])


@pytest.mark.parametrize("eps", [0.1, 1.0])
def test_rates_spread_over_six_decades_covering(eps):
    row = HalfspaceConstraint.covering(dict(enumerate(SPREAD)))
    x0 = FractionalPoint(np.array([0.1, 0.0, 0.05, 0.0, 0.0, 0.01, 0.0]), SPREAD / RATES)
    new, ref = both(x0, row, eps)
    assert_agree(new, ref, row)
    assert new.iterations <= 8


def test_rates_spread_over_six_decades_packing():
    row = HalfspaceConstraint.packing(dict(enumerate(SPREAD)))
    x0 = FractionalPoint(np.array([1.0, 0.5, 0.3, 0.2, 0.4, 1.0, 0.1]), SPREAD / RATES)
    new, ref = both(x0, row, 0.0)
    assert_agree(new, ref, row)
    assert new.iterations <= 12


def test_first_step_past_the_exponent_cap():
    # the slow coordinate carries the row's mass at y = 0, so the first
    # Newton step is sized by its rate and takes the fast one far past the
    # cap, where the capped terms' slope must not steer the next steps
    row = HalfspaceConstraint.covering({0: 1.0, 1: 1000.0})
    w = np.array([1000.0, 1.0])
    x = np.array([0.5, 0.0])
    eps = 1e-4
    shift = eps / (4.0 * row.sparsity * row.coeffs)
    base, rate = x + shift, row.coeffs / w
    mass = row.coeffs * base
    h0 = math.log(mass.sum() / (1.0 + row.coeffs @ shift))
    first = -h0 * mass.sum() / (mass @ rate)
    assert first * rate.max() > _EXP_CAP
    new, ref = both(FractionalPoint(x, w), row, eps)
    assert_agree(new, ref, row)
    assert new.iterations <= 20


@pytest.mark.parametrize("row, x, w, eps", [
    (HalfspaceConstraint.covering({0: 2.0}), [0.2], [3.0], 0.5),
    (HalfspaceConstraint.packing({0: 2.0}), [2.0], [3.0], 0.0),
    # equal rates c_i / w_i on every coordinate: h is linear
    (HalfspaceConstraint.covering({0: 1.0, 1: 2.0, 2: 4.0}), [0.2, 0.0, 0.1], [1.0, 2.0, 4.0], 0.5),
    (HalfspaceConstraint.packing({0: 1.0, 1: 3.0}), [1.5, 0.8], [0.5, 1.5], 0.25),
])
def test_single_coordinate_and_equal_rate_rows_take_one_step(row, x, w, eps):
    new, ref = both(FractionalPoint(x, w), row, eps)
    assert_agree(new, ref, row)
    assert new.iterations == 1


def test_iteration_cap_raises_instead_of_returning_a_wrong_point(monkeypatch):
    w = np.array([1.0, 10.0, 100.0])
    cover = HalfspaceConstraint.covering({0: 1.0, 1: 1.0, 2: 1.0})
    pack = HalfspaceConstraint.packing({0: 1.0, 1: 1.0, 2: 1.0})
    with monkeypatch.context() as m:
        m.setattr(core, "_ROOT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            project_covering(FractionalPoint.zeros(3, w), cover, 0.5)
        with pytest.raises(ConvergenceError):
            project_packing(FractionalPoint([1.0, 1.0, 1.0], w), pack, 0.0)
    # the same rows converge under the default cap
    assert project_covering(FractionalPoint.zeros(3, w), cover, 0.5).iterations > 1


def test_max_index_is_fixed_at_construction():
    row = HalfspaceConstraint.covering({7: 2.0, 3: 1.0})
    assert row.max_index == 7
    assert row.value_at(np.ones(8)) == 3.0
    with pytest.raises(DimensionMismatch):
        row.value_at(np.ones(7))


@pytest.mark.parametrize("coeffs", [{0: 1e100, 1: 1.0}, {0: 1e100, 1: 1e-100}])
def test_a_root_far_below_one_is_resolved(coeffs):
    # the fast coordinate reaches the row after a multiplier near 6e-100: a
    # bracket measured against 1 would count as exhausted after one step
    row = HalfspaceConstraint.covering(coeffs)
    step = project_covering(FractionalPoint.zeros(2), row, 0.025)
    assert 0.0 < step.multiplier < 1e-90
    assert step.residual <= 2e-12 and 1 < step.iterations <= 12
    assert float(step.x_after.dot(row.coeffs)) == pytest.approx(1.0, rel=1e-12)


def test_a_stream_whose_root_lies_far_below_one_chases(tmp_path, capsys):
    from bodychase.cli import main

    for text in ("C 0:1e100 1:1\nC 0:1\n", "C 0:1e100 1:1e-100\nP 0:1e100 1:1e-100\nC 1:1e-100\n"):
        path = tmp_path / "s.txt"
        path.write_text(text)
        assert main(["chase", str(path), "--no-offline"]) == 0
        assert capsys.readouterr().err == ""
