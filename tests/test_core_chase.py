"""Chase loop over explicit bodies and the output scaling."""

import numpy as np
import pytest

from bodychase import (
    FractionalPoint,
    HalfspaceConstraint,
    InfeasibleBodyError,
    Kind,
    NotViolatedError,
    PositiveBody,
    RecourseLedger,
    chase_body,
    scaled_output,
)


def test_one_covering_round():
    body = PositiveBody(
        covering=[HalfspaceConstraint.covering({0: 1.0, 1: 1.0})],
        packing=[HalfspaceConstraint.packing({0: 1.0})],
    )
    x, trace = chase_body(FractionalPoint.zeros(2), body, delta=0.2)
    assert len(trace) == 1
    assert trace[0].constraint.kind is Kind.COVERING
    assert x.values == pytest.approx([0.5, 0.5], abs=1e-9)


def test_vacuous_body():
    x0 = FractionalPoint([0.3, 2.0])
    x, trace = chase_body(x0, PositiveBody(), delta=0.5)
    assert trace == []
    assert np.array_equal(x.values, x0.values)


def test_empty_intersection_hits_cap():
    body = PositiveBody(
        covering=[HalfspaceConstraint.covering({0: 1.0})],
        packing=[HalfspaceConstraint.packing({0: 3.0})],
    )
    with pytest.raises(InfeasibleBodyError) as err:
        chase_body(FractionalPoint.zeros(1), body, delta=0.2, max_rounds=60)
    assert err.value.last_constraint is not None


def test_eps_is_pinned_to_delta():
    body = PositiveBody(covering=[HalfspaceConstraint.covering({0: 1.0})])
    with pytest.raises(ValueError):
        chase_body(FractionalPoint.zeros(1), body, delta=0.2, eps=0.3)
    x, _ = chase_body(FractionalPoint.zeros(1), body, delta=0.2, eps=0.01)
    assert x.values[0] >= 1.0 - 0.02


def test_callable_oracle_receives_tolerances():
    seen = {}

    def oracle(values, cover_floor, pack_ceiling):
        seen["floor"] = cover_floor
        seen["ceiling"] = pack_ceiling
        if values[0] < cover_floor:
            return HalfspaceConstraint.covering({0: 1.0})
        return None

    x, trace = chase_body(FractionalPoint.zeros(1), oracle, delta=0.2)
    assert seen["floor"] == pytest.approx(1.0 - 0.02)
    assert seen["ceiling"] == pytest.approx(1.0 + 0.01 + 0.02)
    assert len(trace) == 1
    assert x.values[0] >= 1.0 - 0.02


def test_oracle_returning_a_satisfied_row_is_an_error():
    def oracle(values, cover_floor, pack_ceiling):
        return HalfspaceConstraint.covering({0: 1.0})

    with pytest.raises(NotViolatedError):
        chase_body(FractionalPoint([2.0]), oracle, delta=0.2)


def test_ledger_accumulates_trace_movement():
    body = PositiveBody(
        covering=[
            HalfspaceConstraint.covering({0: 1.0, 1: 1.0}),
            HalfspaceConstraint.covering({1: 1.0, 2: 1.0}),
        ],
        packing=[HalfspaceConstraint.packing({0: 1.0, 2: 1.0})],
    )
    ledger = RecourseLedger()
    x, trace = chase_body(FractionalPoint.zeros(3), body, delta=0.4, ledger=ledger)
    assert len(ledger.steps) == len(trace)
    assert ledger.upward_total == pytest.approx(sum(s[0] for s in ledger.steps))
    assert ledger.l1_total >= ledger.upward_total


def test_scaled_output_examples():
    y = scaled_output(FractionalPoint([0.45, 0.45]), delta=0.1)
    assert y.values == pytest.approx([0.45 / 0.99, 0.45 / 0.99])
    z = scaled_output(FractionalPoint.zeros(3), delta=0.7)
    assert np.array_equal(z.values, np.zeros(3))
    one = scaled_output(FractionalPoint([0.9]), delta=1.0)
    assert one.values[0] == pytest.approx(1.0)


def random_nonempty_body(rng, n, rows):
    """Body built around a hidden witness point, hence guaranteed nonempty."""
    witness = rng.uniform(0.2, 1.0, size=n)
    body = PositiveBody()
    for _ in range(rows):
        d = int(rng.integers(1, n + 1))
        sup = rng.choice(n, size=d, replace=False)
        raw = rng.uniform(0.5, 2.0, size=d)
        val = float(raw @ witness[sup])
        if rng.random() < 0.5:
            scale = rng.uniform(1.0, 1.3) / val
            body.add(HalfspaceConstraint.covering({int(i): float(r * scale) for i, r in zip(sup, raw)}))
        else:
            scale = rng.uniform(0.5, 1.0) / val
            body.add(HalfspaceConstraint.packing({int(i): float(r * scale) for i, r in zip(sup, raw)}))
    return body


@pytest.mark.parametrize("delta", [0.1, 0.5])
def test_random_bodies_scale_to_feasible(delta):
    rng = np.random.default_rng(20)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        body = random_nonempty_body(rng, n, rows=int(rng.integers(1, 7)))
        x, _ = chase_body(FractionalPoint.zeros(n), body, delta=delta)
        out = scaled_output(x, delta)
        for row in body.covering:
            assert row.value_at(out.values) >= 1.0 - 1e-12
        for row in body.packing:
            assert row.value_at(out.values) <= (1.0 + delta) * (1.0 + 1e-12)
