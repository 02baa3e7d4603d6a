"""Chase loop over explicit bodies and the output scaling."""

import tracemalloc

import numpy as np
import pytest

from bodychase import (
    FractionalPoint,
    HalfspaceConstraint,
    InfeasibleBodyError,
    MultiplierLog,
    NotViolatedError,
    PositiveBody,
    chase_body,
    scaled_output,
)
from bodychase.core import VIOLATION_SLACK


def test_one_covering_round():
    body = PositiveBody(
        covering=[HalfspaceConstraint.covering({0: 1.0, 1: 1.0})],
        packing=[HalfspaceConstraint.packing({0: 1.0})],
    )
    x, trace = chase_body(FractionalPoint.zeros(2), body, delta=0.2)
    assert len(trace) == 1
    # the one step is the covering row's: it moved both coordinates up
    assert np.array_equal(trace[0].x_before, [0.0, 0.0]) and trace[0].multiplier > 0.0
    assert np.array_equal(trace[0].x_after, x.values)
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
    log = MultiplierLog(np.ones(3))
    x, trace = chase_body(FractionalPoint.zeros(3), body, delta=0.4, log=log)
    ledger = log.ledger
    assert len(ledger.steps) == len(trace) == log.horizon
    assert ledger.upward_total == pytest.approx(sum(s[0] for s in ledger.steps))
    assert ledger.l1_total >= ledger.upward_total


def test_scaled_output_examples():
    y = scaled_output(FractionalPoint([0.45, 0.45]), delta=0.1)
    assert y.values == pytest.approx([0.45 / 0.99, 0.45 / 0.99])
    z = scaled_output(FractionalPoint.zeros(3), delta=0.7)
    assert np.array_equal(z.values, np.zeros(3))
    one = scaled_output(FractionalPoint([0.9]), delta=1.0)
    assert one.values[0] == pytest.approx(1.0)


def test_scaled_output_copies_the_point_once():
    x = FractionalPoint(np.random.default_rng(5).uniform(0.0, 2.0, size=10**6))
    expected = x.values * (1.0 / (1.0 - 0.3 / 10.0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = scaled_output(x, 0.3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.values.tobytes() == expected.tobytes()
    assert out.values is not x.values and out.weights is x.weights
    # the result itself is 7.6 MB; a second copy would double the peak
    assert peak < 1.2 * out.values.nbytes


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


def test_the_steps_returned_are_the_very_steps_the_log_keeps():
    # one record from projector to log: chase_body returns the log's last steps
    rng = np.random.default_rng(24)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        body = random_nonempty_body(rng, n, rows=int(rng.integers(2, 7)))
        log = MultiplierLog(np.ones(n))
        x, first = chase_body(FractionalPoint.zeros(n), body, delta=0.3, log=log)
        x, trace = chase_body(x, body, delta=0.1, log=log)
        assert log.horizon == len(first) + len(trace)
        assert all(a is b for a, b in zip(first + trace, log.steps))
        for step in trace:
            assert step.iterations >= 1 and step.multiplier > 0.0
            assert np.array_equal(step.x_after, np.asarray(step.x_after, dtype=float))


def test_a_callable_oracle_is_the_separator_of_a_body_listing_no_rows():
    # the callable and the same callable as a body's separator take the same steps
    rng = np.random.default_rng(7)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        rows = random_nonempty_body(rng, n, rows=4)
        as_body = PositiveBody(rows.covering, rows.packing)

        def oracle(values, cover_floor, pack_ceiling):
            return as_body.find_violated(values, cover_floor, pack_ceiling)

        x, trace = chase_body(FractionalPoint.zeros(n), oracle, delta=0.2)
        y, again = chase_body(FractionalPoint.zeros(n), PositiveBody(separate=oracle), delta=0.2)
        assert x.values.tobytes() == y.values.tobytes() and len(trace) == len(again)
        for a, b in zip(trace, again):
            assert a.multiplier == b.multiplier and a.x_after.tobytes() == b.x_after.tobytes()


def test_the_band_stays_inside_the_projectors_own_tests_at_the_smallest_delta():
    # 1 - delta/10 rounds to 1.0 below delta of about 1e-11, where a row the
    # projectors call satisfied would be handed to them as violated
    seen = {}

    def oracle(values, cover_floor, pack_ceiling):
        seen.update(floor=cover_floor, ceiling=pack_ceiling)
        return None

    chase_body(FractionalPoint.zeros(1), oracle, delta=1e-300)
    assert seen["floor"] == 1.0 - VIOLATION_SLACK
    assert seen["ceiling"] == (1.0 + 5e-302) * (1.0 + VIOLATION_SLACK)
    body = PositiveBody([HalfspaceConstraint.covering({0: 1.0})],
                        [HalfspaceConstraint.packing({1: 1.0})])
    x, trace = chase_body(FractionalPoint([1.0 - 1e-13, 1.0 + 1e-13]), body, delta=1e-300)
    assert trace == [] and x.values.tolist() == [1.0 - 1e-13, 1.0 + 1e-13]
    # a row violated beyond the slack is still chased
    _, trace = chase_body(FractionalPoint([0.5, 1.0]), body, delta=1e-300)
    assert len(trace) == 1
    # from delta 1e-10 up the band is the one documented
    chase_body(FractionalPoint.zeros(1), oracle, delta=1e-10)
    assert seen["floor"] == 1.0 - 1e-11 and seen["ceiling"] == 1.0 + 5e-12 + 1e-11
