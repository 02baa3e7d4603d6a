"""The fused in-place engine step against the copying step it replaced
(kept in tests/oracles.py, with its separate ledger and log): the same
bits, in the point, the log and the ledger the log keeps; no array handed
out before a step changes after it, and a step allocates nothing of the
point's size."""

import tracemalloc

import numpy as np
import pytest

from bodychase import (
    DimensionMismatch,
    FractionalPoint,
    HalfspaceConstraint,
    Kind,
    MultiplierLog,
    PositiveBody,
    RecourseLedger,
    project_and_record,
)
from bodychase.adapters import UpdateEvent
from bodychase.offline import Freeze
from bodychase import core, runner
from bodychase.runner import RunConfig, _Run, apply_freeze, run_chase, run_problem

from oracles import copying_project_and_record, random_mixed_stream


def bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_same_log_step(a, b):
    assert a.kind is b.kind
    assert np.array_equal(a.indices, b.indices)
    assert bits(a.coeffs) == bits(b.coeffs)
    assert bits([a.multiplier]) == bits([b.multiplier])
    assert bits(a.x_before) == bits(b.x_before)
    assert bits(a.x_after) == bits(b.x_after)


@pytest.mark.parametrize("eps", [0.25, 1.0])
def test_fused_step_matches_the_copying_step_bit_for_bit(eps):
    rng = np.random.default_rng(4242)
    moved = 0
    for _ in range(12):
        _, _, rows, w = random_mixed_stream(rng, 14, 80, eps)
        x, ref = FractionalPoint.zeros(14, w), FractionalPoint.zeros(14, w)
        log, ref_log, ref_ledger = MultiplierLog(w), MultiplierLog(w), RecourseLedger()
        ledger = log.ledger
        for row in rows:
            x, res = project_and_record(x, row, eps, log)
            ref, ref_res = copying_project_and_record(ref, row, eps, ref_ledger, ref_log)
            assert bits(x.values) == bits(ref.values)
            assert log.steps[-1] is res
            assert (res.iterations == 0) == (ref_res is None)
            if res.iterations:
                moved += 1
                assert bits(res.x_before) == bits(ref_log.steps[-1].x_before)
                assert bits(res.x_after) == bits(ref_res.point.values[row.indices])
                assert bits([res.multiplier, res.residual]) == bits(
                    [ref_res.multiplier, ref_res.residual])
                assert res.iterations == ref_res.iterations
            assert bits(ledger.steps[-1]) == bits(ref_ledger.steps[-1])
            assert_same_log_step(log.steps[-1], ref_log.steps[-1])
        assert bits([ledger.upward_total, ledger.l1_total]) == bits(
            [ref_ledger.upward_total, ref_ledger.l1_total])
    assert moved > 300


@pytest.mark.parametrize("eps", [0.25, 1.0])
def test_a_projector_given_the_rows_value_matches_the_one_that_reads_it(eps):
    # the value an oracle or the engine already holds, as a Python float or
    # as the body's numpy scalar, gives the bits of the three-argument call
    # and of the copying reference
    rng = np.random.default_rng(2206)
    projected = 0
    for _ in range(6):
        _, _, rows, w = random_mixed_stream(rng, 12, 80, eps)
        x = FractionalPoint.zeros(12, w)
        for row in rows:
            project = core.project_covering if row.kind is Kind.COVERING else core.project_packing
            value = x.values[row.indices].dot(row.coeffs)
            if (core.covering_violated(value) if row.kind is Kind.COVERING
                    else core.packing_violated(value, eps)):
                plain = project(x, row, eps)
                _, ref = copying_project_and_record(x, row, eps)
                for given in (value, row.value_at(x.values)):
                    res = project(x, row, eps, value=given)
                    for a, b in [(res.x_before, plain.x_before), (res.x_after, plain.x_after),
                                 (res.x_after, ref.point.values[row.indices]),
                                 ([res.multiplier, res.residual, res.iterations],
                                  [plain.multiplier, plain.residual, plain.iterations]),
                                 ([res.multiplier, res.residual],
                                  [ref.multiplier, ref.residual])]:
                        assert np.array_equal(a, b)
                projected += 1
            x, _ = project_and_record(x, row, eps, value=value)
    assert projected > 150
    # the value given is the one the projector reads
    with pytest.raises(core.NotViolatedError):
        core.project_covering(FractionalPoint.zeros(2), HalfspaceConstraint.covering({0: 1.0}),
                              0.5, value=1.0)


def _violating_point(kind, n):
    """Values below every covering row and above every packing row of the
    tests' rows, which name coordinates below n."""
    return np.full(n, 0.05) if kind is Kind.COVERING else np.full(n, 2.0)


@pytest.mark.parametrize("kind", [Kind.COVERING, Kind.PACKING])
@pytest.mark.parametrize("coeffs", [{1: 0.5, 3: 2.0, 4: 1.25}, {0: 1.0, 2: 1.0}])
def test_a_row_keeps_its_constants_only_for_its_eps_and_weights(kind, coeffs):
    # one row object projected at two eps values, against two weight
    # vectors, in an order that returns to each: every step equals the step
    # of a freshly built row and of the copying reference
    w1, w2 = np.ones(5), np.array([1.0, 0.5, 2.0, 0.25, 4.0])
    row = HalfspaceConstraint(kind, coeffs)
    for eps, w in [(0.25, w1), (0.5, w1), (0.5, w2), (0.25, w2), (0.25, w1), (0.5, w2)]:
        log = MultiplierLog(w)
        x = FractionalPoint(_violating_point(kind, 5), w)
        _, res = project_and_record(x, row, eps, log)
        assert row._constants.weights is w  # kept for this step's weights
        fresh = FractionalPoint(_violating_point(kind, 5), w)
        _, new = project_and_record(fresh, HalfspaceConstraint(kind, coeffs), eps)
        ref_ledger = RecourseLedger()
        ref, ref_res = copying_project_and_record(
            FractionalPoint(_violating_point(kind, 5), w), HalfspaceConstraint(kind, coeffs),
            eps, ref_ledger)
        assert np.array_equal(x.values, fresh.values) and np.array_equal(x.values, ref.values)
        assert np.array_equal([res.multiplier, res.residual], [new.multiplier, new.residual])
        assert np.array_equal([res.multiplier, res.residual],
                              [ref_res.multiplier, ref_res.residual])
        assert np.array_equal(log.ledger.steps, ref_ledger.steps)


def test_a_row_projected_across_a_grown_run_reads_the_new_weights():
    run = _Run(RunConfig(eps=0.5), np.array([1.0, 2.0, 0.5]), [])
    rows = [HalfspaceConstraint.covering({0: 1.0, 2: 3.0}), HalfspaceConstraint.packing({0: 4.0})]
    copies, ref_log = FractionalPoint.zeros(3, run.x.weights), MultiplierLog(run.x.weights)
    ref_ledger = RecourseLedger()
    for dim in (3, 5, 8):
        run.grow(dim)
        if dim > copies.dim:
            grown = np.zeros(dim)
            grown[: copies.dim] = copies.values
            copies = FractionalPoint(grown, run.x.weights)
            ref_log.extend_weights(run.x.weights)
        rows.append(HalfspaceConstraint.covering({0: 1.0, dim - 1: 2.0}))
        for row in rows:
            x, res = project_and_record(run.x, row, run.eps, run.log)
            copies, ref = copying_project_and_record(copies, HalfspaceConstraint(
                row.kind, row.as_dict()), run.eps, ref_ledger, ref_log)
            assert np.array_equal(x.values, copies.values)
            assert (res.iterations == 0) == (ref is None)
            # a projected row keeps its constants against the grown weights
            assert not res.iterations or row._constants.weights is run.x.weights
            assert_same_log_step(run.log.steps[-1], ref_log.steps[-1])
        # push the point off every row again
        run.x.values[:] = copies.values[:] = 0.0
    assert np.array_equal(run.log.ledger.steps, ref_ledger.steps)


def test_a_satisfied_row_is_a_zero_step_that_never_projects(monkeypatch):
    def refuse(*args):
        raise AssertionError("a satisfied row reached the projector")

    monkeypatch.setattr(core, "project_covering", refuse)
    monkeypatch.setattr(core, "project_packing", refuse)
    w = np.array([1.0, 2.0, 0.5])
    x, log = FractionalPoint([0.5, 0.75, 0.25], w), MultiplierLog(w)
    values = x.values.copy()
    for row in (HalfspaceConstraint.covering({0: 1.0, 1: 1.0}),
                HalfspaceConstraint.packing({1: 1.0, 2: 1.0})):
        out, res = project_and_record(x, row, 0.5, log)
        step = log.steps[-1]
        assert out is x and res is step
        assert step.kind is row.kind and step.multiplier == step.iterations == step.residual == 0
        assert np.array_equal(step.x_before, values[row.indices])
        assert np.array_equal(step.x_after, values[row.indices])
    assert np.array_equal(x.values, values)
    assert log.ledger.steps == [(0.0, 0.0), (0.0, 0.0)]
    # a satisfied row still checks its eps, as a projection does
    with pytest.raises(ValueError, match="eps"):
        project_and_record(x, HalfspaceConstraint.covering({0: 2.0}), 1.5, log)


def test_the_step_moves_the_point_it_was_given_in_place():
    w = np.array([1.0, 2.0, 0.5])
    x = FractionalPoint.zeros(3, w)
    values = x.values
    out, res = project_and_record(x, HalfspaceConstraint.covering({0: 1.0, 2: 2.0}), 0.5)
    assert out is x and x.values is values
    assert x.values[1] == 0.0
    assert np.array_equal(x.values[[0, 2]], res.x_after)


def test_the_step_never_changes_an_array_handed_out_before_it():
    rng = np.random.default_rng(31)
    _, _, rows, w = random_mixed_stream(rng, 10, 120, 0.5)
    x = FractionalPoint.zeros(10, w)
    log = MultiplierLog(w)
    kept = []
    for row in rows:
        x, res = project_and_record(x, row, 0.5, log=log)
        step = log.steps[-1]
        after = res.x_after if res.iterations else None
        kept.append((step, step.x_before.copy(), step.x_after.copy(), after,
                     None if after is None else after.copy()))
        assert not np.shares_memory(step.x_before, x.values)
        assert not np.shares_memory(step.x_after, x.values)
    for step, before, after, res_after, res_copy in kept:
        assert bits(step.x_before) == bits(before)
        assert bits(step.x_after) == bits(after)
        if res_after is not None:
            assert bits(res_after) == bits(res_copy)


def _setcover_replay():
    header = {"problem": "setcover",
              "sets": [{"cost": 1.0, "elements": [0, 1]},
                       {"cost": 2.0, "elements": [1, 2, 3]},
                       {"cost": 1.5, "elements": [0, 3]},
                       {"cost": 1.0, "elements": [2]}]}
    seq = [("insert", 0), ("insert", 2), ("insert", 1), ("delete", 0),
           ("insert", 3), ("insert", 0), ("delete", 2), ("insert", 2)]
    return ("setcover", header,
            [UpdateEvent(op, {"element": u}) for op, u in seq])


def test_points_handed_to_rounding_are_not_moved_by_later_steps(monkeypatch):
    handed = []
    round_det = runner.round_det

    def keep(x, state, f):
        handed.append((x, x.values.copy()))
        return round_det(x, state, f)

    monkeypatch.setattr(runner, "round_det", keep)
    run_problem(RunConfig(round_mode="det", certify=False, offline=False), _setcover_replay())
    assert len(handed) == 8
    assert any(bits(a.values) != bits(b.values) for (a, _), (b, _) in zip(handed, handed[1:]))
    for x, copy in handed:
        assert bits(x.values) == bits(copy)


def test_run_chase_final_point_matches_a_copying_replay():
    rng = np.random.default_rng(8)
    _, _, rows, w = random_mixed_stream(rng, 9, 60, 0.025)
    stream = rows[:30] + [Freeze((1, 4))] + rows[30:45] + [[Freeze((0,)), *rows[45:]]]
    records = run_chase(RunConfig(certify=False, offline=False), stream, w)
    final = records[-1]["final_point"]

    ref = FractionalPoint.zeros(9, w)
    for item in stream:
        for member in item if isinstance(item, list) else [item]:
            if isinstance(member, Freeze):
                ref = apply_freeze(ref, member.indices)
            else:
                ref = copying_project_and_record(ref, member, 0.025)[0]
    assert bits(final) == bits(ref.values)
    assert records[-1]["upward_recourse"] > 0.0


@pytest.mark.parametrize("weight", [np.nan, np.inf, 0.0])
def test_points_refuse_weights_that_are_not_finite_and_positive(weight):
    with pytest.raises(ValueError, match="finite and strictly positive"):
        FractionalPoint([0.5, 0.5], [1.0, weight])


def test_points_are_still_checked_where_they_are_made():
    with pytest.raises(ValueError):
        FractionalPoint([0.5, -1e-300])
    with pytest.raises(DimensionMismatch):
        FractionalPoint([0.5, 1.0], [1.0])
    with pytest.raises(DimensionMismatch):
        FractionalPoint([[0.5]])
    with pytest.raises(ValueError):
        FractionalPoint([0.5], [0.0])
    given = np.array([0.25, 0.5])
    x = FractionalPoint(given)
    project_and_record(x, HalfspaceConstraint.covering({0: 1.0, 1: 1.0}), 0.5)
    assert bits(given) == bits([0.25, 0.5])


def test_body_checks_its_dimension_once_per_call(monkeypatch):
    body = PositiveBody(covering=[HalfspaceConstraint.covering({0: 1.0}),
                                  HalfspaceConstraint.covering({3: 1.0})],
                        packing=[HalfspaceConstraint.packing({1: 1.0})])
    assert body.max_index == 3
    # the first row is violated, yet the body as a whole does not fit
    with pytest.raises(DimensionMismatch):
        body.find_violated(np.zeros(3), 0.95, 1.1)

    def per_row(self, values):
        raise AssertionError("find_violated checked a row's dimension")

    monkeypatch.setattr(HalfspaceConstraint, "value_at", per_row)
    assert body.find_violated(np.zeros(4), 0.95, 1.1) is body.covering[0]
    assert body.find_violated(np.array([1.0, 2.0, 0.0, 1.0]), 0.95, 1.1) is body.packing[0]
    assert body.find_violated(np.ones(4), 0.95, 1.1) is None
    body.add(HalfspaceConstraint.packing({7: 1.0}))
    with pytest.raises(DimensionMismatch):
        body.find_violated(np.ones(4), 0.95, 1.1)


def _step_peak_bytes(n: int) -> int:
    """Largest traced allocation peak of one covering step (d = 8), with
    the log and its ledger on, over a few steps after a warm-up step."""
    w = np.ones(n)
    x = FractionalPoint.zeros(n, w)
    log = MultiplierLog(w)
    rows = [HalfspaceConstraint.covering({8 * k + j: 1.0 + j for j in range(8)})
            for k in range(6)]
    project_and_record(x, rows[0], 0.5, log)
    peaks = []
    for row in rows[1:]:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            project_and_record(x, row, 0.5, log)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    return max(peaks)


def test_step_allocation_does_not_grow_with_the_dimension():
    small = _step_peak_bytes(10**3)
    large = _step_peak_bytes(10**6)
    # a copy of the point alone would be 8 MB at n = 1e6
    assert large <= small + 1024
    assert large < 64 * 1024
