"""The multiplier log's per-coordinate view against the incremental
tracker it replaced (tests/oracles.py), and how often it is built."""

import numpy as np
import pytest

from bodychase import (
    FractionalPoint,
    HalfspaceConstraint,
    Kind,
    MultiplierLog,
    certify_run,
    project_and_record,
)
from bodychase import certify

from oracles import (
    IncrementalLog,
    appearances,
    coeff_matrices,
    random_mixed_stream,
    stream_from_log,
)
from test_certify_sparse import stream_with_freezes


def assert_view_matches(log, ref):
    view = log.entries()
    assert view.horizon == log.horizon == ref.horizon
    assert view.sparsity == ref.sparsity
    assert view.aspect_ratio == ref.aspect_ratio
    assert view.freeze_count == ref.freeze_count
    assert list(appearances(view)) == sorted(ref.appearances)
    assert {i: times.tolist() for i, times in appearances(view).items()} == ref.appearances
    cmax = np.zeros(log.n)
    cmax[view.coord] = view.cmax
    np.testing.assert_array_equal(cmax, ref.coeff_max())
    _, _, y, z = coeff_matrices(log)
    np.testing.assert_array_equal(view.y, y)
    np.testing.assert_array_equal(view.z, z)


def replay_checked(source):
    """Append `source`'s steps to a fresh log and to the incremental
    tracker, comparing the view to the tracker after every append."""
    log, ref = MultiplierLog(source.weights), IncrementalLog(source.weights)
    assert_view_matches(log, ref)
    for step, item in zip(source.steps, stream_from_log(source)):
        for target in (log, ref):
            if step.kind is Kind.FREEZE:
                target.append_freeze(step.indices, step.x_before, step.x_after)
            else:
                target.append_projection(item, step.multiplier, step.x_before, step.x_after)
        assert_view_matches(log, ref)
    return log


def test_empty_log_view():
    view = MultiplierLog(np.ones(3)).entries()
    assert (view.sparsity, view.aspect_ratio, view.freeze_count) == (0, 0.0, 0)
    assert appearances(view) == {}
    assert view.coord.size == view.y.size == view.z.size == 0


@pytest.mark.parametrize("eps", [0.25, 1.0])
def test_view_matches_incremental_tracker(eps):
    rng = np.random.default_rng(int(eps * 100) + 11)
    for _ in range(15):
        n = int(rng.integers(2, 9))
        log, _, _, _ = random_mixed_stream(rng, n, int(rng.integers(1, 41)), eps)
        replay_checked(log)


@pytest.mark.parametrize("eps", [0.25, 1.0])
def test_view_matches_incremental_tracker_with_freezes(eps):
    rng = np.random.default_rng(int(eps * 100) + 12)
    for _ in range(15):
        log = stream_with_freezes(rng, int(rng.integers(2, 9)), int(rng.integers(4, 41)), eps)
        assert replay_checked(log).entries().freeze_count > 0


def test_certify_run_builds_the_view_once(monkeypatch):
    builds = []

    class Counted(certify._Entries):
        def __init__(self, steps):
            builds.append(len(steps))
            super().__init__(steps)

    monkeypatch.setattr(certify, "_Entries", Counted)
    rng = np.random.default_rng(13)
    w = np.ones(6)
    x, log = FractionalPoint.zeros(6, w), MultiplierLog(w)

    def chase(rows):
        for _ in range(rows):
            sup = rng.choice(6, size=3, replace=False)
            row = HalfspaceConstraint.covering({int(i): float(rng.uniform(1.0, 4.0)) for i in sup})
            project_and_record(x, row, 0.5, log)

    chase(30)
    summary = certify_run(log, 0.5)
    assert summary["refined_bound"] is not None  # both certificates ran
    assert builds == [log.horizon]
    certify_run(log, 0.5)
    assert builds == [log.horizon]
    before = log.horizon
    while log.horizon == before:
        chase(1)
    certify_run(log, 0.5)
    assert builds == [before, log.horizon]
    freezing = stream_with_freezes(rng, 5, 20, 0.5)
    certify_run(freezing, 0.5)
    assert builds == [before, log.horizon, freezing.horizon]
