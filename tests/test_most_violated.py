"""A body's oracle picks its most violated row.

`PositiveBody.find_violated` returns the covering row of smallest value
below the floor, else the separator's row, else the packing row of
largest value above the ceiling, ties to the row listed first. It is held
to a brute-force reference (`oracles.most_violated`). The rule it replaced,
first violated row in body order, is kept as `oracles.first_violated`:
against it the new rule must project far less often on the benchmark's
matching churns at a small price in recourse, and must leave the runs it
cannot touch (the tree's separated body, a raw stream) byte for byte.
"""

import importlib.util
import statistics
from pathlib import Path

import numpy as np
import pytest

from bodychase.core import HalfspaceConstraint, Kind, PositiveBody
from bodychase.formats import dump_records, parse_stream, parse_updates
from bodychase.runner import RunConfig, run_chase, run_problem

from oracles import first_violated, most_violated

_spec = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

FLOOR, CEILING = 0.75, 1.25


def random_row(rng, kind, n):
    support = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)
    # coefficients from a small grid, so distinct rows often share a value
    return HalfspaceConstraint(kind, {int(i): float(rng.choice([0.5, 1.0, 2.0])) for i in support})


def random_body(rng, n):
    """Listed rows, sometimes one of them twice, sometimes a separator.
    Most bodies list a few rows, as matching's do; some list as many as
    set cover's."""
    count = int(rng.integers(0, 9)) if rng.random() < 0.8 else int(rng.integers(30, 50))
    rows = [random_row(rng, Kind.COVERING if rng.random() < 0.5 else Kind.PACKING, n)
            for _ in range(count)]
    if rows and rng.random() < 0.3:
        rows.append(rows[int(rng.integers(len(rows)))])  # the same row twice: an exact tie
    separate = None
    if rng.random() < 0.4:
        cut = random_row(rng, Kind.COVERING, n)

        def separate(values, floor, ceiling):
            return cut if cut.value_at(values) < floor else None

    return PositiveBody([r for r in rows if r.kind is Kind.COVERING],
                        [r for r in rows if r.kind is Kind.PACKING], separate=separate)


def asked_three_times(rng, draw):
    """(body, values) for 300 random bodies, each asked at three points, as
    a chase asks one body again after every step."""
    for _ in range(300):
        n = int(rng.integers(1, 8))
        body = random_body(rng, n)
        for _ in range(3):
            yield body, draw(n)


def test_on_exact_values_find_violated_returns_the_brute_force_row():
    rng = np.random.default_rng(23)
    seen = {"covering": 0, "separated": 0, "packing": 0, "none": 0, "tie": 0, "long": 0}
    # values on a grid of quarters: sums are exact, so ties are exact too
    for body, values in asked_three_times(rng, lambda n: rng.choice([0.0, 0.25, 0.5, 0.75], size=n)):
        want = most_violated(body, values, FLOOR, CEILING)
        got = body.find_violated(values, FLOOR, CEILING)
        assert got is want
        if got is None:
            seen["none"] += 1
        elif got in body.separated:
            assert body.value is None
            seen["separated"] += 1
        else:
            assert body.value == got.value_at(values)
            listed = body.covering if got in body.covering else body.packing
            seen["covering" if listed is body.covering else "packing"] += 1
            ties = [r for r in listed if r.value_at(values) == body.value]
            assert ties[0] is got
            seen["tie"] += len(ties) > 1
            seen["long"] += len(listed) > 8  # only a long body lists more
    assert min(seen.values()) >= 10, seen


def test_on_any_values_find_violated_returns_the_brute_force_row():
    # each row is ranked and tested by its own dot product, so values that
    # differ only in their last bits still order one way
    rng = np.random.default_rng(2323)
    for body, values in asked_three_times(rng, lambda n: rng.uniform(0.0, 0.8, size=n)):
        want = most_violated(body, values, FLOOR, CEILING)
        got = body.find_violated(values, FLOOR, CEILING)
        assert got is want
        if got is not None and body.value is not None:
            assert body.value == got.value_at(values)


def test_the_packing_scan_keeps_the_largest_value_and_the_first_of_equals():
    a = HalfspaceConstraint.packing({0: 1.0})
    b = HalfspaceConstraint.packing({0: 1.0, 1: 1.0})
    c = HalfspaceConstraint.packing({1: 1.0, 2: 1.0})
    body = PositiveBody(packing=[a, b, c])
    values = np.array([1.0, 0.5, 0.5])
    assert body.find_violated(values, FLOOR, CEILING) is b and body.value == 1.5
    assert first_violated(body, values, FLOOR, CEILING) is b
    values = np.array([1.5, 0.0, 1.5])
    assert body.find_violated(values, FLOOR, CEILING) is a and body.value == 1.5


def bench_matching(seed, j):
    """Input file j of the benchmark's matching workload for `seed`, parsed."""
    rng = np.random.default_rng([seed, j])
    return parse_updates(gen.matching_text(rng, left=4, right=4, live=8, updates=120).splitlines())


def replay_totals(updates):
    records = run_problem(RunConfig(problem="matching", certify=False, offline=False), updates)
    return (sum(r.get("projections", 0) for r in records), records[-1]["upward_recourse"])


def test_most_violated_projects_a_quarter_less_than_first_violated_on_matching(monkeypatch):
    files = [bench_matching(1, j) for j in range(6)]
    new = [replay_totals(u) for u in files]
    monkeypatch.setattr(PositiveBody, "find_violated", first_violated)
    old = [replay_totals(u) for u in files]
    assert sum(p for p, _ in new) <= 0.75 * sum(p for p, _ in old)
    recourse_new = statistics.median(r for _, r in new)
    recourse_old = statistics.median(r for _, r in old)
    assert recourse_new <= 1.05 * recourse_old


def mst_replay():
    rng = np.random.default_rng([1, 3])
    return parse_updates(gen.mst_text(rng, vertices=6, live=8, updates=40).splitlines())


def chase_stream():
    rng = np.random.default_rng([1, 0])
    return parse_stream(gen.stream_text(rng, n=30, rows=40, d=4, pack_share=0.3).splitlines())


@pytest.mark.parametrize("run", [
    lambda: run_problem(RunConfig(problem="mst", round_mode="on"), mst_replay()),
    lambda: run_chase(RunConfig(), chase_stream()),
], ids=["mst", "stream"])
def test_runs_the_rule_cannot_move_are_byte_identical_under_first_violated(run, monkeypatch):
    report = dump_records(run())
    monkeypatch.setattr(PositiveBody, "find_violated", first_violated)
    assert dump_records(run()) == report
