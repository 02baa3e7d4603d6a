"""Rows with one rate c_i / w_i take core's closed-form KL step, one
rescale of the support. It is checked against the Newton root finder alone
(tests/oracles.py) on random one-rate rows and on the rows that matching,
set cover and spanning tree replays project; and guarded, so that those
rows never reach the root finder while a row with two rates still does."""

import json

import numpy as np
import pytest

from bodychase import FractionalPoint, HalfspaceConstraint, Kind, core
from bodychase.adapters import SetCoverState
from bodychase.runner import RunConfig, run_problem

from oracles import newton_project

REL = 1e-12


def project(x, row, eps):
    if row.kind is Kind.COVERING:
        return core.project_covering(x, row, eps)
    return core.project_packing(x, row, eps)


def one_rate(x, row) -> bool:
    rate = row.coeffs / x.weights[row.indices]
    return rate.max() == rate.min()


def assert_matches_newton(new, x, row, eps):
    ref = newton_project(x, row, eps)
    assert new.iterations == 1
    assert new.multiplier == pytest.approx(ref.multiplier, rel=REL, abs=0.0)
    np.testing.assert_allclose(new.x_after, ref.point.values[row.indices], rtol=REL, atol=0.0)
    assert new.residual <= 1e-14


def one_rate_case(rng, kind, eps):
    """A violated row of support 1..8 whose weights are its coefficients
    times one power of two, so every rate c_i / w_i is the same float."""
    d = int(rng.integers(1, 9))
    n = d + int(rng.integers(0, 4))
    sup = rng.choice(n, size=d, replace=False)
    coeffs = rng.uniform(0.25, 4.0, size=d)
    w = rng.uniform(0.5, 2.0, size=n)
    w[sup] = coeffs * 2.0 ** int(rng.integers(-3, 4))
    x = rng.uniform(0.0, 1.0, size=n)
    x[rng.random(n) < 0.3] = 0.0
    row = HalfspaceConstraint(kind, dict(zip(sup.tolist(), coeffs.tolist())))
    value = row.value_at(x)
    if kind is Kind.COVERING:
        if value > 0.0:
            x *= rng.uniform(0.0, 0.9) / value
    else:
        if value == 0.0:
            x[sup[0]] = 1.0
        x *= rng.uniform(1.05, 3.0) * (1.0 + eps) / row.value_at(x)
    return FractionalPoint(x, w), row


@pytest.mark.parametrize("kind, eps", [
    (Kind.COVERING, 0.05), (Kind.COVERING, 0.5), (Kind.COVERING, 1.0),
    # covering rows need eps > 0; packing rows also take eps = 0
    (Kind.PACKING, 0.0), (Kind.PACKING, 0.05), (Kind.PACKING, 0.5), (Kind.PACKING, 1.0),
])
def test_random_one_rate_rows_match_the_newton_step(kind, eps):
    rng = np.random.default_rng([14, int(100 * eps), kind is Kind.COVERING])
    sizes = set()
    for _ in range(150):
        x, row = one_rate_case(rng, kind, eps)
        assert one_rate(x, row)
        assert_matches_newton(project(x, row, eps), x, row, eps)
        sizes.add(row.sparsity)
    assert sizes == set(range(1, 9))


def churn(rng, pool, updates, live, keep=()):
    """(op, item) events over `pool`: inserts until `live` items are in,
    then a random delete or insert per update. Items in `keep` are taken
    as inserted already, and stay."""
    current, events = list(keep), []
    for _ in range(updates):
        gone = [e for e in pool if e not in current]
        removable = [e for e in current if e not in keep]
        if removable and (len(current) >= live or not gone):
            item = removable[int(rng.integers(len(removable)))]
            current.remove(item)
            events.append(("delete", item))
        else:
            item = gone[int(rng.integers(len(gone)))]
            current.append(item)
            events.append(("insert", item))
    return events


def matching_replay(tmp_path, seed):
    rng = np.random.default_rng([14, seed])
    pool = [(u, 3 + v) for u in range(3) for v in range(3)]
    lines = [{"problem": "matching", "n": 6}]
    lines += [{"op": op, "u": u, "v": v} for op, (u, v) in churn(rng, pool, 40, 6)]
    return write(tmp_path / ("matching-%d.jsonl" % seed), lines)


def setcover_replay(tmp_path, seed):
    rng = np.random.default_rng([14, seed])
    sets = [{"cost": round(float(rng.uniform(0.5, 3.0)), 3),
             "elements": sorted(rng.choice(12, size=4, replace=False).tolist())}
            for _ in range(8)]
    pool = sorted(set().union(*(s["elements"] for s in sets)))
    lines = [{"problem": "setcover", "sets": sets}]
    lines += [{"op": op, "element": u} for op, u in churn(rng, pool, 40, 7)]
    return write(tmp_path / ("setcover-%d.jsonl" % seed), lines)


def mst_replay(tmp_path, seed):
    rng = np.random.default_rng([14, seed])
    path = [(i, i + 1) for i in range(4)]
    pool = path + [(u, v) for u in range(5) for v in range(u + 2, 5)]
    cost = {e: round(float(rng.uniform(0.5, 3.0)), 3) for e in pool}
    # the path's edges are never deleted, so the graph stays connected
    events = [("insert", e) for e in path] + churn(rng, pool, 40, 6, keep=path)
    lines = [{"problem": "mst", "vertices": list(range(5))}]
    lines += [{"op": op, "u": u, "v": v, **({"cost": cost[(u, v)]} if op == "insert" else {})}
              for op, (u, v) in events]
    return write(tmp_path / ("mst-%d.jsonl" % seed), lines)


def write(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return str(path)


# (replay, rounding, files): enough files for at least 20 one-rate covering rows
REPLAYS = [(matching_replay, "on", 1), (setcover_replay, "det", 3), (mst_replay, "on", 8)]


@pytest.mark.parametrize("replay, round_mode, files", REPLAYS)
def test_replay_rows_match_the_newton_step(monkeypatch, tmp_path, replay, round_mode, files):
    checked = []
    for name in ("project_covering", "project_packing"):
        def checking(x, row, eps, value=None, _project=getattr(core, name)):
            new = _project(x, row, eps, value)
            if one_rate(x, row):
                assert_matches_newton(new, x, row, eps)
                checked.append(row.kind)
            return new
        monkeypatch.setattr(core, name, checking)
    for seed in range(files):
        run_problem(RunConfig(round_mode=round_mode, certify=False, offline=False),
                    replay(tmp_path, seed))
    assert checked.count(Kind.COVERING) >= 20
    if replay is matching_replay:
        assert checked.count(Kind.PACKING) >= 20


class EnteredRoot(Exception):
    pass


@pytest.fixture
def no_root(monkeypatch):
    def refuse(*args):
        raise EnteredRoot
    monkeypatch.setattr(core, "_root", refuse)


def test_one_rate_rows_never_enter_the_root_finder(no_root, tmp_path):
    records = run_problem(RunConfig(round_mode="on", certify=False, offline=False),
                          matching_replay(tmp_path, 0))
    projections = sum(r.get("projections", 0) for r in records if r["kind"] == "update")
    assert projections > 20
    assert records[-1]["rootfind_iterations"] == projections

    state = SetCoverState([1.0, 2.0, 1.5, 1.0], [{0, 1}, {1, 2, 3}, {0, 3}, {2, 3}])
    x = FractionalPoint([0.1, 0.2, 0.0, 0.3])
    for row in state.rows.values():
        assert project(x, row, 0.5).iterations == 1

    rng = np.random.default_rng(1)
    for _ in range(50):
        x = FractionalPoint(rng.uniform(0.0, 1.0, size=3), rng.uniform(0.5, 2.0, size=3))
        i, c = int(rng.integers(3)), float(rng.uniform(0.25, 4.0))
        x.values[i] = rng.uniform(0.0, 0.9) / c
        assert project(x, HalfspaceConstraint.covering({i: c}), 0.5).iterations == 1
        x.values[i] = rng.uniform(1.05, 3.0) * 1.25 / c
        assert project(x, HalfspaceConstraint.packing({i: c}), 0.25).iterations == 1


def test_a_row_with_two_rates_still_enters_the_root_finder(no_root):
    x = FractionalPoint([0.1, 0.2], [1.0, 2.0])
    with pytest.raises(EnteredRoot):
        project(x, HalfspaceConstraint.covering({0: 1.0, 1: 1.0}), 0.5)
    with pytest.raises(EnteredRoot):
        project(FractionalPoint([2.0, 2.0], [1.0, 2.0]),
                HalfspaceConstraint.packing({0: 1.0, 1: 1.0}), 0.25)
