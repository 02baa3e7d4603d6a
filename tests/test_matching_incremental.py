"""Matching's adapter keeps its maximum matching and its vertex rows between
updates; here it is replayed against the cold adapter it replaced
(`oracles.cold_matching_body`), which rebuilds both from the live graph.
Every update's body, and every report, must come out the same."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from bodychase import runner
from bodychase.adapters import AdapterError, MatchingState, matching_body
from bodychase.core import FractionalPoint, HalfspaceConstraint, project_and_record
from bodychase.graphs import build_adjacency, two_color
from bodychase.runner import RunConfig, _Run, run_problem

from oracles import cold_matching_body

_spec = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def assert_same_body(warm, cold):
    assert warm.opt == cold.opt
    assert warm.frozen == cold.frozen
    assert (len(warm.covering), len(warm.packing)) == (len(cold.covering), len(cold.packing))
    for a, b in zip(warm.rows(), cold.rows()):
        assert a.kind is b.kind
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.coeffs, b.coeffs)


class Twins:
    """Two states fed the same events, one read by each adapter."""

    def __init__(self, beta):
        self.warm, self.cold, self.beta = MatchingState(), MatchingState(), beta

    def apply(self, op, u, v) -> bool:
        """Apply one event to both states and compare their bodies; returns
        whether the states took it (both must agree)."""
        taken = []
        for state in (self.warm, self.cold):
            try:
                getattr(state, op)(u, v)
                taken.append(True)
            except AdapterError:
                taken.append(False)
        assert taken[0] == taken[1]
        assert_same_body(matching_body(self.warm, self.beta),
                         cold_matching_body(self.cold, self.beta))
        # the kept matching is a matching of live edges
        kept = self.warm.matching
        assert all(kept[kept[v]] == v and tuple(sorted((v, kept[v]))) in self.warm.live
                   for v in kept)
        return taken[0]


@pytest.mark.parametrize("beta", [1.0, 0.5])
@pytest.mark.parametrize("sizes", [(3, 3, 5, 60), (4, 4, 8, 120), (2, 5, 6, 80)])
def test_bench_churns_give_the_cold_adapters_bodies(beta, sizes):
    for seed in range(3):
        lines = gen.matching_text(np.random.default_rng([22, seed]), *sizes).splitlines()
        twins = Twins(beta)
        for line in lines[1:]:
            event = json.loads(line)
            assert twins.apply(event["op"], event["u"], event["v"])


def test_a_3x3_churn_with_odd_cycles_gives_the_cold_adapters_bodies():
    # any pair of six vertices may be tried, so inserts that would close an
    # odd cycle are refused; matched edges are deleted on purpose, and dead
    # edges come back
    rng = np.random.default_rng(2203)
    twins = Twins(1.0)
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    seen = dict.fromkeys(("refused", "matched deletes", "reinserts"), 0)
    for _ in range(400):
        warm, draw, again = twins.warm, rng.random(), False
        matched = sorted({tuple(sorted(p)) for p in warm.matching.items()})
        if matched and draw < 0.3:
            op, (u, v) = "delete", matched[int(rng.integers(len(matched)))]
            seen["matched deletes"] += 1
        elif warm.live and draw < 0.45:
            live = sorted(warm.live)
            op, (u, v) = "delete", live[int(rng.integers(len(live)))]
        else:
            dead = [p for p in pairs if p not in warm.live]
            op, (u, v) = "insert", dead[int(rng.integers(len(dead)))]
            again = (u, v) in warm.coords
        taken = twins.apply(op, u, v)
        seen["refused"] += not taken
        seen["reinserts"] += taken and op == "insert" and again
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize("seed, offline", [(0, False), (1, False), (2, True)])
def test_a_report_equals_the_cold_adapters_report(monkeypatch, tmp_path, seed, offline):
    path = tmp_path / "matching.jsonl"
    path.write_text(gen.matching_text(np.random.default_rng([22, seed]), 3, 4, 6, 50))
    config = RunConfig(round_mode="on", offline=offline)
    warm = run_problem(config, str(path))
    monkeypatch.setattr(runner, "matching_body", cold_matching_body)
    cold = run_problem(config, str(path))
    assert json.dumps(warm) == json.dumps(cold)
    assert sum(r.get("projections", 0) for r in warm) > 0


def vertex_rows(state) -> dict:
    """Each vertex's packing row in the state's next body."""
    body = matching_body(state, 1.0)
    vertices = sorted({v for e in state.live for v in e})
    assert len(vertices) == len(body.packing)
    return dict(zip(vertices, body.packing))


def test_a_vertex_keeps_its_row_while_its_incidence_is_unchanged():
    state = MatchingState()
    for u, v in [(0, 3), (1, 3), (2, 4)]:
        state.insert(u, v)
    before = vertex_rows(state)
    state.insert(2, 5)  # touches 2 and the new 5
    after = vertex_rows(state)
    assert all(after[v] is before[v] for v in (0, 1, 3, 4))
    assert after[2] is not before[2]
    assert after[2].as_dict() == {state.coords[(2, 4)]: 1.0, state.coords[(2, 5)]: 1.0}
    state.delete(1, 3)  # 1 leaves, 3 loses an edge
    again = vertex_rows(state)
    assert 1 not in again and again[3] is not after[3]
    assert again[3].as_dict() == {state.coords[(0, 3)]: 1.0}
    assert all(again[v] is after[v] for v in (0, 2, 4, 5))
    # a refused insert changes nothing
    with pytest.raises(AdapterError):
        state.insert(4, 5)  # closes the triangle 2-4-5
    assert all(vertex_rows(state)[v] is again[v] for v in again)


def test_a_kept_row_recomputes_its_constants_after_the_run_grows():
    state = MatchingState()
    state.insert(0, 3)
    state.insert(1, 3)
    run = _Run(RunConfig(round_mode="on"), np.ones(state.dimension), [])
    row = vertex_rows(state)[0]
    run.x.values[:] = 2.0  # above every packing row
    project_and_record(run.x, row, run.eps, run.log)
    old = run.x.weights
    assert row._constants.weights is old
    state.insert(2, 4)
    run.grow(state.dimension)
    assert vertex_rows(state)[0] is row and run.x.weights is not old
    run.x.values[:] = 2.0
    fresh = FractionalPoint(run.x.values, run.x.weights)
    _, res = project_and_record(run.x, row, run.eps, run.log)
    assert row._constants.weights is run.x.weights
    _, new = project_and_record(fresh, HalfspaceConstraint.packing(row.as_dict()), run.eps)
    assert np.array_equal(run.x.values, fresh.values)
    for a, b in [(res.x_before, new.x_before), (res.x_after, new.x_after),
                 ([res.multiplier, res.residual, res.iterations],
                  [new.multiplier, new.residual, new.iterations])]:
        assert np.array_equal(a, b)


def test_the_odd_cycle_check_on_the_touched_component_agrees_with_two_colouring():
    # the state searches from one end of a new edge only; the reference
    # two-colours every live edge plus the new one, as the adapter once did
    rng = np.random.default_rng(2304)
    seen = dict.fromkeys(("accepted", "odd cycles", "already live", "reinserts", "deletes"), 0)
    for trial in range(8):
        state, live = MatchingState(), set()
        vertices = int(rng.integers(4, 9))
        pairs = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)]
        for _ in range(150):
            u, v = pairs[int(rng.integers(len(pairs)))]
            if (u, v) in live and rng.random() < 0.6:
                state.delete(v, u)
                live.remove((u, v))
                seen["deletes"] += 1
            else:
                if (u, v) in live:
                    want = "edge %r is already live" % ((u, v),)
                    seen["already live"] += 1
                elif two_color((), sorted(live) + [(u, v)]) is None:
                    want = "edge %r would close an odd cycle" % ((u, v),)
                    seen["odd cycles"] += 1
                else:
                    want = None
                    seen["reinserts"] += (u, v) in state.coords
                if want is None:
                    state.insert(v, u)
                    live.add((u, v))
                    seen["accepted"] += 1
                else:
                    with pytest.raises(AdapterError) as caught:
                        state.insert(v, u)
                    assert str(caught.value) == want
            assert state.live == live
            assert {a: sorted(b) for a, b in state.adj.items()} == build_adjacency(live)
    assert min(seen.values()) >= 20, seen
