"""Matching's adapter keeps its maximum matching and its vertex rows between
updates; here it is replayed against the cold adapter it replaced
(`oracles.cold_matching_body`), which rebuilds both from the live graph.
Every update's body, and every report, must come out the same."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bodychase import adapters, graphs, runner
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


@pytest.mark.parametrize("label", [int, "v{}".format], ids=["int", "str"])
@pytest.mark.parametrize("batch", [1, 4])
def test_the_kept_matching_is_maximum_after_every_batch_of_ops(monkeypatch, label, batch):
    # up to `batch` ops between two optimum() calls, on every pair of a vertex
    # set, so inserts that would close an odd cycle are refused; matched edges
    # are deleted on purpose; the state never asks for a cold matching
    real, beside = adapters.shortest_augmenting_path, MatchingState._free_beside
    searches, component = [], []

    def counted(adj, matching, *args, free=None, **kwargs):
        path = real(adj, matching, *args, free=free, **kwargs)
        searches.append((any(free is f for f in component), path is not None))
        return path

    def free_beside(state, u):
        component.append(beside(state, u))
        return component[-1]

    def cold(*args, **kwargs):
        raise AssertionError("MatchingState must not rebuild its matching")

    monkeypatch.setattr(adapters, "shortest_augmenting_path", counted)
    monkeypatch.setattr(adapters, "maximum_matching", cold)
    monkeypatch.setattr(MatchingState, "_free_beside", free_beside)
    rng = np.random.default_rng([2506, batch])
    seen = dict.fromkeys(("refused", "matched deletes", "reinserts", "several ops"), 0)
    for trial in range(6):
        state = MatchingState()
        names = [label(i) for i in range(int(rng.integers(5, 10)))]
        pairs = [(names[i], names[j]) for i in range(len(names)) for j in range(i + 1, len(names))]
        for _ in range(80):
            ops = int(rng.integers(1, batch + 1))
            seen["several ops"] += ops > 1
            for _ in range(ops):
                matched = sorted({tuple(sorted(p)) for p in state.matching.items()})
                draw = rng.random()
                if matched and draw < 0.25:
                    u, v = matched[int(rng.integers(len(matched)))]
                    seen["matched deletes"] += (state.matching.get(u) == v)
                    state.delete(u, v)
                elif state.live and draw < 0.45:
                    live = sorted(state.live)
                    state.delete(*live[int(rng.integers(len(live)))])
                else:
                    u, v = pairs[int(rng.integers(len(pairs)))]
                    if tuple(sorted((u, v))) in state.live:
                        continue
                    again = tuple(sorted((u, v))) in state.coords
                    try:
                        state.insert(v, u)
                        seen["reinserts"] += again
                    except AdapterError:
                        seen["refused"] += 1
            assert state.optimum() == len(graphs.maximum_matching(sorted(state.live))) // 2
            kept = state.matching
            assert all(kept[kept[v]] == v and tuple(sorted((v, kept[v]))) in state.live
                       for v in kept)
            assert state.live_coords == sorted(state.coords[e] for e in state.live)
            assert_same_body(matching_body(state, 1.0), cold_matching_body(state, 1.0))
    assert min(seen.values()) >= (20 if batch > 1 else 0), seen
    # searches from an end of the changed edge, finding a path and not, and
    # from the free vertices of an inserted edge's component (a path through
    # the new edge is rare there: see the test below)
    assert min(searches.count(k) for k in [(False, True), (False, False), (True, False)]) >= 10


def test_an_insert_between_two_matched_ends_augments_through_it():
    # x - m1 = a and b = m2 - y, matched at m1-a and b-m2 (the edges at x and
    # y come last, so each finds no path): inserting a-b makes x-m1-a-b-m2-y
    # augmenting, from the free vertex x on a's side of the component
    state = MatchingState()
    for edge, size in [(("a", "m1"), 1), (("b", "m2"), 2), (("m1", "x"), 2), (("m2", "y"), 2)]:
        state.insert(*edge)
        assert state.optimum() == size
    assert state.matching == {"a": "m1", "m1": "a", "b": "m2", "m2": "b"}
    state.insert("a", "b")
    assert state._free_beside("a") == ["x"]
    assert state.optimum() == 3
    assert state.matching == {"x": "m1", "m1": "x", "a": "b", "b": "a", "m2": "y", "y": "m2"}


def test_a_replay_with_string_ids_writes_the_same_report_under_any_hash_seed(tmp_path):
    # vertex ids are strings, whose hashes change with PYTHONHASHSEED: every
    # kept structure must iterate in an order the updates fix
    lines = gen.matching_text(np.random.default_rng([25, 9]), 4, 4, 8, 60).splitlines()
    events = [json.loads(line) for line in lines[1:]]
    text = "\n".join(json.dumps(r) for r in [json.loads(lines[0])] + [
        {"op": e["op"], "u": "u%d" % e["u"], "v": "v%d" % e["v"]} for e in events]) + "\n"
    path = tmp_path / "m.jsonl"
    path.write_text(text)
    src = Path(__file__).resolve().parents[1] / "src"
    reports = []
    for hash_seed in ("1", "2"):
        out = tmp_path / ("r%s.jsonl" % hash_seed)
        path_var = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path_var}
        subprocess.run([sys.executable, "-m", "bodychase", "matching", str(path), "--round", "on",
                        "--report", str(out)], check=True, env=env)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1] and reports[0].count(b'"kind": "update"') == 60
