"""Matching rounding: copy counts, case split, maintained matching."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bodychase import runner
from bodychase.adapters import MatchingState, matching_body
from bodychase.core import FractionalPoint, chase_body
from bodychase.graphs import build_adjacency, maximum_matching, shortest_augmenting_path
from bodychase.round_matching import (
    MaintainedMatching,
    Stabilizer,
    kappa_copies,
    maintain_matching,
    stabilizer_step,
)

from bodychase.runner import RunConfig, run_problem

from oracles import ColdMaintainedMatching, fresh_copy_counts

_spec = importlib.util.spec_from_file_location(
    "bench_gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def test_kappa_arithmetic():
    # 100 * (1+4) * ln(16) / 0.25 = 2000 ln 16 = 5545.177...
    assert kappa_copies(1.0, 0.5, 16) == 5546
    assert kappa_copies(1.0, 1.0, 2) == 100 * 5 * np.log(2) // 1 + 1


def test_empty_point_empty_stabilizer():
    inst = MatchingState()
    inst.insert("a", "b")
    stab = Stabilizer(inst, alpha=1.0, delta=0.5, n=4, seed=3)
    support, inserted, deleted = stabilizer_step(np.zeros(1), stab)
    assert support == set() and inserted == [] and deleted == []
    assert stab.case == "a"


def test_saturated_edge_all_copies():
    inst = MatchingState()
    inst.insert("a", "b")
    stab = Stabilizer(inst, alpha=1.0, delta=0.5, n=4, seed=3)
    support, inserted, _ = stabilizer_step(np.ones(1), stab)
    assert support == {("a", "b")} and inserted == [("a", "b")]
    assert stab.counts[("a", "b")] == stab.kappa
    # kappa <= (1+delta) kappa, so the degree test stays in case a
    assert stab.case == "a"
    assert stab.copy_step_recourse == stab.kappa


def test_copy_count_matches_thresholds():
    inst = MatchingState()
    inst.insert(0, 1)
    stab = Stabilizer(inst, alpha=1.0, delta=1.0, n=4, seed=11)
    th = stab._sorted_thresholds((0, 1))
    for v in [0.0, float(th[0]), 0.3, 0.9, 1.0]:
        assert stab.copy_count((0, 1), v) == int((th < v).sum())


def test_insert_both_free_matches_immediately():
    mm = MaintainedMatching(delta=0.5)
    assert mm.apply_unit("insert", ("a", "b")) == 1
    assert mm.matched_pairs() == [("a", "b")]


def test_delete_matched_edge_then_augment():
    mm = MaintainedMatching(delta=0.5)
    mm.apply_unit("insert", ("b", "c"))
    mm.apply_unit("insert", ("a", "b"))
    assert mm.matched_pairs() == [("b", "c")]
    changed = mm.apply_unit("delete", ("b", "c"))
    # forced drop plus the length-1 augmentation through (a, b)
    assert changed == 2
    assert mm.matched_pairs() == [("a", "b")]


def test_k1_middle_matched_path_is_stable():
    mm = MaintainedMatching(delta=1.0)
    assert mm.k == 1
    mm.apply_unit("insert", ("b", "c"))
    mm.apply_unit("insert", ("a", "b"))
    mm.apply_unit("insert", ("c", "d"))
    # middle edge matched; the length-3 augmenting path is out of reach
    assert mm.matched_pairs() == [("b", "c")]
    adj = build_adjacency(mm.edges)
    assert shortest_augmenting_path(adj, mm.matching, 1) is None
    assert shortest_augmenting_path(adj, mm.matching, 3) is not None


def grow_dimension(x, dim):
    if x.dim == dim:
        return x
    values = np.zeros(dim)
    values[: x.dim] = x.values
    return FractionalPoint(values, np.ones(dim))


def drive_matching_pipeline(seed, delta, T=30, n=10):
    """Random inserts and deletes; chase the body, stabilize, maintain."""
    rng = np.random.default_rng(seed)
    inst = MatchingState()
    stab = Stabilizer(inst, alpha=1.0, delta=delta, n=n, seed=seed)
    mm = MaintainedMatching(delta)
    left = [("L", i) for i in range(n // 2)]
    right = [("R", i) for i in range(n // 2)]
    x_vals = np.zeros(0)
    per_update_recourse = []
    for _ in range(T):
        if inst.live and rng.random() < 0.3:
            u, v = sorted(inst.live)[int(rng.integers(len(inst.live)))]
            inst.delete(u, v)
        else:
            u = left[int(rng.integers(len(left)))]
            v = right[int(rng.integers(len(right)))]
            if (min(u, v), max(u, v)) in inst.live:
                continue
            inst.insert(u, v)
        dim = inst.dimension
        vals = np.zeros(dim)
        vals[: x_vals.shape[0]] = x_vals
        for c in (inst.coords[e] for e in inst.coords if e not in inst.live):
            vals[c] = 0.0
        x = FractionalPoint(vals, np.ones(dim))
        body = matching_body(inst, beta=1.0).body()
        x, _ = chase_body(x, body.find_violated, delta=0.5)
        x_vals = x.values
        _, inserted, deleted = stabilizer_step(x_vals, stab)
        for unit in maintain_matching(inserted, deleted, mm):
            per_update_recourse.append(unit)
        # invariants after each batch
        assert mm.edges == stab.support
        adj = build_adjacency(mm.edges)
        assert shortest_augmenting_path(adj, mm.matching, mm.max_path_edges) is None
        mu = len(maximum_matching(sorted(stab.support))) // 2
        assert mm.size() >= (1 - delta) * mu - 1e-12
    return per_update_recourse, mm, stab


@pytest.mark.parametrize("delta", [0.5, 1.0])
def test_pipeline_invariants_hold(delta):
    per_unit, mm, stab = drive_matching_pipeline(5, delta)
    bound = 2 * mm.k + 1
    assert all(r <= bound for r in per_unit)
    assert stab.case == "a"


def test_case_b_fallback_uses_maximum_matching():
    # force case b with a tiny kappa by inflating degrees artificially:
    # a star of many edges, all saturated, overloads the center vertex
    inst = MatchingState()
    hub = ("L", 0)
    for i in range(6):
        inst.insert(hub, ("R", i))
    stab = Stabilizer(inst, alpha=1.0, delta=0.5, n=4, seed=1)
    values = np.ones(inst.dimension)
    support, _, _ = stabilizer_step(values, stab)
    # center degree 6 kappa > (1.5) kappa
    assert stab.case == "b"
    assert len(stab.fallback) == 1
    assert stab.fallback <= support


@pytest.mark.parametrize("delta", [0.3, 0.5, 1.0])
def test_kept_adjacency_follows_every_unit(delta):
    # even vertices on one side, odd on the other: the colour-0 side of each
    # component of H is the side of its smallest vertex, so the side the
    # searches start from changes as H changes; the repair must match the
    # one that rebuilds and re-colours H for every search, unit by unit
    rng = np.random.default_rng(2204)
    pool = [(u, v) for u in range(0, 10, 2) for v in range(1, 10, 2)]
    mm, cold = MaintainedMatching(delta), ColdMaintainedMatching(delta)
    for _ in range(600):
        live = sorted(mm.edges)
        if live and rng.random() < 0.45:
            op, edge = "delete", live[int(rng.integers(len(live)))]
        else:
            op, edge = "insert", pool[int(rng.integers(len(pool)))]  # may be live: a no-op
        if rng.random() < 0.05:
            op = "delete" if op == "insert" else "insert"  # absent deletes, repeated inserts
        assert mm.apply_unit(op, edge[::-1]) == cold.apply_unit(op, edge)
        assert mm.adj == build_adjacency(mm.edges)
        assert mm.edges == cold.edges and mm.matching == cold.matching
        assert shortest_augmenting_path(mm.adj, mm.matching, mm.max_path_edges) is None
    assert mm.recourse_total == cold.recourse_total > 0


def test_pipeline_keeps_the_adjacency_of_the_support():
    inst = MatchingState()
    stab = Stabilizer(inst, alpha=1.0, delta=0.5, n=8, seed=7)
    mm = MaintainedMatching(0.5)
    rng = np.random.default_rng(2205)
    for _ in range(40):
        u, v = ("L", int(rng.integers(4))), ("R", int(rng.integers(4)))
        (inst.delete if (u, v) in inst.live else inst.insert)(u, v)
        values = rng.uniform(0.0, 1.0, size=inst.dimension)
        _, inserted, deleted = stabilizer_step(values, stab)
        maintain_matching(inserted, deleted, mm)
        assert mm.edges == stab.support
        assert mm.adj == build_adjacency(stab.support)


def test_the_copy_count_is_refused_past_its_cap():
    from bodychase.adapters import AdapterError
    from bodychase.round_matching import MAX_COPIES

    # delta 0.02 at n = 1000 fits; alpha 1e6 at n = 6 would ask for 716,706,655
    assert kappa_copies(1.0, 0.02, 1000) == 8634695 <= MAX_COPIES
    for alpha, delta in [(1e6, 0.5), (1e300, 0.5), (1.0, 1e-160), (1.0, 1e-300)]:
        with pytest.raises(AdapterError, match="threshold copies per edge"):
            kappa_copies(alpha, delta, 6)


def test_kept_counts_equal_a_fresh_copy_count_on_every_update(monkeypatch, tmp_path):
    # replays of the benchmark's generator, where most updates move no
    # coordinate, and a churn under random points that move some of them
    real, searches, visits = stabilizer_step, [], []
    copy_count = Stabilizer.copy_count

    def counted(stab, edge, value):
        searches[-1] += 1
        return copy_count(stab, edge, value)

    def checked(values, stab):
        before, want = dict(stab.counts), fresh_copy_counts(stab, values)
        searches.append(0)
        visits.append(len(stab.instance.live))
        with monkeypatch.context() as m:
            m.setattr(Stabilizer, "copy_count", counted)
            out = real(values, stab)
        assert stab.counts == want and list(stab.counts) == list(want)
        assert stab.copy_step_recourse == sum(abs(want.get(e, 0) - before.get(e, 0))
                                              for e in want.keys() | before.keys())
        return out

    monkeypatch.setattr(runner, "stabilizer_step", checked)
    for seed in range(3):
        path = tmp_path / "m.jsonl"
        path.write_text(gen.matching_text(np.random.default_rng([25, seed]), 4, 4, 8, 60))
        run_problem(RunConfig(round_mode="on", offline=False, certify=False), str(path))
    assert len(searches) == 180 and sum(searches) < sum(visits) / 2

    inst = MatchingState()
    stab = Stabilizer(inst, alpha=1.0, delta=0.5, n=8, seed=7)
    rng = np.random.default_rng(2505)
    values = np.zeros(0)
    cases = set()
    for _ in range(200):
        u, v = ("L", int(rng.integers(4))), ("R", int(rng.integers(4)))
        (inst.delete if (u, v) in inst.live else inst.insert)(u, v)
        grown = np.zeros(inst.dimension)
        grown[: values.shape[0]] = values
        moved = rng.random(inst.dimension) < 0.3
        grown[moved] = rng.choice([0.0, -0.0, 0.2, 0.9, 1.0], size=int(moved.sum()))
        values = grown
        checked(values, stab)
        cases.add(stab.case)
    assert cases == {"a", "b"}
