"""Adapter contracts: emitted bodies, per-step optima, rejections."""

from itertools import product

import numpy as np
import pytest

from bodychase.adapters import (
    AdapterError,
    LoadBalanceState,
    MatchingState,
    MstState,
    SetCoverState,
    UpdateEvent,
    loadbalance_body,
    matching_body,
    setcover_body,
)
from bodychase.core import FractionalPoint
from bodychase.graphs import GraphError, is_connected, kruskal_mst
from bodychase.simplex import solve_inequality_lp

from oracles import cold_cover_opt, mst_separation, random_replay
from test_graphs import brute_min_cut
from test_simplex import enumerate_vertices


def test_update_event_validates_op():
    UpdateEvent("setcover", "insert", {"element": 1})
    with pytest.raises(AdapterError):
        UpdateEvent("setcover", "upsert", {})


# ---------------------------------------------------------------- set cover


def test_setcover_two_singleton_sets():
    state = SetCoverState([1.0, 3.0], [{"u"}, {"u"}])
    state.insert("u")
    snap = setcover_body(state, beta=1.0)
    assert snap.opt == pytest.approx(1.0)
    assert len(snap.covering) == 1
    assert snap.covering[0].as_dict() == {0: 1.0, 1: 1.0}
    assert len(snap.packing) == 1
    assert snap.packing[0].as_dict() == {0: 1.0, 1: 3.0}


def test_setcover_empty_universe():
    state = SetCoverState([1.0], [{"u"}])
    snap = setcover_body(state, beta=2.0)
    assert snap.covering == [] and snap.packing == []
    assert snap.opt == 0.0


def test_setcover_rejections():
    state = SetCoverState([1.0], [{"u"}])
    with pytest.raises(AdapterError):
        state.insert("v")
    state.insert("u")
    with pytest.raises(AdapterError):
        state.insert("u")
    with pytest.raises(AdapterError):
        state.delete("w")
    with pytest.raises(AdapterError):
        setcover_body(state, beta=0.5)
    with pytest.raises(AdapterError):
        SetCoverState([0.0], [{"u"}])


def test_setcover_row_sparsity_respects_frequency():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        universe = list(range(int(rng.integers(2, 9))))
        sets = [set(u for u in universe if rng.random() < 0.5) or {universe[0]}
                for _ in range(m)]
        state = SetCoverState(rng.uniform(0.5, 3.0, size=m), sets)
        f = state.frequency()
        for u in universe:
            if state.covering_sets(u):
                state.insert(u)
        snap = setcover_body(state, beta=2.0)
        assert all(row.sparsity <= f for row in snap.covering)


def test_setcover_fractional_opt_against_vertex_enumeration():
    rng = np.random.default_rng(11)
    for trial in range(15):
        m = int(rng.integers(2, 5))
        universe = list(range(int(rng.integers(1, 5))))
        sets = []
        for _ in range(m):
            s = {u for u in universe if rng.random() < 0.6}
            sets.append(s or {int(rng.integers(len(universe)))})
        costs = rng.uniform(0.5, 2.0, size=m)
        state = SetCoverState(costs, sets)
        covered = [u for u in universe if state.covering_sets(u)]
        for u in covered:
            state.insert(u)
        if not covered:
            continue
        # independent check: optimum over vertices of the boxed LP; the
        # box x <= 1 is valid since coefficients and rhs are both 1
        A = np.array([[-1.0 if u in sets[i] else 0.0 for i in range(m)]
                      for u in covered])
        G = np.vstack([A, np.eye(m)])
        h = np.concatenate([-np.ones(len(covered)), np.ones(m)])
        best = min(costs @ v for v in enumerate_vertices(G, h))
        assert state.fractional_opt() == pytest.approx(best, abs=1e-7), trial


def test_setcover_warm_dual_matches_cold_primal_under_churn():
    # every update against a cold solve of the primal cover LP, on set
    # systems with identical sets, equal costs and elements held by one set
    rng = np.random.default_rng(606)
    warm_pivots = cold_pivots = cold_dual_pivots = 0
    for trial in range(12):
        m = int(rng.integers(3, 13))
        universe = list(range(int(rng.integers(4, 16))))
        sets = [{u for u in universe if rng.random() < 0.35} for _ in range(m - 1)]
        sets.append(set(sets[int(rng.integers(m - 1))]))
        sets[int(rng.integers(m))].add(len(universe))
        costs = rng.choice([1.0, 1.5, 2.0], size=m)
        state = SetCoverState(costs, sets)
        covered = [u for u in universe + [len(universe)] if state.covering_sets(u)]
        for step in range(60):
            u = covered[int(rng.integers(len(covered)))]
            (state.delete if u in state.live else state.insert)(u)
            opt, pivots = cold_cover_opt(state)
            assert state.fractional_opt() == pytest.approx(opt, rel=1e-9, abs=1e-12), \
                (trial, step)
            warm_pivots += state.lp_pivots
            cold_pivots += pivots
            if state.live:
                dual = np.zeros((m, len(state.live)))
                for j, u in enumerate(sorted(state.live)):
                    dual[list(state.covering_sets(u)), j] = 1.0
                cold_dual_pivots += solve_inequality_lp(-np.ones(dual.shape[1]), dual,
                                                        costs).iterations
    # the warm start, not only the dual form, saves the pivots
    assert 0 < warm_pivots < cold_pivots
    assert warm_pivots < cold_dual_pivots / 2


def test_setcover_standing_lp_matches_cold_primal_under_long_churn():
    # one state, 1,000 updates on a bench-sized system: at every update the
    # re-priced tableau must agree with a cold solve, and it must save pivots
    rng = np.random.default_rng(1818)
    sets = [set(int(u) for u in rng.choice(60, size=8, replace=False)) for _ in range(40)]
    state = SetCoverState(rng.uniform(1.0, 3.0, size=40), sets)
    covered = sorted(set().union(*sets))
    warm_pivots = cold_pivots = 0
    for step in range(1, 1001):
        u = covered[int(rng.integers(len(covered)))]
        (state.delete if u in state.live else state.insert)(u)
        opt = state.fractional_opt()
        warm_pivots += state.lp_pivots
        ref, pivots = cold_cover_opt(state)
        cold_pivots += pivots
        assert opt == pytest.approx(ref, rel=1e-9), step
    assert 0 < warm_pivots < cold_pivots


def test_cover_lp_self_check_catches_a_tableau_of_another_lp():
    sets = [{0, 1}, {1, 2}, {2, 3}, {0, 3}]
    state = SetCoverState([1.0, 1.5, 2.0, 1.0], sets)
    other = SetCoverState([2.0, 3.0, 4.0, 2.0], sets)
    for s in (state, other):
        for u in range(4):
            s.insert(u)
    assert 2.0 * state.fractional_opt() == pytest.approx(other.fractional_opt(), rel=1e-12)
    # same shape, so the solve takes it as a start; its point belongs to other costs
    state._lp = other._lp
    with pytest.raises(AdapterError, match="self-check"):
        state.fractional_opt()


def test_setcover_index_built_once():
    state = SetCoverState([1.0, 2.0, 1.0], [{"a", "b"}, {"b"}, {"b", "c"}])
    assert state.covering_sets("b") == (0, 1, 2)
    assert state.covering_sets("z") == ()
    assert state.frequency() == 3
    state.insert("c")
    state.insert("a")
    snap = setcover_body(state, beta=2.0)
    assert [row.as_dict() for row in snap.covering] == [{0: 1.0}, {2: 1.0}]
    assert snap.covering[0] is state.rows["a"]


def test_setcover_body_keeps_its_cost_row_while_beta_and_opt_hold():
    # the row c / (beta opt) is rebuilt only when beta or the optimum moved,
    # and a kept row is the row a fresh build would give
    rng = np.random.default_rng(27)
    sets = [set(int(u) for u in rng.choice(12, size=3, replace=False)) for _ in range(8)]
    state = SetCoverState(rng.uniform(1.0, 3.0, size=8), sets)
    covered = sorted(set().union(*sets))
    last, kept = None, {True: 0, False: 0}
    for _ in range(300):
        u = covered[int(rng.integers(len(covered)))]
        (state.delete if u in state.live else state.insert)(u)
        beta = 2.0 if rng.random() < 0.9 else 3.0
        body = setcover_body(state, beta)
        if body.opt == 0.0:
            assert body.packing == []
            last = None
            continue
        (row,) = body.packing
        assert row.as_dict() == {i: float(c) / (beta * body.opt) for i, c in enumerate(state.costs)}
        if last is not None:
            same = (beta, body.opt) == last[0]
            assert (row is last[1]) == same
            kept[same] += 1
        last = (beta, body.opt), row
    assert min(kept.values()) > 30


def test_setcover_opt_monotone_under_deletion():
    rng = np.random.default_rng(5)
    sets = [{0, 1}, {1, 2}, {2, 3}, {0, 3}]
    state = SetCoverState(rng.uniform(1.0, 2.0, size=4), sets)
    for u in range(4):
        state.insert(u)
    before = state.fractional_opt()
    state.delete(2)
    assert state.fractional_opt() <= before + 1e-9


# ------------------------------------------------------------------ matching


def test_matching_single_edge():
    state = MatchingState()
    state.insert("a", "b")
    snap = matching_body(state, beta=1.0)
    assert snap.opt == 1.0
    assert len(snap.covering) == 1
    assert snap.covering[0].as_dict() == {0: 1.0}
    assert len(snap.packing) == 2
    assert all(row.as_dict() == {0: 1.0} for row in snap.packing)


def test_matching_path_two_edges():
    state = MatchingState()
    state.insert("a", "b")
    state.insert("b", "c")
    snap = matching_body(state, beta=1.0)
    assert state.optimum() == 1
    assert snap.covering[0].as_dict() == {0: 1.0, 1: 1.0}
    rows = {tuple(sorted(r.as_dict())): r for r in snap.packing}
    # vertex b sees both edges
    assert (0, 1) in rows


def test_matching_empty_graph():
    snap = matching_body(MatchingState(), beta=1.0)
    assert snap.covering == [] and snap.packing == [] and snap.frozen == ()


def test_matching_rejects_odd_cycle_and_bad_beta():
    state = MatchingState()
    state.insert(0, 1)
    state.insert(1, 2)
    with pytest.raises(AdapterError):
        state.insert(0, 2)
    with pytest.raises(AdapterError):
        state.insert(0, 0)
    with pytest.raises(AdapterError):
        matching_body(state, beta=1.5)
    with pytest.raises(AdapterError):
        matching_body(state, beta=0.0)


def test_matching_delete_freezes_coordinate():
    state = MatchingState()
    state.insert(0, 1)
    state.insert(2, 3)
    state.delete(0, 1)
    snap = matching_body(state, beta=1.0)
    assert snap.frozen == (state.coords[(0, 1)],)
    # reinsert thaws: same coordinate, no longer frozen
    state.insert(0, 1)
    snap2 = matching_body(state, beta=1.0)
    assert snap2.frozen == ()
    assert state.dimension == 2


def test_matching_opt_monotone_under_insertion():
    state = MatchingState()
    last = 0
    for u, v in [(0, 1), (2, 3), (0, 3), (4, 5)]:
        state.insert(u, v)
        now = state.optimum()
        assert now >= last
        last = now


# ------------------------------------------------------------- load balancing


def test_loadbalance_one_job_two_machines():
    state = LoadBalanceState([1, 2])
    state.insert("j", {1: 2.0, 2: 3.0})
    snap = loadbalance_body(state, beta=1.0)
    assert snap.opt == pytest.approx(2.0)
    assert snap.covering[0].as_dict() == {state.coords[(1, "j")]: 1.0}
    assert snap.frozen == (state.coords[(2, "j")],)
    assert len(snap.packing) == 1
    assert snap.packing[0].as_dict() == {state.coords[(1, "j")]: 1.0}


def test_loadbalance_two_unit_jobs():
    state = LoadBalanceState(["m1", "m2"])
    state.insert("a", {"m1": 1.0, "m2": 1.0})
    state.insert("b", {"m1": 1.0, "m2": 1.0})
    snap = loadbalance_body(state, beta=1.0)
    assert snap.opt == pytest.approx(1.0)
    assert len(snap.packing) == 2
    for row in snap.packing:
        assert sorted(row.coeffs) == [1.0, 1.0]


def test_loadbalance_empty_and_rejections():
    state = LoadBalanceState(["m"])
    snap = loadbalance_body(state, beta=2.0)
    assert snap.covering == [] and snap.packing == []
    with pytest.raises(AdapterError):
        state.insert("j", {})
    with pytest.raises(AdapterError):
        state.insert("j", {"other": 1.0})
    with pytest.raises(AdapterError):
        state.insert("j", {"m": -1.0})
    with pytest.raises(AdapterError):
        LoadBalanceState([])
    state.insert("j", {"m": 1.0})
    with pytest.raises(AdapterError):
        loadbalance_body(state, beta=0.9)


def brute_makespan(machines, jobs):
    best = float("inf")
    names = sorted(jobs)
    options = [sorted(jobs[j]) for j in names]
    for choice in product(*options):
        load = {m: 0.0 for m in machines}
        for j, m in zip(names, choice):
            load[m] += jobs[j][m]
        best = min(best, max(load.values()))
    return best


def test_loadbalance_optimum_exact_against_enumeration():
    rng = np.random.default_rng(9)
    for trial in range(25):
        machines = list(range(int(rng.integers(2, 4))))
        state = LoadBalanceState(machines)
        jobs = {}
        for j in range(int(rng.integers(1, 7))):
            eligible = [m for m in machines if rng.random() < 0.7] or [machines[0]]
            jobs[j] = {m: float(rng.integers(1, 9)) for m in eligible}
            state.insert(j, jobs[j])
        opt, exact = state.optimum()
        assert exact
        assert opt == pytest.approx(brute_makespan(machines, jobs), abs=1e-9), trial


def test_loadbalance_reinsert_same_loads_after_delete():
    state = LoadBalanceState(["m"])
    state.insert("j", {"m": 2.0})
    state.delete("j")
    snap = loadbalance_body(state, beta=1.0)
    assert state.coords[("m", "j")] in snap.frozen
    state.insert("j", {"m": 2.0})
    with pytest.raises(AdapterError):
        state.insert("j", {"m": 2.0})
    state.delete("j")
    with pytest.raises(AdapterError):
        state.insert("j", {"m": 5.0})


# ------------------------------------------------------------------------ mst


def test_mst_triangle_at_origin_returns_a_cut():
    state = MstState([0, 1, 2])
    state.insert(0, 1, 1.0)
    state.insert(1, 2, 2.0)
    state.insert(0, 2, 3.0)
    x = FractionalPoint.zeros(3, np.ones(3))
    row = mst_separation(state, x, beta=1.0, threshold=0.05)
    assert row is not None and row.kind.value == "C"
    assert row.value_at(x.values) == 0.0


def test_mst_triangle_half_everywhere_no_covering_violation():
    state = MstState([0, 1, 2])
    state.insert(0, 1, 1.0)
    state.insert(1, 2, 1.0)
    state.insert(0, 2, 1.0)
    x = FractionalPoint(np.full(3, 0.5), np.ones(3))
    row = mst_separation(state, x, beta=2.0, threshold=0.05)
    # min cut is exactly 1; packing value = 3 * 0.5 / (2 * 2) = 0.375
    assert row is None


def test_mst_single_edge_packing_satisfied():
    state = MstState(["a", "b"])
    state.insert("a", "b", 5.0)
    x = FractionalPoint(np.ones(1), np.ones(1))
    assert mst_separation(state, x, beta=1.0, threshold=0.05) is None


def test_mst_packing_violation_detected():
    state = MstState([0, 1])
    state.insert(0, 1, 5.0)
    x = FractionalPoint(np.array([2.0]), np.ones(1))
    row = mst_separation(state, x, beta=1.0, threshold=0.05)
    assert row is not None and row.kind.value == "P"
    assert row.as_dict() == {0: 1.0}


def test_mst_disconnected_rejected():
    state = MstState([0, 1, 2])
    state.insert(0, 1, 1.0)
    with pytest.raises(AdapterError):
        mst_separation(state, FractionalPoint.zeros(1, np.ones(1)), 1.0, 0.05)


def test_mst_separation_soundness_against_cut_enumeration():
    rng = np.random.default_rng(13)
    trials = 0
    while trials < 20:
        n = int(rng.integers(3, 7))
        state = MstState(range(n))
        edges = []
        for u in range(n - 1):
            state.insert(u, u + 1, float(rng.uniform(0.5, 2.0)))
            edges.append((u, u + 1))
        for u in range(n):
            for v in range(u + 2, n):
                if rng.random() < 0.4:
                    state.insert(u, v, float(rng.uniform(0.5, 2.0)))
                    edges.append((u, v))
        values = rng.uniform(0.0, 0.9, size=state.dimension)
        x = FractionalPoint(values, np.ones(state.dimension))
        row = mst_separation(state, x, beta=4.0, threshold=0.05)
        weighted = [(u, v, values[state.coords[(u, v)]]) for u, v in edges]
        brute = brute_min_cut(list(range(n)), weighted)
        if row is None or row.kind.value == "P":
            assert brute >= 1 - 0.05 - 1e-9
        else:
            assert row.value_at(values) < 1 - 0.05 + 1e-12
            assert brute < 1 - 0.05
        trials += 1


def test_mst_cost_reuse_rules():
    state = MstState([0, 1])
    state.insert(0, 1, 2.0)
    state.delete(0, 1)
    state.insert(0, 1, 2.0)
    state.delete(0, 1)
    with pytest.raises(AdapterError):
        state.insert(0, 1, 3.0)
    with pytest.raises(AdapterError):
        state.insert(0, 2, 1.0)
    with pytest.raises(AdapterError):
        MstState([])


def test_mst_kept_spanning_tree_follows_churn():
    # after every operation, accepted or rejected, the kept tree is a fresh
    # Kruskal tree of the live edges and its verdict is the graph's connectivity
    rng = np.random.default_rng(2902)
    rejected = reinserted = built = 0
    for trial in range(40):
        n = int(rng.integers(1, 7))
        state, costs, was_live = MstState(range(n)), {}, set()
        for _ in range(60):
            u, v = (int(a) for a in rng.integers(0, n + 1, 2))  # n is off the vertex set
            key = (min(u, v), max(u, v))
            cost = costs.setdefault(key, float(rng.choice([0.5, 1.0, 1.0, 2.0, 3.5])))
            if rng.random() < 0.1:
                cost = -cost if rng.random() < 0.5 else cost + 1.0
            try:
                if key in state.live and rng.random() < 0.7:
                    state.delete(u, v)
                elif rng.random() < 0.8:
                    reinserted += key in was_live
                    state.insert(u, v, cost)
                    was_live.add(key)
                else:
                    state.delete(u, v)
            except AdapterError:
                rejected += 1
            kept = state.spanning_tree()
            assert kept is state.spanning_tree()  # built once
            live = [(a, b, state.costs[(a, b)]) for a, b in state.live]
            try:
                fresh = kruskal_mst(state.vertices, live)
            except GraphError:
                fresh = None
            assert kept == fresh and (kept is not None) == is_connected(state.vertices,
                                                                        state.live)
            if kept is None:
                with pytest.raises(AdapterError):
                    state.optimum()
            else:
                assert state.optimum() == kept[0]
                built += 1
    assert rejected > 300 and reinserted > 100 and built > 300


def test_snapshot_builds_positive_body():
    state = MatchingState()
    state.insert(0, 1)
    snap = matching_body(state, beta=1.0)
    body = snap.body()
    row = body.find_violated(np.zeros(1), 0.9, 1.1)
    assert row is not None and row.kind.value == "C"


@pytest.mark.parametrize("problem", ["matching", "mst", "loadbalance"])
def test_no_row_names_a_frozen_coordinate(problem):
    # A replay clamps a coordinate in the offline LP only at the update
    # where it freezes; this is what makes that enough.
    states = {"matching": MatchingState, "mst": MstState, "loadbalance": LoadBalanceState}
    body = {"matching": matching_body, "loadbalance": loadbalance_body}.get(problem)
    live_frozen = 0  # load balancing's frozen pairs of live jobs: opt moved
    for seed in range(25):
        rng = np.random.default_rng([seed, 23])
        _, header, events = random_replay(rng, problem, 16)
        state = states[problem](*[header[k] for k in ("vertices", "machines") if k in header])
        for event in events:
            getattr(state, event.op)(**event.payload)
            if body is not None:
                snap = body(state, 1.0)
                frozen, rows = set(snap.frozen), snap.covering + snap.packing
            elif is_connected(state.vertices, state.live):
                frozen = set(state.frozen_coords())
                values = rng.uniform(0.0, 1.0, state.dimension)
                # the cut at a random point, then the packing row (neither is None)
                rows = [state.separation(values, np.inf, np.inf, 1.0),
                        state.separation(values, -np.inf, -np.inf, 1.0)]
            else:
                continue
            for row in rows:
                assert frozen.isdisjoint(row.indices.tolist())
            if problem == "loadbalance":
                live_frozen += len(frozen & {c for (m, j), c in state.coords.items()
                                             if j in state.live})
    assert problem != "loadbalance" or live_frozen > 0
