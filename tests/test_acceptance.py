"""Acceptance suite: one test per contract criterion.

Each test prints a single summary line (visible in verbose runs and on
failure) and asserts the stated tolerances. Seeds are fixed constants;
nothing here retries or reseeds on failure.
"""

import math
import time

import numpy as np
import pytest

from bodychase.adapters import (
    MatchingState,
    MstState,
    SetCoverState,
    setcover_body,
)
from bodychase.certify import (
    build_refined_dual,
    build_warmup_dual,
    check_dual_feasibility,
    check_ineq1,
    check_ineq2,
    refine_ytilde,
)
from bodychase.cli import main
from bodychase.core import (
    FractionalPoint,
    HalfspaceConstraint,
    PositiveBody,
    RecourseLedger,
    chase_body,
    project_covering,
    project_packing,
    scaled_output,
)
from bodychase.graphs import (
    build_adjacency,
    is_connected,
    kruskal_mst,
    maximum_matching,
    shortest_augmenting_path,
)
from bodychase.offline import Freeze, solve_optimal_recourse
from bodychase.round_matching import MaintainedMatching, Stabilizer, maintain_matching, stabilizer_step
from bodychase.round_mst import DynamicTree, MstSampler, mst_sampler_step, repair_tree
from bodychase.round_setcover import CoverState, init_clocks, round_det, round_rand
from oracles import (
    applied,
    covering_residuals,
    grid_recourse_dp,
    packing_residuals,
    random_covering_case,
    random_mixed_stream,
    random_packing_case,
    brute_project,
)

KKT_TOL = 1e-8
DUAL_TOL = 1e-8
REL_TOL = 1e-6


def report(num, detail):
    print("criterion %d: PASS (%s)" % (num, detail))


# --------------------------------------------------------------- criterion 1


def test_criterion_1_kkt_and_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    worst_kkt = 0.0
    for k in range(1000):
        if k % 2 == 0:
            x0, c, eps = random_covering_case(rng)
            res = project_covering(x0, c, eps)
            tight, mult = covering_residuals(x0, c, eps, res)
        else:
            x0, p, eps = random_packing_case(rng)
            res = project_packing(x0, p, eps)
            tight, mult = packing_residuals(x0, p, eps, res)
        worst_kkt = max(worst_kkt, tight, mult)
        assert tight <= KKT_TOL and mult <= KKT_TOL

    worst_gap = 0.0
    for k in range(80):
        if k % 2 == 0:
            x0, row, eps = random_covering_case(rng, nmax=3, dmax=3)
            res = project_covering(x0, row, eps)
        else:
            x0, row, eps = random_packing_case(rng, nmax=3, dmax=3)
            res = project_packing(x0, row, eps)
        ref = brute_project(x0.values, x0.weights, row, eps)
        gap = float(np.max(np.abs(applied(x0, row, res) - ref)))
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, "1000 calls, worst kkt %.1e, worst brute gap %.1e, %.1fs"
           % (worst_kkt, worst_gap, elapsed))


# ----------------------------------------------------- criteria 2 and 3 corpus

_CORPUS = None
_CORPUS_SECONDS = None


def certificate_corpus():
    """200 mixed streams with both certificates and the LP optimum."""
    global _CORPUS, _CORPUS_SECONDS
    if _CORPUS is not None:
        return _CORPUS
    t0 = time.perf_counter()
    entries = []
    rng = np.random.default_rng(3141592)
    for eps in (0.25, 1.0):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            T = int(rng.integers(10, 51))
            log, ledger, rows, w = random_mixed_stream(rng, n, T, eps)
            warm = build_warmup_dual(log, eps)
            ytilde = refine_ytilde(log, eps)
            refined = build_refined_dual(log, ytilde, eps)
            opt, _ = solve_optimal_recourse(rows, w, variable_cap=10000)
            entries.append({
                "eps": eps, "log": log, "ledger": ledger,
                "warm": warm, "refined": refined, "ytilde": ytilde,
                "opt": opt,
            })
    _CORPUS = entries
    _CORPUS_SECONDS = time.perf_counter() - t0
    return entries


def test_criterion_2_certified_competitiveness():
    entries = certificate_corpus()
    worst_alg = 0.0
    worst_weak = 0.0
    for e in entries:
        eps = e["eps"]
        cap = (2.0 + eps) * (1.0 + eps) / eps * e["refined"].scaling
        upward = e["ledger"].upward_total
        bound = e["refined"].certified_bound
        assert bound > 0.0
        assert upward <= cap * bound * (1.0 + REL_TOL)
        assert bound <= e["opt"] * (1.0 + REL_TOL) + 1e-12
        worst_alg = max(worst_alg, upward / (cap * bound))
        worst_weak = max(worst_weak, bound / max(e["opt"], 1e-300))
    assert _CORPUS_SECONDS < 120.0
    report(2, "200 streams, worst alg/cap %.3f, worst dual/opt %.6f, %.1fs"
           % (worst_alg, worst_weak, _CORPUS_SECONDS))


def test_criterion_3_dual_feasibility_and_lemmas():
    entries = certificate_corpus()
    worst_dual = 0.0
    worst_ineq1 = -math.inf
    worst_ineq2 = -math.inf
    for e in entries:
        log, eps = e["log"], e["eps"]
        for cert in (e["warm"], e["refined"]):
            v = check_dual_feasibility(log, cert.y_bar, cert.z_bar, cert.r_bar)
            worst_dual = max(worst_dual, v)
            assert v <= DUAL_TOL
        gap, _ = check_ineq1(log, e["ytilde"], eps)
        worst_ineq1 = max(worst_ineq1, gap)
        assert gap <= DUAL_TOL
        short = check_ineq2(log, e["ytilde"], eps)
        worst_ineq2 = max(worst_ineq2, short)
        assert short <= DUAL_TOL
    report(3, "200 streams x 2 duals, worst residuals %.1e / %.1e / %.1e"
           % (worst_dual, worst_ineq1, worst_ineq2))


# --------------------------------------------------------------- criterion 4


def random_nonempty_body(rng, n, total_rows):
    """A body certified nonempty by a hidden witness point."""
    witness = rng.uniform(0.2, 1.0, size=n)
    k_cov = int(rng.integers(1, total_rows + 1))
    covering, packing = [], []
    for j in range(total_rows):
        d = int(rng.integers(1, n + 1))
        sup = rng.choice(n, size=d, replace=False)
        raw = {int(i): float(rng.uniform(0.2, 3.0)) for i in sup}
        value = sum(raw[i] * witness[i] for i in raw)
        if j < k_cov:
            target = float(rng.uniform(1.0, 2.0))
            covering.append(HalfspaceConstraint.covering(
                {i: v * target / value for i, v in raw.items()}))
        else:
            target = float(rng.uniform(0.3, 1.0))
            packing.append(HalfspaceConstraint.packing(
                {i: v * target / value for i, v in raw.items()}))
    return PositiveBody(covering=covering, packing=packing)


def test_criterion_4_body_chase_reduction():
    rng = np.random.default_rng(271828)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        body = random_nonempty_body(rng, n, int(rng.integers(1, 7)))
        for delta in (0.1, 0.5):
            x0 = FractionalPoint.zeros(n, np.ones(n))
            x, _ = chase_body(x0, body, delta)
            scaled = scaled_output(x, delta)
            for row in body.covering:
                assert row.value_at(scaled.values) >= 1.0 - 1e-9
            for row in body.packing:
                assert row.value_at(scaled.values) <= (1.0 + delta) + 1e-9
            checked += 1
    report(4, "%d chases over 100 bodies, delta in {0.1, 0.5}" % checked)


# --------------------------------------------------------------- criterion 5


def random_cover_instance(rng):
    m = int(rng.integers(3, 21))
    n_el = int(rng.integers(4, 31))
    memberships = [set() for _ in range(m)]
    for u in range(n_el):
        f_u = int(rng.integers(1, min(4, m) + 1))
        for i in rng.choice(m, size=f_u, replace=False):
            memberships[int(i)].add(u)
    costs = rng.uniform(0.5, 4.0, size=m)
    return SetCoverState(costs, memberships), n_el


def test_criterion_5_setcover_rounding():
    rng = np.random.default_rng(599)
    delta = 0.5
    for _ in range(100):
        state, n_el = random_cover_instance(rng)
        f = state.frequency()
        if f == 0:
            continue
        cover = CoverState(state)
        x = FractionalPoint.zeros(state.dimension, np.ones(state.dimension))
        prev_scaled = np.zeros(state.dimension)
        scaled_l1 = 0.0
        T = int(rng.integers(20, 101))
        for _ in range(T):
            coverable = [u for u in range(n_el) if state.covering_sets(u)]
            dead = [u for u in coverable if u not in state.live]
            if state.live and (not dead or rng.random() < 0.4):
                state.delete(sorted(state.live)[int(rng.integers(len(state.live)))])
            elif dead:
                state.insert(dead[int(rng.integers(len(dead)))])
            else:
                continue
            snap = setcover_body(state, beta=2.0)
            x, _ = chase_body(x, snap, delta)
            scaled = scaled_output(x, delta)
            scaled_l1 += float(np.abs(scaled.values - prev_scaled).sum())
            prev_scaled = scaled.values.copy()
            round_det(scaled, cover, f)
            assert cover.covers_live()
            frac_cost = float(state.costs @ scaled.values)
            assert cover.cost() <= 2 * f * frac_cost
        assert cover.recourse_total <= 2 * f * scaled_l1

    # randomized layer: membership law and per-step churn, Monte Carlo
    costs = [1.0, 2.0, 1.5, 1.0, 3.0, 2.5]
    memberships = [{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}]
    inst = SetCoverState(costs, memberships)
    for u in range(6):
        inst.insert(u)
    m, alpha = len(costs), 2.0
    lam = math.log(alpha * m)
    x0 = np.array([0.05, 0.2, 0.4, 0.6, 0.8, 0.3])
    x1 = np.array([0.15, 0.1, 0.5, 0.4, 0.9, 0.3])
    seeds = 30000
    hits = np.zeros(m)
    churn = np.zeros(seeds)
    for s in range(seeds):
        clocks = init_clocks(inst, s, alpha, m)
        first = set(np.flatnonzero(x0 >= clocks).tolist())
        second = set(np.flatnonzero(x1 >= clocks).tolist())
        for i in first:
            hits[i] += 1
        churn[s] = len(first ^ second)
    law = 1.0 - np.exp(-lam * x0)
    worst_p = float(np.max(np.abs(hits / seeds - law)))
    assert worst_p <= 0.01
    mean, se = churn.mean(), churn.std(ddof=1) / math.sqrt(seeds)
    bound = lam * float(np.abs(x1 - x0).sum())
    assert mean <= bound + 3 * se
    report(5, "det exact on 100 instances; MC %d seeds, law gap %.4f, "
              "churn %.3f <= %.3f + 3se" % (seeds, worst_p, mean, bound))


# --------------------------------------------------------------- criterion 6


def random_matching_run(rng, delta):
    """Drive the full pipeline once; returns per-step exact-check data."""
    left = [("L", i) for i in range(int(rng.integers(2, 9)))]
    right = [("R", i) for i in range(int(rng.integers(2, 9)))]
    state = MatchingState()
    stab = None
    mm = MaintainedMatching(delta)
    x = FractionalPoint.zeros(0, np.ones(0))
    seed = int(rng.integers(2 ** 31))
    steps = []
    for _ in range(8):
        pairs = [(u, v) for u in left for v in right]
        fresh = [e for e in pairs if tuple(sorted(e)) not in
                 {tuple(sorted(k)) for k in state.live}]
        if state.live and rng.random() < 0.3:
            e = sorted(state.live)[int(rng.integers(len(state.live)))]
            state.delete(*e)
        elif fresh:
            e = fresh[int(rng.integers(len(fresh)))]
            state.insert(*e)
        else:
            continue
        if stab is None:
            stab = Stabilizer(state, 1.0, delta, len(left) + len(right), seed)
        if x.dim < state.dimension:
            vals = np.zeros(state.dimension)
            vals[: x.dim] = x.values
            x = FractionalPoint(vals, np.ones(state.dimension))
        dead = [state.coords[e] for e in state.coords if e not in state.live]
        if dead:
            vals = x.values.copy()
            vals[dead] = 0.0
            x = FractionalPoint(vals, x.weights)
        from bodychase.adapters import matching_body

        snap = matching_body(state, beta=1.0)
        x, _ = chase_body(x, snap, 0.5)
        _, inserted, deleted = stabilizer_step(x.values, stab)
        per_unit = maintain_matching(inserted, deleted, mm)
        steps.append((set(mm.edges), dict(mm.matching), per_unit))
    return steps, mm.k


def test_criterion_6_matching_rounding():
    rng = np.random.default_rng(66)
    worst_unit = 0
    for run in range(30):
        delta = (0.5, 1.0)[run % 2]
        steps, k = random_matching_run(rng, delta)
        for support, matching, per_unit in steps:
            adj = build_adjacency(support)
            assert shortest_augmenting_path(adj, matching, 2 * k - 1) is None
            mu = len(maximum_matching(sorted(support))) // 2
            assert len(matching) // 2 + 1e-12 >= (1.0 - delta) * mu
            for unit in per_unit:
                assert unit <= 2 * k + 1
                worst_unit = max(worst_unit, unit)

    # stabilizer churn law over seeds: fixed trajectory, fresh thresholds
    state = MatchingState()
    edges = [("a", "b"), ("c", "d"), ("a", "d"), ("e", "f"), ("c", "f")]
    for u, v in edges:
        state.insert(u, v)
    trajectory = [
        np.array([0.9, 0.1, 0.0, 0.5, 0.2]),
        np.array([0.4, 0.3, 0.2, 0.5, 0.0]),
        np.array([0.6, 0.0, 0.7, 0.1, 0.3]),
    ]
    results = {}
    for delta in (0.5, 1.0):
        totals = []
        kappa = None
        for seed in range(200):
            stab = Stabilizer(state, 1.0, delta, 16, seed)
            kappa = stab.kappa
            for vals in trajectory:
                stabilizer_step(vals, stab)
            totals.append(stab.copy_recourse_total)
        l1 = float(np.abs(trajectory[0]).sum()
                   + np.abs(trajectory[1] - trajectory[0]).sum()
                   + np.abs(trajectory[2] - trajectory[1]).sum())
        arr = np.array(totals, dtype=float)
        mean, se = arr.mean(), arr.std(ddof=1) / math.sqrt(len(arr))
        assert mean <= kappa * l1 + 3 * se
        results[delta] = (mean, kappa * l1, se)
    report(6, "30 pipeline runs exact, worst unit %d; churn within 3se: %s"
           % (worst_unit,
              {d: "%.0f<=%.0f+3*%.1f" % v for d, v in results.items()}))


# --------------------------------------------------------------- criterion 7


def drive_tree_run(rng, seed, delta=0.5):
    vertices = list(range(6))
    state = MstState(vertices)
    base = [(i, i + 1) for i in range(5)] + [(0, 3), (1, 4), (2, 5)]
    for u, v in base:
        state.insert(u, v, float(rng.uniform(0.5, 3.0)))
    sampler = MstSampler(state, 1.0, delta, seed)
    tree = DynamicTree(state.vertices, state.costs)
    x = FractionalPoint.zeros(state.dimension, np.ones(state.dimension))
    checks = []
    for _ in range(10):
        nonbridge = []
        for e in sorted(state.live):
            rest = [f for f in state.live if f != e]
            if is_connected(state.vertices, rest):
                nonbridge.append(e)
        if nonbridge and rng.random() < 0.5:
            e = nonbridge[int(rng.integers(len(nonbridge)))]
            state.delete(*e)
        else:
            fresh = [(u, v) for u in vertices for v in vertices if u < v
                     and (u, v) not in state.live]
            if not fresh:
                continue
            u, v = fresh[int(rng.integers(len(fresh)))]
            state.insert(u, v, state.costs.get((u, v), float(rng.uniform(0.5, 3.0))))
        if x.dim < state.dimension:
            vals = np.zeros(state.dimension)
            vals[: x.dim] = x.values
            x = FractionalPoint(vals, np.ones(state.dimension))
        dead = list(state.frozen_coords())
        if dead:
            vals = x.values.copy()
            vals[dead] = 0.0
            x = FractionalPoint(vals, x.weights)

        def oracle(values, floor, ceiling):
            return state.separation(values, floor, ceiling, 2.0)

        x, _ = chase_body(x, oracle, delta)
        scaled = scaled_output(x, delta)
        inserted, deleted = mst_sampler_step(scaled.values, sampler)
        per_unit = repair_tree(inserted, deleted, tree)
        frac = sum(state.costs[e] * scaled.values[state.coords[e]]
                   for e in state.live)
        fresh_cost, fresh_tree = kruskal_mst(state.vertices, sorted(
            (u, v, state.costs[(u, v)]) for u, v in sampler.combined))
        checks.append((per_unit, tree.tree_cost(), fresh_cost, frac,
                       len(fresh_tree)))
    return checks


def test_criterion_7_mst_rounding():
    rng = np.random.default_rng(77)
    delta = 0.5
    for seed in (0, 1, 2):
        for per_unit, cost, fresh_cost, frac, tree_edges in drive_tree_run(rng, seed, delta):
            assert all(unit <= 2 for unit in per_unit)
            assert cost == pytest.approx(fresh_cost, abs=1e-9)
            assert tree_edges == 5
            assert cost <= (2.0 + delta) * frac + 1e-9

    # inclusion law: fixed values against 1e5 fresh threshold draws
    state = MstState([0, 1, 2])
    for (u, v), c in {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0}.items():
        state.insert(u, v, c)
    sampler0 = MstSampler(state, 1.0, delta, 0)
    rate = sampler0.rate
    targets = np.array([0.2, 0.5, 0.8])
    values = targets / rate
    seeds = 100000
    hits = np.zeros(3)
    edges = sorted(state.live)
    for s in range(seeds):
        sampler = MstSampler(state, 1.0, delta, s)
        for e in edges:
            coord = state.coords[e]
            if sampler.probability(values[coord]) > sampler.threshold(e):
                hits[coord] += 1
    gap = float(np.max(np.abs(hits / seeds - targets)))
    assert gap <= 0.01
    report(7, "3 dynamic runs exact; inclusion gap %.4f over %d seeds"
           % (gap, seeds))


# --------------------------------------------------------------- criterion 8


def random_small_stream(rng):
    n = int(rng.integers(1, 4))
    T = int(rng.integers(1, 5))
    stream = []
    for _ in range(T):
        kind = rng.random()
        if kind < 0.15 and n > 1:
            stream.append(Freeze([int(rng.integers(n))]))
            continue
        d = int(rng.integers(1, n + 1))
        sup = rng.choice(n, size=d, replace=False)
        if kind < 0.6:
            coeffs = {int(i): float(rng.integers(1, 4)) for i in sup}
            stream.append(HalfspaceConstraint.covering(coeffs))
        else:
            coeffs = {int(i): float(rng.uniform(0.5, 2.0)) for i in sup}
            stream.append(HalfspaceConstraint.packing(coeffs))
    return stream, rng.uniform(0.5, 2.0, size=n)


def test_criterion_8_offline_oracle_against_grid():
    t0 = time.perf_counter()
    rng = np.random.default_rng(888)
    worst = 0.0
    for _ in range(50):
        stream, w = random_small_stream(rng)
        opt, _ = solve_optimal_recourse(stream, w)
        dp = grid_recourse_dp(stream, w, cells=64)
        tol = 2.0 * (1.0 / 64.0) * float(w.sum()) * len(stream)
        assert opt <= dp + 1e-9
        assert dp <= opt + tol
        worst = max(worst, (dp - opt) / max(tol, 1e-300))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(8, "50 streams, worst gap %.2f of the 2-cell budget, %.1fs"
           % (worst, elapsed))


# --------------------------------------------------------------- criterion 9


STREAM_TEXT = "C 0:1 1:2\nC 2:1\nF 1\nP 0:1 2:0.5\n"

UPDATE_FILES = {
    "setcover": (
        '{"problem": "setcover", "sets": [{"cost": 1.0, "elements": [0, 1]}, '
        '{"cost": 2.0, "elements": [1, 2]}, {"cost": 1.5, "elements": [0, 2]}]}\n'
        '{"op": "insert", "element": 0}\n{"op": "insert", "element": 2}\n'
        '{"op": "delete", "element": 0}\n',
        ["--round", "rand", "--seed", "9"],
    ),
    "matching": (
        '{"problem": "matching", "n": 8}\n'
        '{"op": "insert", "u": "a", "v": "b"}\n'
        '{"op": "insert", "u": "c", "v": "d"}\n'
        '{"op": "insert", "u": "b", "v": "c"}\n',
        ["--round", "on", "--seed", "9"],
    ),
    "mst": (
        '{"problem": "mst", "vertices": [0, 1, 2]}\n'
        '{"op": "insert", "u": 0, "v": 1, "cost": 1.0}\n'
        '{"op": "insert", "u": 1, "v": 2, "cost": 2.0}\n'
        '{"op": "insert", "u": 0, "v": 2, "cost": 4.0}\n',
        ["--round", "on", "--seed", "9"],
    ),
    "loadbalance": (
        '{"problem": "loadbalance", "machines": ["m0", "m1"]}\n'
        '{"op": "insert", "job": "j0", "loads": {"m0": 2.0, "m1": 3.0}}\n'
        '{"op": "insert", "job": "j1", "loads": {"m0": 2.0, "m1": 1.0}}\n',
        [],
    ),
}


def test_criterion_9_byte_identical_reports(tmp_path):
    stream = tmp_path / "s.txt"
    stream.write_text(STREAM_TEXT)
    runs = [(["chase", str(stream), "--eps", "0.25"], "chase")]
    for problem, (text, flags) in UPDATE_FILES.items():
        path = tmp_path / ("%s.jsonl" % problem)
        path.write_text(text)
        runs.append(([problem, str(path), *flags], problem))
    runs.append((["replicate", str(tmp_path / "setcover.jsonl"),
                  "--round", "rand", "--runs", "3", "--seed", "4"], "replicate"))
    for argv, name in runs:
        a = tmp_path / ("%s_a.jsonl" % name)
        b = tmp_path / ("%s_b.jsonl" % name)
        assert main(argv + ["--report", str(a)]) == 0
        assert main(argv + ["--report", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), name
        assert a.read_bytes(), name
    report(9, "%d subcommand runs byte-identical on repeat" % len(runs))
