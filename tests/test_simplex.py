"""Dense one-phase simplex against hand solutions, vertex enumeration, and
the dense pivot, LU dual recovery and masked pivot loop it replaced."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from bodychase import adapters, offline, simplex
from bodychase.adapters import SetCoverState
from bodychase.offline import build_compressed_lp
from bodychase.runner import RunConfig, run_problem
from bodychase.simplex import SimplexError, solve_inequality_lp

from oracles import dense_pivot, lu_duals, masked_run_phase, random_mixed_stream, random_replay


def test_box_maximum():
    # min -x - y over the unit box
    res = solve_inequality_lp(np.array([-1.0, -1.0]),
                              np.eye(2), np.array([1.0, 1.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-2.0, abs=1e-9)
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-9)
    assert np.allclose(res.duals, [1.0, 1.0], atol=1e-9)


def test_covering_row_dual():
    # min x + y subject to x + y >= 1, as its dual: min -lam s.t. lam <= 1
    # twice (one row per primal column), lam >= 0
    res = solve_inequality_lp(np.array([-1.0]),
                              np.array([[1.0], [1.0]]), np.array([1.0, 1.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0, abs=1e-9)
    # the covering row's multiplier, and a primal point on x + y = 1
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)
    assert (res.duals >= 0.0).all() and res.duals.sum() == pytest.approx(1.0, abs=1e-9)
    # dual objective -h . lambda equals the optimum
    assert -res.duals @ np.array([1.0, 1.0]) == pytest.approx(res.objective, abs=1e-9)


def test_negative_rhs_rejected():
    # the slack basis of x <= -1 is infeasible; such LPs are handed over as their dual
    with pytest.raises(ValueError):
        solve_inequality_lp(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))


def test_unbounded_detected():
    res = solve_inequality_lp(np.array([-1.0]), np.array([[0.0]]), np.array([1.0]))
    assert res.status == "unbounded"


def test_beale_degenerate_example():
    # classic cycling instance for naive pricing; the stall switch must
    # still reach the optimum value -1/20
    c = np.array([-0.75, 150.0, -0.02, 6.0])
    G = np.array([
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    h = np.array([0.0, 0.0, 1.0])
    res = solve_inequality_lp(c, G, h)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05, abs=1e-9)


def enumerate_vertices(G, h):
    """All basic feasible points of {x >= 0, Gx <= h}."""
    m, n = G.shape
    rows = np.vstack([G, -np.eye(n)])
    rhs = np.concatenate([h, np.zeros(n)])
    pts = []
    for subset in combinations(range(m + n), n):
        A = rows[list(subset)]
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, rhs[list(subset)])
        if (x >= -1e-9).all() and (G @ x <= h + 1e-9).all():
            pts.append(x)
    return pts


def random_bounded_lp(rng, n):
    interior = rng.uniform(0.0, 0.3, size=n)
    k = rng.integers(1, 4)
    G_extra = rng.uniform(-1.0, 1.0, size=(k, n))
    h_extra = G_extra @ interior + rng.uniform(0.05, 1.0, size=k)
    G = np.vstack([np.eye(n), G_extra])
    h = np.concatenate([rng.uniform(0.5, 2.0, size=n), h_extra])
    c = rng.uniform(-1.0, 1.0, size=n)
    return c, G, h


def test_matches_vertex_enumeration():
    rng = np.random.default_rng(20260817)
    rejected = 0
    for trial in range(120):
        n = int(rng.integers(1, 4))
        c, G, h = random_bounded_lp(rng, n)
        if (h < 0).any():
            with pytest.raises(ValueError):
                solve_inequality_lp(c, G, h)
            rejected += 1
            continue
        res = solve_inequality_lp(c, G, h)
        assert res.status == "optimal", trial
        best = min(c @ v for v in enumerate_vertices(G, h))
        assert res.objective == pytest.approx(best, abs=1e-7), trial
        # dual certificate: feasibility, weak duality as equality at optimum
        assert (res.duals >= -1e-9).all()
        assert (c + G.T @ res.duals >= -1e-7).all()
        assert res.duality_gap <= 1e-7 * (1.0 + abs(res.objective))
        assert res.cs_residual <= 1e-7
    assert rejected == 7


def test_rejects_shape_mismatch():
    with pytest.raises((ValueError, SimplexError)):
        solve_inequality_lp(np.array([1.0, 2.0]), np.array([[1.0]]), np.array([1.0]))


def test_optimal_basis_restarts_with_no_pivots():
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(1, 4))
        c, G, h = random_bounded_lp(rng, n)
        if (h < 0).any():
            continue
        cold = solve_inequality_lp(c, G, h)
        # the kept tableau is [G | I | h] reduced to the optimal basis
        assert np.allclose(cold.tableau[:, list(cold.basis)], np.eye(len(h)), atol=1e-12)
        warm = solve_inequality_lp(c, G, h, start=cold)
        assert warm.iterations == 0, trial
        assert warm.basis == cold.basis
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
        assert np.allclose(warm.duals, cold.duals, atol=1e-12)


def test_start_from_another_price_matches_a_cold_solve():
    # G and h fixed, so the optimum for c1 is a feasible start for any c2
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(1, 4))
        c1, G, h = random_bounded_lp(rng, n)
        c2 = rng.uniform(-1.0, 1.0, size=n)
        if (h < 0).any():
            continue
        first = solve_inequality_lp(c1, G, h)
        kept = first.tableau.copy()
        warm, cold = solve_inequality_lp(c2, G, h, start=first), solve_inequality_lp(c2, G, h)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12, abs=1e-12), trial
        for res in (warm, cold):
            assert res.cs_residual <= 1e-9 and res.duality_gap <= 1e-9 * (1.0 + abs(res.objective))
        # the start is left as it was
        assert np.array_equal(first.tableau, kept)


def test_start_needs_nonnegative_h_and_the_tableau_of_its_lp():
    c, G = np.array([1.0]), np.array([[-1.0]])
    with pytest.raises(ValueError):
        solve_inequality_lp(c, G, np.array([-1.0]), start=solve_inequality_lp(c, G, np.ones(1)))
    # tableaus of (2, 5) and (1, 4), and the unbounded result, which keeps none
    starts = [solve_inequality_lp(np.ones(2), np.eye(2), np.ones(2)),
              solve_inequality_lp(np.ones(2), np.ones((1, 2)), np.ones(1)),
              solve_inequality_lp(np.array([-1.0]), np.array([[0.0]]), np.array([1.0]))]
    assert starts[2].status == "unbounded"
    for start in starts:
        with pytest.raises(ValueError):
            solve_inequality_lp(c, G, np.array([1.0]), start=start)


def differential_lps():
    """The random LPs of the tests above (same seeds and counts) and the
    offline recourse LPs of mixed streams, in the dual form `offline`
    solves them in."""
    for seed, trials in ((20260817, 120), (7, 30)):
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            c, G, h = random_bounded_lp(rng, int(rng.integers(1, 4)))
            if not (h < 0).any():
                yield c, G, h
    rng = np.random.default_rng(61)
    for eps in (0.25, 1.0):
        for _ in range(6):
            n, T = int(rng.integers(2, 9)), int(rng.integers(10, 51))
            _, _, rows, w = random_mixed_stream(rng, n, T, eps)
            lp = build_compressed_lp(rows, w)
            yield lp.rhs, -lp.lhs.toarray().T, lp.objective


def test_every_pivot_equals_the_dense_pivot(monkeypatch):
    pivot = simplex._pivot
    dense_columns = []

    def checked(work, obj, row, col):
        dense_columns.append(2 * np.count_nonzero(work[:, col]) > work.shape[0])
        ref_work, ref_obj = work.copy(), obj.copy()
        dense_pivot(ref_work, ref_obj, row, col)
        pivot(work, obj, row, col)
        assert np.array_equal(work, ref_work) and np.array_equal(obj, ref_obj)

    monkeypatch.setattr(simplex, "_pivot", checked)
    for c, G, h in differential_lps():
        solve_inequality_lp(c, G, h)
    # both the whole-tableau and the row-subset update ran
    assert any(dense_columns) and not all(dense_columns)


def test_solve_matches_dense_pivot_and_lu_duals(monkeypatch):
    lps = list(differential_lps())
    results = [solve_inequality_lp(c, G, h) for c, G, h in lps]
    monkeypatch.setattr(simplex, "_pivot", dense_pivot)
    for (c, G, h), res in zip(lps, results):
        ref = solve_inequality_lp(c, G, h)
        assert np.array_equal(res.x, ref.x) and res.objective == ref.objective
        assert res.basis == ref.basis and res.iterations == ref.iterations
        lu = lu_duals(c, G, res.basis)
        assert np.max(np.abs(res.duals - lu)) <= 1e-9 * max(1.0, np.max(np.abs(lu)))


def assert_same_result(res, ref):
    """Two solves agree bit for bit: signs of zeros and nan payloads included."""
    assert (res.status, res.basis, res.iterations) == (ref.status, ref.basis, ref.iterations)
    for a, b in ((res.x, ref.x), (res.duals, ref.duals), (res.objective, ref.objective),
                 (res.cs_residual, ref.cs_residual), (res.duality_gap, ref.duality_gap)):
        assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()
    assert (res.tableau is None) == (ref.tableau is None)
    if res.tableau is not None:
        assert res.tableau.tobytes() == ref.tableau.tobytes()


def both_loops(monkeypatch, solved):
    """`solve_inequality_lp`, checked against the same solve by the masked
    loop; each compared result is appended to `solved`."""
    def solve(c, G, h, *, start=None):
        res = solve_inequality_lp(c, G, h, start=start)
        with monkeypatch.context() as m:
            m.setattr(simplex, "_run_phase", masked_run_phase)
            ref = solve_inequality_lp(c, G, h, start=start)
        assert_same_result(res, ref)
        solved.append(res)
        return res
    return solve


def stalling_lp():
    """Every h is 0, so no pivot improves the objective, and c = -G^T y
    makes the origin optimal: Dantzig's rule stalls for 50 pivots and
    Bland's rule finishes (410 pivots)."""
    rng = np.random.default_rng(0)
    n, m = int(rng.integers(40, 80)), int(rng.integers(40, 80))
    G = rng.integers(-3, 4, size=(m, n)).astype(float)
    return -G.T @ rng.integers(0, 3, size=m).astype(float), G, np.zeros(m)


def test_the_pivot_loop_matches_the_masked_loop_on_the_differential_lps(monkeypatch):
    # hand LPs add Bland's rule, Beale's cycling example, a refresh before a
    # genuinely small pivot and an unbounded column
    lps = list(differential_lps()) + [
        stalling_lp(),
        (np.array([-0.75, 150.0, -0.02, 6.0]),
         np.array([[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]]),
         np.array([0.0, 0.0, 1.0])),
        (np.array([-1.0]), np.array([[1e-7], [1.0]]), np.array([1e-8, 1.0])),
        (np.array([-1.0]), np.array([[0.0]]), np.array([1.0])),
    ]
    solved, rng = [], np.random.default_rng(27)
    solve = both_loops(monkeypatch, solved)
    for c, G, h in lps:
        cold = solve(c, G, h)
        if cold.status == "optimal":  # and from that tableau, re-priced
            solve(rng.permutation(c) - rng.uniform(0.0, 1.0, size=c.shape), G, h, start=cold)
    assert len(solved) > len(lps) and {r.status for r in solved} == {"optimal", "unbounded"}


def test_the_pivot_loop_matches_the_masked_loop_under_long_set_cover_churn(monkeypatch):
    # the standing cover LP of a bench-sized system, each solve re-pricing the last
    rng = np.random.default_rng(2727)
    sets = [set(int(u) for u in rng.choice(60, size=8, replace=False)) for _ in range(40)]
    state = SetCoverState(rng.uniform(1.0, 3.0, size=40), sets)
    covered = sorted(set().union(*sets))
    solved = []
    monkeypatch.setattr(adapters, "solve_inequality_lp", both_loops(monkeypatch, solved))
    for _ in range(1500):
        u = covered[int(rng.integers(len(covered)))]
        (state.delete if u in state.live else state.insert)(u)
        state.fractional_opt()
    assert len(solved) >= 1490 and sum(r.iterations for r in solved) > 1000


def test_the_pivot_loop_matches_the_masked_loop_on_offline_lps_of_mst_replays(monkeypatch):
    solved = []
    monkeypatch.setattr(offline, "solve_inequality_lp", both_loops(monkeypatch, solved))
    rng = np.random.default_rng(270)
    for _ in range(12):
        run_problem(RunConfig(problem="mst", certify=False), random_replay(rng, "mst", 30))
    assert len(solved) == 12 and all(r.status == "optimal" for r in solved)
    assert sum(r.iterations for r in solved) > 12


def test_sparse_column_pivot_allocates_no_tableau():
    # m = 2000 rows, n + m + 1 = 4001 columns, 3 nonzeros in the pivot column
    m = n = 2000
    work = np.zeros((m, n + m + 1))
    np.fill_diagonal(work[:, n:], 1.0)
    work[:, -1] = 1.0
    col = 5
    work[[3, 700, 1999], col] = [2.0, -1.0, 0.5]
    obj = np.zeros(n + m + 1)
    obj[col] = -1.0
    tracemalloc.start()
    try:
        simplex._pivot(work, obj, 3, col)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * work.nbytes
    assert work[3, col] == 1.0 and work[700, col] == 0.0 and work[1999, col] == 0.0
    assert work[700, -1] == 1.5 and work[1999, -1] == 0.75 and obj[-1] == 0.5


def test_genuinely_small_pivot_is_taken_after_one_refresh(monkeypatch):
    # min -x  s.t.  1e-7 x <= 1e-8,  x <= 1: the ratio test picks the 1e-7
    # entry, a millionth of its column's largest; the refresh finds it again
    refreshes = []
    tableau = simplex._tableau

    def counted(c, G, h, basis=None):
        refreshes.append(basis is not None)
        return tableau(c, G, h, basis)

    monkeypatch.setattr(simplex, "_tableau", counted)
    res = solve_inequality_lp(np.array([-1.0]), np.array([[1e-7], [1.0]]), np.array([1e-8, 1.0]))
    assert res.status == "optimal" and res.iterations == 1
    assert res.objective == pytest.approx(-0.1, rel=1e-12)
    assert sum(refreshes) == 1


def test_round_off_pivot_refreshes_the_tableau(tmp_path, monkeypatch):
    # The offline LP of this spanning tree replay (514 variables) meets a
    # round-off pivot of 1.1e-9 after 417 pivots: taken, it blows the
    # tableau up until the pivot budget of 28,460 runs out, after about 30 s.
    import importlib.util
    import json
    from pathlib import Path

    from bodychase import offline
    from bodychase.cli import main

    spec = importlib.util.spec_from_file_location(
        "gen", Path(__file__).resolve().parents[1] / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    path, report = tmp_path / "mst.jsonl", tmp_path / "report.jsonl"
    path.write_text(gen.mst_text(np.random.default_rng([1, 99]), 8, 12, 70))

    refreshes, solved = [], []
    tableau, solve = simplex._tableau, offline.solve_recourse_lp

    def counted(c, G, h, basis=None):
        refreshes.append(basis is not None)
        return tableau(c, G, h, basis)

    def kept(lp):
        solved.append(solve(lp))
        return solved[-1]

    monkeypatch.setattr(simplex, "_tableau", counted)
    monkeypatch.setattr(offline, "solve_recourse_lp", kept)
    assert main(["mst", str(path), "--round", "on", "--no-certify", "--report", str(report)]) == 0
    summary = json.loads(report.read_text().splitlines()[-1])
    assert any(refreshes)
    (res,) = solved
    assert res.objective == pytest.approx(15.0, abs=1e-9)
    assert summary["offline_opt"] == res.objective
    assert res.cs_residual <= 1e-6
    assert res.duality_gap <= 1e-6 * (1.0 + res.objective)
