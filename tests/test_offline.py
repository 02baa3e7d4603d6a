"""Offline recourse LP: frozen optima, builder equivalence, weak duality."""

import numpy as np
import pytest

from bodychase.certify import certify_run
from bodychase.core import (
    FractionalPoint,
    HalfspaceConstraint,
    RecourseLedger,
)
from bodychase.offline import (
    Freeze,
    OfflineError,
    build_compressed_lp,
    build_full_lp,
    solve_optimal_recourse,
    solve_recourse_lp,
    stream_from_log,
    verify_weak_duality,
)

from oracles import random_mixed_stream

C = HalfspaceConstraint.covering
P = HalfspaceConstraint.packing


def test_single_covering_row():
    opt, traj = solve_optimal_recourse([C({0: 1.0})], np.ones(1))
    assert opt == pytest.approx(1.0, abs=1e-9)
    assert traj[0].values[0] == pytest.approx(1.0, abs=1e-7)


def test_weighted_pair_prefers_cheap_coordinate():
    opt, traj = solve_optimal_recourse([C({0: 1.0, 1: 1.0})], np.array([1.0, 3.0]))
    assert opt == pytest.approx(1.0, abs=1e-9)
    assert traj[0].values[1] == pytest.approx(0.0, abs=1e-7)


def test_cover_then_pack_pays_once():
    # raise to 1, then halve for the packing row; downward moves are free
    opt, traj = solve_optimal_recourse([C({0: 1.0}), P({0: 2.0})], np.ones(1))
    assert opt == pytest.approx(1.0, abs=1e-9)
    assert traj[0].values[0] == pytest.approx(1.0, abs=1e-7)
    assert traj[1].values[0] <= 0.5 + 1e-7


def test_empty_stream():
    opt, traj = solve_optimal_recourse([], np.ones(3))
    assert opt == 0.0 and traj == []


def test_grouped_rows_share_a_time_step():
    opt, traj = solve_optimal_recourse([[C({0: 1.0}), C({1: 1.0})]], np.ones(2))
    assert opt == pytest.approx(2.0, abs=1e-9)
    assert len(traj) == 1
    assert np.allclose(traj[0].values, [1.0, 1.0], atol=1e-7)


def test_contradictory_group_is_infeasible():
    with pytest.raises(OfflineError):
        solve_optimal_recourse([[C({0: 1.0}), P({0: 3.0})]], np.ones(1))


def test_variable_cap():
    with pytest.raises(OfflineError):
        solve_optimal_recourse([C({0: 1.0})], np.ones(1), variable_cap=1)


def test_freeze_forces_reraise():
    stream = [C({0: 2.0}), Freeze([0]), C({1: 1.0})]
    opt, traj = solve_optimal_recourse(stream, np.ones(2))
    # pay 0.5 on coordinate 0, then 1.0 on coordinate 1 after the clamp
    assert opt == pytest.approx(1.5, abs=1e-7)
    assert abs(traj[1].values[0]) <= 1e-8


def test_nested_covering_rows_cost_their_final_point():
    # same support, coefficients shrinking: each row implies the ones before,
    # so the optimum is the cheapest point of the last row, reached monotonically
    base = np.array([2.0, 1.0])
    w = np.array([1.0, 1.5])
    T = 4
    stream = [C({0: base[0] / (t + 1), 1: base[1] / (t + 1)}) for t in range(T)]
    opt, traj = solve_optimal_recourse(stream, w)
    assert opt == pytest.approx(min(T * w[i] / base[i] for i in range(2)), rel=1e-7)
    up = sum(
        float(np.maximum(traj[t].values - (traj[t - 1].values if t else 0.0), 0.0) @ w)
        for t in range(T)
    )
    assert up == pytest.approx(opt, rel=1e-7)


def random_stream_with_freezes(rng, n, T):
    alive = list(range(n))
    stream = []
    for _ in range(T):
        roll = rng.random()
        if roll < 0.15 and len(alive) > 1:
            victim = alive.pop(int(rng.integers(len(alive))))
            stream.append(Freeze([victim]))
        elif roll < 0.5:
            k = int(rng.integers(1, min(3, len(alive)) + 1))
            picks = rng.choice(alive, size=k, replace=False)
            stream.append(C({int(i): float(rng.uniform(0.5, 4.0)) for i in picks}))
        else:
            k = int(rng.integers(1, n + 1))
            picks = rng.choice(n, size=k, replace=False)
            stream.append(P({int(i): float(rng.uniform(0.5, 4.0)) for i in picks}))
    return stream


def trajectory_is_feasible(stream, traj, tol=1e-7):
    t = 0
    for item in stream:
        group = item if isinstance(item, list) else [item]
        for member in group:
            if isinstance(member, Freeze):
                assert all(abs(traj[t].values[i]) <= tol for i in member.indices)
            elif member.kind.value == "C":
                assert member.value_at(traj[t].values) >= 1.0 - tol
            else:
                assert member.value_at(traj[t].values) <= 1.0 + tol
        t += 1


@pytest.mark.parametrize("seed", range(8))
def test_full_and_compressed_agree(seed):
    rng = np.random.default_rng(900 + seed)
    n, T = 4, 10
    stream = random_stream_with_freezes(rng, n, T)
    w = rng.uniform(0.5, 2.0, size=n)
    full = solve_recourse_lp(build_full_lp(stream, w))
    comp = solve_recourse_lp(build_compressed_lp(stream, w))
    assert comp.objective == pytest.approx(full.objective, abs=1e-7)
    opt, traj = solve_optimal_recourse(stream, w)
    assert opt == pytest.approx(full.objective, abs=1e-7)
    trajectory_is_feasible(stream, traj)


@pytest.mark.parametrize("seed", range(6))
def test_trajectory_upward_total_matches_optimum(seed):
    rng = np.random.default_rng(4400 + seed)
    stream = random_stream_with_freezes(rng, 5, 14)
    w = rng.uniform(0.5, 2.0, size=5)
    opt, traj = solve_optimal_recourse(stream, w)
    ledger = RecourseLedger()
    prev = FractionalPoint.zeros(5, w)
    for point in traj:
        ledger.record_step(w, prev.values, point.values)
        prev = point
    assert ledger.upward_total == pytest.approx(opt, abs=1e-6 * max(1.0, opt))


def test_weak_duality_checker_edges():
    assert verify_weak_duality(0.5, 0.5)
    assert verify_weak_duality(0.0, 0.7)
    assert not verify_weak_duality(1.0, 0.9)


@pytest.mark.parametrize("eps", [0.25, 1.0])
def test_certificates_stay_below_lp_optimum(eps):
    rng = np.random.default_rng(int(eps * 1000) + 11)
    for trial in range(10):
        n = int(rng.integers(2, 7))
        T = int(rng.integers(4, 16))
        log, ledger, rows, w = random_mixed_stream(rng, n, T, eps)
        opt, _ = solve_optimal_recourse(stream_from_log(log), w)
        report = certify_run(log, ledger, eps)
        assert verify_weak_duality(report["warmup_bound"], opt), trial
        if report["refined_bound"] is not None:
            assert verify_weak_duality(report["refined_bound"], opt), trial


def test_stream_from_log_round_trip():
    from bodychase.certify import MultiplierLog

    w = np.ones(2)
    log = MultiplierLog(w)
    x0 = np.zeros(2)
    x1 = np.array([0.5, 0.0])
    log.append_projection(C({0: 2.0}), 0.3, x0[:1], x1[:1])
    log.append_freeze([0], x1[:1], np.zeros(1))
    log.append_projection(P({1: 1.0}), 0.0, np.zeros(1), np.zeros(1))
    stream = stream_from_log(log)
    assert isinstance(stream[1], Freeze) and stream[1].indices == (0,)
    assert stream[0].kind.value == "C" and stream[2].kind.value == "P"
    assert stream[0].as_dict() == {0: 2.0}
