"""Set-cover rounding: hysteresis arithmetic, feasibility, cost and
recourse bounds, clock behavior."""

import math

import numpy as np
import pytest

from bodychase.adapters import AdapterError, SetCoverState, setcover_body
from bodychase.core import FractionalPoint, chase_body, scaled_output
from bodychase.round_setcover import CoverState, init_clocks, round_det, round_rand

from oracles import set_cost, set_covers_live, set_round_det


def small_instance():
    return SetCoverState([1.0, 2.0, 4.0], [{0, 1}, {1, 2}, {0, 2}])


def test_det_threshold_crossings():
    inst = small_instance()
    state = CoverState(inst)
    round_det(FractionalPoint([0.3, 0.0, 0.0]), state, f=2)
    assert state.selected == set()
    round_det(FractionalPoint([0.6, 0.0, 0.0]), state, f=2)
    assert state.selected == {0}
    # falls into the hysteresis band: stays
    round_det(FractionalPoint([0.3, 0.0, 0.0]), state, f=2)
    assert state.selected == {0}
    round_det(FractionalPoint([0.2, 0.0, 0.0]), state, f=2)
    assert state.selected == set()
    assert state.recourse_total == 2


def test_det_rejects_bad_input():
    inst = small_instance()
    state = CoverState(inst)
    with pytest.raises(AdapterError):
        round_det(FractionalPoint.zeros(3), state, f=0)
    with pytest.raises(AdapterError):
        round_det(FractionalPoint.zeros(2), state, f=2)


def run_dynamic_fractional(seed, n_elems=8, m_sets=6, T=25):
    """Drive a real fractional cover with the chaser; yield scaled points."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(m_sets):
        s = {u for u in range(n_elems) if rng.random() < 0.4}
        sets.append(s or {int(rng.integers(n_elems))})
    inst = SetCoverState(rng.uniform(0.5, 3.0, size=m_sets), sets)
    delta = 0.5
    x = FractionalPoint.zeros(m_sets, np.ones(m_sets))
    trace = []
    for _ in range(T):
        covered = [u for u in range(n_elems) if inst.covering_sets(u)]
        if inst.live and rng.random() < 0.35:
            inst.delete(sorted(inst.live)[int(rng.integers(len(inst.live)))])
        else:
            fresh = [u for u in covered if u not in inst.live]
            if not fresh:
                continue
            inst.insert(fresh[int(rng.integers(len(fresh)))])
        body = setcover_body(inst, beta=2.0).body()
        x, _ = chase_body(x, body.find_violated, delta)
        trace.append((set(inst.live), scaled_output(x, delta)))
    return inst, trace


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_det_feasible_with_exact_cost_and_recourse_bounds(seed):
    inst, trace = run_dynamic_fractional(seed)
    f = inst.frequency()
    state = CoverState(inst)
    prev = np.zeros(inst.dimension)
    l1_total = 0.0
    for live, x in trace:
        inst.live = live
        round_det(x, state, f)
        assert state.covers_live()
        # exact inequalities, no tolerance
        frac_cost = float(inst.costs @ x.values)
        assert state.cost() <= 2 * f * frac_cost
        l1_total += float(np.abs(x.values - prev).sum())
        prev = x.values.copy()
    assert state.recourse_total <= 2 * f * l1_total


def test_rand_clock_persistence_and_backup():
    inst = small_instance()
    inst.insert(0)
    inst.insert(1)
    clocks = init_clocks(inst, seed=7, alpha=2.0, n=3)
    state = CoverState(inst, clocks=clocks)
    x0 = FractionalPoint.zeros(3)
    round_rand(x0, state, alpha=2.0, n=3)
    assert state.sampled == set()
    # cheapest containing set per element: 0 -> set0 (cost 1), 1 -> set0
    assert state.backup == {0}
    assert state.covers_live()
    before = state.recourse_total
    x1 = FractionalPoint([0.9, 0.4, 0.0])
    round_rand(x1, state, alpha=2.0, n=3)
    round_rand(x1, state, alpha=2.0, n=3)
    assert state.step_recourse == 0
    assert state.recourse_total >= before
    assert state.covers_live()


def test_rand_membership_probability_small_montecarlo():
    # alpha * n = e makes the rate exactly 1; Pr[x >= clock] = 1 - e^{-x}
    inst = SetCoverState([1.0], [{0}])
    alpha, n = math.e / 2.0, 2
    x = FractionalPoint([1.0])
    hits = 0
    runs = 4000
    for seed in range(runs):
        state = CoverState(inst, clocks=init_clocks(inst, seed, alpha, n))
        round_rand(x, state, alpha, n)
        hits += 0 in state.sampled
    want = 1.0 - math.exp(-1.0)
    se = math.sqrt(want * (1 - want) / runs)
    assert abs(hits / runs - want) <= 4 * se


def test_rand_requires_clocks():
    state = CoverState(small_instance())
    with pytest.raises(AdapterError):
        round_rand(FractionalPoint.zeros(3), state, alpha=2.0, n=3)
    with pytest.raises(AdapterError):
        init_clocks(small_instance(), seed=1, alpha=0.4, n=2)


def test_rounding_checks_match_their_set_definitions_on_random_instances():
    # values at and next to both thresholds, live sets assigned directly,
    # some with elements that no set holds
    rng = np.random.default_rng(27)
    checked = {True: 0, False: 0}
    for _ in range(300):
        m, n_el, f = int(rng.integers(1, 13)), int(rng.integers(1, 16)), int(rng.integers(1, 5))
        sets = [{u for u in range(n_el) if rng.random() < 0.3} for _ in range(m)]
        inst = SetCoverState(rng.uniform(0.5, 3.0, size=m), sets)
        cover = CoverState(inst)
        edges = [0.0, 1.0 / f, 1.0 / (2.0 * f), np.nextafter(1.0 / f, 0.0),
                 np.nextafter(1.0 / (2.0 * f), 1.0), 1.5]
        for _ in range(4):
            values = rng.uniform(0.0, 1.2 / f, size=m)
            at = rng.random(m) < 0.4
            values[at] = rng.choice(edges, size=int(at.sum()))
            before, total = set(cover.selected), cover.recourse_total
            want = set_round_det(values, before, f)
            round_det(FractionalPoint(values), cover, f)
            # the same sets, inserted in the same order, so cost() sums in one order
            assert list(cover.selected) == list(want)
            assert cover.step_recourse == len(want ^ before)
            assert cover.recourse_total == total + cover.step_recourse
            assert cover.cost() == set_cost(cover)
            inst.live = {u for u in range(n_el + 2) if rng.random() < 0.5}
            assert cover.covers_live() == set_covers_live(cover)
            checked[cover.covers_live()] += 1
    assert min(checked.values()) > 50
