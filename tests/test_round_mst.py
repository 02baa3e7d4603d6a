"""MST rounding: sampling arithmetic, tree repairs, pipeline invariants."""

import numpy as np
import pytest

from bodychase.adapters import AdapterError, MstState
from bodychase.core import FractionalPoint, chase_body, scaled_output
from bodychase.graphs import kruskal_mst
from bodychase.round_mst import (
    DynamicTree,
    MstSampler,
    mst_sampler_step,
    repair_tree,
    sampling_rate,
)


def triangle_state(costs=(1.0, 2.0, 3.0)):
    state = MstState([0, 1, 2])
    state.insert(0, 1, costs[0])
    state.insert(1, 2, costs[1])
    state.insert(0, 2, costs[2])
    return state


def test_sampling_rate_example():
    # n = 8, gamma 1, alpha 1, delta 1: rate = 200 ln 8, p(0.002) = 0.8318
    rate = sampling_rate(1.0, 1.0, 1.0, 8)
    assert rate == pytest.approx(200.0 * np.log(8.0))
    assert min(1.0, rate * 0.002) == pytest.approx(0.8318, abs=5e-5)


def test_tree_delete_tree_edge_pulls_cheapest_reconnector():
    state = triangle_state()
    tree = DynamicTree(state.vertices, state.costs)
    for e in [(0, 1), (1, 2), (0, 2)]:
        tree.apply_unit("insert", e)
    assert tree.tree == {(0, 1), (1, 2)}
    changed = tree.apply_unit("delete", (0, 1))
    assert changed == 2
    assert tree.tree == {(1, 2), (0, 2)}


def test_tree_insert_swaps_on_cheaper_cycle_edge():
    state = triangle_state()
    tree = DynamicTree(state.vertices, state.costs)
    tree.apply_unit("insert", (1, 2))
    tree.apply_unit("insert", (0, 2))
    assert tree.tree == {(1, 2), (0, 2)}
    changed = tree.apply_unit("insert", (0, 1))
    assert changed == 2
    assert tree.tree == {(0, 1), (1, 2)}


def test_tree_delete_non_tree_edge_is_free():
    state = triangle_state()
    tree = DynamicTree(state.vertices, state.costs)
    for e in [(0, 1), (1, 2), (0, 2)]:
        tree.apply_unit("insert", e)
    assert tree.apply_unit("delete", (0, 2)) == 0


def test_saturated_sampling_no_fallback():
    state = triangle_state((1.0, 1.0, 1.0))
    sampler = MstSampler(state, alpha=1.0, delta=1.0, seed=5)
    values = np.ones(3)
    inserted, deleted = mst_sampler_step(values, sampler)
    assert sampler.sampled == set(state.live)
    assert not sampler.fallback_fired
    assert sorted(inserted) == sorted(state.live) and deleted == []


def test_origin_point_fires_fallback():
    state = triangle_state()
    sampler = MstSampler(state, alpha=1.0, delta=1.0, seed=5)
    inserted, _ = mst_sampler_step(np.zeros(3), sampler)
    assert sampler.fallback_fired
    assert sampler.combined == {(0, 1), (1, 2)}
    assert sampler.sampled == set()


def test_fallback_requires_connected_graph():
    state = MstState([0, 1, 2])
    state.insert(0, 1, 1.0)
    sampler = MstSampler(state, alpha=1.0, delta=1.0, seed=5)
    with pytest.raises(AdapterError):
        mst_sampler_step(np.zeros(1), sampler)


def test_disconnecting_tree_delete_aborts():
    state = MstState([0, 1])
    state.insert(0, 1, 1.0)
    tree = DynamicTree(state.vertices, state.costs)
    tree.apply_unit("insert", (0, 1))
    with pytest.raises(AdapterError):
        tree.apply_unit("delete", (0, 1))


def chase_tree_point(state, x_vals, delta):
    dim = state.dimension
    vals = np.zeros(dim)
    vals[: x_vals.shape[0]] = x_vals
    for e in state.coords:
        if e not in state.live:
            vals[state.coords[e]] = 0.0
    x = FractionalPoint(vals, np.ones(dim))

    def oracle(values, cover_floor, pack_ceiling):
        probe = FractionalPoint(values, np.ones(dim))
        return state.separation(probe.values, cover_floor, pack_ceiling, beta=2.0)

    x, _ = chase_body(x, oracle, delta)
    return x


@pytest.mark.parametrize("seed", [0, 3])
def test_dynamic_pipeline_tree_invariants(seed):
    rng = np.random.default_rng(100 + seed)
    n = 6
    state = MstState(range(n))
    delta = 0.5
    # warm up: a random connected base
    for u in range(n - 1):
        state.insert(u, u + 1, float(rng.uniform(0.5, 2.0)))
    extra = [(u, v) for u in range(n) for v in range(u + 2, n)]
    rng.shuffle(extra)
    for u, v in extra[:4]:
        state.insert(u, v, float(rng.uniform(0.5, 2.0)))

    sampler = MstSampler(state, alpha=1.0, delta=delta, seed=seed)
    tree = DynamicTree(state.vertices, state.costs)
    x_vals = np.zeros(0)
    for step in range(12):
        # mutate: delete a random non-bridge edge or insert a fresh one
        if step and rng.random() < 0.4:
            from bodychase.graphs import is_connected

            removable = [
                e for e in sorted(state.live)
                if is_connected(state.vertices, state.live - {e})
            ]
            if removable:
                e = removable[int(rng.integers(len(removable)))]
                state.delete(*e)
        else:
            fresh = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if (u, v) not in state.live]
            if fresh:
                u, v = fresh[int(rng.integers(len(fresh)))]
                cost = state.costs.get((u, v), float(rng.uniform(0.5, 2.0)))
                state.insert(u, v, cost)
        x = chase_tree_point(state, x_vals, delta)
        x_vals = x.values
        scaled = scaled_output(x, delta)
        inserted, deleted = mst_sampler_step(scaled.values, sampler)
        per_unit = repair_tree(inserted, deleted, tree)
        assert all(r <= 2 for r in per_unit)
        # fresh-tree comparison: spanning and minimum
        combined_edges = [(u, v, state.costs[(u, v)]) for u, v in sampler.combined]
        fresh_cost, _ = kruskal_mst(state.vertices, combined_edges)
        assert len(tree.tree) == n - 1
        assert tree.tree_cost() == pytest.approx(fresh_cost, abs=1e-9)
        # unconditional cost guarantee against the scaled fractional cost
        frac = sum(state.costs[e] * scaled.values[state.coords[e]]
                   for e in state.live)
        assert tree.tree_cost() <= (2.0 + delta) * frac + 1e-9


def test_a_sampling_rate_past_float_range_is_refused():
    # a finite rate past 1 only samples surely; an infinite one is refused
    assert sampling_rate(1.0, 1.0, 1e-150, 8) == pytest.approx(200.0 * np.log(8.0) * 1e300)
    for gamma, alpha, delta in [(1.0, 1.0, 1e-300), (1.0, 1.0, 1e-160), (1e300, 1e300, 0.5)]:
        with pytest.raises(AdapterError, match="past float range"):
            sampling_rate(gamma, alpha, delta, 8)
