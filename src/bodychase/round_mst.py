"""Rounding a fractional tree-covering point to a low-cost spanning tree.

Edges are sampled through fixed uniform thresholds against
p_e = min(1, 100 gamma (alpha+1) log(n) x_e / delta^2). Whenever the
sample fails to span the graph within cost (2+delta) times the
fractional cost, a fresh minimum spanning tree of the whole graph is
unioned in, which makes the cost guarantee unconditional. On top of the
combined edge set we keep a minimum spanning tree under unit updates:
deleting a tree edge pulls in the cheapest edge across the induced cut,
inserting an edge swaps out the costliest edge of the cycle it closes.
Either repair touches at most two tree slots.
"""

from __future__ import annotations

import math
from collections import deque

from .adapters import AdapterError, MstState
from .graphs import GraphError, build_adjacency, kruskal_mst
from .rng import MST_THRESHOLDS, substream

__all__ = ["MstSampler", "DynamicTree", "mst_sampler_step", "repair_tree",
           "sampling_rate"]


def sampling_rate(gamma: float, alpha: float, delta: float, n: int) -> float:
    # a finite rate past 1 only samples surely, one threshold an edge whatever the rate
    if not 0 < delta <= 1:
        raise AdapterError("delta must lie in (0, 1]")
    if n < 2:
        raise AdapterError("need at least two vertices")
    square = delta ** 2
    rate = 100.0 * gamma * (alpha + 1.0) * math.log(n) / square if square else math.inf
    if not rate < math.inf:
        raise AdapterError("gamma %r, alpha %r and delta %r put the sampling rate past "
                           "float range" % (gamma, alpha, delta))
    return rate


class MstSampler:
    def __init__(self, instance: MstState, alpha: float, delta: float,
                 seed: int, gamma: float = 1.0):
        self.instance = instance
        self.alpha = float(alpha)
        self.delta = float(delta)
        self.gamma = float(gamma)
        self.seed = int(seed)
        self.rate = sampling_rate(gamma, alpha, delta, len(instance.vertices))
        self._thresholds: dict = {}
        self.sampled: set = set()
        self.combined: set = set()
        self.fallback_fired = False
        self.fractional_cost = 0.0
        self.sample_recourse_total = 0

    def threshold(self, edge) -> float:
        got = self._thresholds.get(edge)
        if got is None:
            got = float(substream(self.seed, MST_THRESHOLDS, *edge).uniform())
            self._thresholds[edge] = got
        return got

    def probability(self, value: float) -> float:
        return min(1.0, self.rate * value)


def mst_sampler_step(values, sampler: MstSampler):
    """Resample against the point's `values`; returns the combined-set delta.

    The fallback fires when the sampled edges do not span the vertex set
    or their tree costs more than (2+delta) times the fractional cost,
    kept as `sampler.fractional_cost` (summed over the sorted live edges).
    """
    inst, rate, thresholds = sampler.instance, sampler.rate, sampler._thresholds
    live = sorted(inst.live)
    every = values.tolist()
    point = [every[inst.coords[e]] for e in live]
    sampled = set()
    for e, value in zip(live, point):
        # `probability(value) > threshold(e)`, read inline
        threshold = thresholds.get(e)
        if threshold is None:
            threshold = sampler.threshold(e)
        if min(1.0, rate * value) > threshold:
            sampled.add(e)
    sampler.sample_recourse_total += len(sampled ^ sampler.sampled)
    sampler.sampled = sampled

    sampler.fractional_cost = sum(inst.costs[e] * value for e, value in zip(live, point))
    fallback = set()
    fired = False
    try:
        cost, _ = kruskal_mst(inst.vertices,
                              [(u, v, inst.costs[(u, v)]) for u, v in sampled])
        fired = cost > (2.0 + sampler.delta) * sampler.fractional_cost + 1e-12
    except GraphError:
        fired = True
    if fired:
        kept = inst.spanning_tree()
        if kept is None:
            raise AdapterError("graph is disconnected")
        fallback = {(u, v) for u, v, _ in kept[1]}
    sampler.fallback_fired = fired
    combined = sampled | fallback
    inserted = sorted(combined - sampler.combined)
    deleted = sorted(sampler.combined - combined)
    sampler.combined = combined
    return inserted, deleted


class DynamicTree:
    """Spanning tree of the combined sampled graph with unit repairs."""

    def __init__(self, vertices, costs):
        self.vertices = tuple(sorted(set(vertices)))
        self.costs = costs
        self.edges: set = set()
        self.tree: set = set()
        self.recourse_total = 0

    def tree_cost(self) -> float:
        # sorted, so the sum does not depend on the set's hash order
        return float(sum(self.costs[e] for e in sorted(self.tree)))

    def _parents(self, root, banned=None) -> dict:
        """BFS parents of the vertices reachable from `root` (its own parent
        is None) in the tree minus the edge `banned`."""
        adj = build_adjacency(self.tree - {banned}, self.vertices)
        parent = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        return parent

    def _tree_path(self, source, target):
        """The tree edges from target back to source, None if unconnected."""
        parent = self._parents(source)
        if target not in parent:
            return None
        path = []
        while parent[target] is not None:
            path.append(tuple(sorted((target, parent[target]))))
            target = parent[target]
        return path

    def apply_unit(self, op: str, edge) -> int:
        """One combined-set edge change; repairs keep H a minimum tree."""
        edge = tuple(sorted(edge))
        changed = 0
        if op == "insert":
            self.edges.add(edge)
            cycle = self._tree_path(edge[0], edge[1])
            if cycle is None:
                # connects two components of the growing forest
                self.tree.add(edge)
                changed = 1
            else:
                worst = max(cycle, key=lambda e: (self.costs[e], e))
                if self.costs[edge] < self.costs[worst]:
                    self.tree.remove(worst)
                    self.tree.add(edge)
                    changed = 2
        elif op == "delete":
            self.edges.discard(edge)
            if edge in self.tree:
                self.tree.remove(edge)
                changed = 1
                side = self._parents(edge[0], edge)
                candidates = [
                    e for e in self.edges if (e[0] in side) != (e[1] in side)
                ]
                if not candidates:
                    raise AdapterError(
                        "combined graph disconnected at %r; fallback contract broken"
                        % (edge,)
                    )
                best = min(candidates, key=lambda e: (self.costs[e], e))
                self.tree.add(best)
                changed = 2
        else:
            raise AdapterError("op must be insert or delete")
        self.recourse_total += changed
        return changed


def repair_tree(inserted, deleted, tree: DynamicTree):
    """Apply a combined-set delta one unit at a time.

    Insertions go first so replacement edges are already present when
    tree edges get deleted. Returns per-unit recourse counts.
    """
    per_unit = []
    for e in sorted(inserted):
        per_unit.append(tree.apply_unit("insert", e))
    for e in sorted(deleted):
        per_unit.append(tree.apply_unit("delete", e))
    return per_unit
