"""Rounding a fractional bipartite matching with a sampled stabilizer.

Each potential edge owns kappa = ceil(100(alpha+4) log(n) / delta^2)
fixed uniform thresholds; copy i of edge e is live when x_e exceeds
threshold i. The support of the copy multigraph is the stabilizer graph
H. When some vertex degree in the multigraph exceeds (1+delta)*kappa
the per-copy fractional certificate breaks down and a maximum matching
of the current graph is unioned in as a safety net.

On top of H we maintain a matching with no augmenting path of fewer
than 2*ceil(1/delta) edges, repaired greedily after every unit edge
change, which pins |M| within 1-delta of maximum.
"""

from __future__ import annotations

import math
from bisect import insort

import numpy as np

from .adapters import AdapterError, MatchingState
from .graphs import (
    apply_augmenting_path,
    maximum_matching,
    shortest_augmenting_path,
    two_color_adjacency,
)
from .rng import MATCHING_THRESHOLDS, substream

__all__ = ["Stabilizer", "MaintainedMatching", "stabilizer_step", "maintain_matching",
           "kappa_copies", "MAX_COPIES"]

# An edge's kappa thresholds are one float vector from a SHAKE-256 digest of 8 kappa
# bytes, so 2**24 copies is 128 MiB an edge: delta 0.02 fits at n = 1000, alpha 1,
# while alpha 1e6 at n = 6 would ask for 716,706,655 copies (5.7 GB of digest).
MAX_COPIES = 2**24


def kappa_copies(alpha: float, delta: float, n: int) -> int:
    """ceil(100 (alpha + 4) log(n) / delta^2), refused past MAX_COPIES (or inf)."""
    if not 0 < delta <= 1:
        raise AdapterError("delta must lie in (0, 1]")
    if n < 2:
        raise AdapterError("need at least two vertices")
    square = delta ** 2
    copies = 100.0 * (alpha + 4.0) * math.log(n) / square if square else math.inf
    if not copies <= MAX_COPIES:
        raise AdapterError("alpha %r, delta %r and n = %d ask for %.3g threshold copies per "
                           "edge, past the cap of %d" % (alpha, delta, n, copies, MAX_COPIES))
    return math.ceil(copies)


class Stabilizer:
    """Copy-threshold sampler over the potential edges of an instance."""

    def __init__(self, instance: MatchingState, alpha: float, delta: float,
                 n: int, seed: int):
        self.instance = instance
        self.delta = float(delta)
        self.seed = int(seed)
        self.kappa = kappa_copies(alpha, delta, n)
        self._thresholds: dict = {}
        self.counts: dict = {}  # live edge -> its nonzero copy count at the last step
        self.values: dict = {}  # live edge -> its value at the last step
        self.support: set = set()
        self.case: str = "a"
        self.fallback: set = set()
        self.copy_step_recourse = 0
        self.copy_recourse_total = 0

    def _sorted_thresholds(self, edge) -> np.ndarray:
        got = self._thresholds.get(edge)
        if got is None:
            rng = substream(self.seed, MATCHING_THRESHOLDS, *edge)
            got = np.sort(rng.uniform(size=self.kappa))
            self._thresholds[edge] = got
        return got

    def copy_count(self, edge, value: float) -> int:
        # copies with threshold strictly below the fractional value
        return int(np.searchsorted(self._sorted_thresholds(edge), value, side="left"))


def stabilizer_step(values, stab: Stabilizer):
    """Recompute the stabilizer for the point's `values`.

    Returns (support edge set, inserted edges, deleted edges). Copy-level
    recourse is accumulated on the stabilizer.
    """
    inst, last, kept = stab.instance, stab.values, stab.counts
    counts, degree, copy_delta, stab.values = {}, {}, 0, {}
    for e in sorted(inst.live):
        value = stab.values[e] = float(values[inst.coords[e]])
        old = kept.pop(e, 0)
        # a count is a function of the edge's value: only a moved edge is searched again
        c = old if last.get(e) == value else stab.copy_count(e, value)
        if c:
            counts[e] = c
            u, v = e
            degree[u] = degree.get(u, 0) + c
            degree[v] = degree.get(v, 0) + c
        copy_delta += abs(c - old)
    copy_delta += sum(kept.values())  # the copies of the edges that died since the last step
    stab.copy_step_recourse = copy_delta
    stab.copy_recourse_total += copy_delta
    stab.counts = counts

    cap = (1.0 + stab.delta) * stab.kappa
    support = set(counts)
    if degree and max(degree.values()) > cap:
        stab.case = "b"
        partners = maximum_matching(sorted(inst.live))
        stab.fallback = {tuple(sorted((u, v))) for u, v in partners.items()}
        support |= stab.fallback
    else:
        stab.case = "a"
        stab.fallback = set()
    inserted = sorted(support - stab.support)
    deleted = sorted(stab.support - support)
    stab.support = support
    return support, inserted, deleted


class MaintainedMatching:
    """Matching over the stabilizer support with no short augmenting path."""

    def __init__(self, delta: float):
        if not 0 < delta <= 1:
            raise AdapterError("delta must lie in (0, 1]")
        self.k = math.ceil(1.0 / delta)
        self.max_path_edges = 2 * self.k - 1
        self.matching: dict = {}
        self.edges: set = set()
        self.adj: dict = {}  # build_adjacency(self.edges), kept per unit
        self.recourse_total = 0

    def size(self) -> int:
        return len(self.matching) // 2

    def matched_pairs(self):
        return sorted({tuple(sorted((u, v))) for u, v in self.matching.items()})

    def _augment_to_stability(self) -> int:
        # H's own bipartition: its colour-0 side is where the searches start
        color, changed = two_color_adjacency(self.adj), 0
        while True:
            path = shortest_augmenting_path(self.adj, self.matching, self.max_path_edges, color)
            if path is None:
                return changed
            apply_augmenting_path(self.matching, path)
            changed += len(path) - 1

    def apply_unit(self, op: str, edge) -> int:
        """One edge insertion or deletion in H, then restabilize.

        Returns the number of matching edge changes this unit caused.
        """
        edge = tuple(sorted(edge))
        if op not in ("insert", "delete"):
            raise AdapterError("op must be insert or delete")
        changed = 0
        if op == "delete" and edge in self.edges:
            self.edges.remove(edge)
            for a, b in (edge, edge[::-1]):
                self.adj[a].remove(b)
                if not self.adj[a]:
                    del self.adj[a]
            if self.matching.get(edge[0]) == edge[1]:
                del self.matching[edge[0]], self.matching[edge[1]]
                changed += 1
        elif op == "insert" and edge not in self.edges:
            self.edges.add(edge)
            for a, b in (edge, edge[::-1]):
                insort(self.adj.setdefault(a, []), b)
        changed += self._augment_to_stability()
        self.recourse_total += changed
        return changed


def maintain_matching(inserted, deleted, mm: MaintainedMatching):
    """Apply an H-delta one unit at a time; returns per-unit recourse list."""
    per_unit = []
    for e in sorted(deleted):
        per_unit.append(mm.apply_unit("delete", e))
    for e in sorted(inserted):
        per_unit.append(mm.apply_unit("insert", e))
    return per_unit
