"""Adapters compiling dynamic combinatorial problems into positive bodies.

Each adapter owns the mutable instance (sets and elements, graph edges,
jobs and machines), assigns one body coordinate per combinatorial
choice, and emits one `core.PositiveBody` per update: covering and
packing rows with right-hand side 1 and strictly positive coefficients,
the coordinates that must currently be pinned at zero, and the exact
per-update optimum the rows are scaled by. The spanning tree's cut rows
are too many to list, so its body finds them by separation.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

import numpy as np

from .core import ChaseError, HalfspaceConstraint, PositiveBody
from .graphs import (
    GraphError,
    apply_augmenting_path,
    global_min_cut,
    is_connected,
    kruskal_mst,
    maximum_matching,  # noqa: F401  the benchmark's tracer wraps this name
    shortest_augmenting_path,
    two_color,  # noqa: F401  and this one
)
from .simplex import solve_inequality_lp

__all__ = [
    "AdapterError",
    "UpdateEvent",
    "SetCoverState",
    "setcover_body",
    "MatchingState",
    "matching_body",
    "LoadBalanceState",
    "loadbalance_body",
    "MstState",
    "mst_body",
]

EXHAUSTIVE_JOB_LIMIT = 12


class AdapterError(ChaseError):
    pass


@dataclass(frozen=True)
class UpdateEvent:
    problem: str
    op: str
    payload: dict

    def __post_init__(self):
        if self.op not in ("insert", "delete"):
            raise AdapterError("op must be insert or delete, got %r" % (self.op,))


# ---------------------------------------------------------------- set cover


class SetCoverState:
    """Fixed set system, dynamic universe of live elements. Each element's
    sets, covering row and cover LP column are built once."""

    def __init__(self, costs, memberships):
        self.costs = np.asarray(costs, dtype=float)
        if self.costs.ndim != 1 or (self.costs <= 0).any():
            raise AdapterError("set costs must be positive")
        self.sets = [frozenset(s) for s in memberships]
        if len(self.sets) != self.costs.shape[0]:
            raise AdapterError("costs and memberships disagree in length")
        self._holders = {u: tuple(i for i, s in enumerate(self.sets) if u in s)
                         for u in sorted(set().union(*self.sets))}
        self._frequency = max(map(len, self._holders.values()), default=0)
        self.rows = {u: HalfspaceConstraint.covering(dict.fromkeys(ix, 1.0))
                     for u, ix in self._holders.items()}
        self._column = {u: j for j, u in enumerate(self._holders)}
        self._incidence = np.array([[float(u in s) for u in self._holders] for s in self.sets])
        self._price, self._lp = np.ones(len(self._column)), None  # -1 if live; last optimum
        self._packing = (None, ())  # ((beta, opt), the cost rows c / (beta opt)) last built
        self.live: set = set()
        self.lp_pivots = 0

    @property
    def dimension(self) -> int:
        return len(self.sets)

    def covering_sets(self, element):
        return self._holders.get(element, ())

    def frequency(self) -> int:
        return self._frequency

    def insert(self, element):
        if element in self.live:
            raise AdapterError("element %r already live" % (element,))
        if not self.covering_sets(element):
            raise AdapterError("element %r is not covered by any set" % (element,))
        self.live.add(element)
        self._price[self._column[element]] = -1.0

    def delete(self, element):
        if element not in self.live:
            raise AdapterError("element %r is not live" % (element,))
        self.live.remove(element)
        self._price[self._column[element]] = 1.0

    def fractional_opt(self) -> float:
        """Exact optimum of the fractional cover LP over live elements, by its
        dual max sum y_u s.t. sum_{u in S_i} y_u <= c_i, y >= 0 over every
        element, a dead one priced +1 (so 0 at every optimum). The constraints
        never change, so each solve re-prices the last optimal tableau; its
        self-check must hold to 1e-9 (1 + opt) against drift."""
        self.lp_pivots = 0
        if not self.live:
            return 0.0
        res = solve_inequality_lp(self._price, self._incidence, self.costs, start=self._lp)
        bound = 1e-9 * (1.0 - res.objective)
        if not (res.cs_residual <= bound and res.duality_gap <= bound):  # nan if unbounded
            raise AdapterError("cover LP failed its self-check (%s, cs %.2e, gap %.2e)"
                               % (res.status, res.cs_residual, res.duality_gap))
        self._lp, self.lp_pivots = res, res.iterations
        return -float(res.objective)


def setcover_body(state: SetCoverState, beta: float) -> PositiveBody:
    if beta < 1.0:
        raise AdapterError("beta must be at least 1 for covering problems")
    covering = tuple(state.rows[u] for u in sorted(state.live))
    opt = state.fractional_opt()
    if state._packing[0] != (beta, opt):  # else the kept row, with its step constants
        state._packing = ((beta, opt), (HalfspaceConstraint.packing(
            {i: float(c) / (beta * opt) for i, c in enumerate(state.costs)}),) if opt > 0.0 else ())
    return PositiveBody(covering, state._packing[1], opt=opt)


# ------------------------------------------------------------------ matching


def _edge_key(u, v):
    if u == v:
        raise AdapterError("self-loops are not allowed")
    return (u, v) if u <= v else (v, u)


class MatchingState:
    """Dynamic bipartite graph; one body coordinate per distinct edge. Keeps
    a maximum matching (see `optimum`), the sorted coordinates of the live
    and of the dead edges, and `matching_body`'s vertex rows."""

    def __init__(self):
        self.coords: dict = {}
        self.live: set = set()
        # vertex -> {live neighbour: the edge's coordinate} in insertion order, if it has one
        self.adj: dict = {}
        self.matching: dict = {}
        self._changed = None  # the edge changed since the matching was last maximum, if it matters
        self.live_coords: list = []
        self.frozen: list = []
        self.rows: dict = {}  # vertex -> its packing row: all coefficients 1
        self.touched: dict = {}  # the vertices whose live edges changed since the last body

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def _sides(self, u) -> dict:
        """The side of each vertex of u's live component, 0 for u's and 1
        for the other, in breadth-first order (the graph is bipartite)."""
        side, queue = {u: 0}, [u] if u in self.adj else []
        for a in queue:
            for b in self.adj[a]:
                if b not in side:
                    side[b] = 1 - side[a]
                    queue.append(b)
        return side

    def _same_side(self, u, v) -> bool:
        """Whether a live path of even length joins u to v: every u-v path
        has the parity of any other, so only u's component is searched."""
        return self._sides(u).get(v) == 0

    def _free_beside(self, u) -> list:
        """The free vertices on u's side of its component, in search order."""
        return [a for a, s in self._sides(u).items() if s == 0 and a not in self.matching]

    def insert(self, u, v):
        key = _edge_key(u, v)
        if key in self.live:
            raise AdapterError("edge %r is already live" % (key,))
        if self._same_side(*key):
            raise AdapterError("edge %r would close an odd cycle" % (key,))
        self._repair()
        if key in self.coords:
            self.frozen.remove(self.coords[key])
        coord = self.coords.setdefault(key, len(self.coords))
        self.live.add(key)
        insort(self.live_coords, coord)
        for a, b in (key, key[::-1]):
            self.adj.setdefault(a, {})[b] = coord
            self.touched[a] = None
        self._changed = key

    def delete(self, u, v):
        key = _edge_key(u, v)
        if key not in self.live:
            raise AdapterError("edge %r is not live" % (key,))
        self._repair()
        coord = self.coords[key]
        self.live.remove(key)
        self.live_coords.remove(coord)
        insort(self.frozen, coord)
        for a, b in (key, key[::-1]):
            del self.adj[a][b]
            if not self.adj[a]:
                del self.adj[a]
            self.touched[a] = None
        if self.matching.get(key[0]) == key[1]:
            del self.matching[key[0]], self.matching[key[1]]
            self._changed = key  # only a matched edge's deletion can leave it short

    def _repair(self) -> None:
        """Make the kept matching maximum again after the one edge change
        since it last was. By Berge's theorem the matching is then at most
        one augmenting path short, and that path touches the changed edge:
        it ends at a freed end of a deleted edge, or runs through an
        inserted one, from its free end or, when both ends are matched,
        from a free vertex on the first end's side of its component."""
        if self._changed is None:
            return
        key, self._changed, matching = self._changed, None, self.matching
        a, b = key
        if key not in self.live:
            starts = [[v] for v in key if v in self.adj]
        elif a not in matching and b not in matching:
            matching[a], matching[b] = b, a
            return
        elif a in matching and b in matching:
            starts = [self._free_beside(a)]
        else:
            starts = [[a if b in matching else b]]
        for free in starts:
            path = shortest_augmenting_path(self.adj, matching, free=free)
            if path is not None:
                apply_augmenting_path(matching, path)
                return

    def optimum(self) -> int:
        """Maximum matching size. The matching is repaired where the graph
        changed, so any number of updates may come between two calls."""
        self._repair()
        return len(self.matching) // 2


def matching_body(state: MatchingState, beta: float) -> PositiveBody:
    if not 0.0 < beta <= 1.0:
        raise AdapterError("beta must lie in (0, 1] for matching")
    opt = state.optimum()
    covering = [HalfspaceConstraint.covering(dict.fromkeys(
        state.live_coords, 1.0 / (beta * opt)))] if opt > 0 else []
    # only a vertex whose live edges changed gets a new row
    for v in state.touched:
        if v in state.adj:
            state.rows[v] = HalfspaceConstraint.packing(dict.fromkeys(state.adj[v].values(), 1.0))
        else:
            state.rows.pop(v, None)
    state.touched.clear()
    packing = [state.rows[v] for v in sorted(state.rows)]
    return PositiveBody(covering, packing, frozen=state.frozen, opt=float(opt))


# ------------------------------------------------------------- load balancing


class LoadBalanceState:
    """Fixed machine pool, dynamic jobs with per-machine loads."""

    def __init__(self, machines):
        self.machines = tuple(machines)
        if not self.machines:
            raise AdapterError("need at least one machine")
        self.jobs: dict = {}
        self.live: set = set()
        self.coords: dict = {}
        self.opt_exact = True

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def insert(self, job, loads):
        if job in self.live:
            raise AdapterError("job %r already live" % (job,))
        loads = {m: float(p) for m, p in loads.items()}
        if not loads:
            raise AdapterError("job %r has an empty machine set" % (job,))
        for m, p in loads.items():
            if m not in self.machines:
                raise AdapterError("job %r names unknown machine %r" % (job, m))
            if p <= 0:
                raise AdapterError("loads must be positive")
        if job in self.jobs and self.jobs[job] != loads:
            raise AdapterError("job id %r reused with different loads" % (job,))
        self.jobs[job] = loads
        for m in loads:
            self.coords.setdefault((m, job), len(self.coords))
        self.live.add(job)

    def delete(self, job):
        if job not in self.live:
            raise AdapterError("job %r is not live" % (job,))
        self.live.remove(job)

    def _greedy_makespan(self, jobs) -> float:
        load = {m: 0.0 for m in self.machines}
        for j in sorted(jobs, key=lambda j: -min(self.jobs[j].values())):
            m = min(self.jobs[j], key=lambda m: (load[m] + self.jobs[j][m], m))
            load[m] += self.jobs[j][m]
        return max(load.values())

    def _packs_within(self, jobs, guess) -> bool:
        load = {m: 0.0 for m in self.machines}

        def place(k):
            if k == len(jobs):
                return True
            j = jobs[k]
            for m in sorted(self.jobs[j], key=lambda m: (load[m], m)):
                p = self.jobs[j][m]
                if load[m] + p <= guess + 1e-9:
                    load[m] += p
                    if place(k + 1):
                        return True
                    load[m] -= p
            return False

        return place(0)

    def optimum(self):
        """Minimum integral makespan over live jobs.

        Exact up to EXHAUSTIVE_JOB_LIMIT live jobs; beyond that a greedy
        upper bound is declared instead (flagged in the second slot, and
        kept as `opt_exact`).
        """
        jobs = sorted(self.live)
        self.opt_exact = len(jobs) <= EXHAUSTIVE_JOB_LIMIT
        if not jobs:
            return 0.0, True
        upper = self._greedy_makespan(jobs)
        if not self.opt_exact:
            return upper, False
        lower = max(min(self.jobs[j].values()) for j in jobs)
        # the optimal makespan is some machine's total, hence a subset sum
        candidates = set()
        for m in self.machines:
            sums = {0.0}
            for j in jobs:
                if m in self.jobs[j]:
                    sums |= {s + self.jobs[j][m] for s in sums if s + self.jobs[j][m] <= upper + 1e-9}
            candidates |= sums
        ordered = sorted(c for c in candidates if lower - 1e-9 <= c <= upper + 1e-9)
        jobs_by_options = sorted(jobs, key=lambda j: (len(self.jobs[j]), -min(self.jobs[j].values()), j))
        lo, hi = 0, len(ordered) - 1
        best = upper
        while lo <= hi:
            mid = (lo + hi) // 2
            if self._packs_within(jobs_by_options, ordered[mid]):
                best = ordered[mid]
                hi = mid - 1
            else:
                lo = mid + 1
        return best, True


def loadbalance_body(state: LoadBalanceState, beta: float) -> PositiveBody:
    if beta < 1.0:
        raise AdapterError("beta must be at least 1 for load balancing")
    opt, _ = state.optimum()
    if state.live and not opt > 0.0:
        # the optimum packs within 1e-9 of a makespan, so loads that small pack in 0
        raise AdapterError("live loads too small: the optimal makespan is 0 within 1e-9")
    covering, frozen = [], []
    eligible = {}
    for j in sorted(state.live):
        coeffs = {}
        for m, p in state.jobs[j].items():
            if p <= opt + 1e-9:
                coeffs[state.coords[(m, j)]] = 1.0
                eligible.setdefault(m, {})[state.coords[(m, j)]] = p
            else:
                frozen.append(state.coords[(m, j)])
        covering.append(HalfspaceConstraint.covering(coeffs))
    packing = [HalfspaceConstraint.packing({c: p / (beta * opt) for c, p in eligible[m].items()})
               for m in state.machines if m in eligible]
    for (m, j), c in state.coords.items():
        if j not in state.live:
            frozen.append(c)
    return PositiveBody(covering, packing, frozen=sorted(set(frozen)), opt=opt)


# ------------------------------------------------------------------------ mst


_STALE = object()  # a spanning tree not yet built for the live graph


class MstState:
    """Dynamic graph on a fixed vertex set; coordinate per distinct edge."""

    def __init__(self, vertices):
        self.vertices = tuple(sorted(set(vertices)))
        if len(self.vertices) < 1:
            raise AdapterError("vertex set is empty")
        self.coords: dict = {}
        self.costs: dict = {}
        self.live: set = set()
        self._tree = _STALE

    @property
    def dimension(self) -> int:
        return len(self.coords)

    def insert(self, u, v, cost):
        key = _edge_key(u, v)
        if u not in self.vertices or v not in self.vertices:
            raise AdapterError("edge %r leaves the vertex set" % (key,))
        if key in self.live:
            raise AdapterError("edge %r is already live" % (key,))
        cost = float(cost)
        if cost <= 0:
            raise AdapterError("edge costs must be positive")
        if key in self.costs and self.costs[key] != cost:
            raise AdapterError("edge %r reinserted with a different cost" % (key,))
        if key not in self.coords:
            self.coords[key] = len(self.coords)
        self.costs[key] = cost
        self.live.add(key)
        self._tree = _STALE

    def delete(self, u, v):
        key = _edge_key(u, v)
        if key not in self.live:
            raise AdapterError("edge %r is not live" % (key,))
        self.live.remove(key)
        self._tree = _STALE

    def frozen_coords(self):
        return tuple(sorted(self.coords[e] for e in self.coords if e not in self.live))

    def spanning_tree(self):
        """`kruskal_mst` of the live graph, `(total, tree edges)`, or None when
        it is disconnected. Built once and kept until the next insert or
        delete; the (cost, u, v) order makes it independent of set order."""
        if self._tree is _STALE:
            try:
                self._tree = kruskal_mst(self.vertices,
                                         [(u, v, self.costs[(u, v)]) for u, v in self.live])
            except GraphError:
                self._tree = None
        return self._tree

    def optimum(self) -> float:
        kept = self.spanning_tree()
        if kept is None:
            raise AdapterError("graph is disconnected")
        return kept[0]

    def separation(self, values, cover_floor, pack_ceiling, beta):
        """One violated row of the cut body, or None (see `mst_body`)."""
        if not is_connected(self.vertices, self.live):
            raise AdapterError("graph must stay connected")
        return mst_body(self, beta).find_violated(values, cover_floor, pack_ceiling)


def mst_body(state: MstState, beta: float) -> PositiveBody:
    """The cut body of the live graph, which lists no row: its separator
    returns the minimum cut of the graph weighted by the point, if below
    cover_floor, else the total cost against beta times the tree optimum,
    if above pack_ceiling. The optimum and that packing row hold for the
    whole update, so they are built once here. The caller has checked that
    the graph is connected (the optimum of one that is not is an AdapterError).
    """
    if beta < 1.0:
        raise AdapterError("beta must be at least 1 for tree covering")
    opt, live, frozen = state.optimum(), sorted(state.live), state.frozen_coords()
    if not live:  # one vertex: no cut and no cost to bound
        return PositiveBody(frozen=frozen, opt=opt)
    cost = HalfspaceConstraint.packing(
        {state.coords[e]: state.costs[e] / (beta * opt) for e in live})
    coords = [state.coords[e] for e in live]

    def separate(values, cover_floor, pack_ceiling):
        point = values.tolist()
        weighted = [(u, v, point[c]) for (u, v), c in zip(live, coords)]
        cut_value, side = global_min_cut(state.vertices, weighted)
        if cut_value < cover_floor:
            return HalfspaceConstraint.covering(
                {state.coords[e]: 1.0 for e in live if (e[0] in side) != (e[1] in side)})
        return cost if cost.value_at(values) > pack_ceiling else None

    return PositiveBody(frozen=frozen, opt=opt, separate=separate)
