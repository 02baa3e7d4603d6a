"""Exact offline benchmark: the minimum-upward-recourse LP.

Given the same stream of rows (and clamps) a run saw, find the cheapest
trajectory any clairvoyant player could have used:

    min  sum_t sum_i w_i l_i^t
    s.t. <c^t, x^t> >= 1          for covering times
         <p^t, x^t> <= 1          for packing times (no eps slack:
                                   the benchmark chases the body itself)
         x_i^t <= 0               for clamped coordinates at clamp times
         x_i^t - x_i^{t-1} <= l_i^t,   x, l >= 0,  x^0 = 0.

A time step may carry several rows (a whole body snapshot); the stream
is a sequence of steps, each being one row, one Freeze, or an iterable
of those.

The LP keeps variables only at the times a coordinate is actually named
by a row or clamp, chaining movement constraints between consecutive
appearances; holding coordinates constant in between is optimal (moving
without a row to satisfy only costs), so its optimum is that of the full
formulation above, which carries x and l at every step (2nT variables).
The full form lives in the tests (tests/oracles.py) as the reference the
equivalence is cross-checked against.

The LP is built sparse, as (row, column, value) triplets, in one pass
over the stream, so its size and the variable cap are known before any
dense work; only `solve_recourse_lp` densifies it. The simplex solves
the LP's dual: its right-hand side is the objective, the movement
weights (0 on x), so y = 0 is a feasible start. An unbounded dual means
no trajectory exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ChaseError, FractionalPoint, HalfspaceConstraint, Kind
from .simplex import SimplexResult, solve_inequality_lp

__all__ = ["Freeze", "OfflineError", "OracleCapExceeded", "RecourseLP", "Triplets",
           "build_compressed_lp", "lp_report", "solve_offline_lp", "solve_recourse_lp",
           "solve_optimal_recourse", "VARIABLE_CAP"]

VARIABLE_CAP = 4000


class OfflineError(ChaseError):
    pass


class OracleCapExceeded(OfflineError):
    """The LP has more variables than the cap; it was not solved."""


@dataclass(frozen=True)
class Freeze:
    """Clamp of a coordinate set to zero at one time step."""

    indices: tuple

    def __init__(self, indices):
        object.__setattr__(self, "indices", tuple(sorted(int(i) for i in indices)))


def _normalize_stream(stream):
    """Each time step becomes a list of rows and freezes."""
    steps = []
    for item in stream:
        if isinstance(item, (HalfspaceConstraint, Freeze)):
            steps.append([item])
        else:
            group = list(item)
            for member in group:
                if not isinstance(member, (HalfspaceConstraint, Freeze)):
                    raise TypeError("stream items must be constraints or freezes")
            steps.append(group)
    return steps


@dataclass(frozen=True)
class Triplets:
    """A sparse matrix as (row, column, value) triplets, no two at one cell."""

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.cols.nbytes + self.values.nbytes

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.rows, self.cols] = self.values
        return dense


@dataclass
class RecourseLP:
    horizon: int
    n: int
    weights: np.ndarray
    objective: np.ndarray
    lhs: Triplets
    rhs: np.ndarray
    # per x column: the coordinate and the time step it stands for; a
    # coordinate's columns are numbered in time order
    x_coord: np.ndarray = field(repr=False)
    x_time: np.ndarray = field(repr=False)

    @property
    def variable_count(self) -> int:
        return self.objective.shape[0]

    def trajectory(self, solution: np.ndarray) -> list:
        """The points, one per time step, of the trajectory encoded by an LP
        solution: each x value holds until its coordinate's next column."""
        nx = self.x_coord.shape[0]
        last = np.full((self.horizon, self.n), -1)  # -1 reads the 0 appended below
        last[self.x_time, self.x_coord] = np.arange(nx)
        X = np.append(solution[:nx], 0.0)[np.maximum.accumulate(last, axis=0)]
        return [FractionalPoint(np.clip(X[t], 0.0, None), self.weights)
                for t in range(self.horizon)]


def build_compressed_lp(stream, weights) -> RecourseLP:
    """One pass over the steps emits each row's (row, coordinate, time,
    value) entries and right-hand side: a covering row negated to <= -1,
    a packing row as is, one 0 <= 0 clamp row per frozen index. The x
    columns are the distinct (coordinate, time) pairs in that order; each
    gets an upward-movement column l and a movement row
    x - x_prev - l <= 0, where x_prev is the coordinate's previous column."""
    weights = np.asarray(weights, dtype=float)
    steps = _normalize_stream(stream)
    T, n = len(steps), weights.shape[0]

    row, coord, time, value, rhs = [], [], [], [], []
    for t, group in enumerate(steps):
        for item in group:
            if isinstance(item, Freeze):  # one x <= 0 row per index
                what, top, idx = "freeze", max(item.indices, default=-1), list(item.indices)
                row += range(len(rhs), len(rhs) + len(idx))
                value += [1.0] * len(idx)
                rhs += [0.0] * len(idx)
            else:
                what, top, idx = "row", item.max_index, item.indices.tolist()
                sign = -1.0 if item.kind is Kind.COVERING else 1.0
                row += [len(rhs)] * len(idx)
                value += (sign * item.coeffs).tolist()
                rhs.append(sign)
            if top >= n:
                raise OfflineError("%s names coordinate %d beyond dimension %d" % (what, top, n))
            coord += idx
            time += [t] * len(idx)
    m = len(rhs)
    if m == 0:  # nothing is named: one void row over one void column
        none = np.zeros(0, dtype=np.int64)
        return RecourseLP(T, n, weights, np.zeros(1), Triplets((1, 1), none, none, np.zeros(0)),
                          np.zeros(1), none, none)

    coord = np.array(coord, dtype=np.int64)
    keys, x_of = np.unique(coord * T + np.array(time, dtype=np.int64), return_inverse=True)
    x_coord, x_time = np.divmod(keys, T)
    nx = keys.shape[0]
    x = np.arange(nx)
    # the previous column of the same coordinate, where there is one
    chained = np.flatnonzero(x_coord[1:] == x_coord[:-1]) + 1
    lhs = Triplets(
        (m + nx, 2 * nx),
        np.concatenate([row, m + x, m + chained, m + x]),
        np.concatenate([x_of, x, chained - 1, nx + x]),
        np.concatenate([value, np.ones(nx), np.full(chained.shape[0], -1.0),
                        np.full(nx, -1.0)]),
    )
    objective = np.concatenate([np.zeros(nx), weights[x_coord]])
    return RecourseLP(T, n, weights, objective, lhs, np.concatenate([rhs, np.zeros(nx)]),
                      x_coord, x_time)


def solve_recourse_lp(lp: RecourseLP) -> SimplexResult:
    """Solve the LP as its dual, min rhs.y s.t. -lhs^T y <= objective, y >= 0,
    and read the result back as the primal's: objective, x (the dual's row
    duals) and row duals (the dual's x)."""
    dual = solve_inequality_lp(lp.rhs, -lp.lhs.toarray().T, lp.objective)
    if dual.status == "unbounded":
        raise OfflineError("stream admits no feasible trajectory")
    if dual.cs_residual > 1e-6 or dual.duality_gap > 1e-6 * (1.0 + abs(dual.objective)):
        raise OfflineError(
            "simplex self-check failed (cs %.2e, gap %.2e)" % (dual.cs_residual, dual.duality_gap)
        )
    return SimplexResult("optimal", -dual.objective, dual.duals, dual.x, dual.iterations,
                         dual.cs_residual, dual.duality_gap)


def solve_offline_lp(stream, weights, *, variable_cap: int = VARIABLE_CAP):
    """The compressed LP of a stream and its primal-oriented solve."""
    lp = build_compressed_lp(stream, weights)
    # checked on the sparse LP: the dense solve is what runs out of memory
    if lp.variable_count > variable_cap:
        raise OracleCapExceeded(
            "LP has %d variables, above the cap of %d" % (lp.variable_count, variable_cap)
        )
    return lp, solve_recourse_lp(lp)


def lp_report(res: SimplexResult) -> dict:
    """The offline record's fields: the optimum, and the pivots,
    complementary-slackness residual and duality gap of its solve."""
    return {"opt": max(0.0, float(res.objective)), "pivots": res.iterations,
            "cs_residual": res.cs_residual, "duality_gap": res.duality_gap}


def solve_optimal_recourse(stream, weights, *, variable_cap: int = VARIABLE_CAP):
    """Optimal offline upward recourse and one optimal trajectory."""
    lp, res = solve_offline_lp(stream, weights, variable_cap=variable_cap)
    return lp_report(res)["opt"], lp.trajectory(res.x)
