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

The simplex solves the LP's dual: its right-hand side is the objective,
the movement weights (0 on x), so y = 0 is a feasible start. An unbounded
dual means no trajectory exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ChaseError, FractionalPoint, HalfspaceConstraint, Kind
from .simplex import SimplexResult, solve_inequality_lp

__all__ = [
    "Freeze",
    "OfflineError",
    "OracleCapExceeded",
    "RecourseLP",
    "build_compressed_lp",
    "lp_report",
    "solve_offline_lp",
    "solve_recourse_lp",
    "solve_optimal_recourse",
    "VARIABLE_CAP",
]

VARIABLE_CAP = 4000


class OfflineError(ChaseError):
    pass


class OracleCapExceeded(OfflineError):
    """The LP would have more variables than the cap; nothing was built."""


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


@dataclass
class RecourseLP:
    horizon: int
    n: int
    weights: np.ndarray
    objective: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    row_kinds: list
    # per coordinate: (the times it appears at, its x columns at those times)
    x_cols: dict = field(repr=False, default_factory=dict)

    @property
    def variable_count(self) -> int:
        return self.objective.shape[0]

    def trajectory(self, solution: np.ndarray) -> list:
        """The points, one per time step, of the trajectory encoded by an LP
        solution."""
        X = np.zeros((self.horizon, self.n))
        for i, (times, cols) in self.x_cols.items():
            k = 0
            current = 0.0
            for t in range(self.horizon):
                while k < len(times) and times[k] <= t:
                    current = solution[cols[k]]
                    k += 1
                X[t, i] = current
        return [FractionalPoint(np.clip(X[t], 0.0, None), self.weights)
                for t in range(self.horizon)]


def _row_entries(item, n):
    if isinstance(item, Freeze):
        for i in item.indices:
            if i >= n:
                raise OfflineError("freeze names coordinate %d beyond dimension %d" % (i, n))
        return item.indices
    if item.max_index >= n:
        raise OfflineError(
            "row names coordinate %d beyond dimension %d" % (item.max_index, n)
        )
    return item.indices.tolist()


def _constraint_rows(steps, n, nvar, col):
    """Dense covering, packing and clamp rows; x_i^t is column col(i, t)."""
    rows, rhs, kinds = [], [], []
    for t, group in enumerate(steps):
        for item in group:
            entries = _row_entries(item, n)
            if isinstance(item, Freeze):
                for i in entries:
                    row = np.zeros(nvar)
                    row[col(i, t)] = 1.0
                    rows.append(row)
                    rhs.append(0.0)
                    kinds.append("freeze")
                continue
            sign, kind = (-1.0, "cover") if item.kind is Kind.COVERING else (1.0, "pack")
            row = np.zeros(nvar)
            for i, v in zip(entries, item.coeffs):
                row[col(i, t)] = sign * v
            rows.append(row)
            rhs.append(sign)
            kinds.append(kind)
    return rows, rhs, kinds


def _appearances(steps, n) -> dict[int, list[int]]:
    """Per coordinate, the time steps at which a row or clamp names it."""
    appearances: dict[int, list[int]] = {}
    for t, group in enumerate(steps):
        for item in group:
            for i in _row_entries(item, n):
                seq = appearances.setdefault(int(i), [])
                if not seq or seq[-1] != t:
                    seq.append(t)
    return appearances


def build_compressed_lp(stream, weights) -> RecourseLP:
    weights = np.asarray(weights, dtype=float)
    steps = _normalize_stream(stream)
    T, n = len(steps), weights.shape[0]

    appearances = _appearances(steps, n)
    x_cols, col_at, nx = {}, {}, 0
    for i, times in sorted(appearances.items()):
        x_cols[i] = (times, np.arange(nx, nx + len(times)))
        col_at.update(((i, t), nx + k) for k, t in enumerate(times))
        nx += len(times)
    # one upward-movement variable per x variable, same order
    nvar = 2 * nx
    c = np.zeros(nvar)
    for i, (times, cols) in x_cols.items():
        c[nx + cols] = weights[i]

    rows, rhs, kinds = _constraint_rows(steps, n, nvar, lambda i, t: col_at[(i, t)])
    for i, (times, cols) in sorted(x_cols.items()):
        for k in range(len(times)):
            row = np.zeros(nvar)
            row[cols[k]] = 1.0
            if k > 0:
                row[cols[k - 1]] = -1.0
            row[nx + cols[k]] = -1.0
            rows.append(row)
            rhs.append(0.0)
            kinds.append("move")
    if not rows:
        rows = [np.zeros(max(nvar, 1))]
        rhs = [0.0]
        kinds = ["void"]
        c = np.zeros(max(nvar, 1))
    return RecourseLP(T, n, weights, c, np.array(rows), np.array(rhs), kinds, x_cols)


def solve_recourse_lp(lp: RecourseLP) -> SimplexResult:
    """Solve the LP as its dual, min rhs.y s.t. -lhs^T y <= objective, y >= 0,
    and read the result back as the primal's: objective, x (the dual's row
    duals) and row duals (the dual's x)."""
    dual = solve_inequality_lp(lp.rhs, -lp.lhs.T, lp.objective)
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
    weights = np.asarray(weights, dtype=float)
    steps = _normalize_stream(stream)
    # counted before anything is built: the dense rows are what runs out of memory
    variables = 2 * sum(map(len, _appearances(steps, weights.shape[0]).values()))
    if variables > variable_cap:
        raise OracleCapExceeded(
            "LP has %d variables, above the cap of %d" % (variables, variable_cap)
        )
    lp = build_compressed_lp(steps, weights)
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
