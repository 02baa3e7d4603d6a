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

Two builders produce the same optimum. The full formulation carries
2nT variables exactly as stated above. The compressed one keeps
variables only at the times a coordinate is actually named by a row or
clamp, chaining movement constraints between consecutive appearances;
holding coordinates constant in between is optimal (moving without a
row to satisfy only costs), so the optima coincide. The equivalence is
cross-checked in the tests; the compressed form is the default because
it is far smaller on sparse streams.
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
    "build_full_lp",
    "build_compressed_lp",
    "solve_recourse_lp",
    "solve_optimal_recourse",
    "verify_weak_duality",
    "stream_from_log",
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
    formulation: str
    # x-column lookup: full -> (T, n) int array; compressed -> per-coordinate
    # (times array, columns array)
    x_cols: object = field(repr=False, default=None)

    @property
    def variable_count(self) -> int:
        return self.objective.shape[0]

    def trajectory(self, solution: np.ndarray) -> np.ndarray:
        """(T, n) matrix of the trajectory encoded by an LP solution."""
        X = np.zeros((self.horizon, self.n))
        if self.formulation == "full":
            X = solution[self.x_cols]
        else:
            for i, (times, cols) in self.x_cols.items():
                k = 0
                current = 0.0
                for t in range(self.horizon):
                    while k < len(times) and times[k] <= t:
                        current = solution[cols[k]]
                        k += 1
                    X[t, i] = current
        return X


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


def build_full_lp(stream, weights) -> RecourseLP:
    weights = np.asarray(weights, dtype=float)
    steps = _normalize_stream(stream)
    T, n = len(steps), weights.shape[0]
    nx = T * n
    nvar = 2 * nx
    x_cols = np.arange(nx).reshape(T, n)

    def lcol(i, t):
        return nx + t * n + i

    c = np.zeros(nvar)
    for t in range(T):
        c[nx + t * n : nx + (t + 1) * n] = weights

    rows, rhs, kinds = _constraint_rows(steps, n, nvar, lambda i, t: x_cols[t, i])
    for t in range(T):
        for i in range(n):
            row = np.zeros(nvar)
            row[x_cols[t, i]] = 1.0
            if t > 0:
                row[x_cols[t - 1, i]] = -1.0
            row[lcol(i, t)] = -1.0
            rows.append(row)
            rhs.append(0.0)
            kinds.append("move")
    return RecourseLP(T, n, weights, c, np.array(rows), np.array(rhs), kinds,
                      "full", x_cols)


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
    return RecourseLP(T, n, weights, c, np.array(rows), np.array(rhs), kinds,
                      "compressed", x_cols)


def solve_recourse_lp(lp: RecourseLP) -> SimplexResult:
    res = solve_inequality_lp(lp.objective, lp.lhs, lp.rhs)
    if res.status == "infeasible":
        raise OfflineError("stream admits no feasible trajectory")
    if res.status != "optimal":
        raise OfflineError("recourse LP reported %s; it is bounded by construction" % res.status)
    if res.cs_residual > 1e-6 or res.duality_gap > 1e-6 * (1.0 + abs(res.objective)):
        raise OfflineError(
            "simplex self-check failed (cs %.2e, gap %.2e)" % (res.cs_residual, res.duality_gap)
        )
    return res


def solve_optimal_recourse(stream, weights, *, formulation: str = "compressed",
                           variable_cap: int = VARIABLE_CAP):
    """Optimal offline upward recourse and one optimal trajectory."""
    weights = np.asarray(weights, dtype=float)
    steps = _normalize_stream(stream)
    if not steps:
        return 0.0, []
    if formulation == "full":
        variables, build = 2 * len(steps) * weights.shape[0], build_full_lp
    elif formulation == "compressed":
        variables = 2 * sum(map(len, _appearances(steps, weights.shape[0]).values()))
        build = build_compressed_lp
    else:
        raise ValueError("formulation must be 'full' or 'compressed'")
    # counted before anything is built: the dense rows are what runs out of memory
    if variables > variable_cap:
        raise OracleCapExceeded(
            "LP has %d variables, above the cap of %d" % (variables, variable_cap)
        )
    lp = build(steps, weights)
    res = solve_recourse_lp(lp)
    opt = max(0.0, float(res.objective))
    X = lp.trajectory(res.x)
    trajectory = [FractionalPoint(np.clip(X[t], 0.0, None), weights) for t in range(lp.horizon)]
    return opt, trajectory


def verify_weak_duality(dual_objective: float, opt_value: float, tol: float = 1e-8) -> bool:
    return dual_objective <= opt_value + tol * max(1.0, abs(opt_value))


def stream_from_log(log) -> list:
    """Convert a projection log into the equivalent offline stream."""
    out = []
    for step in log.steps:
        if step.kind.value == "F":
            out.append(Freeze(step.indices.tolist()))
        else:
            coeffs = dict(zip(step.indices.tolist(), step.coeffs.tolist()))
            if step.kind.value == "C":
                out.append(HalfspaceConstraint.covering(coeffs))
            else:
                out.append(HalfspaceConstraint.packing(coeffs))
    return out
