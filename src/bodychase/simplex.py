"""Dense one-phase tableau simplex for small inequality-form LPs.

Solves   min c.v   subject to   G v <= h,  v >= 0,   with h >= 0,

so the slack basis is feasible and one phase from it suffices. The
package's LPs are the set cover dual and the offline recourse LP's dual
(see `offline`); both have that form. A solve can instead start from an
earlier result for the same G and h, whose final tableau is still
primal feasible: a re-priced start computes the objective row for the
new c by one product with that tableau and pivots on from there.
Dantzig pricing with an automatic switch to Bland's rule after a run of
non-improving pivots, so termination is guaranteed under heavy
degeneracy. A pivot updates only the rows where its column is nonzero,
or the whole tableau at once when that is most rows. A pivot tiny
against its column is likely round-off, so the tableau is first rebuilt
from the inputs at the current basis by one linear solve. Row duals are
the slack columns' final reduced costs: nonnegative multipliers, with
dual objective -h.lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ChaseError

__all__ = ["SimplexError", "SimplexResult", "solve_inequality_lp"]

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
MIN_PIVOT_RATIO = 1e-6  # smaller pivots, against their column, refresh the tableau


class SimplexError(ChaseError):
    """The solve failed numerically (pivot budget exhausted)."""


@dataclass
class SimplexResult:
    status: str
    objective: float
    x: np.ndarray
    duals: np.ndarray
    iterations: int
    cs_residual: float
    duality_gap: float
    basis: tuple = ()  # optimal basis, column indices into [G | I]
    tableau: np.ndarray | None = None  # the final [G | I | h], reduced to `basis`


def _pivot(work, obj, row, col):
    colvec = work[:, col].copy()  # the column before the pivot row is divided
    work[row] /= colvec[row]
    rows = colvec.nonzero()[0]
    if 2 * rows.size > work.shape[0]:  # a dense column: update the whole tableau
        colvec[row] = 0.0
        work -= np.outer(colvec, work[row])
    else:  # the other rows would lose exactly 0 * x
        rows = rows[rows != row]
        work[rows] -= np.outer(colvec[rows], work[row])
    if obj[col] != 0.0:
        obj -= obj[col] * work[row]


def _tableau(c, G, h, basis):
    """The tableau [G | I | h] and its objective row [c | 0 | 0], reduced
    to `basis`, one column of [G | I] per row, by one linear solve (the
    round-off refresh); None if that basis is singular or infeasible.
    Basis None: the slack basis."""
    m, n = G.shape
    work = np.zeros((m, n + m + 1))
    work[:, :n] = G
    np.fill_diagonal(work[:, n:n + m], 1.0)
    work[:, -1] = h
    obj = np.zeros(n + m + 1)
    obj[:n] = c
    if basis is None:
        return work, obj
    try:
        work = np.linalg.solve(work[:, basis], work)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(work).all() or (work[:, -1] < -FEAS_TOL).any():
        return None
    work[:, basis] = np.eye(m)
    work[:, -1] = np.clip(work[:, -1], 0.0, None)
    for r, b in enumerate(basis):
        if obj[b] != 0.0:
            obj -= obj[b] * work[r]
    return work, obj


def _run_phase(work, obj, basis, max_iter, refresh=None):
    """Minimize until no negative reduced cost remains.

    Returns (status, pivots). Switches to Bland's rule after 50 pivots
    without objective improvement. A pivot below MIN_PIVOT_RATIO of its
    column's largest entry may be round-off: then `refresh(basis)`, if
    given, rebuilds (work, obj) (None if it cannot), and the pricing
    starts over from Dantzig's rule, at most once between two pivots, so
    a genuinely small pivot is still taken.
    """
    m = work.shape[0]
    bland, stall, pivots = False, 0, 0
    refreshed = -1  # the pivot count at the last refresh
    while pivots < max_iter:
        reduced = obj[:-1]
        if bland:
            negs = (reduced < -PIVOT_TOL).nonzero()[0]
            if negs.size == 0:
                return "optimal", pivots
            col = int(negs[0])
        else:
            col = int(reduced.argmin())
            if reduced[col] >= -PIVOT_TOL:
                return "optimal", pivots
        colvec = work[:, col].copy()
        ratios = np.divide(work[:, -1], colvec, out=np.full(m, np.inf), where=colvec > PIVOT_TOL)
        best = float(ratios.min())
        if best == np.inf:
            return "unbounded", pivots
        ties = (ratios <= best + 1e-12 * (1.0 + abs(best))).nonzero()[0]
        if ties.size == 1:
            row = int(ties[0])
        elif bland:
            row = int(ties[np.asarray(basis)[ties].argmin()])
        else:
            row = int(ties[colvec[ties].argmax()])
        if (refresh is not None and refreshed < pivots
                and colvec[row] < MIN_PIVOT_RATIO * abs(colvec).max()):
            refreshed = pivots
            table = refresh(basis)
            if table is not None:  # pricing starts over on the clean tableau
                work[:], obj[:] = table
                bland, stall = False, 0
                continue
        before = float(obj[-1])
        _pivot(work, obj, row, col)
        basis[row] = col
        pivots += 1
        if float(obj[-1]) <= before + 1e-12 * (1.0 + abs(before)):
            stall += 1
            if stall >= 50:
                bland = True
        else:
            stall = 0
    raise SimplexError("pivot budget exhausted after %d iterations" % max_iter)


def solve_inequality_lp(c, G, h, *, start=None) -> SimplexResult:
    """Needs h >= 0. The solve starts at the slack basis, or at `start`, an
    earlier result for the same G and h: its tableau, re-priced for c."""
    c = np.asarray(c, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float)
    m, n = G.shape
    if c.shape != (n,) or h.shape != (m,):
        raise ValueError("inconsistent LP shapes")
    if m == 0:
        raise ValueError("LP needs at least one row")
    if (h < 0.0).any():
        raise ValueError("LP needs h >= 0, so that its slack basis is feasible")
    if start is None:
        basis = list(range(n, n + m))
        work, obj = _tableau(c, G, h, None)
    elif np.shape(start.tableau) != (m, n + m + 1):
        raise ValueError("a start needs the (m, n + m + 1) tableau of an optimal result")
    else:
        basis, work = list(start.basis), start.tableau.copy()
        cost = np.concatenate([c, np.zeros(m + 1)])
        obj = cost - cost[basis] @ work
        obj[basis] = 0.0
    status, iterations = _run_phase(work, obj, basis, 10000 + 20 * (m + n),
                                    lambda basis: _tableau(c, G, h, basis))
    if status == "unbounded":
        return SimplexResult("unbounded", -np.inf, np.full(n, np.nan),
                             np.zeros(m), iterations, np.nan, np.nan)

    x_full = np.zeros(n + m)
    x_full[basis] = work[:, -1]
    x = x_full[:n]
    objective = float(c @ x)
    duals = np.maximum(obj[n:n + m], 0.0)

    slack_primal = h - G @ x
    cs_rows = float(abs(duals * slack_primal).max())
    reduced = c + G.T @ duals
    cs_cols = float(abs(x * reduced).max()) if n else 0.0
    cs = max(cs_rows, cs_cols)
    gap = abs(objective - float(-h @ duals))
    return SimplexResult("optimal", objective, x, duals, iterations, cs, gap, tuple(basis), work)
