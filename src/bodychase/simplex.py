"""Dense two-phase tableau simplex for small inequality-form LPs.

Solves   min c.v   subject to   G v <= h,  v >= 0.

Written for the desk-scale recourse LPs of this package: heavy
degeneracy (many zero right-hand sides from movement rows) but modest
size. Dantzig pricing with an automatic permanent switch to Bland's
rule after a run of non-improving pivots, so termination is guaranteed.
Row duals are recovered from the optimal basis and returned in the
sign convention where every multiplier is nonnegative and the dual
objective is -h.lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimplexError", "SimplexResult", "solve_inequality_lp"]

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7


class SimplexError(Exception):
    pass


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


def _pivot(work, obj, row, col):
    work[row] = work[row] / work[row, col]
    factor = work[:, col].copy()
    factor[row] = 0.0
    work -= np.outer(factor, work[row])
    if obj[col] != 0.0:
        obj -= obj[col] * work[row]


def _run_phase(work, obj, basis, pivot_tol, max_iter):
    """Minimize until no negative reduced cost remains.

    Returns (status, iterations). Switches to Bland's rule permanently
    after 50 pivots without objective improvement.
    """
    m = work.shape[0]
    bland = False
    stall = 0
    for it in range(max_iter):
        reduced = obj[:-1]
        if bland:
            negs = np.flatnonzero(reduced < -pivot_tol)
            if negs.size == 0:
                return "optimal", it
            col = int(negs[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -pivot_tol:
                return "optimal", it
        colvec = work[:, col]
        eligible = colvec > pivot_tol
        if not eligible.any():
            return "unbounded", it
        ratios = np.full(m, np.inf)
        ratios[eligible] = work[eligible, -1] / colvec[eligible]
        best = float(ratios.min())
        ties = np.flatnonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))
        if bland:
            row = int(ties[np.argmin(np.asarray(basis)[ties])])
        else:
            row = int(ties[np.argmax(colvec[ties])])
        before = obj[-1]
        _pivot(work, obj, row, col)
        basis[row] = col
        if obj[-1] <= before + 1e-12 * (1.0 + abs(before)):
            stall += 1
            if stall >= 50:
                bland = True
        else:
            stall = 0
    raise SimplexError("pivot budget exhausted after %d iterations" % max_iter)


def solve_inequality_lp(c, G, h, *, basis=None, pivot_tol=PIVOT_TOL,
                        feas_tol=FEAS_TOL, max_iter=None) -> SimplexResult:
    """`basis`, one column of [G | I] per row, needs h >= 0; phase 2 starts
    there unless it is singular or infeasible, else at the slack basis."""
    c = np.asarray(c, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float)
    m, n = G.shape
    if c.shape != (n,) or h.shape != (m,):
        raise ValueError("inconsistent LP shapes")
    if m == 0:
        raise ValueError("LP needs at least one row")
    if max_iter is None:
        max_iter = 10000 + 20 * (m + n)
    start = None if basis is None else np.asarray(basis, dtype=np.int64)
    if start is not None and ((h < 0.0).any() or start.shape != (m,)
                              or start.min() < 0 or start.max() >= n + m):
        raise ValueError("a starting basis needs h >= 0 and one column of [G | I] per row")

    # sign-fix rows so every right-hand side is nonnegative
    sign = np.where(h < 0.0, -1.0, 1.0)
    A = sign[:, None] * G
    slack = np.diag(sign)
    rhs = sign * h
    art_rows = np.flatnonzero(sign < 0.0)
    n_art = art_rows.size
    art = np.zeros((m, n_art))
    art[art_rows, np.arange(n_art)] = 1.0

    work = np.hstack([A, slack, art, rhs[:, None]])
    width = n + m + n_art
    basis = [0] * m
    for r in range(m):
        basis[r] = n + r if sign[r] > 0.0 else 0
    for k, r in enumerate(art_rows):
        basis[r] = n + m + k
    if start is not None:
        try:  # the tableau in that basis, by one linear solve
            table = np.linalg.solve(work[:, start], work)
        except np.linalg.LinAlgError:  # singular
            table = None
        if table is not None and np.isfinite(table).all() and (table[:, -1] >= -feas_tol).all():
            table[:, start] = np.eye(m)
            table[:, -1] = np.clip(table[:, -1], 0.0, None)
            work, basis = table, start.tolist()

    total_iter = 0
    if n_art:
        phase1 = np.zeros(width + 1)
        phase1[n + m : n + m + n_art] = 1.0
        for r in range(m):
            if basis[r] >= n + m:
                phase1 -= work[r]
        status, it = _run_phase(work, phase1, basis, pivot_tol, max_iter)
        total_iter += it
        if status == "unbounded":
            raise SimplexError("phase 1 cannot be unbounded; numerical failure")
        if -phase1[-1] > feas_tol:
            return SimplexResult("infeasible", np.nan, np.full(n, np.nan),
                                 np.zeros(m), total_iter, np.nan, np.nan)
        # clear leftover basic artificials: pivot them out where possible,
        # drop genuinely redundant rows
        keep = np.ones(m, dtype=bool)
        for r in range(m):
            if basis[r] < n + m:
                continue
            entries = np.abs(work[r, : n + m])
            j = int(np.argmax(entries))
            if entries[j] > pivot_tol:
                _pivot(work, phase1, r, j)
                basis[r] = j
            else:
                keep[r] = False
        if not keep.all():
            work = work[keep]
            basis = [b for b, k in zip(basis, keep) if k]
    else:
        keep = np.ones(m, dtype=bool)

    work = np.hstack([work[:, : n + m], work[:, -1:]])

    cost = np.zeros(n + m + 1)
    cost[:n] = c
    obj = cost.copy()
    for r in range(work.shape[0]):
        if obj[basis[r]] != 0.0:
            obj -= obj[basis[r]] * work[r]
    status, it = _run_phase(work, obj, basis, pivot_tol, max_iter)
    total_iter += it
    if status == "unbounded":
        return SimplexResult("unbounded", -np.inf, np.full(n, np.nan),
                             np.zeros(m), total_iter, np.nan, np.nan)

    x_full = np.zeros(n + m)
    for r, b in enumerate(basis):
        x_full[b] = work[r, -1]
    x = x_full[:n]
    objective = float(c @ x)

    # basis duals of the sign-fixed equality system, mapped back to
    # nonnegative row multipliers of G v <= h
    rows_kept = np.flatnonzero(keep)
    eq = np.hstack([A, slack])[rows_kept]
    B = eq[:, basis]
    cb = cost[basis][: len(basis)]
    try:
        y = np.linalg.solve(B.T, cb)
    except np.linalg.LinAlgError:
        y = np.linalg.lstsq(B.T, cb, rcond=None)[0]
    duals = np.zeros(m)
    duals[rows_kept] = -sign[rows_kept] * y
    duals = np.clip(duals, 0.0, None)

    slack_primal = h - G @ x
    cs_rows = float(np.max(np.abs(duals * slack_primal))) if m else 0.0
    reduced = c + G.T @ duals
    cs_cols = float(np.max(np.abs(x * reduced))) if n else 0.0
    cs = max(cs_rows, cs_cols)
    gap = abs(objective - float(-h @ duals))
    return SimplexResult("optimal", objective, x, duals, total_iter, cs, gap, tuple(basis))
