"""Independent reference implementations used only by the test suite.

The references do not call into the solver's numerics, except the
copying engine step, which shares core's root finder and one-rate closed
form (and can be held to the root finder alone), and the two-phase
simplex, which shares simplex's pivot and pricing loop: the point is to
confirm the fast paths against slow, transparent computations.
"""

from __future__ import annotations

import numpy as np

import math
from dataclasses import dataclass, replace

from bodychase.certify import (
    FEASIBILITY_TOL,
    CertificateError,
    MultiplierLog,
    check_ineq1,
    check_ineq2,
)
from bodychase.core import (
    _EXP_CAP,
    _FLOAT_EPS,
    ConstraintError,
    ConvergenceError,
    DimensionMismatch,
    FractionalPoint,
    Freeze,
    HalfspaceConstraint,
    Kind,
    NotViolatedError,
    PositiveBody,
    Step,
    _root,
    covering_violated,
    packing_violated,
    project_and_record,
    stream_steps,
)
from bodychase.adapters import AdapterError, UpdateEvent
from bodychase.formats import FormatError, _numeric, parse_updates
from bodychase.graphs import (
    GraphError,
    apply_augmenting_path,
    build_adjacency,
    is_connected,
    maximum_matching,
    shortest_augmenting_path,
)
from bodychase.offline import OfflineError, RecourseLP, Triplets
from bodychase.round_matching import MaintainedMatching
from bodychase.runner import _meta, run_problem
from bodychase.simplex import (
    FEAS_TOL,
    MIN_PIVOT_RATIO,
    PIVOT_TOL,
    SimplexError,
    SimplexResult,
    _run_phase,
)


def kl_objective(x_sub, prev_sub, w_sub, shift_sub):
    """Shifted divergence sum w_i * (xh log(xh/ph) - xh), elementwise safe.

    x_sub may be an (N, k) batch. The 0 log 0 cells are defined as 0.
    """
    x_sub = np.atleast_2d(x_sub)
    xh = x_sub + shift_sub
    ph = prev_sub + shift_sub
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.where(xh > 0.0, xh * np.log(xh / ph), 0.0)
    return (term - xh) @ w_sub


def brute_project(x_prev, weights, constraint: HalfspaceConstraint, eps,
                  rounds: int = 18, pts: int = 21):
    """Grid-and-shrink minimizer of the projection program over one halfspace.

    Two facts narrow the search without reference to any closed form.
    First, the unconstrained minimum of the divergence sits at the previous
    point, which violates the row, so by convexity the optimum lies exactly
    on the hyperplane where the row is tight; one support variable is
    therefore eliminated. Second, packing optima never rise above the
    previous point (lowering any raised coordinate improves the objective
    and keeps feasibility), and tight covering rows force c_i x_i <= 1.
    The remaining free variables are searched by meshes that shrink around
    the incumbent. Intended for supports of size <= 3.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    weights = np.asarray(weights, dtype=float)
    idx = constraint.indices
    cf = constraint.coeffs
    k = idx.shape[0]
    w = weights[idx]
    prev = x_prev[idx]
    covering = constraint.kind is Kind.COVERING
    rhs = 1.0 if covering else 1.0 + eps

    if covering:
        shift = eps / (4.0 * k * cf)
        hi0 = 1.0 / cf
    else:
        shift = np.zeros(k)
        hi0 = prev.copy()
    lo0 = np.zeros(k)

    free = np.flatnonzero(hi0 > 0.0)
    if free.size == 0:
        raise ValueError("row has no live coordinate to move")
    # eliminate the variable with the largest row mass c_i * hi_i so the
    # tight slice always crosses the grid box
    elim = free[int(np.argmax(cf[free] * hi0[free]))]
    grid_axes = np.array([j for j in free if j != elim], dtype=int)

    best = prev.copy()
    if grid_axes.size == 0:
        best[elim] = rhs / cf[elim]
    else:
        lo = lo0[grid_axes].copy()
        hi = hi0[grid_axes].copy()
        for _ in range(rounds):
            axes = [np.linspace(lo[j], hi[j], pts) for j in range(grid_axes.size)]
            mesh = np.meshgrid(*axes, indexing="ij")
            flat = np.stack([m.ravel() for m in mesh], axis=1)
            cands = np.tile(prev, (flat.shape[0], 1))
            cands[:, grid_axes] = flat
            x_e = (rhs - flat @ cf[grid_axes]) / cf[elim]
            cands[:, elim] = x_e
            ok = x_e >= 0.0
            if not covering:
                ok &= x_e <= prev[elim]
            obj = kl_objective(cands, prev, w, shift)
            obj = np.where(ok, obj, np.inf)
            pick = int(np.argmin(obj))
            center = flat[pick]
            best = cands[pick]
            span = (hi - lo) * 0.45
            lo = np.maximum(lo0[grid_axes], center - span / 2.0)
            hi = np.minimum(hi0[grid_axes], center + span / 2.0)

    out = x_prev.copy()
    out[idx] = best
    return out


def random_mixed_stream(rng, n, T, eps, coeff_lo=1.0, coeff_hi=8.0,
                        pack_prob=0.35, dmax=4):
    """Random arriving rows fed through the online processor.

    Coefficients are drawn honestly from [coeff_lo, coeff_hi]; rows the
    point already satisfies become zero-multiplier log entries, exactly
    as a real run records them. Returns (log, log.ledger, rows, weights).
    """
    w = rng.uniform(0.5, 2.0, size=n)
    x = FractionalPoint.zeros(n, w)
    log = MultiplierLog(w)
    rows = []
    for step in range(T):
        live = np.flatnonzero(x.values > 1e-9)
        use_packing = step > 0 and live.size > 0 and rng.random() < pack_prob
        if use_packing:
            d = int(rng.integers(1, min(live.size, dmax) + 1))
            sup = rng.choice(live, size=d, replace=False)
        else:
            d = int(rng.integers(1, min(n, dmax) + 1))
            sup = rng.choice(n, size=d, replace=False)
        coeffs = {int(i): float(rng.uniform(coeff_lo, coeff_hi)) for i in sup}
        if use_packing:
            row = HalfspaceConstraint.packing(coeffs)
        else:
            row = HalfspaceConstraint.covering(coeffs)
        x = project_and_record(x, row, eps, log)[0]
        rows.append(row)
    return log, log.ledger, rows, w


def _axis_relax(V, axis, step_cost):
    """One-axis movement relaxation: upward costs step_cost per cell,
    downward is free."""
    W = np.moveaxis(V, axis, -1).copy()
    m = W.shape[-1]
    for j in range(1, m):
        W[..., j] = np.minimum(W[..., j], W[..., j - 1] + step_cost)
    for j in range(m - 2, -1, -1):
        W[..., j] = np.minimum(W[..., j], W[..., j + 1])
    return np.moveaxis(W, -1, axis)


def grid_recourse_dp(stream, weights, cells=64):
    """Optimal upward recourse restricted to the grid (1/cells)Z^n in [0,1]^n.

    Value iteration over full grids: after each arrival the point may move
    (upward movement billed per axis, downward free), then states violating
    the arrived rows are struck. Exponential in n, meant for n <= 3.
    """
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    h = 1.0 / cells
    levels = np.arange(cells + 1) * h
    V = np.full((cells + 1,) * n, np.inf)
    V[(0,) * n] = 0.0
    for item in stream:
        group = item if isinstance(item, list) else [item]
        for axis in range(n):
            V = _axis_relax(V, axis, weights[axis] * h)
        feasible = np.ones(V.shape, dtype=bool)
        for member in group:
            if not isinstance(member, Freeze):
                value = np.zeros(V.shape)
                for i, coeff in zip(member.indices.tolist(), member.coeffs):
                    shape = [1] * n
                    shape[i] = cells + 1
                    value = value + coeff * levels.reshape(shape)
                if member.kind.value == "C":
                    feasible &= value >= 1.0 - 1e-12
                else:
                    feasible &= value <= 1.0 + 1e-12
            else:
                for i in member.indices:
                    shape = [1] * n
                    shape[i] = cells + 1
                    feasible &= (np.arange(cells + 1) == 0).reshape(shape)
        V = np.where(feasible, V, np.inf)
    return float(V.min())


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
    rows, rhs = [], []
    for t, group in enumerate(steps):
        for item in group:
            entries = _row_entries(item, n)
            if isinstance(item, Freeze):
                for i in entries:
                    row = np.zeros(nvar)
                    row[col(i, t)] = 1.0
                    rows.append(row)
                    rhs.append(0.0)
                continue
            sign = -1.0 if item.kind is Kind.COVERING else 1.0
            row = np.zeros(nvar)
            for i, v in zip(entries, item.coeffs):
                row[col(i, t)] = sign * v
            rows.append(row)
            rhs.append(sign)
    return rows, rhs


def dense_compressed_lp(stream, weights):
    """`offline.build_compressed_lp` as it was built densely, one zero row
    per constraint: the reference for its one-pass sparse build. Returns
    (objective, lhs, rhs, x_coord, x_time), the last two naming each x
    column's coordinate and time step."""
    weights = np.asarray(weights, dtype=float)
    steps = stream_steps(stream)
    n = weights.shape[0]

    appearances: dict[int, list[int]] = {}
    for t, group in enumerate(steps):
        for item in group:
            for i in _row_entries(item, n):
                seq = appearances.setdefault(int(i), [])
                if not seq or seq[-1] != t:
                    seq.append(t)
    x_cols, col_at, nx = {}, {}, 0
    for i, times in sorted(appearances.items()):
        x_cols[i] = (times, np.arange(nx, nx + len(times)))
        col_at.update(((i, t), nx + k) for k, t in enumerate(times))
        nx += len(times)
    nvar = 2 * nx
    c = np.zeros(nvar)
    for i, (times, cols) in x_cols.items():
        c[nx + cols] = weights[i]

    rows, rhs = _constraint_rows(steps, n, nvar, lambda i, t: col_at[(i, t)])
    for i, (times, cols) in sorted(x_cols.items()):
        for k in range(len(times)):
            row = np.zeros(nvar)
            row[cols[k]] = 1.0
            if k > 0:
                row[cols[k - 1]] = -1.0
            row[nx + cols[k]] = -1.0
            rows.append(row)
            rhs.append(0.0)
    if not rows:
        rows = [np.zeros(max(nvar, 1))]
        rhs = [0.0]
        c = np.zeros(max(nvar, 1))
    layout = sorted(col_at.items(), key=lambda item: item[1])
    x_coord = np.array([i for (i, _), _ in layout], dtype=np.int64)
    x_time = np.array([t for (_, t), _ in layout], dtype=np.int64)
    return c, np.array(rows), np.array(rhs), x_coord, x_time


def triplets_of(dense) -> Triplets:
    rows, cols = np.nonzero(dense)
    return Triplets(dense.shape, rows, cols, dense[rows, cols])


def build_full_lp(stream, weights) -> RecourseLP:
    """The recourse LP exactly as stated in bodychase.offline: x_i^t and
    l_i^t for every coordinate at every step (2nT variables). The
    reference for the compressed form, which keeps x only where a row or
    clamp names the coordinate."""
    weights = np.asarray(weights, dtype=float)
    steps = stream_steps(stream)
    T, n = len(steps), weights.shape[0]
    nx = T * n
    nvar = 2 * nx
    x_at = np.arange(nx).reshape(T, n)

    c = np.zeros(nvar)
    for t in range(T):
        c[nx + t * n : nx + (t + 1) * n] = weights

    rows, rhs = _constraint_rows(steps, n, nvar, lambda i, t: x_at[t, i])
    for t in range(T):
        for i in range(n):
            row = np.zeros(nvar)
            row[x_at[t, i]] = 1.0
            if t > 0:
                row[x_at[t - 1, i]] = -1.0
            row[nx + t * n + i] = -1.0
            rows.append(row)
            rhs.append(0.0)
    return RecourseLP(T, n, weights, c, triplets_of(np.array(rows)), np.array(rhs),
                      np.tile(np.arange(n), T), np.repeat(np.arange(T), n))


def applied(x_prev, row, res) -> np.ndarray:
    """A copy of x_prev's values with the projection `res` onto `row` applied."""
    values = x_prev.values.copy()
    values[row.indices] = res.x_after
    return values


def covering_residuals(x_prev, c, eps, res):
    """(tightness, multiplicative-form) residuals for a covering projection."""
    shift = eps / (4.0 * c.sparsity * c.coeffs)
    xh_new = res.x_after + shift
    xh_old = x_prev.values[c.indices] + shift
    w = x_prev.weights[c.indices]
    tight = abs(float(res.x_after @ c.coeffs) - 1.0)
    mult = float(np.max(np.abs(w * np.log(xh_new / xh_old) - c.coeffs * res.multiplier)))
    return tight, mult


def packing_residuals(x_prev, p, eps, res):
    old = x_prev.values[p.indices]
    new = res.x_after
    w = x_prev.weights[p.indices]
    tight = abs(float(new @ p.coeffs) - (1.0 + eps))
    live = old > 0.0
    mult = 0.0
    if live.any():
        mult = float(
            np.max(np.abs(w[live] * np.log(new[live] / old[live]) + p.coeffs[live] * res.multiplier))
        )
    return tight, mult


def random_covering_case(rng, nmax=20, dmax=6, eps_choices=(0.1, 0.5, 1.0)):
    n = int(rng.integers(1, nmax + 1))
    d = int(rng.integers(1, min(n, dmax) + 1))
    sup = rng.choice(n, size=d, replace=False)
    coeffs = {int(i): float(rng.uniform(0.25, 4.0)) for i in sup}
    w = rng.uniform(0.5, 2.0, size=n)
    x = rng.uniform(0.0, 1.0, size=n)
    x[rng.random(n) < 0.3] = 0.0
    c = HalfspaceConstraint.covering(coeffs)
    v = c.value_at(x)
    if v >= 0.9:
        x *= 0.5 / v
    eps = float(rng.choice(eps_choices))
    return FractionalPoint(x, w), c, eps


def random_packing_case(rng, nmax=20, dmax=6, eps_choices=(0.0, 0.1, 0.5, 1.0)):
    n = int(rng.integers(1, nmax + 1))
    d = int(rng.integers(1, min(n, dmax) + 1))
    sup = rng.choice(n, size=d, replace=False)
    coeffs = {int(i): float(rng.uniform(0.25, 4.0)) for i in sup}
    w = rng.uniform(0.5, 2.0, size=n)
    x = rng.uniform(0.1, 1.0, size=n)
    x[rng.random(n) < 0.25] = 0.0
    p = HalfspaceConstraint.packing(coeffs)
    if p.value_at(x) == 0.0:
        x[int(sup[0])] = 1.0
    eps = float(rng.choice(eps_choices))
    x *= 1.5 * (1.0 + eps) / p.value_at(x)
    return FractionalPoint(x, w), p, eps


# ---------------------------------------------------------------------------
# Bracket-and-bisect projections: the root finder the Newton iteration in
# core replaced, kept to check the multipliers and points against.


@dataclass
class PointResult:
    """A reference projection's outcome: a whole new point."""

    point: FractionalPoint
    multiplier: float
    iterations: int
    residual: float


def bisect_root(g, rhs, tol, max_iter, increasing, what):
    """Root in [0, inf) of the monotone residual g, which is not yet 0 at 0.

    Doubles hi from 1 until g(hi) crosses 0, then bisects [0, hi] and
    stops once |g| <= tol * rhs.  Runs at most max_iter halvings; if the
    bracket is exhausted without meeting the target the best midpoint is
    accepted only when it is within a factor 1e3 of the target, otherwise
    the call fails.  Returns (root, |g(root)|, doublings + halvings).
    """
    hi = 1.0
    doubles = 0
    while (g(hi) < 0.0) if increasing else (g(hi) > 0.0):
        hi *= 2.0
        doubles += 1
        if doubles > 200:
            raise ConvergenceError("%s multiplier bracket did not close" % what)
    lo = best = 0.0
    best_g = g(lo)
    iterations = 0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        iterations += 1
        if abs(gm) < abs(best_g):
            best, best_g = mid, gm
        if abs(gm) <= tol * rhs:
            return mid, abs(gm), doubles + iterations
        below = (gm < 0.0) if increasing else (gm > 0.0)
        if below:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _FLOAT_EPS * max(1.0, hi):
            break
    if abs(best_g) <= 1e3 * tol * rhs:
        return best, abs(best_g), doubles + iterations
    raise ConvergenceError(
        "multiplier search stalled: residual %.3e after %d iterations" % (best_g, iterations)
    )


def bisect_project_covering(
    x_prev: FractionalPoint,
    c: HalfspaceConstraint,
    eps: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> PointResult:
    """Project onto a violated covering halfspace `<c, x> >= 1`.

    Only coordinates on the row's support move, and they only move up.
    Returns the new point together with the nonnegative multiplier y of
    the tight constraint, the root-finder iteration count, and the final
    absolute residual |<c, x> - 1|.
    """
    if c.kind is not Kind.COVERING:
        raise ConstraintError("project_covering needs a covering row")
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    start = c.value_at(x_prev.values)
    if not covering_violated(start):
        raise NotViolatedError("row already satisfied: value %.17g" % start)

    idx = c.indices
    cvec = c.coeffs
    w = x_prev.weights[idx]
    xs = x_prev.values[idx]
    shift = eps / (4.0 * c.sparsity * cvec)
    base = xs + shift
    rate = cvec / w
    const = float(cvec @ shift)

    def residual(y: float) -> float:
        expo = np.exp(np.minimum(rate * y, _EXP_CAP))
        return float(cvec @ (base * expo)) - const - 1.0

    y, resid, iters = bisect_root(residual, 1.0, tol, max_iter, True, "covering")
    new_sub = base * np.exp(rate * y) - shift
    # covering projections never move a coordinate down
    new_sub = np.maximum(new_sub, xs)
    values = x_prev.values.copy()
    values[idx] = new_sub
    point = FractionalPoint(values, x_prev.weights)
    return PointResult(point, float(y), iters, resid)


def bisect_project_packing(
    x_prev: FractionalPoint,
    p: HalfspaceConstraint,
    eps: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> PointResult:
    """Project onto `<p, x> <= 1 + eps` from a point that violates it.

    Support coordinates shrink multiplicatively; zero coordinates stay
    zero.  eps = 0 is allowed here (the shift never enters the packing
    objective, only the right hand side).
    """
    if p.kind is not Kind.PACKING:
        raise ConstraintError("project_packing needs a packing row")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    rhs = 1.0 + eps
    start = p.value_at(x_prev.values)
    if not packing_violated(start, eps):
        raise NotViolatedError(
            "packing row not violated: value %.17g <= %.17g" % (start, rhs)
        )

    idx = p.indices
    pvec = p.coeffs
    w = x_prev.weights[idx]
    xs = x_prev.values[idx]
    rate = pvec / w

    def residual(z: float) -> float:
        return float(pvec @ (xs * np.exp(-rate * z))) - rhs

    z, resid, iters = bisect_root(residual, rhs, tol, max_iter, False, "packing")
    new_sub = np.minimum(xs * np.exp(-rate * z), xs)
    values = x_prev.values.copy()
    values[idx] = new_sub
    point = FractionalPoint(values, x_prev.weights)
    return PointResult(point, float(z), iters, resid)


# ---------------------------------------------------------------------------
# Copying engine step: the step the in-place engine in core replaced, which
# builds a whole new point per row and records the ledger step with clip
# and abs. Kept as the bit-for-bit reference for the fused step; it shares
# core._root and core's one-rate closed form, so it checks everything
# around them. With closed_form=False every row goes through the Newton
# root finder: the reference for the closed form itself.


def _copying_project(x_prev, row, shift, sign, level, closed_form) -> PointResult:
    idx = row.indices
    cvec = row.coeffs
    xs = x_prev.values[idx]
    base = xs + shift
    rate = cvec / x_prev.weights[idx]
    # the exponents sign * rate * t are <= 0 for packing; only covering
    # ones can reach the cap
    top = float(rate.max()) if sign > 0 else 0.0
    mass = cvec * base
    const = float(cvec @ shift) if sign > 0 else 0.0

    def residual(t: float):
        st = sign * t
        exponent = np.minimum(rate * st, _EXP_CAP) if st > 0.0 else rate * st
        terms = mass * np.exp(exponent)
        slope = sign * float(terms @ rate) if st * top < _EXP_CAP else math.inf
        return float(terms.sum()) - const - level, slope

    if closed_form and rate.max() == rate.min():
        K = (level + const) / (row.value_at(x_prev.values) + const)
        new_sub = base * K - shift
        t, iters = sign * math.log(K) / float(rate.max()), 1
        resid = abs(float(cvec @ (base * K)) - const - level)
    else:
        t, resid, iters = _root(residual, level + const, level, sign > 0)
        new_sub = base * np.exp(rate * (sign * t)) - shift
    values = x_prev.values.copy()
    values[idx] = np.maximum(new_sub, xs) if sign > 0 else np.minimum(new_sub, xs)
    return PointResult(FractionalPoint(values, x_prev.weights), float(t), iters, resid)


def copying_project_covering(x_prev, c, eps, *, closed_form=True) -> PointResult:
    if c.kind is not Kind.COVERING:
        raise ConstraintError("project_covering needs a covering row")
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    start = c.value_at(x_prev.values)
    if not covering_violated(start):
        raise NotViolatedError("row already satisfied: value %.17g" % start)
    shift = eps / (4.0 * c.sparsity * c.coeffs)
    return _copying_project(x_prev, c, shift, 1.0, 1.0, closed_form)


def copying_project_packing(x_prev, p, eps, *, closed_form=True) -> PointResult:
    if p.kind is not Kind.PACKING:
        raise ConstraintError("project_packing needs a packing row")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    rhs = 1.0 + eps
    start = p.value_at(x_prev.values)
    if not packing_violated(start, eps):
        raise NotViolatedError(
            "packing row not violated: value %.17g <= %.17g" % (start, rhs)
        )
    return _copying_project(x_prev, p, 0.0, -1.0, rhs, closed_form)


def newton_project(x_prev, row, eps) -> PointResult:
    """The projection of a violated row by the Newton root finder alone,
    whatever its rates: the reference for core's one-rate closed form."""
    if row.kind is Kind.COVERING:
        return copying_project_covering(x_prev, row, eps, closed_form=False)
    return copying_project_packing(x_prev, row, eps, closed_form=False)


def copying_project_and_record(x_prev, row, eps, ledger=None, log=None):
    """(new point, PointResult or None); x_prev is left unchanged."""
    if row.kind is Kind.COVERING:
        project = copying_project_covering
    else:
        project = copying_project_packing
    try:
        res = project(x_prev, row, eps)
    except NotViolatedError:
        res = None
    x_new = x_prev if res is None else res.point
    idx = row.indices
    before, after = x_prev.values[idx], x_new.values[idx]
    if ledger is not None:
        ledger.record_step(x_prev.weights[idx], before, after)
    if log is not None:
        log.append_projection(row, logged_step(row, 0.0 if res is None else res.multiplier,
                                               before, after))
    return x_new, res


def logged_step(row, multiplier, x_before, x_after) -> Step:
    """A hand-built `Step` onto `row`: x_before and x_after are x[row.indices],
    given as any sequences of numbers."""
    return Step(row.kind, row.indices, row.coeffs, float(multiplier),
                np.asarray(x_before, dtype=float), np.asarray(x_after, dtype=float))


# ---------------------------------------------------------------------------
# Dense (n, T) and list-based references for the certificate layer: the
# computations the per-coordinate certificates replaced, kept to check
# them against.


def coeff_matrices(log: MultiplierLog):
    """Dense (n, T) covering/packing coefficient matrices plus y, z vectors."""
    n, T = log.n, log.horizon
    C = np.zeros((n, T))
    P = np.zeros((n, T))
    y = np.zeros(T)
    z = np.zeros(T)
    for t, step in enumerate(log.steps):
        if step.kind is Kind.COVERING:
            C[step.indices, t] = step.coeffs
            y[t] = step.multiplier
        elif step.kind is Kind.PACKING:
            P[step.indices, t] = step.coeffs
            z[t] = step.multiplier
    return C, P, y, z


def dense_x_before(log: MultiplierLog) -> np.ndarray:
    """(n, T) matrix of the full point before every step, replayed from
    the per-step support values; a coordinate holds its first recorded
    value until it first moves."""
    x = np.zeros(log.n)
    for step in reversed(log.steps):
        x[step.indices] = step.x_before
    xb = np.zeros((log.n, log.horizon))
    for t, step in enumerate(log.steps):
        xb[:, t] = x
        x[step.indices] = step.x_after
    return xb


def dense_r(r_bar, n: int, T: int) -> np.ndarray:
    """(n, T) matrix of a certificate's r_i^t, read through its accessor."""
    return np.array([[r_bar.at(i, t) for t in range(T)] for i in range(n)]).reshape(n, T)


def dense_check_dual_feasibility(log: MultiplierLog, y_bar, z_bar, r_bar) -> float:
    """Largest violation of any dual row, with r_bar a dense (n, T) matrix."""
    n, T = log.n, log.horizon
    C, P, _, _ = coeff_matrices(log)
    r_next = np.zeros((n, T))
    if T > 1:
        r_next[:, :-1] = r_bar[:, 1:]
    rows = C * y_bar - P * z_bar - r_bar + r_next
    for t, step in enumerate(log.steps):
        if step.kind is Kind.FREEZE:
            rows[step.indices, t] = -np.inf
    worst = float(np.max(rows)) if rows.size else 0.0
    worst = max(worst, float(np.max(-r_bar)) if r_bar.size else 0.0)
    w_col = log.weights[:, None]
    worst = max(worst, float(np.max(r_bar - w_col)) if r_bar.size else 0.0)
    if y_bar.size:
        worst = max(worst, float(np.max(-y_bar)), float(np.max(-z_bar)))
    return worst


def dense_warmup_r_bar(log: MultiplierLog, eps: float) -> np.ndarray:
    view = log.entries()
    d = max(1, view.sparsity)
    A = math.log1p(4.0 * d * max(1.0, view.aspect_ratio) / eps)
    cmax = np.zeros(log.n)
    cmax[view.coord] = view.cmax
    xb = dense_x_before(log)
    w_col = log.weights[:, None]
    return w_col * (1.0 - np.log1p(4.0 * d * cmax[:, None] * xb / eps) / A)


def dense_refined_r_bar(log: MultiplierLog, ytilde, eps: float) -> np.ndarray:
    n, T = log.n, log.horizon
    d = max(1, log.entries().sparsity)
    A = math.log1p(40.0 * d * d / (eps * eps))
    C, P, _, z = coeff_matrices(log)
    a = C * ytilde - P * z
    M = np.zeros((n, T))
    carry = np.zeros(n)
    for t in range(T - 1, -1, -1):
        carry = np.maximum(0.0, a[:, t] + carry)
        M[:, t] = carry
    return M / A


def dense_max_window_sums(log: MultiplierLog, ytilde) -> np.ndarray:
    C, P, _, z = coeff_matrices(log)
    a = C * ytilde - P * z
    n, T = a.shape
    best = np.full(n, -np.inf)
    cur = np.full(n, -np.inf)
    for t in range(T):
        cur = np.where(cur > 0.0, cur + a[:, t], a[:, t])
        best = np.maximum(best, cur)
    return best


def list_refine_ytilde(log: MultiplierLog, eps: float) -> np.ndarray:
    """Damped covering multipliers per the budgeted back-scan, as
    `certify.refine_ytilde` computed them before it walked the log's view:
    from its own per-coordinate lists of (time, coefficient).

    Processing covering times in order, each support coordinate spends a
    budget c_i^l * y^l on earlier covering times whose coefficient on i
    is at least 10 d^l c_i^l / eps, always consuming the latest candidate
    first; each earlier time is then lowered by the largest consumption
    any coordinate charged to it. The result keeps at least a
    (1 - eps/10) fraction of the multiplier mass while every window sum
    of c_i ytilde - p_i z stays below w_i log(1 + 40 d^2/eps^2). Both
    facts are verified before returning.

    Only valid for clamp-free logs: a freeze resets a coordinate without
    a packing payment, which breaks the window bound.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    freezes = log.entries().freeze_count
    if freezes:
        raise CertificateError(
            "refined certificate requires a clamp-free log (%d freezes present)" % freezes
        )
    T = log.horizon
    ytilde = np.zeros(T)
    appearances: dict[int, list[tuple[int, float]]] = {}
    for ell, step in enumerate(log.steps):
        if step.kind is not Kind.COVERING:
            continue
        y_ell = step.multiplier
        drops: dict[int, float] = {}
        support = list(zip(step.indices.tolist(), step.coeffs.tolist()))
        for i, c_il in support:
            budget = c_il * y_ell
            if budget <= 0.0:
                continue
            threshold = 10.0 * len(support) * c_il / eps
            seen = appearances.get(i, ())
            candidates = [(tau, c) for tau, c in seen if c >= threshold and ytilde[tau] > 0.0]
            for tau, c_tau in reversed(candidates):
                if budget <= 0.0:
                    break
                take = min(ytilde[tau], budget / c_tau)
                budget -= c_tau * take
                drops[tau] = max(drops.get(tau, 0.0), take)
                if take < ytilde[tau]:
                    break
        ytilde[ell] = y_ell
        for tau, amount in drops.items():
            ytilde[tau] = max(0.0, ytilde[tau] - amount)
        for i, c_il in support:
            appearances.setdefault(i, []).append((ell, c_il))

    excess1, where1 = check_ineq1(log, ytilde, eps)
    if excess1 > FEASIBILITY_TOL:
        raise CertificateError(
            "window sum bound violated by %.3e at coordinate %d" % (excess1, where1)
        )
    deficit = check_ineq2(log, ytilde, eps)
    if deficit > FEASIBILITY_TOL:
        raise CertificateError("ytilde mass dropped below (1 - eps/10) by %.3e" % deficit)
    return ytilde


def list_refined_movement(log: MultiplierLog, ytilde, eps: float):
    """(r_bar.start, r_bar.after) of the refined certificate by the suffix
    maximum loop `certify.build_refined_dual` ran before it shared one
    backward pass with `max_window_sums`."""
    e = log.entries()
    d = max(1, e.sparsity)
    A = math.log1p(40.0 * d * d / (eps * eps))
    a, last = e.movement(ytilde, e.z).tolist(), e.last.tolist()
    M, carry = [0.0] * len(a), 0.0
    for k in reversed(range(len(a))):
        M[k] = carry = max(0.0, a[k] + (0.0 if last[k] else carry))
    M = np.array(M)
    start = np.zeros(log.n)
    start[e.coord[e.first]] = M[e.first] / A
    after = np.where(e.last, 0.0, np.roll(M, -1)) / A
    return start, after


# ---------------------------------------------------------------------------
# Lemma checks on a log, and the view's appearance times: read only by tests.


def appearances(view) -> dict:
    """Per appearing coordinate, the times of the steps whose support holds it."""
    return dict(zip(view.coord[view.first].tolist(),
                    np.split(view.time, np.flatnonzero(view.first)[1:])))


def check_movement_bound(log: MultiplierLog, eps: float) -> float:
    """Worst excess of per-covering-step upward movement over (1 + eps/4) y."""
    e = log.entries()
    moved = log.weights[e.coord] * np.clip(e.x_after - e.x_before, 0.0, None)
    excess = np.bincount(e.time, moved, e.horizon) - (1.0 + eps / 4.0) * e.y
    excess = excess[e.step_kind == "C"]
    return float(excess.max()) if excess.size else 0.0


def check_z_bound(log: MultiplierLog, eps: float) -> float:
    """(1 + eps/4) sum(y) - (1 + eps) sum(z); >= 0 up to tol on real runs."""
    e = log.entries()
    return float((1.0 + eps / 4.0) * e.y.sum() - (1.0 + eps) * e.z.sum())


def check_subset_lemma(log: MultiplierLog, eps: float, i: int, s: int, t: int, subset) -> float:
    """lhs - rhs of the subset bound; <= tol expected.

    subset must be covering times within [s, t] (0-based, inclusive).
    """
    subset = sorted(int(tau) for tau in subset)
    if any(tau < s or tau > t for tau in subset):
        raise ValueError("subset must lie inside [s, t]")
    if any(log.steps[tau].kind is not Kind.COVERING for tau in subset):
        raise ValueError("subset may only contain covering times")

    e = log.entries()
    lo, hi = np.searchsorted(e.coord, [i, i + 1])
    coeff = dict(zip(e.time[lo:hi].tolist(), e.coeff[lo:hi].tolist()))

    def paid(tau):
        return coeff.get(tau, 0.0) * log.steps[tau].multiplier

    lhs = sum(paid(tau) for tau in subset)
    lhs -= sum(paid(tau) for tau in range(s, t + 1) if log.steps[tau].kind is Kind.PACKING)
    cmax_s = max((coeff.get(tau, 0.0) for tau in subset), default=0.0)
    # x_i after step t: its value after its last appearance up to t
    j = int(np.searchsorted(e.time[lo:hi], t, side="right"))
    x_it = float(e.x_after[lo + j - 1]) if j else 0.0
    rhs = float(log.weights[i]) * math.log1p(4.0 * max(1, e.sparsity) * cmax_s * x_it / eps)
    return float(lhs - rhs)


# ---------------------------------------------------------------------------
# Simplex, adapter and runner references: the pivot, duals and phases
# the one-phase simplex replaced, and the slow paths of the layers above.


def dense_pivot(work, obj, row, col):
    """The simplex pivot as it was before it updated only the rows the pivot
    column changes: the whole tableau loses one outer product."""
    work[row] = work[row] / work[row, col]
    factor = work[:, col].copy()
    factor[row] = 0.0
    work -= np.outer(factor, work[row])
    if obj[col] != 0.0:
        obj -= obj[col] * work[row]


def unfused_pivot(work, obj, row, col):
    """`simplex._pivot` as it was before it copied its column once: it
    divides the pivot row into a new array and reads the column after."""
    work[row] = work[row] / work[row, col]
    rows = np.flatnonzero(work[:, col])
    if 2 * rows.size > work.shape[0]:  # a dense column: update the whole tableau
        factor = work[:, col].copy()
        factor[row] = 0.0
        work -= np.outer(factor, work[row])
    else:  # the other rows would lose exactly 0 * x
        rows = rows[rows != row]
        work[rows] -= np.outer(work[rows, col], work[row])
    if obj[col] != 0.0:
        obj -= obj[col] * work[row]


def masked_run_phase(work, obj, basis, max_iter, refresh=None):
    """`simplex._run_phase` as it was before it copied its entering column
    once: the ratio test through a boolean mask, the stall test in numpy
    scalars, the pivot by `unfused_pivot`. Minimize until no negative
    reduced cost remains.

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
            negs = np.flatnonzero(reduced < -PIVOT_TOL)
            if negs.size == 0:
                return "optimal", pivots
            col = int(negs[0])
        else:
            col = int(np.argmin(reduced))
            if reduced[col] >= -PIVOT_TOL:
                return "optimal", pivots
        colvec = work[:, col]
        eligible = colvec > PIVOT_TOL
        if not eligible.any():
            return "unbounded", pivots
        ratios = np.full(m, np.inf)
        ratios[eligible] = work[eligible, -1] / colvec[eligible]
        best = float(ratios.min())
        ties = np.flatnonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))
        if bland:
            row = int(ties[np.argmin(np.asarray(basis)[ties])])
        else:
            row = int(ties[np.argmax(colvec[ties])])
        if (refresh is not None and refreshed < pivots
                and colvec[row] < MIN_PIVOT_RATIO * np.abs(colvec).max()):
            refreshed = pivots
            table = refresh(basis)
            if table is not None:  # pricing starts over on the clean tableau
                work[:], obj[:] = table
                bland, stall = False, 0
                continue
        before = obj[-1]
        unfused_pivot(work, obj, row, col)
        basis[row] = col
        pivots += 1
        if obj[-1] <= before + 1e-12 * (1.0 + abs(before)):
            stall += 1
            if stall >= 50:
                bland = True
        else:
            stall = 0
    raise SimplexError("pivot budget exhausted after %d iterations" % max_iter)


def lu_duals(c, G, basis):
    """Nonnegative row multipliers of G v <= h from an optimal basis of
    [G | I], by one linear solve with the basis: how `solve_inequality_lp`
    recovered its duals before it read them off the final objective row."""
    m, n = G.shape
    basis = list(basis)
    B = np.hstack([G, np.eye(m)])[:, basis]
    cb = np.concatenate([c, np.zeros(m)])[basis]
    try:
        y = np.linalg.solve(B.T, cb)
    except np.linalg.LinAlgError:
        y = np.linalg.lstsq(B.T, cb, rcond=None)[0]
    return np.clip(-y, 0.0, None)


def two_phase_lp(c, G, h, *, basis=None) -> SimplexResult:
    """The two-phase simplex `simplex.solve_inequality_lp` was before it
    required h >= 0: rows with h < 0 are sign-flipped and start on artificial
    columns, which phase 1 drives out; it reports "infeasible" LPs.

    `basis`, one column of [G | I] per row, needs h >= 0; phase 2 starts
    there unless it is singular or infeasible, else at the slack basis."""
    c = np.asarray(c, dtype=float)
    G = np.atleast_2d(np.asarray(G, dtype=float))
    h = np.asarray(h, dtype=float)
    m, n = G.shape
    if c.shape != (n,) or h.shape != (m,):
        raise ValueError("inconsistent LP shapes")
    if m == 0:
        raise ValueError("LP needs at least one row")
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
        if table is not None and np.isfinite(table).all() and (table[:, -1] >= -FEAS_TOL).all():
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
        status, it = _run_phase(work, phase1, basis, max_iter)
        total_iter += it
        if status == "unbounded":
            raise SimplexError("phase 1 cannot be unbounded; numerical failure")
        if -phase1[-1] > FEAS_TOL:
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
            if entries[j] > PIVOT_TOL:
                dense_pivot(work, phase1, r, j)
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
    status, it = _run_phase(work, obj, basis, max_iter)
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


def set_round_det(values, selected, f: int) -> set:
    """`round_det`'s next selection as it was computed before it read the
    point as Python floats: one numpy comparison per set, in index order."""
    enter, leave = 1.0 / f, 1.0 / (2.0 * f)
    return {i for i in range(values.shape[0])
            if values[i] >= enter or (i in selected and values[i] > leave)}


def set_covers_live(cover) -> bool:
    """`CoverState.covers_live` by its definition: every live element has a
    selected set among the sets that hold it."""
    return all(any(i in cover.selected for i in cover.instance.covering_sets(u))
               for u in cover.instance.live)


def set_cost(cover) -> float:
    """`CoverState.cost` as it summed numpy costs over the selected sets."""
    return float(sum(cover.instance.costs[i] for i in cover.selected))


def cold_cover_opt(state):
    """The fractional cover LP over `state`'s live elements in its primal
    form, min c.x s.t. every live element covered, x >= 0, solved cold by
    two-phase simplex: the formulation `SetCoverState.fractional_opt`
    replaced. Returns (optimum, pivots)."""
    if not state.live:
        return 0.0, 0
    rows = np.zeros((len(state.live), state.dimension))
    for r, u in enumerate(sorted(state.live)):
        rows[r, list(state.covering_sets(u))] = -1.0
    res = two_phase_lp(state.costs, rows, -np.ones(len(rows)))
    assert res.status == "optimal"
    return float(res.objective), res.iterations


def cold_matching_body(state, beta: float) -> PositiveBody:
    """`adapters.matching_body` as it was before it kept anything between
    updates: a cold `maximum_matching` of the live graph and a fresh packing
    row for every vertex. Reads only the state's coordinates and live edges."""
    if not 0.0 < beta <= 1.0:
        raise AdapterError("beta must lie in (0, 1] for matching")
    live = sorted(state.live)
    opt = len(maximum_matching(live)) // 2
    covering = [HalfspaceConstraint.covering(
        dict.fromkeys((state.coords[e] for e in live), 1.0 / (beta * opt)))] if opt > 0 else []
    incident: dict = {}
    for e in live:
        for v in e:
            incident.setdefault(v, {})[state.coords[e]] = 1.0
    packing = [HalfspaceConstraint.packing(incident[v]) for v in sorted(incident)]
    frozen = tuple(sorted(state.coords[e] for e in state.coords if e not in state.live))
    return PositiveBody(covering, packing, frozen=frozen, opt=float(opt))


def first_violated(body: PositiveBody, values, floor: float, ceiling: float):
    """`PositiveBody.find_violated` as it was before it picked the most
    violated row: the first covering row below `floor` in body order, else
    the separator's row, else the first packing row above `ceiling`. Keeps
    `body.value` and `body.separated` as the method does, so it can stand
    in for it."""
    if body.max_index >= values.shape[0]:
        raise DimensionMismatch("body touches coordinate %d but the point has dimension %d"
                                % (body.max_index, values.shape[0]))
    for row in body.covering:
        value = values[row.indices].dot(row.coeffs)
        if value < floor:
            body.value = value
            return row
    if body.separate is not None:
        row, body.value = body.separate(values, floor, ceiling), None
        if row is not None:
            body.separated.append(row)
            return row
    for row in body.packing:
        value = values[row.indices].dot(row.coeffs)
        if value > ceiling:
            body.value = value
            return row
    return None


def most_violated(body: PositiveBody, values, floor: float, ceiling: float):
    """The most violated row by brute force: every listed row's value, then
    the smallest covering value below `floor`, else the separator's row,
    else the largest packing value above `ceiling`, ties to the row listed
    first. Returns the row (the body is left alone but for `separate`)."""
    cover = [(row.value_at(values), k) for k, row in enumerate(body.covering)]
    low = sorted((v, k) for v, k in cover if v < floor)
    if low:
        return body.covering[low[0][1]]
    if body.separate is not None:
        row = body.separate(values, floor, ceiling)
        if row is not None:
            return row
    pack = [(-row.value_at(values), k) for k, row in enumerate(body.packing)]
    high = sorted((v, k) for v, k in pack if -v > ceiling)
    return body.packing[high[0][1]] if high else None


class ColdMaintainedMatching(MaintainedMatching):
    """The maintained matching as it was before it kept its adjacency: each
    repair rebuilds H's adjacency and every search re-colours it."""

    def _augment_to_stability(self) -> int:
        adj = build_adjacency(self.edges)
        changed = 0
        while True:
            path = shortest_augmenting_path(adj, self.matching, self.max_path_edges)
            if path is None:
                return changed
            apply_augmenting_path(self.matching, path)
            changed += len(path) - 1


# Helpers only the tests use, moved out of the package.


def mst_separation(state, x, beta: float, threshold: float):
    """Single-threshold form: covering below 1 - threshold, packing above
    1 + threshold."""
    return state.separation(np.asarray(x.values if hasattr(x, "values") else x,
                                       dtype=float),
                            1.0 - threshold, 1.0 + threshold, beta)


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


class IncrementalLog:
    """The multiplier log as it was before its per-coordinate facts were
    derived from the steps: every append updates the appearance lists,
    the extreme covering coefficients, the sparsity and the freeze count.
    The reference the log's `entries()` view is checked against."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)
        self.steps: list[Step] = []
        self.appearances: dict[int, list[int]] = {}
        self._cmax: dict[int, float] = {}
        self._cmin: dict[int, float] = {}
        self.sparsity = 0  # largest covering support
        self.freeze_count = 0

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def horizon(self) -> int:
        return len(self.steps)

    @property
    def has_freeze(self) -> bool:
        return self.freeze_count > 0

    @property
    def aspect_ratio(self) -> float:
        if not self._cmax:
            return 0.0
        return max(self._cmax[i] / self._cmin[i] for i in self._cmax)

    def coeff_max(self) -> np.ndarray:
        out = np.zeros(self.n)
        out[list(self._cmax)] = list(self._cmax.values())
        return out

    def extend_weights(self, weights) -> None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape[0] < self.n or not np.array_equal(weights[: self.n], self.weights):
            raise ValueError("weights may only grow, never change")
        self.weights = weights

    def _append(self, step: Step) -> "IncrementalLog":
        if not (step.x_before.shape == step.x_after.shape == step.indices.shape):
            raise ValueError("x_before and x_after must hold x on the step's support")
        t = len(self.steps)
        for i in step.indices.tolist():
            self.appearances.setdefault(i, []).append(t)
        self.steps.append(step)
        return self

    def append_projection(self, row: HalfspaceConstraint, step: Step) -> "IncrementalLog":
        """Keep `step`, a projection onto `row`; x_before and x_after are x[row.indices]."""
        if step.multiplier < 0.0:
            raise ValueError("multiplier must be nonnegative, got %r" % step.multiplier)
        if row.kind is Kind.COVERING:
            self.sparsity = max(self.sparsity, row.sparsity)
            for i, v in zip(row.indices.tolist(), row.coeffs.tolist()):
                self._cmax[i] = max(self._cmax.get(i, v), v)
                self._cmin[i] = min(self._cmin.get(i, v), v)
        return self._append(step)

    def append_freeze(self, indices, x_before, x_after) -> "IncrementalLog":
        """Record a clamp; x_before and x_after are x at `indices`, in that order."""
        idx, first = np.unique(np.asarray(indices, dtype=np.int64), return_index=True)
        if np.shape(x_before) != np.shape(indices) or np.shape(x_after) != np.shape(indices):
            raise ValueError("x_before and x_after must hold x at the clamped indices")
        self.freeze_count += 1
        return self._append(Step(Kind.FREEZE, idx, np.zeros(idx.shape[0]), 0.0,
                                 np.asarray(x_before, dtype=float)[first],
                                 np.asarray(x_after, dtype=float)[first]))


def per_run_replicate(config, updates) -> list:
    """replicate as one full run_problem per seed: the reference for the
    single-chase replicate, whose aggregate must match it byte for byte."""
    runs = config.runs
    if runs < 2:
        raise FormatError("replicate needs runs >= 2")
    if isinstance(updates, str):
        updates = parse_updates(updates)
    tracked = ("cover_cost", "cover_recourse", "matching_size",
               "matching_recourse", "stabilizer_copy_recourse",
               "tree_cost", "tree_recourse", "sample_recourse",
               "upward_recourse", "l1_recourse")
    config = replace(config, certify=False, offline=False)
    values: dict = {}
    for r in range(runs):
        report = run_problem(replace(config, seed=config.seed + r), updates)
        summary = report[-1]
        for key in tracked:
            if key in summary and _numeric(summary[key]):
                values.setdefault(key, []).append(float(summary[key]))
    out = {"kind": "aggregate", "runs": runs,
           "seeds": [config.seed + r for r in range(runs)]}
    for key, vals in sorted(values.items()):
        arr = np.array(vals)
        out[key + "_mean"] = float(arr.mean())
        if len(arr) > 1:
            out[key + "_se"] = float(arr.std(ddof=1) / math.sqrt(len(arr)))
    return [_meta(replace(config, problem=updates[0]), {"replications": runs}), out]


def random_replay(rng, problem: str, updates: int):
    """A small parsed replay with deletes and re-inserts: matching on a 3x3
    bipartite pool, a spanning tree on 5 vertices that inserts the path
    0-1-2-3-4 first and never deletes a bridge, or load balancing on 3
    machines whose six jobs' loads (1 to 4) move the optimum, so that pairs
    fall out of and back into eligibility."""
    start = []
    if problem == "matching":
        header = {"problem": "matching", "n": 6}
        pool = {(u, v): {} for u in range(3) for v in range(3, 6)}
    elif problem == "mst":
        header = {"problem": "mst", "vertices": list(range(5))}
        pool = {(u, v): {"cost": float(rng.integers(1, 5))}
                for u in range(5) for v in range(u + 1, 5)}
        start = [(i, i + 1) for i in range(4)]
    else:
        header = {"problem": "loadbalance", "machines": [0, 1, 2]}
        pool = {}
        for job in range(6):
            machines = [m for m in range(3) if rng.random() < 0.6] or [int(rng.integers(3))]
            pool[job] = {"loads": {m: float(rng.integers(1, 5)) for m in machines}}

    def ids(e):
        return {"job": e} if problem == "loadbalance" else {"u": e[0], "v": e[1]}

    live, events = [], []
    for k in range(updates):
        dead = [e for e in pool if e not in live]
        removable = live
        if problem == "mst":  # a deleted edge must leave the graph connected
            removable = [e for e in live if is_connected(header["vertices"],
                                                         [f for f in live if f != e])]
        if k < len(start) or (dead and (not removable or rng.random() < 0.55)):
            e = start[k] if k < len(start) else dead[int(rng.integers(len(dead)))]
            live.append(e)
            events.append(UpdateEvent("insert", {**ids(e), **pool[e]}))
        else:
            e = removable[int(rng.integers(len(removable)))]
            live.remove(e)
            events.append(UpdateEvent("delete", ids(e)))
    return problem, header, events


def unique_freeze_step(indices, x_before, x_after) -> Step:
    """`MultiplierLog.append_freeze`'s step as it was built before it skipped
    `np.unique` on sorted, distinct indices: every clamp goes through it."""
    idx, first = np.unique(np.asarray(indices, dtype=np.int64), return_index=True)
    return Step(Kind.FREEZE, idx, np.zeros(idx.shape[0]), 0.0,
                np.asarray(x_before, dtype=float)[first], np.asarray(x_after, dtype=float)[first])


def fresh_copy_counts(stab, values) -> dict:
    """`stabilizer_step`'s nonzero copy counts as it once computed them: a
    threshold search for every live edge on every update, in sorted order."""
    inst, counts = stab.instance, {}
    for e in sorted(inst.live):
        c = stab.copy_count(e, float(values[inst.coords[e]]))
        if c:
            counts[e] = c
    return counts


class _UnionFind:
    def __init__(self, items):
        self.parent = {v: v for v in items}

    def find(self, a):
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def unionfind_kruskal_mst(vertices, edges):
    """`graphs.kruskal_mst` as it was before its union-find was inlined: a
    union-find object with full path compression."""
    verts = set(vertices)
    uf = _UnionFind(verts)
    tree, total = [], 0.0
    for cost, u, v in sorted((c, u, v) for u, v, c in edges):
        if uf.union(u, v):
            tree.append((u, v, cost))
            total += cost
    if len(tree) != len(verts) - 1:
        raise GraphError("graph is disconnected")
    return total, tree


def dict_global_min_cut(vertices, edges):
    """`graphs.global_min_cut` as it was before it worked on positions: a
    dict-of-dicts weight map, the remaining vertices sorted at every pick."""
    verts = sorted(set(vertices))
    if len(verts) < 2:
        raise GraphError("min cut needs at least two vertices")
    w = {v: {} for v in verts}
    for u, v, weight in edges:
        if u == v:
            continue
        if weight < 0:
            raise GraphError("negative edge weight")
        w[u][v] = w[u].get(v, 0.0) + weight
        w[v][u] = w[v].get(u, 0.0) + weight
    groups = {v: [v] for v in verts}
    active = list(verts)
    best_value, best_side = float("inf"), None
    while len(active) > 1:
        start = active[0]
        wsum = {v: w[start].get(v, 0.0) for v in active if v != start}
        order = [start]
        last_weight = 0.0
        while wsum:
            pick, pick_w = None, -1.0
            for v in sorted(wsum):
                if wsum[v] > pick_w:
                    pick, pick_w = v, wsum[v]
            order.append(pick)
            last_weight = pick_w
            del wsum[pick]
            for v, weight in w[pick].items():
                if v in wsum:
                    wsum[v] += weight
        t, s = order[-1], order[-2]
        if best_side is None or last_weight < best_value:
            best_value, best_side = last_weight, sorted(groups[t])
        for v, weight in w[t].items():
            if v == s:
                continue
            w[s][v] = w[s].get(v, 0.0) + weight
            w[v][s] = w[v].get(s, 0.0) + weight
        for v in list(w[t]):
            del w[v][t]
        del w[t]
        w[s].pop(t, None)
        groups[s].extend(groups[t])
        del groups[t]
        active.remove(t)
    return best_value, frozenset(best_side)
