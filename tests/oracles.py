"""Independent reference implementations used only by the test suite.

Nothing here calls into the solver's numerics: the point is to confirm
the fast paths against slow, transparent computations.
"""

from __future__ import annotations

import numpy as np

import math

from bodychase.certify import MultiplierLog, StepKind
from bodychase.core import (
    FractionalPoint,
    HalfspaceConstraint,
    Kind,
    RecourseLedger,
    process_constraint,
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
    as a real run records them. Returns (log, ledger, rows, weights).
    """
    w = rng.uniform(0.5, 2.0, size=n)
    x = FractionalPoint.zeros(n, w)
    log = MultiplierLog(w)
    ledger = RecourseLedger()
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
        x = process_constraint(x, row, eps, ledger=ledger, log=log)
        rows.append(row)
    return log, ledger, rows, w


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
            if hasattr(member, "kind"):
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


def covering_residuals(x_prev, c, eps, res):
    """(tightness, multiplicative-form) residuals for a covering projection."""
    shift = eps / (4.0 * c.sparsity * c.coeffs)
    xh_new = res.point.values[c.indices] + shift
    xh_old = x_prev.values[c.indices] + shift
    w = x_prev.weights[c.indices]
    tight = abs(c.value_at(res.point.values) - 1.0)
    mult = float(np.max(np.abs(w * np.log(xh_new / xh_old) - c.coeffs * res.multiplier)))
    return tight, mult


def packing_residuals(x_prev, p, eps, res):
    old = x_prev.values[p.indices]
    new = res.point.values[p.indices]
    w = x_prev.weights[p.indices]
    tight = abs(p.value_at(res.point.values) - (1.0 + eps))
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
# Dense (n, T) reference for the certificate layer: the computations the
# per-coordinate certificates replaced, kept to check them against.


def coeff_matrices(log: MultiplierLog):
    """Dense (n, T) covering/packing coefficient matrices plus y, z vectors."""
    n, T = log.n, log.horizon
    C = np.zeros((n, T))
    P = np.zeros((n, T))
    y = np.zeros(T)
    z = np.zeros(T)
    for t, step in enumerate(log.steps):
        if step.kind is StepKind.COVERING:
            C[step.indices, t] = step.coeffs
            y[t] = step.multiplier
        elif step.kind is StepKind.PACKING:
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
        if step.kind is StepKind.FREEZE:
            rows[step.indices, t] = -np.inf
    worst = float(np.max(rows)) if rows.size else 0.0
    worst = max(worst, float(np.max(-r_bar)) if r_bar.size else 0.0)
    w_col = log.weights[:, None]
    worst = max(worst, float(np.max(r_bar - w_col)) if r_bar.size else 0.0)
    if y_bar.size:
        worst = max(worst, float(np.max(-y_bar)), float(np.max(-z_bar)))
    return worst


def dense_warmup_r_bar(log: MultiplierLog, eps: float) -> np.ndarray:
    d = max(1, log.sparsity)
    A = math.log1p(4.0 * d * max(1.0, log.aspect_ratio) / eps)
    cmax = log.coeff_max()
    xb = dense_x_before(log)
    w_col = log.weights[:, None]
    return w_col * (1.0 - np.log1p(4.0 * d * cmax[:, None] * xb / eps) / A)


def dense_refined_r_bar(log: MultiplierLog, ytilde, eps: float) -> np.ndarray:
    n, T = log.n, log.horizon
    d = max(1, log.sparsity)
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
