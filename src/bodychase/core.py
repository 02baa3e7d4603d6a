"""Fractional points, halfspace constraints, KL projections, chase loop.

A positive body is an intersection of normalized halfspaces over the
nonnegative orthant: covering rows `<c, x> >= 1` and packing rows
`<p, x> <= 1`, all coefficients strictly positive on their support.

The solver never moves the point except to repair a violated row.  A
covering repair minimizes the weighted shifted KL divergence

    sum_i w_i * (xh_i * log(xh_i / xh_i_prev) - xh_i),
    xh_i = x_i + eps / (4 * d * c_i)   over the support of c,

subject to `<c, x> >= 1`, where d is the row's support size.  A packing
repair minimizes the unshifted analogue subject to `<p, x> <= 1 + eps`.
Both reduce to a one-dimensional monotone root find for the Lagrange
multiplier; the optimum has the multiplicative closed form

    covering:  x_i = (x_i_prev + s_i) * exp(c_i * y / w_i) - s_i
    packing:   x_i = x_i_prev * exp(-p_i * z / w_i)

which the root finder inverts by bracketing and bisection.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Kind",
    "ChaseError",
    "DimensionMismatch",
    "ConstraintError",
    "NotViolatedError",
    "ConvergenceError",
    "InfeasibleBodyError",
    "FractionalPoint",
    "HalfspaceConstraint",
    "ProjectionResult",
    "RecourseLedger",
    "project_and_record",
    "process_constraint",
    "project_covering",
    "project_packing",
    "scaled_output",
    "PositiveBody",
    "ChaseStep",
    "chase_body",
    "VIOLATION_SLACK",
]

# Relative slack used when deciding whether a row is violated at all;
# guards against reprojecting rows that are tight up to roundoff.
VIOLATION_SLACK = 1e-12

# Exponent cap: keeps the bracketing phase finite when the trial
# multiplier overshoots.  Monotonicity of the restriction is preserved.
_EXP_CAP = 700.0

_FLOAT_EPS = float(np.finfo(float).eps)


class Kind(enum.Enum):
    COVERING = "C"
    PACKING = "P"


class ChaseError(Exception):
    """Base class for solver errors."""


class DimensionMismatch(ChaseError):
    pass


class ConstraintError(ChaseError):
    """Malformed constraint: empty support or nonpositive coefficients."""


class NotViolatedError(ChaseError):
    """Projection requested for a row the point already satisfies."""


class ConvergenceError(ChaseError):
    """Multiplier root finding exceeded its iteration cap."""


class InfeasibleBodyError(ChaseError):
    """Chase loop hit its round cap; the body is empty or ill-scaled."""

    def __init__(self, message, last_constraint=None):
        super().__init__(message)
        self.last_constraint = last_constraint


class FractionalPoint:
    """Nonnegative vector with fixed per-coordinate movement weights.

    `values` is owned by the instance; `weights` may be shared between
    points of one run and is treated as immutable.
    """

    __slots__ = ("values", "weights")

    def __init__(self, values, weights=None):
        values = np.array(values, dtype=float)
        if values.ndim != 1:
            raise DimensionMismatch("point must be a one dimensional vector")
        if values.size and float(values.min()) < 0.0:
            raise ValueError("coordinates must be nonnegative")
        if weights is None:
            weights = np.ones(values.shape[0])
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != values.shape:
                raise DimensionMismatch(
                    "weights length %d does not match dimension %d"
                    % (weights.shape[0], values.shape[0])
                )
            if weights.size and float(weights.min()) <= 0.0:
                raise ValueError("movement weights must be strictly positive")
        self.values = values
        self.weights = weights

    @classmethod
    def zeros(cls, n: int, weights=None) -> "FractionalPoint":
        return cls(np.zeros(n), weights)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def __repr__(self):
        return "FractionalPoint(%s)" % np.array2string(self.values, precision=6)


class HalfspaceConstraint:
    """One normalized row: covering `<c,x> >= 1` or packing `<p,x> <= 1`.

    Coefficients are kept sparsely as (sorted index array, value array);
    zeros are omitted and all stored values are strictly positive.
    """

    __slots__ = ("kind", "indices", "coeffs")

    def __init__(self, kind: Kind, coeffs):
        if not isinstance(kind, Kind):
            raise ConstraintError("kind must be Kind.COVERING or Kind.PACKING")
        items = sorted(dict(coeffs).items())
        if not items:
            raise ConstraintError("constraint has an empty support")
        indices = np.array([i for i, _ in items], dtype=np.int64)
        values = np.array([v for _, v in items], dtype=float)
        if int(indices.min()) < 0:
            raise ConstraintError("coordinate ids must be nonnegative")
        if float(values.min()) <= 0.0:
            raise ConstraintError("coefficients must be strictly positive")
        if not np.all(np.isfinite(values)):
            raise ConstraintError("coefficients must be finite")
        self.kind = kind
        self.indices = indices
        self.coeffs = values

    @classmethod
    def covering(cls, coeffs) -> "HalfspaceConstraint":
        return cls(Kind.COVERING, coeffs)

    @classmethod
    def packing(cls, coeffs) -> "HalfspaceConstraint":
        return cls(Kind.PACKING, coeffs)

    @property
    def sparsity(self) -> int:
        return int(self.indices.shape[0])

    @property
    def max_index(self) -> int:
        return int(self.indices.max())

    def value_at(self, values: np.ndarray) -> float:
        if self.max_index >= values.shape[0]:
            raise DimensionMismatch(
                "constraint touches coordinate %d but the point has dimension %d"
                % (self.max_index, values.shape[0])
            )
        return float(values[self.indices] @ self.coeffs)

    def as_dict(self) -> dict:
        return dict(zip(self.indices.tolist(), self.coeffs.tolist()))

    def __repr__(self):
        body = " ".join("%d:%g" % (i, v) for i, v in zip(self.indices, self.coeffs))
        return "<%s %s>" % (self.kind.value, body)


@dataclass
class ProjectionResult:
    """Outcome of a single halfspace projection."""

    point: FractionalPoint
    multiplier: float
    iterations: int
    residual: float


class RecourseLedger:
    """Running account of weighted movement along a trajectory.

    Tracks the upward total `sum_i w_i * (x_new - x_prev)_+` per step and
    the full weighted l1 total.  For trajectories started at the origin the
    l1 total is sandwiched between one and two times the upward total.
    """

    def __init__(self):
        self.steps: list[tuple[float, float]] = []
        self.upward_total = 0.0
        self.l1_total = 0.0

    def record_step(self, weights, before, after) -> "RecourseLedger":
        """Append one step from the coordinates it moved: their weights and
        their values before and after it."""
        if not (np.shape(weights) == np.shape(before) == np.shape(after)):
            raise DimensionMismatch("weights, before and after must cover the same coordinates")
        diff = np.asarray(after, dtype=float) - before
        up = float(weights @ np.clip(diff, 0.0, None))
        l1 = float(weights @ np.abs(diff))
        self.steps.append((up, l1))
        self.upward_total += up
        self.l1_total += l1
        return self


def covering_violated(value: float) -> bool:
    return value < 1.0 - VIOLATION_SLACK


def packing_violated(value: float, eps: float) -> bool:
    return value > (1.0 + eps) * (1.0 + VIOLATION_SLACK)


def _root(g, rhs, tol, max_iter, increasing, what):
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


def project_covering(
    x_prev: FractionalPoint,
    c: HalfspaceConstraint,
    eps: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> ProjectionResult:
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

    y, resid, iters = _root(residual, 1.0, tol, max_iter, True, "covering")
    new_sub = base * np.exp(rate * y) - shift
    # covering projections never move a coordinate down
    new_sub = np.maximum(new_sub, xs)
    values = x_prev.values.copy()
    values[idx] = new_sub
    point = FractionalPoint(values, x_prev.weights)
    return ProjectionResult(point, float(y), iters, resid)


def project_packing(
    x_prev: FractionalPoint,
    p: HalfspaceConstraint,
    eps: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> ProjectionResult:
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

    z, resid, iters = _root(residual, rhs, tol, max_iter, False, "packing")
    new_sub = np.minimum(xs * np.exp(-rate * z), xs)
    values = x_prev.values.copy()
    values[idx] = new_sub
    point = FractionalPoint(values, x_prev.weights)
    return ProjectionResult(point, float(z), iters, resid)


def scaled_output(x: FractionalPoint, delta: float) -> FractionalPoint:
    """Presentation-layer scaling by 1 / (1 - delta/10).

    Applied after a chase round it restores full covering feasibility at
    the price of packing violations up to a (1 + delta) factor.  The raw
    trajectory, and hence the ledger, is unaffected.
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    factor = 1.0 / (1.0 - delta / 10.0)
    return FractionalPoint(x.values * factor, x.weights)


def project_and_record(
    x_prev: FractionalPoint,
    row: HalfspaceConstraint,
    eps: float,
    ledger: RecourseLedger | None = None,
    log=None,
) -> tuple[FractionalPoint, ProjectionResult | None]:
    """One step of the engine: project onto `row` if it is violated, and record.

    A satisfied row leaves the point alone (result None) and is recorded
    as a zero-multiplier step.  The ledger and the log get the step on the
    row's support, the only coordinates it can move.
    """
    value = row.value_at(x_prev.values)
    if row.kind is Kind.COVERING:
        violated, project = covering_violated(value), project_covering
    else:
        violated, project = packing_violated(value, eps), project_packing
    res = project(x_prev, row, eps) if violated else None
    x_new = x_prev if res is None else res.point
    idx = row.indices
    before, after = x_prev.values[idx], x_new.values[idx]
    if ledger is not None:
        ledger.record_step(x_prev.weights[idx], before, after)
    if log is not None:
        log.append_projection(row, 0.0 if res is None else res.multiplier, before, after)
    return x_new, res


def process_constraint(
    x_prev: FractionalPoint,
    row: HalfspaceConstraint,
    eps: float,
    *,
    ledger: RecourseLedger | None = None,
    log=None,
) -> FractionalPoint:
    """Feed one arriving constraint of a stream.

    A satisfied row is still recorded as a zero-multiplier step: its body
    row binds the offline benchmark, so the certificate log must carry it.
    """
    return project_and_record(x_prev, row, eps, ledger, log)[0]


class PositiveBody:
    """Explicit finite body: lists of covering and packing rows.

    `find_violated` scans covering rows in insertion order, then packing
    rows, and returns the first row outside the given tolerance band.
    The deterministic order makes chase runs replayable.
    """

    def __init__(self, covering=(), packing=()):
        self.covering: list[HalfspaceConstraint] = []
        self.packing: list[HalfspaceConstraint] = []
        for row in covering:
            self.add(row)
        for row in packing:
            self.add(row)

    def add(self, row: HalfspaceConstraint) -> None:
        if row.kind is Kind.COVERING:
            self.covering.append(row)
        else:
            self.packing.append(row)

    def find_violated(self, values: np.ndarray, cover_floor: float, pack_ceiling: float):
        for row in self.covering:
            if row.value_at(values) < cover_floor:
                return row
        for row in self.packing:
            if row.value_at(values) > pack_ceiling:
                return row
        return None


@dataclass
class ChaseStep:
    constraint: HalfspaceConstraint
    result: ProjectionResult


def chase_body(
    x_prev: FractionalPoint,
    oracle,
    delta: float,
    eps: float | None = None,
    *,
    ledger: RecourseLedger | None = None,
    log=None,
    max_rounds: int = 10000,
) -> tuple[FractionalPoint, list[ChaseStep]]:
    """Repair rows of a body until none is violated beyond delta/10.

    `oracle` is either a PositiveBody or a callable
    `(values, cover_floor, pack_ceiling) -> row or None`.  Rows are fed to
    the single-halfspace projectors with eps = delta/20, so on exit every
    covering row has value >= 1 - delta/10 and every packing row has value
    <= (1 + eps) + delta/10.  Use `scaled_output` on the returned point
    when full covering feasibility is required downstream.

    Projections are appended to `ledger` and `log` when given.  Exceeding
    `max_rounds` raises InfeasibleBodyError carrying the last violated
    row: the body is empty or too tight for the tolerance.
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    if eps is None:
        eps = delta / 20.0
    elif abs(eps - delta / 20.0) > 1e-12 * delta:
        raise ValueError("chase rounds require eps = delta / 20")

    find = oracle.find_violated if isinstance(oracle, PositiveBody) else oracle
    cover_floor = 1.0 - delta / 10.0
    pack_ceiling = 1.0 + eps + delta / 10.0

    x = x_prev
    trace: list[ChaseStep] = []
    row = None
    for _ in range(max_rounds):
        row = find(x.values, cover_floor, pack_ceiling)
        if row is None:
            return x, trace
        x, res = project_and_record(x, row, eps, ledger, log)
        if res is None:
            raise NotViolatedError("oracle returned a satisfied row %r" % row)
        trace.append(ChaseStep(row, res))
    raise InfeasibleBodyError(
        "no feasible point found after %d repair rounds; last violated row %r"
        % (max_rounds, row),
        last_constraint=row,
    )
