"""Fractional points, stream items (rows and freezes), KL projections, chase loop.

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

which the root finder inverts by safeguarded Newton steps on the log of
the row's value, falling back to bisection of a doubling bracket.  A row
with one rate r = c_i / w_i never reaches it: its step is one rescale.

The projectors move nothing: they read the row's support once and return
its values before and after (`ProjectionResult`).  The engine
(`project_and_record`, and so `chase_body`) writes them into the point's
`values` in place, so a step costs the support d, not the dimension n, and
records the step in a `certify.MultiplierLog`, which keeps the run's
`RecourseLedger`.  A caller that keeps a point across steps copies it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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
    "Freeze",
    "stream_steps",
    "ProjectionResult",
    "RecourseLedger",
    "project_and_record",
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

# Exponent cap: keeps bracketing finite when a trial multiplier overshoots; g stays monotone.
_EXP_CAP = 700.0

_FLOAT_EPS = float(np.finfo(float).eps)

# `_root`'s relative stopping tolerance and its cap on evaluations.
_ROOT_TOL = 1e-12
_ROOT_MAX_ITER = 200


class Kind(enum.Enum):
    """A stream item's kind: covering row, packing row or freeze; the values are its tags."""

    COVERING = "C"
    PACKING = "P"
    FREEZE = "F"


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

    `values` is a copy owned by the instance and moved in place by the
    engine; `weights` may be shared between points of one run and is
    treated as immutable.
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

    __slots__ = ("kind", "indices", "coeffs", "max_index")

    def __init__(self, kind: Kind, coeffs):
        if kind not in (Kind.COVERING, Kind.PACKING):
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
        self.max_index = int(indices[-1])

    @classmethod
    def covering(cls, coeffs) -> "HalfspaceConstraint":
        return cls(Kind.COVERING, coeffs)

    @classmethod
    def packing(cls, coeffs) -> "HalfspaceConstraint":
        return cls(Kind.PACKING, coeffs)

    @property
    def sparsity(self) -> int:
        return int(self.indices.shape[0])

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


@dataclass(frozen=True)
class Freeze:
    """Clamp of a coordinate set to zero at one time step."""

    indices: tuple
    kind = Kind.FREEZE

    def __init__(self, indices):
        object.__setattr__(self, "indices", tuple(sorted(int(i) for i in indices)))

    @property
    def max_index(self) -> int:
        return self.indices[-1] if self.indices else -1


def stream_steps(stream) -> list:
    """A stream's time steps, each a list of rows and freezes: a row or a
    freeze is a step of its own, any other item is one step's group."""
    steps = []
    for item in stream:
        group = [item] if isinstance(item, (HalfspaceConstraint, Freeze)) else list(item)
        for member in group:
            if not isinstance(member, (HalfspaceConstraint, Freeze)):
                raise TypeError("stream items must be constraints or freezes")
        steps.append(group)
    return steps


@dataclass
class ProjectionResult:
    """Outcome of a single halfspace projection.

    `before` and `after` hold the row's support coordinates around the
    step, in the order of the row's indices; no other coordinate moves.
    """

    before: np.ndarray
    after: np.ndarray
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

    def record_step(self, weights, before, after, sign=0) -> "RecourseLedger":
        """Append one step from the coordinates it moved: their weights and
        their values before and after it.  sign = 1 (-1) promises that no
        coordinate moved down (up), as in a covering (packing or freeze)
        step; one weighted sum then gives both totals."""
        before, after = np.asarray(before, dtype=float), np.asarray(after, dtype=float)
        if not (np.asarray(weights).shape == before.shape == after.shape):
            raise DimensionMismatch("weights, before and after must cover the same coordinates")
        diff = after - before
        if sign:
            moved = float(weights @ diff)
            up, l1 = (moved, moved) if sign > 0 else (0.0, 0.0 - moved)
        else:
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


def _root(g, total, rhs, increasing):
    """Root in [0, inf) of the monotone residual g, which is not yet 0 at 0.

    g(t) returns the residual and its slope.  g + total is a positive sum
    of exponentials of affine functions, so h = log((g + total) / total)
    is convex with the same root (linear for one rate, but one-rate rows
    take `_project`'s closed form and never get here).  Newton steps on h
    start at t = 0.  Each point evaluated narrows the bracket [lo, hi] by
    the sign of g; a step that leaves (lo, hi), or a zero or infinite
    slope, falls back to the midpoint, or to doubling from 1 while hi is
    open.  Stops once |g| <= _ROOT_TOL * rhs.  After _ROOT_MAX_ITER
    evaluations, or on an exhausted bracket, the best point is accepted only
    within 1e3 of the target, else the call fails.  Returns (root, |g|, evaluations).
    """
    t, lo, hi = 0.0, 0.0, math.inf
    gt, slope = g(t)
    best, best_g = t, gt
    iterations = 0
    while iterations < _ROOT_MAX_ITER:
        level = gt + total
        # an infinite slope gives nxt = t, an end of the bracket, so it falls back
        nxt = t - math.log1p(gt / total) * level / slope if level > 0.0 and slope else math.nan
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi) if hi < math.inf else max(1.0, 2.0 * lo)
        t, iterations = nxt, iterations + 1
        gt, slope = g(t)
        if abs(gt) < abs(best_g):
            best, best_g = t, gt
        if abs(gt) <= _ROOT_TOL * rhs:
            return t, abs(gt), iterations
        lo, hi = (t, hi) if (gt < 0.0) == increasing else (lo, t)
        if hi - lo <= _FLOAT_EPS * max(1.0, lo):
            break
    if abs(best_g) <= 1e3 * _ROOT_TOL * rhs:
        return best, abs(best_g), iterations
    raise ConvergenceError(
        "multiplier search stalled: residual %.3e after %d iterations" % (best_g, iterations)
    )


def _project(x_prev, row, eps) -> ProjectionResult:
    """Support values (x + s) * exp(sign * rate * t) - s of a violated row.

    rate = coeffs / weights, s is the covering shift (0 for packing) and
    sign is +1 for covering, -1 for packing; t >= 0 makes the row's value
    equal `level` (1, or 1 + eps for packing).  The result is clamped so a
    covering step only moves coordinates up and a packing step only down.
    The support is gathered once; the row's value is read off the gather.
    """
    cvec, idx, values = row.coeffs, row.indices, x_prev.values
    if row.max_index >= values.shape[0]:
        raise DimensionMismatch("constraint touches coordinate %d but the point has dimension %d"
                                % (row.max_index, values.shape[0]))
    xs = values[idx]
    start = float(xs @ cvec)
    if row.kind is Kind.COVERING:
        sign, level, shift = 1.0, 1.0, eps / (4.0 * row.sparsity * cvec)
        violated, base, const = covering_violated(start), xs + shift, float(cvec @ shift)
    else:
        sign, level, shift, const = -1.0, 1.0 + eps, 0.0, 0.0
        violated, base = packing_violated(start, eps), xs
    if not violated:
        raise NotViolatedError("row not violated: value %.17g, bound %.17g" % (start, level))
    rate = cvec / x_prev.weights[idx]
    if (rate == rate[0]).all():  # one rate r: exp(sign * r * t) is one factor K
        K = (level + const) / (start + const)
        t, new_sub, iters = sign * math.log(K) / float(rate[0]), base * K, 1
        resid = abs(float(cvec @ new_sub) - const - level)
    else:
        mass, top = cvec * base, float(rate.max())

        def residual(t: float):
            st = sign * t
            # packing exponents are <= 0, so only covering ones reach the cap
            uncapped = st * top < _EXP_CAP
            exponent = rate * st if uncapped else np.minimum(rate * st, _EXP_CAP)
            terms = mass * np.exp(exponent) if st else mass  # exp(0) is exactly 1
            slope = sign * float(terms @ rate) if uncapped else math.inf
            return float(terms.sum()) - const - level, slope

        t, resid, iters = _root(residual, level + const, level, sign > 0)
        new_sub = base * np.exp(rate * (sign * t))
    after = np.maximum(new_sub - shift, xs) if sign > 0 else np.minimum(new_sub, xs)
    return ProjectionResult(xs, after, float(t), iters, resid)


def project_covering(
    x_prev: FractionalPoint,
    c: HalfspaceConstraint,
    eps: float,
) -> ProjectionResult:
    """Project onto a violated covering halfspace `<c, x> >= 1`.

    Only coordinates on the row's support move, and they only move up.
    Returns their values before and after, together with the nonnegative
    multiplier y of the tight constraint, the root-finder iteration count,
    and the final absolute residual |<c, x> - 1|.  `x_prev` is left unchanged.
    """
    if c.kind is not Kind.COVERING:
        raise ConstraintError("project_covering needs a covering row")
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    return _project(x_prev, c, eps)


def project_packing(
    x_prev: FractionalPoint,
    p: HalfspaceConstraint,
    eps: float,
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
    return _project(x_prev, p, eps)


def scaled_output(x: FractionalPoint, delta: float) -> FractionalPoint:
    """Presentation-layer scaling by 1 / (1 - delta/10).

    Applied after a chase round it restores full covering feasibility at
    the price of packing violations up to a (1 + delta) factor.  The raw
    trajectory, and hence the ledger, is unaffected.
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    factor = 1.0 / (1.0 - delta / 10.0)
    # x is nonnegative and factor positive: one scaled copy, nothing to re-check
    out = FractionalPoint.__new__(FractionalPoint)
    out.values = x.values * factor
    out.weights = x.weights
    return out


def project_and_record(
    x: FractionalPoint,
    row: HalfspaceConstraint,
    eps: float,
    log=None,
) -> tuple[FractionalPoint, ProjectionResult | None]:
    """One step of the engine: project onto `row` if it is violated, and record.

    The engine owns `x`: it writes the new support values into `x.values`
    in place and returns `x`, so nothing of the point's size is copied or
    scanned; a caller that keeps the point from before the step copies it.
    A satisfied row leaves the point alone (result None) and is still
    recorded, as a zero-multiplier step: its body row binds the offline
    benchmark, so the certificate log must carry it.  The log, and so its
    recourse ledger, gets the step on the row's support, the only
    coordinates it can move, as the projection's `before` and `after`.
    """
    project = project_covering if row.kind is Kind.COVERING else project_packing
    try:
        res = project(x, row, eps)
    except NotViolatedError:
        res = None
    before = x.values[row.indices] if res is None else res.before
    after = before if res is None else res.after
    x.values[row.indices] = after
    if log is not None:
        log.append_projection(row, 0.0 if res is None else res.multiplier, before, after)
    return x, res


class PositiveBody:
    """Explicit finite body: lists of covering and packing rows.

    `find_violated` checks once that the point covers `max_index`, then
    scans covering rows in insertion order, then packing rows, and returns
    the first row outside the given tolerance band.
    The deterministic order makes chase runs replayable.
    """

    def __init__(self, covering=(), packing=()):
        self.covering: list[HalfspaceConstraint] = []
        self.packing: list[HalfspaceConstraint] = []
        self.max_index = -1
        for row in (*covering, *packing):
            self.add(row)

    def add(self, row: HalfspaceConstraint) -> None:
        (self.covering if row.kind is Kind.COVERING else self.packing).append(row)
        if row.max_index > self.max_index:
            self.max_index = row.max_index

    def find_violated(self, values: np.ndarray, cover_floor: float, pack_ceiling: float):
        if self.max_index >= values.shape[0]:
            raise DimensionMismatch("body touches coordinate %d but the point has dimension %d"
                                    % (self.max_index, values.shape[0]))
        for row in self.covering:
            if values[row.indices] @ row.coeffs < cover_floor:
                return row
        for row in self.packing:
            if values[row.indices] @ row.coeffs > pack_ceiling:
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
    *,
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

    `x_prev` is moved in place and returned (see `project_and_record`).
    Projections are appended to `log`, and so to its ledger, when given.
    Exceeding `max_rounds` raises InfeasibleBodyError carrying the last
    violated row: the body is empty or too tight for the tolerance.
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    eps = delta / 20.0
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
        x, res = project_and_record(x, row, eps, log)
        if res is None:
            raise NotViolatedError("oracle returned a satisfied row %r" % row)
        trace.append(ChaseStep(row, res))
    raise InfeasibleBodyError(
        "no feasible point found after %d repair rounds; last violated row %r"
        % (max_rounds, row),
        last_constraint=row,
    )
