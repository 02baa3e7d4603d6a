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

A row keeps what its step needs besides the point (`constants`).  The
projectors move nothing: they return the support's values before and after
(`Step`).  The engine (`project_and_record`, and so `chase_body`) records a
satisfied row as a zero step and writes a violated row's new values into the
point in place, so a step costs the support d, not the dimension n; the very
step goes to a `certify.MultiplierLog`, which keeps the `RecourseLedger`.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
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
    "Step",
    "RecourseLedger",
    "project_and_record",
    "project_covering",
    "project_packing",
    "scaled_output",
    "PositiveBody",
    "chase_body",
    "VIOLATION_SLACK",
]

# Row coefficients: with d <= formats.MAX_DIMENSION = 2**25, the covering shift
# eps / (4 d c) stays below 2.5e99, 4 d cmax below 1.4e108, unit-weight rates in
# range, and 4 d Delta / eps (Delta <= 1e200) finite for every eps down to 1e-100.
COEFF_MIN, COEFF_MAX = 1e-100, 1e100

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
                raise DimensionMismatch("weights length %d does not match dimension %d"
                                        % (weights.shape[0], values.shape[0]))
            if weights.size and not (float(weights.min()) > 0.0 and np.isfinite(weights).all()):
                raise ValueError("movement weights must be finite and strictly positive")
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


RowConstants = namedtuple("RowConstants", "eps weights shift const rate top one_rate support_weights")


class HalfspaceConstraint:
    """One normalized row: covering `<c,x> >= 1` or packing `<p,x> <= 1`.

    Coefficients are kept sparsely as (sorted index array, value array);
    zeros are omitted and all stored values are strictly positive.
    """

    __slots__ = ("kind", "indices", "coeffs", "max_index", "_constants")

    def __init__(self, kind: Kind, coeffs):
        if kind not in (Kind.COVERING, Kind.PACKING):
            raise ConstraintError("kind must be Kind.COVERING or Kind.PACKING")
        coeffs = dict(coeffs)
        keys = sorted(coeffs)
        if not keys:
            raise ConstraintError("constraint has an empty support")
        indices = np.array(keys, dtype=np.int64)
        values = np.array([coeffs[i] for i in keys], dtype=float)
        if indices[0] < 0:  # sorted, so the first id is the least
            raise ConstraintError("coordinate ids must be nonnegative")
        # a row has few coefficients, so list builtins beat numpy reductions;
        # max skips a nan that is not first, but the sum is nan then
        floats = values.tolist()
        total = sum(floats)
        if not (max(floats) <= COEFF_MAX and total == total):
            raise ConstraintError("coefficients must be finite, at most %g" % COEFF_MAX)
        if min(floats) < COEFF_MIN:
            raise ConstraintError("coefficients must be positive, at least %g" % COEFF_MIN)
        self.kind = kind
        self.indices = indices
        self.coeffs = values
        self.max_index = int(indices[-1])
        self._constants = None

    @classmethod
    def covering(cls, coeffs) -> "HalfspaceConstraint":
        return cls(Kind.COVERING, coeffs)

    @classmethod
    def packing(cls, coeffs) -> "HalfspaceConstraint":
        return cls(Kind.PACKING, coeffs)

    @property
    def sparsity(self) -> int:
        return int(self.indices.shape[0])

    def support(self, values: np.ndarray) -> np.ndarray:
        """values[indices], once the point is known to reach the row."""
        if self.max_index >= values.shape[0]:
            raise DimensionMismatch("constraint touches coordinate %d but the point has dimension %d"
                                    % (self.max_index, values.shape[0]))
        return values[self.indices]

    def value_at(self, values: np.ndarray) -> float:
        return float(self.support(values).dot(self.coeffs))

    def constants(self, eps: float, weights: np.ndarray) -> RowConstants:
        """What the row's step needs besides the point, at `eps` against the whole
        vector `weights`: the covering `shift` eps / (4 d c) (0.0 for packing),
        `const` = sum c * shift, the `rate`s c / w, the largest rate `top`, whether
        all rates equal it (`one_rate`) and the `support_weights`.  Kept until a
        call names another eps or weights array (weights are immutable, so the
        array is the key); eps is checked when they are computed."""
        k = self._constants
        if k is None or k.weights is not weights or k.eps != eps:
            _check_eps(self.kind, eps)
            cvec, shift, const = self.coeffs, 0.0, 0.0
            if self.kind is Kind.COVERING:
                shift = eps / (4.0 * self.sparsity * cvec)
                const = float(cvec @ shift)
            w = weights[self.indices]
            rate = cvec / w
            k = self._constants = RowConstants(eps, weights, shift, const, rate, float(rate.max()),
                                               bool((rate == rate[0]).all()), w)
        return k

    def support_weights(self, weights: np.ndarray) -> np.ndarray:
        """weights[indices], kept with the constants computed against `weights`."""
        k = self._constants
        return k.support_weights if k is not None and k.weights is weights else weights[self.indices]

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


# One step of a run on its support (a projection, a satisfied row's zero step or a
# clamp): the projector builds it, the log keeps it, and the ledger, certificates and
# run totals read it.  x_before and x_after hold x[indices] around it; multiplier,
# iterations (root-finder evaluations) and residual (final |value - level|) are 0
# for a step that projects nothing.
Step = namedtuple("Step", "kind indices coeffs multiplier x_before x_after iterations residual",
                  defaults=(0, 0.0))


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
        step; one signed weighted sum then gives both totals.  Signed steps
        come from a `MultiplierLog`, which has checked the float arrays it
        passes; unsigned ones are wrapped and checked here."""
        if sign:
            moved = float(weights.dot(after - before))
            up, l1 = (moved, moved) if sign > 0 else (0.0, 0.0 - moved)
        else:
            before, after = np.asarray(before, dtype=float), np.asarray(after, dtype=float)
            if not (np.asarray(weights).shape == before.shape == after.shape):
                raise DimensionMismatch("weights, before and after must cover the same coordinates")
            diff = after - before
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


def _check_eps(kind: Kind, eps: float) -> None:
    """A projection's eps: in (0, 1] for a covering row, nonnegative for a packing one."""
    if kind is Kind.COVERING and not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")


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
    evaluations, or on an exhausted bracket (closed and no wider than
    hi's rounding, however far below 1 the root lies), the best point is
    accepted only within 1e3 of the target, else the call fails.  Returns (root, |g|, evaluations).
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
        if hi < math.inf and hi - lo <= _FLOAT_EPS * hi:
            break
    if abs(best_g) <= 1e3 * _ROOT_TOL * rhs:
        return best, abs(best_g), iterations
    raise ConvergenceError("multiplier search stalled: residual %.3e after %d iterations"
                           % (best_g, iterations))


def _project(x_prev, row, eps, value=None) -> Step:
    """Support values (x + s) * exp(sign * rate * t) - s of a violated row.

    rate = coeffs / weights, s is the covering shift (0 for packing) and
    sign is +1 for covering, -1 for packing; t >= 0 makes the row's value
    equal `level` (1, or 1 + eps for packing).  The result is clamped so a
    covering step only moves coordinates up and a packing step only down.
    The support is gathered once and, unless given, the `value` read off it; the rest is constants.
    """
    cvec, xs = row.coeffs, row.support(x_prev.values)
    k = row.constants(eps, x_prev.weights)
    # a.dot(b) is the BLAS dot that a @ b calls, without the gufunc's per-call cost
    start, shift, const, rate = float(xs.dot(cvec) if value is None else value), k.shift, k.const, k.rate
    if row.kind is Kind.COVERING:
        sign, level, base, violated = 1.0, 1.0, xs + shift, covering_violated(start)
    else:
        sign, level, base, violated = -1.0, 1.0 + eps, xs, packing_violated(start, eps)
    if not violated:
        raise NotViolatedError("row not violated: value %.17g, bound %.17g" % (start, level))
    if k.one_rate:  # one rate r: exp(sign * r * t) is one factor K
        K = (level + const) / (start + const)
        t, new_sub, iters = sign * math.log(K) / k.top, base * K, 1
        resid = abs(float(cvec.dot(new_sub)) - const - level)
    else:
        mass, top = cvec * base, k.top

        def residual(t: float):
            st = sign * t
            # packing exponents are <= 0, so only covering ones reach the cap
            uncapped = st * top < _EXP_CAP
            exponent = rate * st if uncapped else np.minimum(rate * st, _EXP_CAP)
            terms = mass * np.exp(exponent) if st else mass  # exp(0) is exactly 1
            slope = sign * float(terms.dot(rate)) if uncapped else math.inf
            return float(terms.sum()) - const - level, slope

        t, resid, iters = _root(residual, level + const, level, sign > 0)
        st = sign * t  # capped as the residual caps it: the step is the root it found
        exponent = rate * st if st * top < _EXP_CAP else np.minimum(rate * st, _EXP_CAP)
        new_sub = base * np.exp(exponent)
    after = np.maximum(new_sub - shift, xs) if sign > 0 else np.minimum(new_sub, xs)
    return Step(row.kind, row.indices, cvec, float(t), xs, after, iters, resid)


def project_covering(x_prev: FractionalPoint, c: HalfspaceConstraint, eps: float,
                     value=None) -> Step:
    """Project onto a violated covering halfspace `<c, x> >= 1`, eps in (0, 1].

    Only coordinates on the row's support move, and they only move up.
    Returns their values before and after (the `Step`), with the nonnegative
    multiplier y of the tight constraint, the root-finder iteration count,
    and the final absolute residual |<c, x> - 1|.  `x_prev` is left unchanged.
    `value` is `c.value_at(x_prev.values)` if the caller has it.
    """
    if c.kind is not Kind.COVERING:
        raise ConstraintError("project_covering needs a covering row")
    return _project(x_prev, c, eps, value)


def project_packing(x_prev: FractionalPoint, p: HalfspaceConstraint, eps: float,
                    value=None) -> Step:
    """Project onto `<p, x> <= 1 + eps` from a point that violates it.

    Support coordinates shrink multiplicatively; zero coordinates stay
    zero.  eps = 0 is allowed here (the shift never enters the packing
    objective, only the right hand side).  `value` is as for `project_covering`.
    """
    if p.kind is not Kind.PACKING:
        raise ConstraintError("project_packing needs a packing row")
    return _project(x_prev, p, eps, value)


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


def project_and_record(x: FractionalPoint, row: HalfspaceConstraint, eps: float, log=None,
                       value=None) -> tuple[FractionalPoint, Step]:
    """One step of the engine: project onto `row` if it is violated, and record.

    `value` is the row's value at `x` if the caller has it (a body's oracle
    does).  A violated row goes to `project_covering` or `project_packing`,
    and its new support values are written into `x.values` in place; `x` is
    returned with the step, and nothing of its size is copied or scanned.  A
    satisfied row leaves the point alone and is still recorded, as a zero
    step (`iterations` 0): its body row binds the offline benchmark, so the
    certificate log must carry it.  The log, and so its ledger, keeps that
    very step, on the row's support, the only coordinates it can move.
    """
    if value is None:
        value = row.value_at(x.values)
    covering = row.kind is Kind.COVERING
    if covering_violated(value) if covering else packing_violated(value, eps):
        step = (project_covering if covering else project_packing)(x, row, eps, value=value)
        x.values[row.indices] = step.x_after
    else:
        _check_eps(row.kind, eps)
        before = x.values[row.indices]
        step = Step(row.kind, row.indices, row.coeffs, 0.0, before, before)
    if log is not None:
        log.append_projection(row, step)
    return x, step


class PositiveBody:
    """One update's body: listed covering and packing rows, the coordinates
    `frozen` at zero, the exact optimum `opt` its rows are scaled by, and,
    for rows too many to list, a `separate(values, cover_floor,
    pack_ceiling)` callable returning one violated row or None.

    `find_violated` checks once that the point covers `max_index` and
    returns the most violated row outside the given tolerance band: the
    covering row of smallest value; if no covering row is violated, the row
    `separate` returns; else the packing row of largest value.  Ties go to
    the row listed first, so chase runs replay: one scan per kind ranks and
    tests each row by its own dot product, with strict comparisons.  The
    chosen row's value at `values` is kept as `value` (None for a separated
    row, or when no row is violated).  Any violated row keeps the chaser's
    guarantee; the most violated one, as in remotest-set control of Bregman
    projections, needs fewer steps.
    `rows()` is the listed rows, then every row `separate` returned;
    `body()` is the body itself.
    """

    def __init__(self, covering=(), packing=(), *, frozen=(), opt=0.0, separate=None):
        self.covering: list[HalfspaceConstraint] = []
        self.packing: list[HalfspaceConstraint] = []
        self.max_index = -1
        self.frozen, self.opt = tuple(frozen), opt
        self.separate, self.separated = separate, []
        self.value = None
        for row in (*covering, *packing):
            self.add(row)

    def add(self, row: HalfspaceConstraint) -> None:
        (self.covering if row.kind is Kind.COVERING else self.packing).append(row)
        if row.max_index > self.max_index:
            self.max_index = row.max_index

    def body(self) -> "PositiveBody":
        return self

    def rows(self) -> list:
        return [*self.covering, *self.packing, *self.separated]

    def find_violated(self, values: np.ndarray, cover_floor: float, pack_ceiling: float):
        if self.max_index >= values.shape[0]:
            raise DimensionMismatch("body touches coordinate %d but the point has dimension %d"
                                    % (self.max_index, values.shape[0]))
        best, low = None, cover_floor
        for row in self.covering:
            value = values[row.indices].dot(row.coeffs)
            if value < low:
                best, low = row, value
        if best is not None:
            self.value = low
            return best
        if self.separate is not None:
            row, self.value = self.separate(values, cover_floor, pack_ceiling), None
            if row is not None:
                self.separated.append(row)
                return row
        high = pack_ceiling
        for row in self.packing:
            value = values[row.indices].dot(row.coeffs)
            if value > high:
                best, high = row, value
        self.value = high if best is not None else None
        return best


def chase_body(x_prev: FractionalPoint, oracle, delta: float, *, log=None,
               max_rounds: int = 10000) -> tuple[FractionalPoint, list[Step]]:
    """Repair rows of a body until none is violated beyond delta/10.

    `oracle` is either a PositiveBody, which hands over its most violated
    row and that row's `value` (see `PositiveBody.find_violated`), or a
    callable `(values, cover_floor, pack_ceiling) -> row or None`, asked as
    the separator of a body listing no rows (its choice, without a value).
    Rows are fed to the single-halfspace projectors with eps = delta/20, so on exit every
    covering row has value >= 1 - delta/10 and every packing row has value
    <= (1 + eps) + delta/10.  The band never passes inside the projectors'
    own tests (`covering_violated`, `packing_violated`), so for delta below
    about 1e-11 the bounds are 1 - VIOLATION_SLACK and (1 + eps)(1 +
    VIOLATION_SLACK) instead.  Use `scaled_output` on the returned point
    when full covering feasibility is required downstream.

    `x_prev` is moved in place and returned (see `project_and_record`),
    with the `Step` of every projection, the very ones appended to `log`.
    Projections are appended to `log`, and so to its ledger, when given.
    Exceeding `max_rounds` raises InfeasibleBodyError carrying the last
    violated row: the body is empty or too tight for the tolerance.
    """
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    eps = delta / 20.0
    body = oracle if isinstance(oracle, PositiveBody) else PositiveBody(separate=oracle)
    # below delta of about 1e-11 the band would pass inside the projectors' own tests
    cover_floor = min(1.0 - delta / 10.0, 1.0 - VIOLATION_SLACK)
    pack_ceiling = max(1.0 + eps + delta / 10.0, (1.0 + eps) * (1.0 + VIOLATION_SLACK))

    x = x_prev
    trace: list[Step] = []
    row = None
    for _ in range(max_rounds):
        row = body.find_violated(x.values, cover_floor, pack_ceiling)
        if row is None:
            return x, trace
        x, step = project_and_record(x, row, eps, log, body.value)
        if not step.iterations:
            raise NotViolatedError("oracle returned a satisfied row %r" % row)
        trace.append(step)
    raise InfeasibleBodyError("no feasible point found after %d repair rounds; last violated row %r"
                              % (max_rounds, row), last_constraint=row)
