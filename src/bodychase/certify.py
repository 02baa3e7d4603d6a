"""Dual certificates for chase trajectories.

Each projection contributes a Lagrange multiplier. Scaled copies of
those multipliers form feasible solutions of the dual of the offline
minimum-upward-recourse LP, so their objective is a certified lower
bound on what any offline trajectory must pay. Two constructions are
provided: a warmup certificate whose scaling constant involves the
coefficient aspect ratio, and a refined certificate that first damps
the covering multipliers (ytilde) so the scaling depends only on the
sparsity.

The dual has one row per coordinate and time,

    covering t:  c_i^t ybar^t - rbar_i^t + rbar_i^{t+1} <= 0
    packing  t: -p_i^t zbar^t - rbar_i^t + rbar_i^{t+1} <= 0
    0 <= rbar_i^t <= w_i,   rbar_i^{T+1} = 0,

with objective sum ybar - sum zbar. Coordinate clamps (freezes) add
an absorbing multiplier on their own (i, t) row, so the checker skips
exactly those rows; the refined construction is only sound for
clamp-free logs and refuses others.

Everything is computed per coordinate over its appearances, the steps
whose support holds it: elsewhere x_i does not move, rbar_i does not
change and the dual row is identically 0.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import ChaseError, HalfspaceConstraint, Kind, RecourseLedger

__all__ = [
    "CertificateError",
    "StepKind",
    "LogStep",
    "MultiplierLog",
    "MovementDuals",
    "DualCertificate",
    "build_warmup_dual",
    "refine_ytilde",
    "build_refined_dual",
    "certified_report",
    "certify_run",
    "check_dual_feasibility",
    "max_window_sums",
    "check_ineq1",
    "check_ineq2",
    "check_movement_bound",
    "check_z_bound",
    "check_subset_lemma",
    "FEASIBILITY_TOL",
]

FEASIBILITY_TOL = 1e-8


class CertificateError(ChaseError):
    """A certificate internal check failed; the log cannot be certified."""


class StepKind(enum.Enum):
    COVERING = "C"
    PACKING = "P"
    FREEZE = "F"


@dataclass
class LogStep:
    """One step on its support: x_before and x_after are x[indices]."""

    kind: StepKind
    indices: np.ndarray
    coeffs: np.ndarray
    multiplier: float
    x_before: np.ndarray
    x_after: np.ndarray


class MultiplierLog:
    """Ordered record of projections and clamps along one run.

    Each step keeps only its support (see LogStep); `appearances` maps
    each coordinate to the times of the steps whose support holds it.
    The log also tracks per-coordinate extreme covering coefficients and
    the largest covering support size. The coordinate space may grow
    during a run.
    """

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)
        self.steps: list[LogStep] = []
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

    def _append(self, kind, indices, coeffs, multiplier, x_before, x_after) -> "MultiplierLog":
        x_before = np.asarray(x_before, dtype=float)
        x_after = np.asarray(x_after, dtype=float)
        if not (x_before.shape == x_after.shape == indices.shape):
            raise ValueError("x_before and x_after must hold x on the step's support")
        t = len(self.steps)
        for i in indices.tolist():
            self.appearances.setdefault(i, []).append(t)
        self.steps.append(LogStep(kind, indices, coeffs, float(multiplier), x_before, x_after))
        return self

    def append_projection(self, row: HalfspaceConstraint, multiplier, x_before, x_after) -> "MultiplierLog":
        """Record a projection onto `row`; x_before and x_after are x[row.indices]."""
        if multiplier < 0.0:
            raise ValueError("multiplier must be nonnegative, got %r" % multiplier)
        kind = StepKind.COVERING if row.kind is Kind.COVERING else StepKind.PACKING
        if kind is StepKind.COVERING:
            self.sparsity = max(self.sparsity, row.sparsity)
            for i, v in zip(row.indices.tolist(), row.coeffs.tolist()):
                self._cmax[i] = max(self._cmax.get(i, v), v)
                self._cmin[i] = min(self._cmin.get(i, v), v)
        return self._append(kind, row.indices, row.coeffs, multiplier, x_before, x_after)

    def append_freeze(self, indices, x_before, x_after) -> "MultiplierLog":
        """Record a clamp; x_before and x_after are x at `indices`, in that order."""
        idx, first = np.unique(np.asarray(indices, dtype=np.int64), return_index=True)
        if np.shape(x_before) != np.shape(indices) or np.shape(x_after) != np.shape(indices):
            raise ValueError("x_before and x_after must hold x at the clamped indices")
        self.freeze_count += 1
        return self._append(StepKind.FREEZE, idx, np.zeros(idx.shape[0]), 0.0,
                            np.asarray(x_before, dtype=float)[first],
                            np.asarray(x_after, dtype=float)[first])


@dataclass
class MovementDuals:
    """The movement duals rbar_i^t of one certificate, per coordinate.

    `start[i]` is rbar_i^t up to and including the first appearance of i
    (at every t if i never appears); `after[i][j]` is its value after
    appearance j, up to and including the next one.
    """

    start: np.ndarray
    after: dict
    appearances: dict

    def at(self, i: int, t: int) -> float:
        """rbar_i^t, for 0 <= t < T."""
        j = bisect_left(self.appearances.get(i, ()), t)
        return float(self.start[i] if j == 0 else self.after[i][j - 1])


@dataclass
class DualCertificate:
    scheme: str
    scaling: float
    y_bar: np.ndarray
    z_bar: np.ndarray
    r_bar: MovementDuals
    ytilde: np.ndarray | None
    objective: float
    max_violation: float

    @property
    def certified_bound(self) -> float:
        # the all-zero dual is always feasible, so the bound never dips below 0
        return max(0.0, self.objective)


class _Entries:
    """The log's appearance lists laid end to end, by coordinate then time:
    per entry the step's kind, the coordinate's coefficient and its values
    before and after the step."""

    def __init__(self, log: MultiplierLog):
        self.keys = keys = sorted(log.appearances)
        times = [log.appearances[i] for i in keys]
        self.coord = np.repeat(np.array(keys, dtype=np.int64), [len(t) for t in times])
        self.time = np.fromiter(chain.from_iterable(times), np.int64, self.coord.shape[0])
        self.first = np.diff(self.coord, prepend=-1) != 0
        self.last = np.roll(self.first, -1)
        steps = log.steps
        self.kind = np.array([s.kind.value for s in steps], dtype="<U1")[self.time]

        def joined(field, dtype=float):
            return np.concatenate([getattr(s, field) for s in steps] + [np.zeros(0, dtype)])

        flat = joined("indices", np.int64)
        step_of = np.repeat(np.arange(len(steps)), [s.indices.shape[0] for s in steps])
        # supports are sorted, so (step, coordinate) keys ascend along the
        # concatenated supports and each entry finds its place by bisection
        span = int(flat.max()) + 1 if flat.size else 1
        at = np.searchsorted(step_of * span + flat, self.time * span + self.coord)
        self.coeff = joined("coeffs")[at]
        self.x_before = joined("x_before")[at]
        self.x_after = joined("x_after")[at]

    def movement(self, y, z) -> np.ndarray:
        """c_i^t y^t on covering entries, -p_i^t z^t on the others (clamps have c = 0)."""
        return np.where(self.kind == "C", self.coeff * y[self.time], -(self.coeff * z[self.time]))

    def per_coordinate(self, values: np.ndarray) -> dict:
        return dict(zip(self.keys, np.split(values, np.flatnonzero(self.first)[1:])))


def _multipliers(log: MultiplierLog):
    """Per step, y (covering multipliers, 0 elsewhere) and z (packing)."""
    y = np.array([s.multiplier if s.kind is StepKind.COVERING else 0.0 for s in log.steps])
    z = np.array([s.multiplier if s.kind is StepKind.PACKING else 0.0 for s in log.steps])
    return y, z


def check_dual_feasibility(log: MultiplierLog, y_bar, z_bar, r_bar: MovementDuals) -> float:
    """Largest violation of any dual row by (y_bar, z_bar, r_bar).

    Every row on a step's support is evaluated; a row off it is 0, as
    rbar_i is constant between appearances. Rows of frozen coordinates
    at their freeze times are exempt: those primal columns carry a clamp
    constraint whose multiplier can absorb any excess.
    """
    n, T = log.n, log.horizon
    e = _Entries(log)
    after = np.concatenate([r_bar.after[i] for i in e.keys] + [np.zeros(0)])
    r_now = np.where(e.first, r_bar.start[e.coord], np.roll(after, 1))
    inner = e.time < T - 1
    rows = e.movement(y_bar, z_bar) - r_now + np.where(inner, after, 0.0)
    rows[e.kind == "F"] = -np.inf
    worst = float(rows.max()) if rows.size else -np.inf
    # an off-support row before the last step reads 0 (the empty dual too)
    if n * (T - 1) > np.count_nonzero(inner) or n * T == 0:
        worst = max(worst, 0.0)
    if n * T:
        # every value rbar takes at some t < T
        r_all = np.concatenate([r_bar.start, after[inner]])
        w_all = np.concatenate([log.weights, log.weights[e.coord[inner]]])
        worst = max(worst, float(np.max(-r_all)), float(np.max(r_all - w_all)))
    if y_bar.size:
        worst = max(worst, float(np.max(-y_bar)), float(np.max(-z_bar)))
    return worst


def build_warmup_dual(log: MultiplierLog, eps: float) -> DualCertificate:
    """Certificate with scaling A = log(1 + 4 d Delta / eps).

    Multipliers are divided by A; the movement rows get
    r_i^t = w_i (1 - log(1 + 4 d c_i^max x_i^{t-1} / eps) / A), evaluated
    on the recorded trajectory. Coordinates that never appear in a
    covering row have c_i^max = 0 and hence r_i^t = w_i. Sound in the
    presence of freezes (their rows are exempt, see the checker).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    d = max(1, log.sparsity)
    A = math.log1p(4.0 * d * max(1.0, log.aspect_ratio) / eps)
    y, z = _multipliers(log)
    y_bar = y / A
    z_bar = z / A
    e = _Entries(log)
    w = log.weights[e.coord]
    scale = 4.0 * d * log.coeff_max()[e.coord]

    def r(x):
        return w * (1.0 - np.log1p(scale * x / eps) / A)

    start = log.weights.copy()
    start[e.coord[e.first]] = r(e.x_before)[e.first]
    r_bar = MovementDuals(start, e.per_coordinate(r(e.x_after)), log.appearances)
    objective = float(y_bar.sum() - z_bar.sum())
    violation = check_dual_feasibility(log, y_bar, z_bar, r_bar)
    return DualCertificate("warmup", A, y_bar, z_bar, r_bar, None, objective, violation)


def refine_ytilde(log: MultiplierLog, eps: float) -> np.ndarray:
    """Damped covering multipliers per the budgeted back-scan.

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
    if log.has_freeze:
        raise CertificateError(
            "refined certificate requires a clamp-free log (%d freezes present)"
            % log.freeze_count
        )
    T = log.horizon
    ytilde = np.zeros(T)
    appearances: dict[int, list[tuple[int, float]]] = {}
    for ell, step in enumerate(log.steps):
        if step.kind is not StepKind.COVERING:
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
            k = len(candidates) - 1
            while budget > 0.0 and k >= 0:
                tau, c_tau = candidates[k]
                take = min(ytilde[tau], budget / c_tau)
                budget -= c_tau * take
                if take > drops.get(tau, 0.0):
                    drops[tau] = take
                if take >= ytilde[tau]:
                    k -= 1
                else:
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


def max_window_sums(log: MultiplierLog, ytilde: np.ndarray) -> np.ndarray:
    """Per coordinate, the maximum over nonempty time windows [s, t] of
    sum of c_i^tau ytilde^tau minus p_i^tau z^tau."""
    T = log.horizon
    # a coordinate's term is 0 off its appearances, so windows of them alone sum to 0
    best = np.full(log.n, 0.0 if T else -np.inf)
    e = _Entries(log)
    a = e.movement(ytilde, _multipliers(log)[1]).tolist()
    for i, t, a_t, first, last in zip(e.coord.tolist(), e.time.tolist(), a,
                                      e.first.tolist(), e.last.tolist()):
        if first:
            cur = top = -math.inf
            prev = -1
        if t > prev + 1:
            cur = max(cur, 0.0)
            top = max(top, cur)
        cur = cur + a_t if cur > 0.0 else a_t
        top = max(top, cur)
        prev = t
        if last:
            best[i] = max(top, cur, 0.0) if t < T - 1 else top
    return best


def check_ineq1(log: MultiplierLog, ytilde: np.ndarray, eps: float):
    """(worst excess over the window bound, offending coordinate)."""
    d = max(1, log.sparsity)
    bound = log.weights * math.log1p(40.0 * d * d / (eps * eps))
    if log.horizon == 0:
        return 0.0, -1
    gaps = max_window_sums(log, ytilde) - bound
    i = int(np.argmax(gaps))
    return float(gaps[i]), i


def check_ineq2(log: MultiplierLog, ytilde: np.ndarray, eps: float) -> float:
    """How far sum(ytilde) falls below (1 - eps/10) sum(y); <= 0 is good."""
    y, _ = _multipliers(log)
    return float((1.0 - eps / 10.0) * y.sum() - ytilde.sum())


def build_refined_dual(log: MultiplierLog, ytilde: np.ndarray, eps: float) -> DualCertificate:
    """Certificate with scaling A = log(1 + 40 d^2 / eps^2).

    The movement duals come from the backward suffix-maximum recurrence
    M_i^t = max(0, a_t + M_i^{t+1}) with a_t = c_i^t ytilde^t on covering
    steps and -p_i^t z^t on packing steps (0 off the support of step t);
    r_bar = M / A. Row feasibility then holds by construction and
    r_bar <= w_i by the window bound; both are still verified and
    violations abort.
    """
    if log.has_freeze:
        raise CertificateError("refined certificate requires a clamp-free log")
    d = max(1, log.sparsity)
    A = math.log1p(40.0 * d * d / (eps * eps))
    _, z = _multipliers(log)
    y_bar = np.asarray(ytilde, dtype=float) / A
    z_bar = z / A
    e = _Entries(log)
    a, last = e.movement(ytilde, z).tolist(), e.last.tolist()
    M, carry = [0.0] * len(a), 0.0
    for k in reversed(range(len(a))):
        M[k] = carry = max(0.0, a[k] + (0.0 if last[k] else carry))
    M = np.array(M)
    start = np.zeros(log.n)
    start[e.coord[e.first]] = M[e.first] / A
    # after appearance k, M holds its value at the coordinate's next appearance
    after = np.where(e.last, 0.0, np.roll(M, -1)) / A
    r_bar = MovementDuals(start, e.per_coordinate(after), log.appearances)
    objective = float(y_bar.sum() - z_bar.sum())
    violation = check_dual_feasibility(log, y_bar, z_bar, r_bar)
    if violation > FEASIBILITY_TOL:
        raise CertificateError("refined dual infeasible by %.3e" % violation)
    return DualCertificate("refined", A, y_bar, z_bar, r_bar, np.asarray(ytilde, float), objective, violation)


def check_movement_bound(log: MultiplierLog, eps: float) -> float:
    """Worst excess of per-covering-step upward movement over (1 + eps/4) y."""
    worst = -np.inf
    for step in log.steps:
        if step.kind is not StepKind.COVERING:
            continue
        up = float(log.weights[step.indices] @ np.clip(step.x_after - step.x_before, 0.0, None))
        worst = max(worst, up - (1.0 + eps / 4.0) * step.multiplier)
    return worst if worst > -np.inf else 0.0


def check_z_bound(log: MultiplierLog, eps: float) -> float:
    """(1 + eps/4) sum(y) - (1 + eps) sum(z); >= 0 up to tol on real runs."""
    y, z = _multipliers(log)
    return float((1.0 + eps / 4.0) * y.sum() - (1.0 + eps) * z.sum())


def check_subset_lemma(log: MultiplierLog, eps: float, i: int, s: int, t: int, subset) -> float:
    """lhs - rhs of the subset bound; <= tol expected.

    subset must be covering times within [s, t] (0-based, inclusive).
    """
    subset = sorted(int(tau) for tau in subset)
    if any(tau < s or tau > t for tau in subset):
        raise ValueError("subset must lie inside [s, t]")
    if any(log.steps[tau].kind is not StepKind.COVERING for tau in subset):
        raise ValueError("subset may only contain covering times")

    def on_support(tau, field):
        step = log.steps[tau]
        k = int(np.searchsorted(step.indices, i))
        hit = k < step.indices.shape[0] and step.indices[k] == i
        return float(getattr(step, field)[k]) if hit else 0.0

    def paid(tau):
        return on_support(tau, "coeffs") * log.steps[tau].multiplier

    lhs = sum(paid(tau) for tau in subset)
    lhs -= sum(paid(tau) for tau in range(s, t + 1) if log.steps[tau].kind is StepKind.PACKING)
    cmax_s = max((on_support(tau, "coeffs") for tau in subset), default=0.0)
    # x_i after step t: its value after its last appearance up to t
    times = log.appearances.get(i, [])
    j = bisect_right(times, t)
    x_it = on_support(times[j - 1], "x_after") if j else 0.0
    rhs = float(log.weights[i]) * math.log1p(4.0 * max(1, log.sparsity) * cmax_s * x_it / eps)
    return float(lhs - rhs)


def _ratio(upward: float, bound: float):
    if bound > 0.0:
        return upward / bound
    if upward > 0.0:
        return float("inf")
    return None


def certified_report(cert: DualCertificate, ledger: RecourseLedger, eps: float) -> dict:
    """Lower bound, realized recourse, their ratio, and the ratio cap."""
    bound = cert.certified_bound
    upward = ledger.upward_total
    cap = (2.0 + eps) * (1.0 + eps) / eps * cert.scaling
    return {
        "scheme": cert.scheme,
        "lower_bound": bound,
        "upward_recourse": upward,
        "ratio": _ratio(upward, bound),
        "theoretical_cap": cap,
        "A": cert.scaling,
    }


def certify_run(log: MultiplierLog, ledger: RecourseLedger, eps: float) -> dict:
    """Summary record combining both certificates.

    The refined fields are null when the log contains freezes (the
    refined construction is unsound there); the theoretical cap then
    falls back to the warmup constant.
    """
    out = {
        "upward_recourse": ledger.upward_total,
        "l1_recourse": ledger.l1_total,
        "warmup_bound": 0.0,
        "refined_bound": None,
        "ratio_warmup": None,
        "ratio_refined": None,
        "theoretical_cap": None,
        "A_warmup": None,
        "A_refined": None,
        "d": log.sparsity,
        "Delta": log.aspect_ratio,
    }
    if log.horizon == 0:
        return out
    certs = [build_warmup_dual(log, eps)]
    if not log.has_freeze:
        certs.append(build_refined_dual(log, refine_ytilde(log, eps), eps))
    for cert in certs:
        report = certified_report(cert, ledger, eps)
        out[cert.scheme + "_bound"] = report["lower_bound"]
        out["ratio_" + cert.scheme] = report["ratio"]
        out["A_" + cert.scheme] = report["A"]
        out["theoretical_cap"] = report["theoretical_cap"]
    return out
