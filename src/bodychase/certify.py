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
change and the dual row is identically 0. The log stores only its steps,
and in its ledger their recourse; `MultiplierLog.entries` derives that
per-coordinate view once per horizon.
The refined certificate reads only the view: its damping scan walks the
coordinates' runs, and one backward pass of suffix sums over the runs
gives both its movement duals and the window bound it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChaseError, HalfspaceConstraint, Kind, RecourseLedger, Step

__all__ = [
    "CertificateError",
    "MultiplierLog",
    "MovementDuals",
    "DualCertificate",
    "build_warmup_dual",
    "refine_ytilde",
    "build_refined_dual",
    "certify_run",
    "check_dual_feasibility",
    "max_window_sums",
    "check_ineq1",
    "check_ineq2",
    "FEASIBILITY_TOL",
]

FEASIBILITY_TOL = 1e-8


class CertificateError(ChaseError):
    """A certificate internal check failed; the log cannot be certified."""


class MultiplierLog:
    """Ordered record of projections and clamps along one run.

    The log holds the movement weights and its steps, each a `core.Step` on
    its support only; the coordinate space may grow during a run.
    Everything per coordinate is derived from the steps by `entries()`.
    `ledger` records the recourse of every appended step, at the log's weights.
    """

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)
        self.steps: list[Step] = []
        self.ledger = RecourseLedger()
        self._entries = None

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def horizon(self) -> int:
        return len(self.steps)

    def entries(self) -> "_Entries":
        """The steps laid out by coordinate. Steps are only ever appended,
        so the view is built once per horizon."""
        if self._entries is None or self._entries.horizon != len(self.steps):
            self._entries = _Entries(self.steps)
        return self._entries

    def extend_weights(self, weights) -> None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape[0] < self.n or not np.array_equal(weights[: self.n], self.weights):
            raise ValueError("weights may only grow, never change")
        self.weights = weights

    def _append(self, step: Step, weights) -> "MultiplierLog":
        x_before, x_after = step.x_before, step.x_after
        if not (x_before.shape == x_after.shape == step.indices.shape):
            raise ValueError("x_before and x_after must hold x on the step's support")
        self.ledger.record_step(weights, x_before, x_after, 1 if step.kind is Kind.COVERING else -1)
        self.steps.append(step)
        return self

    def append_projection(self, row: HalfspaceConstraint, step: Step) -> "MultiplierLog":
        """Keep `step`, a projection onto `row` or its zero step, whose float
        arrays x_before and x_after are x[row.indices]."""
        if step.multiplier < 0.0:
            raise ValueError("multiplier must be nonnegative, got %r" % step.multiplier)
        return self._append(step, row.support_weights(self.weights))

    def append_freeze(self, indices, x_before, x_after) -> "MultiplierLog":
        """Record a clamp; x_before and x_after are x at `indices`, in that order.
        The step holds each index once, in increasing order, with its first values."""
        if np.shape(x_before) != np.shape(indices) or np.shape(x_after) != np.shape(indices):
            raise ValueError("x_before and x_after must hold x at the clamped indices")
        idx = np.array(indices, dtype=np.int64)
        before, after = np.array(x_before, dtype=float), np.array(x_after, dtype=float)
        if idx.shape[0] > 1 and not (idx[1:] > idx[:-1]).all():  # sorted and distinct as it is
            idx, first = np.unique(idx, return_index=True)
            before, after = before[first], after[first]
        return self._append(Step(Kind.FREEZE, idx, np.zeros(idx.shape[0]), 0.0, before, after),
                            self.weights[idx])


@dataclass
class MovementDuals:
    """The movement duals rbar_i^t of one certificate.

    `start[i]` is rbar_i^t up to and including the first appearance of i
    (at every t if i never appears); `after[k]` is its value after entry k
    of `entries`, up to and including the coordinate's next appearance.
    """

    start: np.ndarray
    after: np.ndarray
    entries: "_Entries"

    def at(self, i: int, t: int) -> float:
        """rbar_i^t, for 0 <= t < T."""
        e = self.entries
        lo, hi = np.searchsorted(e.coord, [i, i + 1])
        j = int(np.searchsorted(e.time[lo:hi], t))
        return float(self.start[i] if j == 0 else self.after[lo + j - 1])


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
    """A log's steps laid out by coordinate, then time. Per entry: the step's
    kind, the coordinate's coefficient, its values before and after, and
    `cmax`, its largest covering coefficient (0 if none). Per step:
    `step_kind`, and `y` and `z`, the covering and packing multipliers (0
    elsewhere). Over the log: `sparsity` (largest covering support),
    `aspect_ratio` (largest cmax/cmin, 0.0 if none) and `freeze_count`."""

    def __init__(self, steps: list[Step]):
        self.horizon = T = len(steps)
        # one transpose of the steps: each of the first six fields is one tuple over time
        kinds, indices, coeffs, multiplier, x_before, x_after, *_ = zip(*steps) if T else ((),) * 6
        # Kind compares by identity, so tagging the steps runs in numpy, not per step in Python
        kind = np.fromiter(kinds, object, T)
        self.step_kind = step_kind = np.where(kind == Kind.COVERING, "C",
                                              np.where(kind == Kind.PACKING, "P", "F"))
        size = np.fromiter(map(len, indices), np.int64, T)
        multiplier = np.array(multiplier, dtype=float)
        covering = step_kind == "C"
        self.y = np.where(covering, multiplier, 0.0)
        self.z = np.where(step_kind == "P", multiplier, 0.0)
        self.sparsity = int(size[covering].max()) if covering.any() else 0
        self.freeze_count = int(np.count_nonzero(step_kind == "F"))

        def joined(arrays, dtype=float):
            return np.concatenate((*arrays, np.zeros(0, dtype)))

        # a support names each coordinate once and steps are in time order,
        # so a stable sort of the flat indices orders by coordinate, then time
        flat = joined(indices, np.int64)
        order = np.argsort(flat, kind="stable")
        self.coord = flat[order]
        self.time = np.repeat(np.arange(T), size)[order]
        self.kind = step_kind[self.time]
        self.coeff = joined(coeffs)[order]
        self.x_before = joined(x_before)[order]
        self.x_after = joined(x_after)[order]
        self.first = np.diff(self.coord, prepend=-1) != 0
        self.last = np.roll(self.first, -1)
        starts = np.flatnonzero(self.first)
        # coefficients are positive, so a coordinate no covering row names gets cmax 0
        cov = self.kind == "C"
        # the numerator 10 d c of refine_ytilde's damping threshold, largest over covering entries
        self.damping = float((10.0 * size[self.time] * self.coeff)[cov].max()) if cov.any() else 0.0
        top = np.maximum.reduceat(np.where(cov, self.coeff, 0.0), starts)
        low = np.minimum.reduceat(np.where(cov, self.coeff, np.inf), starts)
        ratio = (top / low)[top > 0.0]
        self.aspect_ratio = float(ratio.max()) if ratio.size else 0.0
        self.cmax = np.repeat(top, np.diff(starts, append=self.coord.size))
        self._suffix = (None, None)  # (ytilde's bytes, its suffix sums)

    def movement(self, y, z) -> np.ndarray:
        """c_i^t y^t on covering entries, -p_i^t z^t on the others (clamps have c = 0)."""
        return np.where(self.kind == "C", self.coeff * y[self.time], -(self.coeff * z[self.time]))

    def suffix_sums(self, ytilde) -> np.ndarray:
        """`_suffix_sums` of the last ytilde: a window check and the duals share one pass."""
        key = np.asarray(ytilde, dtype=float).tobytes()
        if self._suffix[0] != key:
            self._suffix = (key, _suffix_sums(self, ytilde))
        return self._suffix[1]


def check_dual_feasibility(log: MultiplierLog, y_bar, z_bar, r_bar: MovementDuals) -> float:
    """Largest violation of any dual row by (y_bar, z_bar, r_bar).

    Every row on a step's support is evaluated; a row off it is 0, as
    rbar_i is constant between appearances. Rows of frozen coordinates
    at their freeze times are exempt: those primal columns carry a clamp
    constraint whose multiplier can absorb any excess.
    """
    n, T = log.n, log.horizon
    e = log.entries()
    after = r_bar.after
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
    e = log.entries()
    d = max(1, e.sparsity)
    A = _log1p_ratio(4.0 * d * max(1.0, e.aspect_ratio), eps, 1)
    y_bar = e.y / A
    z_bar = e.z / A
    w = log.weights[e.coord]
    scale = 4.0 * d * e.cmax

    def r(x):
        # in log form where the ratio leaves float range, as A is
        with np.errstate(over="ignore", divide="ignore"):
            ratio = scale * x / eps
            lifted = np.where(ratio < np.inf, np.log1p(ratio), np.log(scale * x) - math.log(eps))
        return w * (1.0 - lifted / A)

    start = log.weights.copy()
    start[e.coord[e.first]] = r(e.x_before)[e.first]
    r_bar = MovementDuals(start, r(e.x_after), e)
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
    facts are verified before returning. A coordinate's earlier times are
    the entries before it in its run of the log's view.

    Only valid for clamp-free logs: a freeze resets a coordinate without
    a packing payment, which breaks the window bound. Refused too when a
    threshold overflows: then no earlier time is damped (see `_refusal`).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    e = log.entries()
    reason = _refusal(e, eps)
    if reason is not None:
        raise CertificateError(reason)
    # the view ordered by time: each step's support is one slice of it
    by_step = np.argsort(e.time, kind="stable").tolist()
    cuts = np.concatenate(([0], np.cumsum(np.bincount(e.time, minlength=e.horizon)))).tolist()
    time, coeff, first, y = e.time.tolist(), e.coeff.tolist(), e.first.tolist(), e.y.tolist()
    ytilde = [0.0] * e.horizon
    for ell in np.flatnonzero(e.step_kind == "C").tolist():
        support = by_step[cuts[ell]:cuts[ell + 1]]
        drops: dict[int, float] = {}
        for k in support:
            budget = coeff[k] * y[ell]
            threshold = 10.0 * len(support) * coeff[k] / eps
            j = k
            # the coordinate's earlier times, latest first; packing times keep
            # ytilde 0, so only covering ones are ever lowered
            while budget > 0.0 and not first[j]:
                j -= 1
                tau, c_tau = time[j], coeff[j]
                if c_tau < threshold or ytilde[tau] <= 0.0:
                    continue
                take = min(ytilde[tau], budget / c_tau)
                budget -= c_tau * take
                drops[tau] = max(drops.get(tau, 0.0), take)
                if take < ytilde[tau]:
                    break
        ytilde[ell] = y[ell]
        for tau, amount in drops.items():
            ytilde[tau] = max(0.0, ytilde[tau] - amount)
    ytilde = np.array(ytilde, dtype=float)

    excess1, where1 = check_ineq1(log, ytilde, eps)
    if excess1 > FEASIBILITY_TOL:
        raise CertificateError("window sum bound violated by %.3e at coordinate %d" % (excess1, where1))
    deficit = check_ineq2(log, ytilde, eps)
    if deficit > FEASIBILITY_TOL:
        raise CertificateError("ytilde mass dropped below (1 - eps/10) by %.3e" % deficit)
    return ytilde


def _refusal(e: "_Entries", eps: float) -> str | None:
    """Why the refined certificate cannot be built for the view `e` at eps, or
    None: a clamp in the log, or a damping threshold 10 d c / eps that leaves
    float range, which would damp nothing and fail the window bound."""
    if e.freeze_count:
        return "refined certificate requires a clamp-free log (%d freezes present)" % e.freeze_count
    if not e.damping / eps < math.inf:
        return "refined certificate's damping threshold 10 d c / eps leaves float range"
    return None


def _suffix_sums(e: "_Entries", ytilde) -> np.ndarray:
    """S_k = a_k + max(0, S_{k+1}) backward over each coordinate's run,
    the second term 0 on its last entry, with a = c ytilde on covering
    entries and -p z on packing ones: the largest sum of a window of the
    run's terms that starts at entry k."""
    a, last = e.movement(ytilde, e.z).tolist(), e.last.tolist()
    S, carry = [0.0] * len(a), 0.0
    for k in reversed(range(len(a))):
        S[k] = carry = a[k] + (carry if carry > 0.0 and not last[k] else 0.0)
    return np.array(S, dtype=float)


def max_window_sums(log: MultiplierLog, ytilde: np.ndarray) -> np.ndarray:
    """Per coordinate, the maximum over nonempty time windows [s, t] of
    sum of c_i^tau ytilde^tau minus p_i^tau z^tau: the largest of its run's
    suffix sums, or 0 from a window over a step that does not name it."""
    T = log.horizon
    best = np.full(log.n, 0.0 if T else -np.inf)
    e = log.entries()
    starts = np.flatnonzero(e.first)
    top = np.maximum.reduceat(e.suffix_sums(ytilde), starts)
    covers_all = np.diff(starts, append=e.coord.size) == T
    best[e.coord[starts]] = np.where(covers_all, top, np.maximum(top, 0.0))
    return best


def _log1p_ratio(num: float, eps: float, power: int) -> float:
    """log(1 + num / eps**power), in log form once eps**power or the ratio leaves float range."""
    den = eps * eps if power == 2 else eps
    ratio = num / den if den > 0.0 else math.inf
    return math.log1p(ratio) if ratio < math.inf else math.log(num) - power * math.log(eps)


def check_ineq1(log: MultiplierLog, ytilde: np.ndarray, eps: float):
    """(worst excess over the window bound, offending coordinate)."""
    d = max(1, log.entries().sparsity)
    bound = log.weights * _log1p_ratio(40.0 * d * d, eps, 2)
    if log.horizon == 0:
        return 0.0, -1
    gaps = max_window_sums(log, ytilde) - bound
    i = int(np.argmax(gaps))
    return float(gaps[i]), i


def check_ineq2(log: MultiplierLog, ytilde: np.ndarray, eps: float) -> float:
    """How far sum(ytilde) falls below (1 - eps/10) sum(y); <= 0 is good."""
    return float((1.0 - eps / 10.0) * log.entries().y.sum() - ytilde.sum())


def build_refined_dual(log: MultiplierLog, ytilde: np.ndarray, eps: float) -> DualCertificate:
    """Certificate with scaling A = log(1 + 40 d^2 / eps^2).

    The movement duals are r_bar = M / A, where M, the positive part of the
    suffix sums `max_window_sums` reads, is M_i^t = max(0, a_t + M_i^{t+1})
    with a_t = c_i^t ytilde^t on covering steps and -p_i^t z^t on packing
    steps (0 off the support of step t). Row feasibility then holds by
    construction and r_bar <= w_i by the window bound; both are still
    verified and violations abort.
    """
    e = log.entries()
    if e.freeze_count:
        raise CertificateError("refined certificate requires a clamp-free log")
    d = max(1, e.sparsity)
    A = _log1p_ratio(40.0 * d * d, eps, 2)
    y_bar = np.asarray(ytilde, dtype=float) / A
    z_bar = e.z / A
    M = np.maximum(e.suffix_sums(ytilde), 0.0)
    start = np.zeros(log.n)
    start[e.coord[e.first]] = M[e.first] / A
    # after appearance k, M holds its value at the coordinate's next appearance
    after = np.where(e.last, 0.0, np.roll(M, -1)) / A
    r_bar = MovementDuals(start, after, e)
    objective = float(y_bar.sum() - z_bar.sum())
    violation = check_dual_feasibility(log, y_bar, z_bar, r_bar)
    if violation > FEASIBILITY_TOL:
        raise CertificateError("refined dual infeasible by %.3e" % violation)
    return DualCertificate("refined", A, y_bar, z_bar, r_bar, np.asarray(ytilde, float), objective, violation)


def certify_run(log: MultiplierLog, eps: float) -> dict:
    """Summary record combining both certificates, against the log's ledger.

    The refined fields, `refined_max_violation` among them, are null when
    the log contains freezes (the refined construction is unsound there)
    or when eps is so small that its damping threshold leaves float range;
    the theoretical cap then falls back to the warmup constant. A scheme
    whose dual fails its feasibility check by more than FEASIBILITY_TOL
    certifies nothing: its bound, ratio and A are null, and only its
    `*_max_violation` is reported.
    """
    e, ledger = log.entries(), log.ledger
    out = {"upward_recourse": ledger.upward_total, "l1_recourse": ledger.l1_total,
           "warmup_bound": 0.0, "d": e.sparsity, "Delta": e.aspect_ratio,
           **dict.fromkeys(("refined_bound", "ratio_warmup", "ratio_refined", "theoretical_cap",
                            "A_warmup", "A_refined", "warmup_max_violation",
                            "refined_max_violation"))}
    if log.horizon == 0:
        return out
    certs = [build_warmup_dual(log, eps)]
    if _refusal(e, eps) is None:
        certs.append(build_refined_dual(log, refine_ytilde(log, eps), eps))
    for cert in certs:  # refined, when built, overrides the warmup cap
        out["theoretical_cap"] = (2.0 + eps) * (1.0 + eps) / eps * cert.scaling
        out[cert.scheme + "_max_violation"] = cert.max_violation
        if not cert.max_violation <= FEASIBILITY_TOL:  # a dual failing its check bounds nothing
            out[cert.scheme + "_bound"] = None
            continue
        bound = cert.certified_bound
        out[cert.scheme + "_bound"] = bound
        out["ratio_" + cert.scheme] = ledger.upward_total / bound if bound > 0.0 else None
        out["A_" + cert.scheme] = cert.scaling
    return out
