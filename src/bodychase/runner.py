"""End-to-end drivers: streams and update sequences through the full stack.

Every run is one `_Run`: the point, its multiplier log (and so its
recourse ledger and its steps' root-finder costs) and the offline stream,
with one tail that certifies the run and solves the offline benchmark LP, so
streams and replays report the same summary keys. run_chase feeds a raw
constraint stream to it row by row. run_problem replays a combinatorial
update sequence through its adapter, chases the emitted body after every
update, and hands the fractional point to the problem's rounding, which
`_rounding` sets up once per seed. replicate rounds one chase under
consecutive seeds and aggregates the rounding statistics.

Reports are lists of plain dict records (see formats.write_report); all
iteration is in sorted order and nothing nondeterministic (time, pids,
machine names) is ever emitted, so a fixed config and input yield
byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .adapters import (
    AdapterError,
    LoadBalanceState,
    MatchingState,
    MstState,
    SetCoverState,
    loadbalance_body,
    matching_body,
    mst_body,
    setcover_body,
)
from .certify import MultiplierLog, certify_run
from .core import (FractionalPoint, Freeze, Kind, chase_body, project_and_record, scaled_output,
                   stream_steps)
from .formats import (FormatError, _numeric, parse_stream, parse_updates, parse_weights,
                      stream_dimension)
from .graphs import is_connected  # noqa: F401  the benchmark's tracer wraps this name
from .offline import VARIABLE_CAP, OracleCapExceeded, lp_report, solve_offline_lp
from .round_matching import MaintainedMatching, Stabilizer, maintain_matching, stabilizer_step
from .round_mst import DynamicTree, MstSampler, mst_sampler_step, repair_tree
from .round_setcover import CoverState, init_clocks, round_det, round_rand

__all__ = ["RunConfig", "run_chase", "run_problem", "replicate", "BETA_DEFAULTS", "ROUND_MODES"]

BETA_DEFAULTS = {"setcover": 2.0, "matching": 1.0, "mst": 2.0, "loadbalance": 2.0}
# the rounding modes each problem takes; a problem not listed is fractional only
ROUND_MODES = {"setcover": ("none", "det", "rand"), "matching": ("none", "on"),
               "mst": ("none", "on")}


@dataclass
class RunConfig:
    problem: str = "chase"
    delta: float = 0.5
    eps: float | None = None
    alpha: float = 1.0
    beta: float | None = None
    gamma: float = 1.0
    f: int | None = None
    seed: int = 0
    runs: int = 1
    round_mode: str = "none"
    certify: bool = True
    offline: bool = True
    oracle_cap: int = VARIABLE_CAP

    def __post_init__(self):
        """Every run parameter's range, checked before any input is read."""
        if not 0.0 < self.delta <= 1.0:
            raise FormatError("delta must lie in (0, 1], got %r" % self.delta)
        if self.eps is not None and not 0.0 < self.eps <= 1.0:
            raise FormatError("eps must lie in (0, 1], got %r" % self.eps)
        if self.oracle_cap < 0:
            raise FormatError("oracle_cap must be nonnegative, got %r" % self.oracle_cap)
        for name, value in (("alpha", self.alpha), ("gamma", self.gamma)):
            if not 0.0 < value < math.inf:
                raise FormatError("%s must be finite and positive, got %r" % (name, value))
        # a "chase" config (replicate's) is checked again once the file names its problem
        beta = self.beta
        if beta is not None and not (0.0 < beta < math.inf and (
                beta <= 1.0 if self.problem == "matching" else
                beta >= 1.0 or self.problem == "chase")):
            raise FormatError("beta must be finite, in (0, 1] for matching and at least 1 "
                              "for the other problems, got %r" % beta)

    def effective_eps(self) -> float:
        return self.delta / 20.0 if self.eps is None else self.eps

    def effective_beta(self) -> float:
        if self.beta is not None:
            return self.beta
        return BETA_DEFAULTS.get(self.problem, 1.0)

    def echo(self) -> dict:
        return {**asdict(self), "eps": self.effective_eps(), "beta": self.effective_beta()}


def _meta(config: RunConfig, extra=None) -> dict:
    return {"kind": "meta", "version": __version__, "config": config.echo(), **(extra or {})}


def apply_freeze(x: FractionalPoint, indices, log=None) -> FractionalPoint:
    """Clamp coordinates to zero in place and record the clamp in `log`; returns `x`."""
    idx = np.array(sorted({int(i) for i in indices}), dtype=np.int64)
    before = x.values[idx]
    x.values[idx] = 0.0
    if log is not None:
        log.append_freeze(idx, before, np.zeros(idx.shape[0]))
    return x


def _offline_block(stream, weights, cap):
    try:
        _, res = solve_offline_lp(stream, weights, variable_cap=cap)
    except OracleCapExceeded as exc:
        return {"kind": "offline", "skipped": str(exc), "opt": None,
                "pivots": None, "cs_residual": None, "duality_gap": None}
    return {"kind": "offline", "skipped": None, **lp_report(res)}


def _ratio_against(upward: float, opt) -> float | None:
    if opt is None:
        return None
    if upward <= 1e-15:
        return 1.0
    if opt <= 1e-15:
        return None
    return upward / opt


class _Run:
    """One chase: the point, its multiplier log (and so its recourse
    ledger) and the offline stream. A stream run
    starts at its full dimension with its stream as the offline stream; a
    replay starts at its header's dimension, grows with its updates and,
    when the offline LP is on, pushes one offline group per update."""

    def __init__(self, config: RunConfig, weights, offline: list):
        self.config = config
        self.eps = config.effective_eps()
        self.x = FractionalPoint.zeros(weights.shape[0], weights)
        self.log = MultiplierLog(weights)
        self.offline = offline
        self.frozen: set = set()

    def grow(self, dim: int) -> None:
        """Extend the point by zero coordinates of weight 1."""
        if dim > self.x.dim:
            values, weights = np.zeros(dim), np.ones(dim)
            values[: self.x.dim] = self.x.values
            weights[: self.x.dim] = self.x.weights
            self.x = FractionalPoint(values, weights)
            self.log.extend_weights(weights)

    def clamp(self, frozen) -> tuple:
        """Freeze the coordinates of `frozen` that were not frozen at the
        last clamp, those still positive on the point; returns them all.
        A coordinate that stayed frozen is already 0: no row names it."""
        frozen = set(frozen)
        newly = tuple(sorted(frozen - self.frozen))
        self.frozen = frozen
        positive = [i for i in newly if self.x.values[i] > 0.0]
        if positive:
            apply_freeze(self.x, positive, self.log)
        return newly

    def chase(self, oracle, row: dict) -> None:
        """Chase the body to tolerance and write the chase's fields into
        the update `row`."""
        ledger = self.log.ledger
        up, l1 = ledger.upward_total, ledger.l1_total
        _, steps = chase_body(self.x, oracle, self.config.delta, log=self.log)
        row.update(projections=len(steps), upward_step=ledger.upward_total - up,
                   l1_step=ledger.l1_total - l1,
                   rootfind_iterations=sum(step.iterations for step in steps))

    def push_offline_group(self, newly, rows) -> None:
        """One update's offline group: a clamp of the coordinates that froze
        at it, then its rows. Later groups need not clamp them again, as the
        compressed LP holds a coordinate that no row names."""
        group = [Freeze(newly)] if newly else []
        group.extend(rows)
        if group:
            self.offline.append(group)

    def finish(self, summary: dict):
        """The certificate record, the offline record (None when off) and
        `summary` completed with the keys every run reports."""
        ledger, config, steps = self.log.ledger, self.config, self.log.steps
        out = {"kind": "summary", **summary,
               "upward_recourse": ledger.upward_total, "l1_recourse": ledger.l1_total,
               "rootfind_iterations": sum(step.iterations for step in steps),
               "max_projection_residual": max((step.residual for step in steps), default=0.0)}
        cert = block = None
        if config.certify:
            cert = {"kind": "certificate", **certify_run(self.log, self.eps)}
            for key in ("warmup_bound", "refined_bound", "ratio_warmup", "ratio_refined",
                        "warmup_max_violation", "refined_max_violation"):
                out[key] = cert[key]
        if config.offline:
            block = _offline_block(self.offline, self.x.weights, config.oracle_cap)
            out.update(offline_opt=block["opt"], offline_pivots=block["pivots"],
                       offline_skipped=block["skipped"],
                       ratio_vs_opt=_ratio_against(ledger.upward_total, block["opt"]))
        return cert, block, out


def run_chase(config: RunConfig, stream, weights=None) -> list:
    """Process a raw constraint stream; returns the report records.

    A `str` for `stream` or `weights` is read as a file path, not as text.
    """
    if isinstance(stream, str):
        stream = parse_stream(stream)
    dim = stream_dimension(stream)
    if weights is None:
        w = np.ones(dim)
    elif isinstance(weights, str):
        w = parse_weights(weights, dim)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape[0] < dim:
            raise FormatError("weights cover %d coordinates, stream needs %d"
                              % (w.shape[0], dim))
    stream = stream_steps(stream)
    run = _Run(config, w, stream)
    records = [_meta(config, {"n": run.x.dim, "T": len(stream)})]
    steps, recourse = run.log.steps, run.log.ledger.steps
    for t, group in enumerate(stream):
        for member in group:
            freeze = member.kind is Kind.FREEZE
            if freeze:
                apply_freeze(run.x, member.indices, run.log)
            else:
                project_and_record(run.x, member, run.eps, run.log)
            step = steps[-1]
            records.append({"kind": "step", "t": t, "tag": member.kind.value,
                            "support": len(member.indices),
                            "multiplier": None if freeze else step.multiplier,
                            "upward_step": recourse[-1][0], "l1_step": recourse[-1][1],
                            "rootfind_iterations": step.iterations})
    tail = run.finish({"final_point": run.x.values.tolist(), "T": len(stream)})
    return records + [record for record in tail if record is not None]


def _build_state(problem: str, header: dict):
    if problem == "setcover":
        sets = header["sets"]
        return SetCoverState([s["cost"] for s in sets],
                             [set(s["elements"]) for s in sets])
    if problem == "matching":
        return MatchingState()
    if problem == "mst":
        return MstState(header["vertices"])
    if problem == "loadbalance":
        return LoadBalanceState(header["machines"])
    raise FormatError("unknown problem %r" % problem)


def run_problem(config: RunConfig, updates) -> list:
    """Replay an update sequence through adapter, chaser, and rounding.

    A `str` for `updates` is read as a file path, not as update text.
    """
    records, (summary,) = _replay(config, updates, [config.seed])
    return records + [summary]


def _replay(config: RunConfig, updates, seeds):
    """Chase every update once and round it per seed. Returns the meta and
    update records (rounding fields of the last seed), one summary per seed."""
    if isinstance(updates, str):
        updates = parse_updates(updates)
    problem, header, events = updates
    if config.problem not in ("chase", problem):
        raise FormatError("config problem %r does not match file problem %r"
                          % (config.problem, problem))
    # the chase projects at delta/20, so the certificate must read that eps
    if abs(config.effective_eps() - config.delta / 20.0) > 1e-12 * config.delta:
        raise ValueError("chase rounds require eps = delta / 20")
    config = replace(config, problem=problem)
    beta = config.effective_beta()
    state = _build_state(problem, header)
    run = _Run(config, np.ones(state.dimension), [])
    records = [_meta(config, {"updates": len(events)})]

    roundings = [_rounding(problem, state, header, config, seed) for seed in seeds]
    mst_started = False

    for index, event in enumerate(events):
        try:
            # the adapters' parameter names are the event's JSON keys
            getattr(state, event.op)(**event.payload)
        except AdapterError as exc:
            raise AdapterError("update %d: %s" % (index, exc)) from None
        run.grow(state.dimension)
        row = {"kind": "update", "index": index, "op": event.op,
               "dim": state.dimension}

        if problem == "mst":
            if state.spanning_tree() is None:
                if mst_started:
                    raise AdapterError("update %d: graph must stay connected" % index)
                row["skipped"] = "warmup: graph not yet connected"
                records.append(row)
                continue
            mst_started = True
            body = mst_body(state, beta)
        elif problem == "setcover":
            body = setcover_body(state, beta)
            row["lp_pivots"] = state.lp_pivots
        elif problem == "matching":
            body = matching_body(state, beta)
        else:
            body = loadbalance_body(state, beta)
            row["opt_exact"] = state.opt_exact
        newly = run.clamp(body.frozen)
        run.chase(body, row)
        row["opt"] = body.opt
        if config.offline:
            run.push_offline_group(newly, body.rows())

        for rounding in roundings:
            if rounding is not None:
                rounding[0](run.x, row)
        records.append(row)

    summary = {"n": run.x.dim}
    if problem == "setcover":
        summary["lp_pivots"] = sum(r["lp_pivots"] for r in records[1:])
    _, _, summary = run.finish(summary)
    return records, [summary if rounding is None else {**summary, **rounding[1]()}
                     for rounding in roundings]


def _rounding(problem, state, header, config: RunConfig, seed: int):
    """One seed's rounding as `(step, summary)` closures, or None when it is
    off. `step(x, row)` rounds the chased point and writes its fields into
    the update row; `summary()` returns the run's rounding totals. The
    rounding functions are module globals looked up at call time."""
    mode = config.round_mode
    allowed = ROUND_MODES.get(problem, ("none",))
    if mode not in allowed:
        raise FormatError("%s round mode must be one of %s (got %r)"
                          % (problem, ", ".join(allowed), mode))
    if mode == "none":
        return None
    delta = config.delta
    if problem == "setcover":
        cover = CoverState(state)
        if mode == "rand":
            cover.clocks = init_clocks(state, seed, config.alpha, state.dimension)
        if config.f is not None and config.f < state.frequency():
            raise AdapterError("f=%d below the instance frequency %d"
                               % (config.f, state.frequency()))

        def step(x, row):
            if mode == "det":
                round_det(scaled_output(x, delta), cover,
                          state.frequency() if config.f is None else config.f)
            else:
                round_rand(scaled_output(x, delta), cover, config.alpha, state.dimension)
            row.update(cover_size=len(cover.selected), cover_cost=cover.cost(),
                       cover_recourse_step=cover.step_recourse,
                       cover_feasible=cover.covers_live())

        return step, lambda: {"cover_cost": cover.cost(),
                              "cover_recourse": cover.recourse_total}
    if problem == "matching":
        n = header.get("n")
        if n is None:
            raise FormatError("matching header needs \"n\" when rounding is on")
        stab = Stabilizer(state, config.alpha, delta, int(n), seed)
        matching = MaintainedMatching(delta)

        def step(x, row):
            _, inserted, deleted = stabilizer_step(x.values, stab)
            per_unit = maintain_matching(inserted, deleted, matching)
            row.update(case=stab.case, matching_size=matching.size(),
                       matching_recourse_step=sum(per_unit),
                       stabilizer_copy_recourse_step=stab.copy_step_recourse)

        return step, lambda: {"matching_size": matching.size(),
                              "matching_recourse": matching.recourse_total,
                              "stabilizer_copy_recourse": stab.copy_recourse_total}
    sampler = MstSampler(state, config.alpha, delta, seed, config.gamma)
    tree = DynamicTree(state.vertices, state.costs)

    def step(x, row):
        inserted, deleted = mst_sampler_step(scaled_output(x, delta).values, sampler)
        per_unit = repair_tree(inserted, deleted, tree)
        row.update(fallback_fired=sampler.fallback_fired, tree_cost=tree.tree_cost(),
                   tree_recourse_step=sum(per_unit),
                   fractional_cost=sampler.fractional_cost)

    return step, lambda: {"tree_cost": tree.tree_cost(),
                          "tree_recourse": tree.recourse_total,
                          "sample_recourse": sampler.sample_recourse_total}


def replicate(config: RunConfig, updates) -> list:
    """config.runs seeded roundings of one chase; aggregates the rounding
    metrics only, so the run neither certifies nor solves the offline LP."""
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
    seeds = [config.seed + r for r in range(runs)]
    values: dict = {}
    for summary in _replay(config, updates, seeds)[1]:
        for key in tracked:
            if key in summary and _numeric(summary[key]):
                values.setdefault(key, []).append(float(summary[key]))
    out = {"kind": "aggregate", "runs": runs, "seeds": seeds}
    for key, vals in sorted(values.items()):
        arr = np.array(vals)
        out[key + "_mean"] = float(arr.mean())
        if len(arr) > 1:
            out[key + "_se"] = float(arr.std(ddof=1) / math.sqrt(len(arr)))
    # the replay checked config.problem against the file's; echo the file's
    # problem, and so its default beta
    return [_meta(replace(config, problem=updates[0]), {"replications": runs}), out]
