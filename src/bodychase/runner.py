"""End-to-end drivers: streams and update sequences through the full stack.

run_chase feeds a raw constraint stream to the projection engine and
optionally certifies the run and solves the offline benchmark LP.
run_problem replays a combinatorial update sequence through its adapter,
chases the emitted body after every update, and hands the fractional
point to the configured rounding layer. replicate rounds one chase under
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
    setcover_body,
)
from .certify import MultiplierLog, certify_run
from .core import (
    ChaseError,
    FractionalPoint,
    chase_body,
    project_and_record,
    scaled_output,
)
from .formats import FormatError, parse_stream, parse_updates, parse_weights, stream_dimension
from .graphs import is_connected
from .offline import Freeze, OracleCapExceeded, lp_report, solve_offline_lp
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
    oracle_cap: int = 4000

    def effective_eps(self) -> float:
        return self.delta / 20.0 if self.eps is None else self.eps

    def effective_beta(self) -> float:
        if self.beta is not None:
            return self.beta
        return BETA_DEFAULTS.get(self.problem, 1.0)

    def echo(self) -> dict:
        return {**asdict(self), "eps": self.effective_eps(), "beta": self.effective_beta()}


def _meta(config: RunConfig, extra=None) -> dict:
    record = {"kind": "meta", "version": __version__, "config": config.echo()}
    if extra:
        record.update(extra)
    return record


def _grown(x: FractionalPoint, dim: int) -> FractionalPoint:
    values = np.zeros(dim)
    values[: x.dim] = x.values
    w = np.ones(dim)
    w[: x.dim] = x.weights
    return FractionalPoint(values, w)


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
    dim = max(dim, w.shape[0])
    eps = config.effective_eps()
    x = FractionalPoint.zeros(dim, w)
    log = MultiplierLog(w)
    records = [_meta(config, {"n": dim, "T": len(stream)})]
    iterations, worst = 0, 0.0
    for t, item in enumerate(stream):
        group = item if isinstance(item, list) else [item]
        for member in group:
            if isinstance(member, Freeze):
                x = apply_freeze(x, member.indices, log)
                tag, multiplier, res = "F", None, None
            else:
                x, res = project_and_record(x, member, eps, log)
                tag, multiplier = member.kind.value, log.steps[-1].multiplier
            if res is not None:
                iterations += res.iterations
                worst = max(worst, res.residual)
            records.append({"kind": "step", "t": t, "tag": tag,
                            "support": len(member.indices), "multiplier": multiplier,
                            "upward_step": log.ledger.steps[-1][0],
                            "l1_step": log.ledger.steps[-1][1],
                            "rootfind_iterations": 0 if res is None else res.iterations})
    summary = {"kind": "summary",
               "upward_recourse": log.ledger.upward_total,
               "l1_recourse": log.ledger.l1_total,
               "final_point": x.values,
               "T": len(stream),
               "rootfind_iterations": iterations,
               "max_projection_residual": worst}
    if config.certify:
        cert = certify_run(log, eps)
        records.append({"kind": "certificate", **cert})
        summary["warmup_bound"] = cert["warmup_bound"]
        summary["refined_bound"] = cert["refined_bound"]
        summary["ratio_refined"] = cert["ratio_refined"]
    if config.offline:
        block = _offline_block(stream, w, config.oracle_cap)
        records.append(block)
        summary["offline_opt"] = block["opt"]
        summary["ratio_vs_opt"] = _ratio_against(log.ledger.upward_total, block["opt"])
    records.append(summary)
    return records


class _ProblemDriver:
    """Shared per-update plumbing for the four adapters."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.log = MultiplierLog(np.ones(0))
        self.x = FractionalPoint.zeros(0, np.ones(0))
        self.offline_stream = []
        self.frozen_now: tuple = ()
        self.rootfind_iterations = 0
        self.max_projection_residual = 0.0

    def grow(self, dim: int):
        if dim > self.x.dim:
            self.x = _grown(self.x, dim)
            self.log.extend_weights(np.ones(dim))

    def clamp(self, frozen) -> list:
        newly = [i for i in frozen if i < self.x.dim and self.x.values[i] > 0.0]
        if newly:
            self.x = apply_freeze(self.x, newly, self.log)
        self.frozen_now = tuple(sorted(frozen))
        return newly

    def chase(self, oracle):
        before_up = self.log.ledger.upward_total
        before_l1 = self.log.ledger.l1_total
        self.x, steps = chase_body(
            self.x, oracle, self.config.delta, self.config.eps, log=self.log,
        )
        iterations = sum(s.result.iterations for s in steps)
        self.rootfind_iterations += iterations
        self.max_projection_residual = max(
            [self.max_projection_residual] + [s.result.residual for s in steps])
        return {
            "projections": len(steps),
            "upward_step": self.log.ledger.upward_total - before_up,
            "l1_step": self.log.ledger.l1_total - before_l1,
            "rootfind_iterations": iterations,
            "rows": [s.constraint for s in steps],
        }

    def push_offline_group(self, rows):
        group = []
        if self.frozen_now:
            group.append(Freeze(self.frozen_now))
        group.extend(rows)
        if group:
            self.offline_stream.append(group)

    def summary(self) -> dict:
        n = self.x.dim
        out = {"kind": "summary",
               "upward_recourse": self.log.ledger.upward_total,
               "l1_recourse": self.log.ledger.l1_total,
               "n": n,
               "rootfind_iterations": self.rootfind_iterations,
               "max_projection_residual": self.max_projection_residual}
        eps = self.config.effective_eps()
        if self.config.certify:
            cert = certify_run(self.log, eps)
            out["warmup_bound"] = cert["warmup_bound"]
            out["refined_bound"] = cert["refined_bound"]
            out["ratio_warmup"] = cert["ratio_warmup"]
            out["ratio_refined"] = cert["ratio_refined"]
        if self.config.offline and n > 0 and self.offline_stream:
            block = _offline_block(self.offline_stream, np.ones(n),
                                   self.config.oracle_cap)
            out["offline_opt"] = block["opt"]
            out["offline_pivots"] = block["pivots"]
            out["offline_skipped"] = block["skipped"]
            out["ratio_vs_opt"] = _ratio_against(self.log.ledger.upward_total,
                                                 block["opt"])
        return out


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
    config = replace(config, problem=problem)
    beta = config.effective_beta()
    state = _build_state(problem, header)
    driver = _ProblemDriver(config)
    records = [_meta(config, {"updates": len(events)})]

    roundings = [_init_rounding(problem, state, header, config, seed) for seed in seeds]
    mst_started = False

    for index, event in enumerate(events):
        try:
            # the adapters' parameter names are the event's JSON keys
            getattr(state, event.op)(**event.payload)
        except AdapterError as exc:
            raise AdapterError("update %d: %s" % (index, exc)) from None
        driver.grow(state.dimension)
        row = {"kind": "update", "index": index, "op": event.op,
               "dim": state.dimension}

        if problem == "mst":
            if not is_connected(state.vertices, state.live):
                if mst_started:
                    raise AdapterError("update %d: graph must stay connected" % index)
                row["skipped"] = "warmup: graph not yet connected"
                records.append(row)
                continue
            mst_started = True
            driver.clamp(state.frozen_coords())

            def oracle(values, cover_floor, pack_ceiling):
                return state.separation(values, cover_floor, pack_ceiling, beta)

            chased = driver.chase(oracle)
            row["opt"] = state.optimum()
            driver.push_offline_group(chased["rows"])
        else:
            if problem == "setcover":
                snap = setcover_body(state, beta)
                row["lp_pivots"] = state.lp_pivots
            elif problem == "matching":
                snap = matching_body(state, beta)
            else:
                snap = loadbalance_body(state, beta)
            driver.clamp(snap.frozen)
            body = snap.body()
            chased = driver.chase(body.find_violated)
            row["opt"] = snap.normalization["opt"]
            driver.push_offline_group(list(snap.covering) + list(snap.packing))

        row["projections"] = chased["projections"]
        row["upward_step"] = chased["upward_step"]
        row["l1_step"] = chased["l1_step"]
        row["rootfind_iterations"] = chased["rootfind_iterations"]
        for rounding in roundings:
            _round_step(problem, state, driver, config, rounding, row)
        records.append(row)

    summary = driver.summary()
    if problem == "setcover":
        summary["lp_pivots"] = sum(r["lp_pivots"] for r in records[1:])
    return records, [{**summary, **_round_summary(problem, rounding)}
                     for rounding in roundings]


def _init_rounding(problem, state, header, config: RunConfig, seed: int):
    mode = config.round_mode
    allowed = ROUND_MODES.get(problem, ("none",))
    if mode not in allowed:
        raise FormatError("%s round mode must be one of %s (got %r)"
                          % (problem, ", ".join(allowed), mode))
    if mode == "none":
        return None
    if problem == "setcover":
        cover = CoverState(state)
        if mode == "rand":
            cover.clocks = init_clocks(state, seed, config.alpha,
                                       state.dimension)
        if config.f is not None and config.f < state.frequency():
            raise AdapterError("f=%d below the instance frequency %d"
                               % (config.f, state.frequency()))
        return cover
    if problem == "matching":
        n = header.get("n")
        if n is None:
            raise FormatError("matching header needs \"n\" when rounding is on")
        stab = Stabilizer(state, config.alpha, config.delta, int(n), seed)
        return (stab, MaintainedMatching(config.delta))
    sampler = MstSampler(state, config.alpha, config.delta, seed,
                         config.gamma)
    return (sampler, DynamicTree(state.vertices, state.costs))


def _round_step(problem, state, driver, config: RunConfig, rounding, row) -> None:
    if rounding is None:
        return
    if problem == "setcover":
        scaled = scaled_output(driver.x, config.delta)
        if config.round_mode == "det":
            round_det(scaled, rounding, state.frequency() if config.f is None else config.f)
        else:
            round_rand(scaled, rounding, config.alpha, state.dimension)
        row["cover_size"] = len(rounding.selected)
        row["cover_cost"] = rounding.cost()
        row["cover_recourse_step"] = rounding.step_recourse
        row["cover_feasible"] = rounding.covers_live()
    elif problem == "matching":
        stab, mm = rounding
        _, inserted, deleted = stabilizer_step(driver.x.values, stab)
        per_unit = maintain_matching(inserted, deleted, mm)
        row["case"] = stab.case
        row["matching_size"] = mm.size()
        row["matching_recourse_step"] = sum(per_unit)
        row["stabilizer_copy_recourse_step"] = stab.copy_step_recourse
    elif problem == "mst":
        scaled = scaled_output(driver.x, config.delta)
        sampler, tree = rounding
        inserted, deleted = mst_sampler_step(scaled.values, sampler)
        per_unit = repair_tree(inserted, deleted, tree)
        row["fallback_fired"] = sampler.fallback_fired
        row["tree_cost"] = tree.tree_cost()
        row["tree_recourse_step"] = sum(per_unit)
        row["fractional_cost"] = sampler.fractional_cost


def _round_summary(problem, rounding) -> dict:
    if rounding is None:
        return {}
    if problem == "setcover":
        return {"cover_cost": rounding.cost(),
                "cover_recourse": rounding.recourse_total}
    if problem == "matching":
        stab, mm = rounding
        return {"matching_size": mm.size(),
                "matching_recourse": mm.recourse_total,
                "stabilizer_copy_recourse": stab.copy_recourse_total}
    if problem == "mst":
        sampler, tree = rounding
        return {"tree_cost": tree.tree_cost(),
                "tree_recourse": tree.recourse_total,
                "sample_recourse": sampler.sample_recourse_total}
    return {}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(float(v))


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
            if key in summary and _is_number(summary[key]):
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
