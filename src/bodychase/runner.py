"""End-to-end drivers: streams and update sequences through the full stack.

run_chase feeds a raw constraint stream to the projection engine and
optionally certifies the run and solves the offline benchmark LP.
run_problem replays a combinatorial update sequence through its adapter,
chases the emitted body after every update, and hands the fractional
point to the configured rounding layer. replicate repeats a randomized
run across consecutive seeds and aggregates the rounding statistics.

Reports are lists of plain dict records (see formats.write_report); all
iteration is in sorted order and nothing nondeterministic (time, pids,
machine names) is ever emitted, so a fixed config and input yield
byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
    RecourseLedger,
    chase_body,
    process_constraint,
    scaled_output,
)
from .formats import FormatError, parse_stream, parse_updates, parse_weights, stream_dimension
from .graphs import is_connected
from .offline import Freeze, OracleCapExceeded, solve_optimal_recourse
from .round_matching import MaintainedMatching, Stabilizer, maintain_matching, stabilizer_step
from .round_mst import DynamicTree, MstSampler, mst_sampler_step, repair_tree
from .round_setcover import CoverState, init_clocks, round_det, round_rand

__all__ = ["RunConfig", "run_chase", "run_problem", "replicate", "BETA_DEFAULTS"]

BETA_DEFAULTS = {"setcover": 2.0, "matching": 1.0, "mst": 2.0, "loadbalance": 2.0}


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
    max_rounds: int = 10000

    def effective_eps(self) -> float:
        return self.delta / 20.0 if self.eps is None else self.eps

    def effective_beta(self) -> float:
        if self.beta is not None:
            return self.beta
        return BETA_DEFAULTS.get(self.problem, 1.0)

    def echo(self) -> dict:
        return {
            "problem": self.problem,
            "delta": self.delta,
            "eps": self.effective_eps(),
            "alpha": self.alpha,
            "beta": self.effective_beta(),
            "gamma": self.gamma,
            "f": self.f,
            "seed": self.seed,
            "runs": self.runs,
            "round_mode": self.round_mode,
            "certify": self.certify,
            "offline": self.offline,
            "oracle_cap": self.oracle_cap,
        }


def _meta(config: RunConfig, extra=None) -> dict:
    record = {"kind": "meta", "version": __version__, "config": config.echo()}
    if extra:
        record.update(extra)
    return record


def _grown(x: FractionalPoint, dim: int, weights=None) -> FractionalPoint:
    if x.dim == dim:
        return x
    values = np.zeros(dim)
    values[: x.dim] = x.values
    w = np.ones(dim) if weights is None else np.asarray(weights, dtype=float)
    w[: x.dim] = x.weights
    return FractionalPoint(values, w)


def apply_freeze(x: FractionalPoint, indices, ledger=None, log=None) -> FractionalPoint:
    """Clamp coordinates to zero, recording the move and the clamp event."""
    idx = np.array(sorted({int(i) for i in indices}), dtype=np.int64)
    values = x.values.copy()
    values[idx] = 0.0
    if ledger is not None:
        ledger.record_step(x.weights[idx], x.values[idx], values[idx])
    if log is not None:
        log.append_freeze(idx, x.values[idx], values[idx])
    return FractionalPoint(values, x.weights)


def _offline_block(stream, weights, cap):
    try:
        opt, _ = solve_optimal_recourse(stream, weights, variable_cap=cap)
        return {"kind": "offline", "opt": opt, "skipped": None}
    except OracleCapExceeded as exc:
        return {"kind": "offline", "opt": None, "skipped": str(exc)}


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
    ledger = RecourseLedger()
    log = MultiplierLog(w)
    records = [_meta(config, {"n": dim, "T": len(stream)})]
    for t, item in enumerate(stream):
        group = item if isinstance(item, list) else [item]
        for member in group:
            if isinstance(member, Freeze):
                x = apply_freeze(x, member.indices, ledger, log)
                tag, multiplier = "F", None
            else:
                x = process_constraint(x, member, eps, ledger=ledger, log=log)
                tag, multiplier = member.kind.value, log.steps[-1].multiplier
            records.append({"kind": "step", "t": t, "tag": tag,
                            "support": len(member.indices), "multiplier": multiplier,
                            "upward_step": ledger.steps[-1][0],
                            "l1_step": ledger.steps[-1][1]})
    summary = {"kind": "summary",
               "upward_recourse": ledger.upward_total,
               "l1_recourse": ledger.l1_total,
               "final_point": x.values,
               "T": len(stream)}
    if config.certify:
        cert = certify_run(log, ledger, eps)
        records.append({"kind": "certificate", **cert})
        summary["warmup_bound"] = cert["warmup_bound"]
        summary["refined_bound"] = cert["refined_bound"]
        summary["ratio_refined"] = cert["ratio_refined"]
    if config.offline:
        block = _offline_block(stream, w, config.oracle_cap)
        records.append(block)
        summary["offline_opt"] = block["opt"]
        summary["ratio_vs_opt"] = _ratio_against(ledger.upward_total, block["opt"])
    records.append(summary)
    return records


class _ProblemDriver:
    """Shared per-update plumbing for the four adapters."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.ledger = RecourseLedger()
        self.log = MultiplierLog(np.ones(0))
        self.x = FractionalPoint.zeros(0, np.ones(0))
        self.offline_stream = []
        self.frozen_now: tuple = ()

    def grow(self, dim: int):
        if dim > self.x.dim:
            self.x = _grown(self.x, dim)
            self.log.extend_weights(np.ones(dim))

    def clamp(self, frozen) -> list:
        newly = [i for i in frozen if i < self.x.dim and self.x.values[i] > 0.0]
        if newly:
            self.x = apply_freeze(self.x, newly, self.ledger, self.log)
        self.frozen_now = tuple(sorted(frozen))
        return newly

    def chase(self, oracle):
        before_up = self.ledger.upward_total
        before_l1 = self.ledger.l1_total
        self.x, steps = chase_body(
            self.x, oracle, self.config.delta, self.config.eps,
            ledger=self.ledger, log=self.log, max_rounds=self.config.max_rounds,
        )
        return {
            "projections": len(steps),
            "upward_step": self.ledger.upward_total - before_up,
            "l1_step": self.ledger.l1_total - before_l1,
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
               "upward_recourse": self.ledger.upward_total,
               "l1_recourse": self.ledger.l1_total,
               "n": n}
        eps = self.config.effective_eps()
        if self.config.certify:
            cert = certify_run(self.log, self.ledger, eps)
            out["warmup_bound"] = cert["warmup_bound"]
            out["refined_bound"] = cert["refined_bound"]
            out["ratio_warmup"] = cert["ratio_warmup"]
            out["ratio_refined"] = cert["ratio_refined"]
        if self.config.offline and n > 0 and self.offline_stream:
            block = _offline_block(self.offline_stream, np.ones(n),
                                   self.config.oracle_cap)
            out["offline_opt"] = block["opt"]
            out["offline_skipped"] = block["skipped"]
            out["ratio_vs_opt"] = _ratio_against(self.ledger.upward_total,
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


def _apply_event(problem: str, state, event) -> None:
    p = event.payload
    if problem == "setcover":
        if event.op == "insert":
            state.insert(p["element"])
        else:
            state.delete(p["element"])
    elif problem == "matching":
        if event.op == "insert":
            state.insert(p["u"], p["v"])
        else:
            state.delete(p["u"], p["v"])
    elif problem == "mst":
        if event.op == "insert":
            state.insert(p["u"], p["v"], p["cost"])
        else:
            state.delete(p["u"], p["v"])
    elif problem == "loadbalance":
        if event.op == "insert":
            state.insert(p["job"], p["loads"])
        else:
            state.delete(p["job"])


def run_problem(config: RunConfig, updates) -> list:
    """Replay an update sequence through adapter, chaser, and rounding.

    A `str` for `updates` is read as a file path, not as update text.
    """
    if isinstance(updates, str):
        problem, header, events = parse_updates(updates)
    else:
        problem, header, events = updates
    if config.problem not in ("chase", problem):
        raise FormatError("config problem %r does not match file problem %r"
                          % (config.problem, problem))
    config = replace(config, problem=problem)
    beta = config.effective_beta()
    state = _build_state(problem, header)
    driver = _ProblemDriver(config)
    records = [_meta(config, {"updates": len(events)})]

    rounding = _init_rounding(problem, state, header, config)
    mst_started = False

    for index, event in enumerate(events):
        try:
            _apply_event(problem, state, event)
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
        _round_step(problem, state, driver, config, rounding, row)
        records.append(row)

    summary = driver.summary()
    summary.update(_round_summary(problem, config, rounding))
    records.append(summary)
    return records


def _init_rounding(problem, state, header, config: RunConfig):
    mode = config.round_mode
    if mode == "none":
        return None
    if problem == "setcover":
        cover = CoverState(state)
        if mode == "rand":
            cover.clocks = init_clocks(state, config.seed, config.alpha,
                                       state.dimension)
        elif mode != "det":
            raise FormatError("setcover round mode must be none, det, or rand")
        return cover
    if problem == "matching":
        if mode != "on":
            raise FormatError("matching round mode must be none or on")
        n = header.get("n")
        if n is None:
            raise FormatError("matching header needs \"n\" when rounding is on")
        stab = Stabilizer(state, config.alpha, config.delta, int(n), config.seed)
        return (stab, MaintainedMatching(config.delta))
    if problem == "mst":
        if mode != "on":
            raise FormatError("mst round mode must be none or on")
        sampler = MstSampler(state, config.alpha, config.delta, config.seed,
                             config.gamma)
        return (sampler, DynamicTree(state.vertices, state.costs))
    if problem == "loadbalance":
        raise FormatError("load balancing is fractional only")
    return None


def _round_step(problem, state, driver, config: RunConfig, rounding, row) -> None:
    if rounding is None:
        return
    if problem == "setcover":
        scaled = scaled_output(driver.x, config.delta)
        f_eff = config.f if config.f is not None else state.frequency()
        if f_eff < state.frequency():
            raise AdapterError("f=%d below the instance frequency %d"
                               % (f_eff, state.frequency()))
        if config.round_mode == "det":
            round_det(scaled, rounding, f_eff)
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
        frac = sum(state.costs[e] * scaled.values[state.coords[e]]
                   for e in state.live)
        row["fractional_cost"] = frac


def _round_summary(problem, config: RunConfig, rounding) -> dict:
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


def replicate(config: RunConfig, updates, runs: int | None = None) -> list:
    """Independent seeded repetitions; aggregates the rounding metrics."""
    runs = config.runs if runs is None else runs
    if runs < 2:
        raise FormatError("replicate needs runs >= 2")
    if isinstance(updates, str):
        updates = parse_updates(updates)
    tracked = ("cover_cost", "cover_recourse", "matching_size",
               "matching_recourse", "stabilizer_copy_recourse",
               "tree_cost", "tree_recourse", "sample_recourse",
               "upward_recourse", "l1_recourse")
    values: dict = {}
    for r in range(runs):
        cfg = replace(config, seed=config.seed + r,
                      offline=config.offline and r == 0,
                      certify=config.certify and r == 0)
        report = run_problem(cfg, updates)
        summary = report[-1]
        for key in tracked:
            if key in summary and _is_number(summary[key]):
                values.setdefault(key, []).append(float(summary[key]))
    out = {"kind": "aggregate", "runs": runs,
           "seeds": [config.seed + r for r in range(runs)]}
    for key, vals in sorted(values.items()):
        arr = np.array(vals)
        out[key + "_mean"] = float(arr.mean())
        if len(arr) > 1:
            out[key + "_se"] = float(arr.std(ddof=1) / math.sqrt(len(arr)))
    return [_meta(config, {"replications": runs}), out]
