"""In-memory span tracer for one benchmark round.

Spans are recorded from the benchmark's own files: `install` replaces the
public functions of each module with timing wrappers, at the names under
which their callers (runner, cli, core, adapters, ...) look them up, so
nothing under src/ changes. A span keeps its name, start, end and parent;
spans stay in memory until the round ends. A layer's self time is the sum
of its spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import time

import numpy as np

clock = time.monotonic


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self._stack = []
        self.counts: dict[str, float] = {}
        self.log = None

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, span, fn, on_return=None):
        sid = self._ids.setdefault(span, len(self._ids))
        if sid == len(self.names):
            self.names.append(span)
        name, start, end, parent, stack = (self.name, self.start, self.end,
                                           self.parent, self._stack)

        def traced(*args, **kwargs):
            k = len(start)
            name.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(k)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[k] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, span, on_return=None):
        setattr(owner, attr, self.wrap(span, getattr(owner, attr), on_return))

    def self_times(self, window_start):
        """Per-span-name self time in seconds, plus the self time of the
        spans that started at or after `window_start`."""
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        name = np.asarray(self.name, dtype=np.int64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - covered
        by_name = np.bincount(name, weights=own, minlength=len(self.names))
        in_window = float(own[start >= window_start].sum()) if own.size else 0.0
        return dict(zip(self.names, by_name.tolist())), in_window

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name, np.int32),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent, np.int64))


class _TimedGenerator:
    """Passes every draw of a numpy Generator through a span."""

    def __init__(self, tracer, gen):
        self._tracer = tracer
        self._gen = gen

    def __getattr__(self, attr):
        return self._tracer.wrap("rng.draw", getattr(self._gen, attr))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every module, as their callers see them."""
    from bodychase import (adapters, certify, cli, core, offline, round_matching,
                           round_mst, round_setcover, runner)

    def projection(args, out):
        tracer.count("core.projections")
        tracer.count("core.rootfind_iters", out.iterations)

    def pivots(key):
        return lambda args, out: tracer.count(key, out.iterations)

    def lp_size(args, out):
        tracer.count("offline.lp_vars", out.variable_count)
        tracer.count("offline.lp_rows", out.lhs.shape[0])
        tracer.count("offline.lp_mb",
                     (out.lhs.nbytes + out.rhs.nbytes + out.objective.nbytes) / 2**20)

    def keep_log(args, out):
        tracer.log = args[0]

    def timed_substream(fn):
        def make(*args, **kwargs):
            tracer.count("rng.substreams")
            return _TimedGenerator(tracer, fn(*args, **kwargs))
        return make

    for name in ("parse_stream", "parse_updates", "stream_dimension"):
        tracer.patch(runner, name, "formats.parse")
    tracer.patch(cli, "write_report", "formats.report")

    for name in ("project_covering", "project_packing"):
        tracer.patch(core, name, "core.project", projection)
    tracer.patch(core.RecourseLedger, "record_step", "core.ledger")
    tracer.patch(core.PositiveBody, "find_violated", "core.oracle",
                 lambda args, out: tracer.count("core.oracle_calls"))

    for name in ("append_projection", "append_freeze", "extend_weights"):
        tracer.patch(certify.MultiplierLog, name, "certify.log", keep_log)
    tracer.patch(certify, "build_warmup_dual", "certify.warmup")
    tracer.patch(certify, "refine_ytilde", "certify.refined")
    tracer.patch(certify, "build_refined_dual", "certify.refined")

    for name in ("setcover_body", "matching_body"):
        tracer.patch(runner, name, "adapters.body")
    tracer.patch(adapters.MstState, "separation", "adapters.body")
    tracer.patch(adapters.SetCoverState, "fractional_opt", "adapters.opt")
    tracer.patch(adapters.MatchingState, "optimum", "adapters.opt")
    tracer.patch(adapters.MstState, "optimum", "adapters.opt")
    tracer.patch(adapters.SetCoverState, "covering_sets", "adapters.scan")
    tracer.patch(adapters.SetCoverState, "frequency", "adapters.scan")

    tracer.patch(adapters, "solve_inequality_lp", "simplex.adapters",
                 pivots("simplex.adapters_pivots"))
    tracer.patch(offline, "solve_inequality_lp", "simplex.offline",
                 pivots("simplex.offline_pivots"))
    tracer.patch(offline, "build_compressed_lp", "offline.build", lp_size)

    tracer.patch(adapters, "global_min_cut", "graphs.mincut")
    tracer.patch(adapters, "maximum_matching", "graphs.matching")
    for name in ("maximum_matching", "shortest_augmenting_path", "apply_augmenting_path"):
        tracer.patch(round_matching, name, "graphs.matching")
    tracer.patch(adapters, "is_connected", "graphs.connected")
    tracer.patch(runner, "is_connected", "graphs.connected")
    tracer.patch(adapters, "two_color", "graphs.connected")

    for module in (round_setcover, round_matching, round_mst):
        module.substream = tracer.wrap("rng.substream", timed_substream(module.substream))

    for name in ("round_det", "round_rand"):
        tracer.patch(runner, name, "round_setcover.round")
    for name in ("cost", "covers_live"):
        tracer.patch(round_setcover.CoverState, name, "round_setcover.round")
    tracer.patch(runner, "stabilizer_step", "round_matching.stabilizer")
    tracer.patch(runner, "maintain_matching", "round_matching.repair")
    tracer.patch(runner, "mst_sampler_step", "round_mst.sampler")
    tracer.patch(runner, "repair_tree", "round_mst.repair")

    tracer.patch(runner, "apply_freeze", "runner.freeze")


# Per-layer metrics: span self times (s) and the counts taken at the same
# boundaries. rng.substream and rng.draw together make rng.draw_s.
TIME_METRICS = {
    "formats.parse_s": ("formats.parse",),
    "formats.report_s": ("formats.report",),
    "core.project_s": ("core.project",),
    "core.ledger_s": ("core.ledger",),
    "core.oracle_s": ("core.oracle",),
    "certify.log_s": ("certify.log",),
    "certify.warmup_s": ("certify.warmup",),
    "certify.refined_s": ("certify.refined",),
    "adapters.body_s": ("adapters.body",),
    "adapters.opt_s": ("adapters.opt",),
    "adapters.scan_s": ("adapters.scan",),
    "simplex.adapters_s": ("simplex.adapters",),
    "simplex.offline_s": ("simplex.offline",),
    "offline.build_s": ("offline.build",),
    "graphs.mincut_s": ("graphs.mincut",),
    "graphs.matching_s": ("graphs.matching",),
    "graphs.connected_s": ("graphs.connected",),
    "rng.draw_s": ("rng.substream", "rng.draw"),
    "round_setcover.round_s": ("round_setcover.round",),
    "round_matching.stabilizer_s": ("round_matching.stabilizer",),
    "round_matching.repair_s": ("round_matching.repair",),
    "round_mst.sampler_s": ("round_mst.sampler",),
    "round_mst.repair_s": ("round_mst.repair",),
    "runner.freeze_s": ("runner.freeze",),
}
COUNT_METRICS = {
    "core.projections": "count",
    "core.rootfind_iters": "count",
    "core.oracle_calls": "count",
    "simplex.adapters_pivots": "count",
    "simplex.offline_pivots": "count",
    "offline.lp_vars": "count",
    "offline.lp_rows": "count",
    "offline.lp_mb": "MB",
    "rng.substreams": "count",
}


def log_megabytes(log) -> float:
    """Bytes held by a MultiplierLog's arrays, in MiB."""
    if log is None:
        return 0.0
    total = log.weights.nbytes
    for step in log.steps:
        total += (step.indices.nbytes + step.coeffs.nbytes
                  + step.x_before.nbytes + step.x_after.nbytes)
    return total / 2**20


def layer_metrics(tracer: Tracer, first_item: float, run_s: float) -> dict:
    """Every per-layer metric of one traced round, 0 for layers that did not run.

    runner.self_s is the part of run_s (first item to written report) that
    no span covers, so the self times of the spans inside run_s plus
    runner.self_s add up to run_s.
    """
    own, in_window = tracer.self_times(first_item)
    out = {key: sum(own.get(s, 0.0) for s in spans) for key, spans in TIME_METRICS.items()}
    for key in COUNT_METRICS:
        out[key] = float(tracer.counts.get(key, 0))
    out["certify.log_mb"] = log_megabytes(tracer.log)
    out["runner.self_s"] = run_s - in_window
    return out
