"""Fast self-test of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 bench/selftest/check.py

For every workload it runs one untraced and one traced round at tiny
sizes through the benchmark itself, then feeds each output check one
corrupted value at a time and shows that the check fails. It also checks
the tracer's self-time arithmetic on a fixed call tree. Exits 0 when every
expectation holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TINY = {  # at least 100 items, so that p90 has ten items beyond it
    "stream": {"n": 30, "rows": 120, "d": 4, "pack_share": 0.3},
    "setcover": {"sets": 8, "set_size": 4, "universe": 12, "live": 6, "updates": 100},
    "matching": {"left": 3, "right": 3, "live": 4, "updates": 100},
    "mst-offline": {"vertices": 4, "live": 4, "updates": 100},
}


def _set(kind, field, value, which=0):
    """Corruption: set `field` of the `which`-th record of `kind`."""
    def corrupt(records, extra):
        rows = [r for r in records if r["kind"] == kind]
        rows[which][field] = value(rows[which]) if callable(value) else value
    return corrupt


def _first_step(tag, field, value):
    def corrupt(records, extra):
        row = next(r for r in records if r["kind"] == "step" and r["tag"] == tag
                   and r["upward_step"] > 0)
        row[field] = value(row)
    return corrupt


def _first_update(field, value):
    def corrupt(records, extra):
        row = next(r for r in records if r["kind"] == "update" and r.get("opt"))
        row[field] = value(row)
    return corrupt


def _extra(field, value):
    def corrupt(records, extra):
        extra[field] = value(extra[field])
    return corrupt


def _scale_lp(records, extra):
    for group in extra["offline_lp"]["steps"]:
        for part in group:
            if part[0] == "C":
                part[2] = [2.0 * c for c in part[2]]


CORRUPTIONS = {
    "stream": {
        "upward above l1": _first_step("C", "l1_step", lambda r: 0.5 * r["upward_step"]),
        "negative upward": _first_step("C", "upward_step", lambda r: -1.0),
        "upward above (1+eps/4) multiplier": _first_step("C", "multiplier",
                                                         lambda r: 0.5 * r["upward_step"]),
        "packing row moved up": _first_step("C", "tag", lambda r: "P"),
        "negative final point": _set("summary", "final_point",
                                     lambda r: [-1.0] + r["final_point"][1:]),
        "warmup bound above upward": _set("summary", "warmup_bound",
                                          lambda r: 2.0 * r["upward_recourse"]),
        "refined bound above upward": _set("summary", "refined_bound",
                                           lambda r: 2.0 * r["upward_recourse"]),
        "ratio above cap": _set("certificate", "theoretical_cap",
                                lambda r: 0.5 * r["ratio_refined"]),
    },
    "setcover": {
        "opt off by 1%": _first_update("opt", lambda r: 1.01 * r["opt"]),
        "cover cost below opt": _first_update("cover_cost", lambda r: 0.9 * r["opt"]),
        "cover cost above 2f x fractional": _extra("fractional_cost",
                                                   lambda v: [0.01 * c for c in v]),
        "cover infeasible": _first_update("cover_feasible", lambda r: False),
    },
    "matching": {
        "opt off by one": _first_update("opt", lambda r: r["opt"] + 1),
        "matching too small": _first_update("matching_size", lambda r: 0),
    },
    "mst-offline": {
        "opt off by 1%": _first_update("opt", lambda r: 1.01 * r["opt"]),
        "tree cheaper than opt": _first_update("tree_cost", lambda r: 0.9 * r["opt"]),
        "tree above (2+delta) x fractional": _first_update("fractional_cost",
                                                           lambda r: 0.1 * r["tree_cost"]),
        "disconnected update not skipped": lambda records, extra: next(
            r for r in records if r["kind"] == "update").pop("skipped"),
        "offline above upward": _set("summary", "offline_opt",
                                     lambda r: 2.0 * r["upward_recourse"]),
        "warmup above offline": _set("summary", "warmup_bound",
                                     lambda r: 1.5 * r["offline_opt"]),
        "HiGHS disagrees": _scale_lp,
    },
}


def _flagged(outcome):
    return bool(outcome.failed or outcome.problems)


def check_workload(workload, work, errors):
    spec = run.WORKLOADS[workload]
    spec["sizes"] = TINY[workload]
    spec["files"] = 1
    result, record, _ = run.run(workload, seed=7, seconds=0, trace=1)
    if not result["correct"] or result["failed"]:
        errors.append("%s: clean tiny run failed its checks: %s %s"
                      % (workload, record["problems"], record["failed_items"]))
    layers = record["layers"]
    for key in ("core.projections", "core.rootfind_iters"):
        if workload != "mst-offline" and layers[key] <= 0:
            errors.append("%s: traced run counted no %s" % (workload, key))

    [path] = run.write_inputs(workload, 7, work)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    src = os.path.join(os.getcwd(), "src")
    clean = run.run_file(spec["argv"], path, work, False, src, 120)
    records = [json.loads(line) for line in clean["report"].splitlines()]
    check = checks.CHECKS[workload]
    if _flagged(check(text, clean["report"], clean)):
        errors.append("%s: the clean report fails its check" % workload)
    for name, corrupt in CORRUPTIONS[workload].items():
        bad_records, bad_extra = copy.deepcopy(records), copy.deepcopy(clean)
        try:
            corrupt(bad_records, bad_extra)
        except StopIteration:
            errors.append("%s: tiny input has nothing to corrupt for %r" % (workload, name))
            continue
        report = "\n".join(json.dumps(r) for r in bad_records) + "\n"
        if not _flagged(check(text, report, bad_extra)):
            errors.append("%s: check missed corruption %r" % (workload, name))
        else:
            print("%-12s caught: %s" % (workload, name))


def check_self_times(errors):
    """Spans a(0..10) > b(1..4) > c(2..3), then d(6..8): self a=5, b=2, c=1, d=2."""
    ticks = iter([0, 1, 2, 3, 4, 6, 8, 10])
    saved = tracing.clock
    tracing.clock = lambda: next(ticks)
    try:
        tracer = tracing.Tracer()
        c = tracer.wrap("c", lambda: None)
        b = tracer.wrap("b", lambda: c())
        d = tracer.wrap("d", lambda: None)
        a = tracer.wrap("a", lambda: (b(), d()))
        a()
    finally:
        tracing.clock = saved
    own, in_window = tracer.self_times(window_start=1)
    if own != {"c": 1.0, "b": 2.0, "d": 2.0, "a": 5.0} or in_window != 5.0:
        errors.append("tracer self times %r, window %r" % (own, in_window))


def main() -> int:
    if not os.path.isfile(os.path.join("src", "bodychase", "cli.py")):
        print("run from the root of a checkout", file=sys.stderr)
        return 1
    errors: list[str] = []
    check_self_times(errors)
    work = os.path.join(BENCH, "_work", "selftest")
    os.makedirs(work, exist_ok=True)
    for workload in run.WORKLOADS:
        check_workload(workload, work, errors)
    for error in errors:
        print("FAIL %s" % error)
    print("selftest: %s" % ("ok" if not errors else "%d failure(s)" % len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
