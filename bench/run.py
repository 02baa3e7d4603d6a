"""bodychase benchmark: four CLI workloads, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark writes the workload's inputs from --seed into bench/_work,
then repeats whole rounds for about S seconds, stopping at the round
boundary nearest to S. A round runs the bodychase CLI once on each of the
workload's input files, each time in a fresh single-threaded process
(bench/child.py), after a gauge process that its timings are scaled by
(see GAUGE). After the timed section
every report is checked (bench/checks.py) and must be byte-identical
across rounds. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0; with --trace 1, rounds alternate untraced and traced and
the metrics are the per-layer ones. The full record, with the Python,
numpy and scipy versions and nproc, goes to bench/_work/results/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

clock = time.monotonic
DEADLINE_S = 150.0  # the whole run, checks included, must end well before 180 s

# The machine's speed drifts by up to 1.8x over tens of seconds, and every
# timing of a round moves with it. Before each file a round also times a
# fixed gauge process that starts the interpreter and imports numpy, the
# same kind of work as a run's set-up, without bodychase. Timings are
# scaled by GAUGE_REF_S / (the round's median gauge): seconds on a machine
# where the gauge takes GAUGE_REF_S.
GAUGE = ["-c", "import argparse, json, numpy"]
GAUGE_REF_S = 0.2

# Each workload: CLI arguments before the input file, generator sizes, and
# how many seeded input files one round replays (one fresh process each).
# The replays are small and several, because one replay's cost depends
# strongly on its random instance; a round's mean over the files varies
# far less from seed to seed.
WORKLOADS = {
    "stream": {
        "argv": ["chase", "--no-offline"],
        "sizes": {"n": 4000, "rows": 2000, "d": 8, "pack_share": 0.3},
        "files": 1,
    },
    "setcover": {
        "argv": ["setcover", "--round", "det", "--no-offline"],
        "sizes": {"sets": 40, "set_size": 8, "universe": 60, "live": 30, "updates": 100},
        "files": 8,
    },
    "matching": {
        "argv": ["matching", "--round", "on", "--no-offline"],
        "sizes": {"left": 4, "right": 4, "live": 8, "updates": 120},
        "files": 6,
    },
    "mst-offline": {
        "argv": ["mst", "--round", "on"],
        "sizes": {"vertices": 6, "live": 8, "updates": 40},
        "files": 24,
    },
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "upward_recourse": "l1",
}


class BenchError(Exception):
    pass


def tail_percentile(items: int) -> int:
    """The highest of p99 and p90 with at least ten items beyond it."""
    for pct in (99, 90):
        if items * (100 - pct) / 100 >= 10:
            return pct
    raise BenchError("%d items per round leave no tail percentile" % items)


def environment() -> dict:
    import networkx
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "networkx": networkx.__version__, "platform": platform.platform()}


def write_inputs(workload, seed, work):
    spec = WORKLOADS[workload]
    suffix = ".txt" if workload == "stream" else ".jsonl"
    paths = []
    for j in range(spec["files"]):
        rng = np.random.default_rng([seed, j])
        path = os.path.join(work, "input-%d%s" % (j, suffix))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(gen.GENERATORS[workload](rng, **spec["sizes"]))
        paths.append(path)
    return paths


def run_file(argv, path, work, traced, src, timeout):
    """One CLI run in a fresh process; returns its measured result."""
    result_path = os.path.join(work, "result.json")
    report_path = os.path.join(work, "report.jsonl")
    spec_path = os.path.join(work, "spec.json")
    for stale in (result_path, report_path):
        if os.path.exists(stale):
            os.remove(stale)
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"argv": argv + [path, "--report", report_path], "src": src,
                   "trace": traced, "result": result_path,
                   "spans": os.path.join(work, "spans.npz")}, fh)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    started = clock()
    subprocess.run([sys.executable] + GAUGE, env=env, check=True, timeout=timeout)
    gauge_s = clock() - started
    spawned = clock()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                          env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError("round process failed (%d): %s" % (proc.returncode, proc.stderr[-2000:]))
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    if result["rc"] != 0:
        raise BenchError("bodychase exited %d: %s" % (result["rc"], proc.stderr[-2000:]))
    with open(report_path, encoding="utf-8") as fh:
        result["report"] = fh.read()
    marks = result.pop("marks")
    result["gauge_s"] = gauge_s
    result["setup_s"] = marks[0] - spawned
    result["run_s"] = result["end"] - marks[0]
    result["items_ms"] = (np.diff(marks) * 1e3).tolist()
    return result


def upward(result) -> float:
    return json.loads(result["report"].splitlines()[-1])["upward_recourse"]


def speed(files) -> float:
    """Factor that scales a round's timings to the reference gauge."""
    return GAUGE_REF_S / statistics.median(f["gauge_s"] for f in files)


def round_metrics(files, tail, scale) -> dict:
    """End-to-end metrics of one round: medians over its files (one replay's
    cost has a long tail over random instances), pooled item latencies.
    Timings are multiplied by `scale`."""
    items = np.concatenate([f["items_ms"] for f in files])
    return {
        "setup_s": scale * statistics.median(f["setup_s"] for f in files),
        "run_s": scale * statistics.median(f["run_s"] for f in files),
        "item_p50_ms": scale * float(np.percentile(items, 50)),
        "item_tail_ms": scale * float(np.percentile(items, tail)),
        "peak_rss_mb": statistics.median(f["rss_mb"] for f in files),
        "upward_recourse": statistics.median(upward(f) for f in files),
    }


def layer_round(files) -> dict:
    """Per-layer metrics of one traced round: means over its files, so that
    they add up like the spans they come from, with times scaled."""
    scale = speed(files)
    out = {}
    for k in files[0]["layers"]:
        mean = statistics.fmean(f["layers"][k] for f in files)
        out[k] = mean if layer_unit(k) != "s" else scale * mean
    return out


def per_layer_names():
    return list(tracing.TIME_METRICS) + list(tracing.COUNT_METRICS) + [
        "certify.log_mb", "runner.self_s", "trace.overhead_s"]


def layer_unit(name):
    if name in tracing.COUNT_METRICS:
        return tracing.COUNT_METRICS[name]
    return "MB" if name.endswith("_mb") else "s"


def run(workload, seed, seconds, trace):
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bodychase", "cli.py")):
        raise BenchError("no bodychase sources under %s; run from the root of a checkout" % src)
    spec = WORKLOADS[workload]
    work = os.path.join(HERE, "_work", "%s-seed%d-trace%d" % (workload, seed, trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    inputs = write_inputs(workload, seed, work)
    compileall.compile_dir(os.path.join(src, "bodychase"), quiet=1)

    started = clock()
    modes = (False, True) if trace else (False,)
    rounds = {False: [], True: []}
    while True:
        round_start = clock()
        for traced in modes:
            files = []
            for path in inputs:
                left = DEADLINE_S - (clock() - started)
                if left <= 0:
                    raise BenchError("rounds did not finish within %.0f s" % DEADLINE_S)
                files.append(run_file(spec["argv"], path, work, traced, src, left))
            rounds[traced].append(files)
        # stop at the round boundary nearest to `seconds`
        if clock() + (clock() - round_start) / 2 >= started + seconds:
            break
    measured = clock() - started

    all_rounds = rounds[False] + rounds[True]
    problems = []
    for j, path in enumerate(inputs):
        if len({r[j]["report"] for r in all_rounds}) != 1:
            problems.append("%s: reports differ between rounds" % os.path.basename(path))
    per_round_items = 0
    per_round_failed = 0
    failures = {}
    for j, path in enumerate(inputs):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        first = rounds[False][0][j]
        outcome = checks.CHECKS[workload](text, first["report"], first)
        per_round_items += outcome.items
        per_round_failed += len(outcome.failed)
        problems += ["%s: %s" % (os.path.basename(path), p) for p in outcome.problems]
        failures.update({"%s#%d" % (os.path.basename(path), i): m
                         for i, m in sorted(outcome.failed.items())})
    n_items = sum(len(f["items_ms"]) for f in rounds[False][0])
    if n_items != per_round_items:
        problems.append("%d items timed, %d items checked" % (n_items, per_round_items))
    tail = tail_percentile(n_items)

    untraced = [round_metrics(files, tail, speed(files)) for files in rounds[False]]
    raw = [round_metrics(files, tail, 1.0) for files in rounds[False]]
    e2e = {k: statistics.median(r[k] for r in untraced) for k in END_TO_END}
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "sizes": spec["sizes"], "files": len(inputs),
              "argv": spec["argv"], "tail_percentile": tail, "items_per_round": n_items,
              "rounds": len(rounds[False]), "traced_rounds": len(rounds[True]),
              "measured_s": measured, "untraced": untraced, "end_to_end": e2e,
              "unscaled": raw,
              "end_to_end_unscaled": {k: statistics.median(r[k] for r in raw)
                                      for k in END_TO_END},
              "per_file": [[{k: f[k] for k in ("gauge_s", "setup_s", "run_s", "rss_mb")}
                            | {"upward": upward(f)} for f in files] for files in rounds[False]],
              "problems": problems, "failed_items": failures}
    if trace:
        for j, path in enumerate(inputs):
            counts = {json.dumps([r[j]["layers"][k] for k in tracing.COUNT_METRICS])
                      for r in rounds[True]}
            if len(counts) != 1:
                problems.append("%s: counts differ between traced rounds"
                                % os.path.basename(path))
        traced = [layer_round(files) for files in rounds[True]]
        mean_run = {mode: statistics.median(speed(files) * statistics.fmean(f["run_s"] for f in files)
                                            for files in rounds[mode]) for mode in modes}
        layers = {k: statistics.median(r[k] for r in traced) for k in traced[0]}
        layers["trace.overhead_s"] = mean_run[True] - mean_run[False]
        record.update(traced=traced, mean_run_s=mean_run, layers=layers)
        metrics = {k: {"value": layers[k], "unit": layer_unit(k)} for k in per_layer_names()}

    rounds_total = len(all_rounds)
    result = {"correct": not problems, "attempted": per_round_items * rounds_total,
              "failed": per_round_failed * rounds_total, "metrics": metrics}
    results_dir = os.path.join(HERE, "_work", "results")
    os.makedirs(results_dir, exist_ok=True)
    out_path = os.path.join(results_dir, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(dict(record, result=result), fh, indent=1)
    return result, record, out_path


def show(workload, seed, result, record, out_path) -> None:
    env = record["environment"]
    print("%s seed %d: %d round(s) of %d file(s), %d traced; nproc %s, python %s, "
          "numpy %s, scipy %s; record in %s"
          % (workload, seed, record["rounds"], record["files"], record["traced_rounds"],
             env["nproc"], env["python"], env["numpy"], env["scipy"],
             os.path.relpath(out_path)))
    for problem in record["problems"]:
        print("check failed: %s" % problem)
    for where, message in list(record["failed_items"].items())[:20]:
        print("item failed: %s: %s" % (where, message))
    for name, m in result["metrics"].items():
        print("%-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("attempted %d failed %d correct %s"
          % (result["attempted"], result["failed"], result["correct"]))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            outcome = run(workload, args.seed, args.seconds, args.trace)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print("bench: %s: %s" % (workload, exc), file=sys.stderr)
            return 1
        show(workload, args.seed, *outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
