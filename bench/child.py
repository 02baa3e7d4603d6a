"""One file of a benchmark round: a fresh process that runs the CLI once.

Usage: python3 bench/child.py SPEC.json

SPEC names the CLI arguments, the result path, whether to trace, and the
checkout's src directory. The process imports bodychase from that src
directory, times item boundaries, calls `bodychase.cli.main` in-process and
writes a JSON result: exit code, item boundary times, end time, peak RSS,
the values the output checks need, and, when traced, the per-layer metrics.
All times come from the system-wide monotonic clock, so the parent can
measure set-up from just before it started this process.
"""

from __future__ import annotations

import builtins
import json
import os
import resource
import sys
import time

clock = time.monotonic


def _timed_enumerate(marks):
    """enumerate() for runner's item loop, stamping each item boundary.

    runner's stream and update loops are its only enumerate() calls, so a
    module global of that name sees exactly the items: one stamp when the
    loop asks for an item, and one when it finds no more.
    """
    def enumerate(iterable, start=0):
        for pair in builtins.enumerate(iterable, start):
            marks.append(clock())
            yield pair
        marks.append(clock())
    return enumerate


def _capture(runner, captured):
    """Keep references to values the output checks need, without copying."""
    round_det = runner.round_det
    offline_block = runner._offline_block

    def keep_point(x, state, f):
        captured.setdefault("round_det", []).append((x.values, state.instance.costs))
        return round_det(x, state, f)

    def keep_offline(stream, weights, cap):
        captured["offline"] = (stream, weights)
        return offline_block(stream, weights, cap)

    runner.round_det = keep_point
    runner._offline_block = keep_offline


def _encode_offline(stream, weights):
    from bodychase.offline import Freeze

    steps = []
    for group in stream:
        out = []
        for item in group:
            if isinstance(item, Freeze):
                out.append(["F", list(item.indices), []])
            else:
                out.append([item.kind.value, item.indices.tolist(), item.coeffs.tolist()])
        steps.append(out)
    return {"steps": steps, "weights": [float(w) for w in weights]}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from bodychase import cli, runner

    here = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(here + os.sep):
        print("bodychase was imported from %s, not %s" % (cli.__file__, here), file=sys.stderr)
        return 2

    marks: list[float] = []
    captured: dict = {}
    runner.enumerate = _timed_enumerate(marks)
    _capture(runner, captured)
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    rc = cli.main(spec["argv"])
    end = clock()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"rc": rc, "marks": marks, "end": end, "rss_mb": rss_mb}
    if "round_det" in captured:
        result["fractional_cost"] = [float(c @ v) for v, c in captured["round_det"]]
    if "offline" in captured:
        result["offline_lp"] = _encode_offline(*captured["offline"])
    if tracer is not None and marks:
        result["layers"] = tracing.layer_metrics(tracer, marks[0], end - marks[0])
        tracer.save(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
