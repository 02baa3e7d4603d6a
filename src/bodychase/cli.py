"""Command line harness.

Subcommands:

  chase        feed a raw constraint stream to the projection engine
  certify      chase a stream and print the certificate block only
  offline-opt  solve the offline recourse LP for a stream
  setcover     replay a dynamic set cover update file
  matching     replay a dynamic bipartite matching update file
  mst          replay a dynamic spanning tree update file
  loadbalance  replay a dynamic scheduling update file (fractional only)
  replicate    repeat a problem run across consecutive seeds

Exit codes: 0 on success, 1 when the instance is infeasible or a layer
contract is violated, 2 on malformed input or arguments.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from .core import ChaseError
from .formats import (
    FormatError,
    parse_stream,
    parse_weights,
    stream_dimension,
    write_report,
)
from .offline import lp_report, solve_offline_lp
from .runner import ROUND_MODES, RunConfig, replicate, run_chase, run_problem

PROBLEMS = ("setcover", "matching", "mst", "loadbalance")


# Every flag, defined once, with its RunConfig field's default; SUBCOMMANDS
# names the ones each subcommand takes.
FLAGS = {
    "--delta": dict(type=float, default=RunConfig.delta,
                    help="covering slack target in (0, 1] (default %(default)s)"),
    "--eps": dict(type=float, default=RunConfig.eps,
                  help="projection shift parameter in (0, 1] (default delta/20)"),
    "--seed": dict(type=int, default=RunConfig.seed, help="base random seed (default %(default)s)"),
    "--weights": dict(default=None, help="per-coordinate movement weight file"),
    "--report": dict(default=None,
                     help="write the JSON-lines report here instead of stdout"),
    "--oracle-cap": dict(type=int, default=RunConfig.oracle_cap, dest="oracle_cap",
                         help="skip the offline LP with more variables (default %(default)s)"),
    "--no-offline": dict(action="store_true", help="skip the offline benchmark LP"),
    "--no-certify": dict(action="store_true", help="skip the dual certificates"),
    "--dump-trajectory": dict(action="store_true", dest="dump_trajectory",
                              help="include the optimal trajectory in the report"),
    "--alpha": dict(type=float, default=RunConfig.alpha,
                    help="failure-probability exponent for sampling (default %(default)s)"),
    "--beta": dict(type=float, default=RunConfig.beta,
                   help="cost-bound slack of the packing row (problem default)"),
    "--gamma": dict(type=float, default=RunConfig.gamma,
                    help="extra oversampling factor of the tree sampler (default %(default)s)"),
    "--f": dict(type=int, default=RunConfig.f,
                help="frequency bound for deterministic cover rounding"),
    "--runs": dict(type=int, default=RunConfig.runs,
                   help="number of seeded repetitions (default %(default)s)"),
}

# subcommand: (help, input argument, the flags some run of it reads)
SUBCOMMANDS = {
    "chase": ("process a raw constraint stream", "stream",
              "--delta --eps --weights --report --oracle-cap --no-offline --no-certify"),
    "certify": ("chase a stream, print certificates", "stream",
                "--delta --eps --weights --report --oracle-cap --no-offline"),
    "offline-opt": ("solve the offline recourse LP", "stream",
                    "--weights --report --oracle-cap --dump-trajectory"),
    "setcover": ("replay a dynamic setcover update file", "updates",
                 "--delta --seed --report --oracle-cap --no-offline --no-certify"
                 " --alpha --beta --f"),
    "matching": ("replay a dynamic matching update file", "updates",
                 "--delta --seed --report --oracle-cap --no-offline --no-certify"
                 " --alpha --beta"),
    "mst": ("replay a dynamic mst update file", "updates",
            "--delta --seed --report --oracle-cap --no-offline --no-certify"
            " --alpha --beta --gamma"),
    "loadbalance": ("replay a dynamic loadbalance update file", "updates",
                    "--delta --report --oracle-cap --no-offline --no-certify --beta"),
    "replicate": ("repeat a problem run across seeds", "updates",
                  "--delta --seed --report --alpha --beta --gamma --f --runs"),
}
INPUT_HELP = {"stream": "constraint stream file", "updates": "JSON-lines update file"}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bodychase",
        description="chase a drifting packing-covering body with bounded recourse",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, source, flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(source, help=INPUT_HELP[source])
        for flag in flags.split():
            p.add_argument(flag, **FLAGS[flag])
        if name in ROUND_MODES:
            p.add_argument("--round", choices=ROUND_MODES[name],
                           default="none", dest="round_mode")
        elif name == "replicate":
            p.add_argument("--round", default="none", dest="round_mode",
                           help="rounding mode handed to the problem runner")
    return top


def _config(args, problem: str = "chase") -> RunConfig:
    """The run's config from the flags its subcommand takes; RunConfig's
    defaults stand for the flags it does not."""
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    return RunConfig(problem=problem, certify=not getattr(args, "no_certify", False),
                     offline=not getattr(args, "no_offline", False), **given)


def _emit(records, args) -> None:
    text = write_report(records, path=getattr(args, "report", None))
    if getattr(args, "report", None) is None:
        sys.stdout.write(text)


def _run_offline(args) -> int:
    cap = _config(args).oracle_cap  # range-checked before the stream is read
    stream = parse_stream(args.stream)
    dim = stream_dimension(stream)
    weights = (np.ones(dim) if args.weights is None
               else parse_weights(args.weights, dim))
    lp, res = solve_offline_lp(stream, weights, variable_cap=cap)
    record = {"kind": "offline", **lp_report(res), "T": len(stream), "n": int(weights.shape[0])}
    if args.dump_trajectory:
        record["trajectory"] = [p.values.tolist() for p in lp.trajectory(res.x)]
    _emit([record], args)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments and 0 on --help
        return int(exc.code or 0)
    try:
        if args.command in ("chase", "certify"):
            records = run_chase(_config(args), args.stream, args.weights)
            if args.command == "certify":
                keep = ("meta", "certificate", "offline", "summary")
                records = [r for r in records if r.get("kind") in keep]
            _emit(records, args)
            return 0
        if args.command == "offline-opt":
            return _run_offline(args)
        if args.command in PROBLEMS:
            records = run_problem(_config(args, args.command), args.updates)
            _emit(records, args)
            return 0
        records = replicate(_config(args, "chase"), args.updates)
        _emit(records, args)
        return 0
    except FormatError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ChaseError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
