"""A seeded mutation fuzz of the command line: no input or flag value ends
in a traceback.

Small inputs of all five kinds (`bench/gen.py` makes the stream and three
of the replays; the load balancing replay is written here) are mutated:
JSON values swapped for wrong types, signs and values at the edges of float
range, stream tokens swapped for bad ids, coefficients and tags, and lines
dropped or duplicated. Each mutant runs through `cli.main` under a
subcommand that reads it, with some of that subcommand's flags set to
1e-300 or 1e300. The property: `main` returns 0, 1 or 2, writes at most one
line to stderr (a warning counts as a line, as a command line run prints
it there; argparse's usage block before its own error line does not) and
raises nothing. A report it writes reports only bounds that hold: each
non-null dual bound passed its certificate's own check (or is the 0.0 of
a run with no step), and none exceeds a non-null offline optimum. The
example count is fixed and the draws are derandomized, so the test is
deterministic.
"""

import contextlib
import importlib.util
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bodychase.certify import FEASIBILITY_TOL
from bodychase.cli import SUBCOMMANDS, main
from bodychase.runner import ROUND_MODES

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

LOADBALANCE = "\n".join(json.dumps(r) for r in [
    {"problem": "loadbalance", "machines": ["m0", "m1"]},
    {"op": "insert", "job": "j0", "loads": {"m0": 2.0, "m1": 3.0}},
    {"op": "insert", "job": "j1", "loads": {"m0": 2.0, "m1": 1.0}},
    {"op": "delete", "job": "j0"},
    {"op": "insert", "job": "j2", "loads": {"m0": 1.0, "m1": 1.5}},
]) + "\n"

# (input text, its problem, the subcommands that read it)
SEEDS = [
    (gen.stream_text(np.random.default_rng(1), 12, 10, 3, 0.3), None,
     ("chase", "certify", "offline-opt")),
    (gen.setcover_text(np.random.default_rng(2), 5, 3, 8, 4, 8), "setcover",
     ("setcover", "replicate")),
    (gen.matching_text(np.random.default_rng(3), 3, 3, 4, 8), "matching",
     ("matching", "replicate")),
    (gen.mst_text(np.random.default_rng(4), 4, 4, 10), "mst", ("mst", "replicate")),
    (LOADBALANCE, "loadbalance", ("loadbalance",)),
]

JSON_VALUES = ["x", -1, 0, 1.5, 1e308, -1e308, 1e-300, math.nan, math.inf, 2**70, -(2**70),
               [], {}, None, True, [0, 0], {"m0": 1e308}]
STREAM_TAGS = ["C", "P", "F", "Q", "c", ";", ""]
STREAM_IDS = ["-1", "0", "40", "99999999999", str(10**20), "1e3", "x", ""]
STREAM_COEFFS = ["1e308", "1e-320", "1e100", "1e-100", "nan", "inf", "-1", "0", "x", ""]
FLAG_VALUES = ["1e-300", "1e300"]
# replicate needs at least two runs; every other flag keeps its default unless drawn
FIXED = {"replicate": ["--runs", "2"]}


def _paths(value, prefix=()):
    """Every (path, leaf) of a parsed JSON record: dict keys and list positions."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else None)
    if items is None:
        yield prefix
        return
    yield prefix
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _replace(value, path, new):
    if not path:
        return new
    value = json.loads(json.dumps(value))
    target = value
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = new
    return value


@st.composite
def mutant_lines(draw, text):
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["value", "drop", "duplicate"]))
        if how == "drop":
            del lines[k]
        elif how == "duplicate":
            lines.insert(k, lines[k])
        elif lines[k].startswith("{"):
            record = json.loads(lines[k])
            path = draw(st.sampled_from(list(_paths(record))))
            lines[k] = json.dumps(_replace(record, path, draw(st.sampled_from(JSON_VALUES))))
        elif lines[k].strip() and not lines[k].startswith("#"):
            tokens = lines[k].split()
            j = draw(st.integers(0, len(tokens) - 1))
            if j == 0:
                tokens[0] = draw(st.sampled_from(STREAM_TAGS))
            else:
                idx, _, coeff = tokens[j].partition(":")
                if draw(st.booleans()):
                    idx = draw(st.sampled_from(STREAM_IDS))
                else:
                    coeff = draw(st.sampled_from(STREAM_COEFFS))
                tokens[j] = idx + ":" + coeff
            lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def runs(draw):
    text, problem, commands = draw(st.sampled_from(SEEDS))
    command = draw(st.sampled_from(commands))
    flags = [f for f in SUBCOMMANDS[command][2].split()
             if f not in ("--report", "--weights", "--no-offline", "--no-certify",
                          "--dump-trajectory")]
    argv = list(FIXED.get(command, []))
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3, unique=True)):
        argv += [flag, draw(st.sampled_from(FLAG_VALUES))]
    if problem in ROUND_MODES:
        argv += ["--round", draw(st.sampled_from(ROUND_MODES[problem]))]
    return command, draw(mutant_lines(text)), argv


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=runs())
def test_no_input_or_flag_value_ends_in_a_traceback(input_path, run):
    command, text, argv = run
    input_path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main([command, str(input_path), *argv])
    lines = err.getvalue().splitlines()
    if lines and lines[0].startswith("usage:"):  # argparse refused a flag value
        lines = lines[-1:]
    lines += [str(w.message) for w in caught]
    assert rc in (0, 1, 2), (rc, lines)
    assert len(lines) <= 1, lines
    if rc == 0:
        assert_bounds_hold([json.loads(line) for line in out.getvalue().splitlines()])


def assert_bounds_hold(records):
    for record in records:
        opt = record.get("offline_opt")
        for scheme in ("warmup", "refined"):
            bound, violation = record.get(scheme + "_bound"), record.get(scheme + "_max_violation")
            if bound is None:
                continue
            assert (violation is None and bound == 0.0) or violation <= FEASIBILITY_TOL, record
            assert opt is None or bound <= opt * (1.0 + 1e-9) + 1e-12, record
