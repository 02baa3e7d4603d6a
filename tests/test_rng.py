"""Keyed draws: SHAKE-256 words of (seed, label, key), read in order."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from bodychase.rng import (
    MATCHING_THRESHOLDS,
    MST_THRESHOLDS,
    SETCOVER_CLOCKS,
    KeyedStream,
    _token,
    substream,
)

ROOT = Path(__file__).resolve().parents[1]


def test_draws_continue_the_stream():
    s = substream(5, MATCHING_THRESHOLDS, "a", "b")
    first, rest = s.uniform(), s.uniform(size=3)
    fresh = substream(5, MATCHING_THRESHOLDS, "a", "b").uniform(size=4)
    assert fresh.tolist() == [first] + rest.tolist()


def test_draws_do_not_depend_on_arrival_order():
    edges = [(0, 1), (1, 2), ("L", "R"), (3, 0)]
    forward = {e: substream(9, MST_THRESHOLDS, *e).uniform() for e in edges}
    backward = {e: substream(9, MST_THRESHOLDS, *e).uniform() for e in reversed(edges)}
    assert forward == backward
    assert len(set(forward.values())) == len(edges)


def test_seed_label_and_key_each_change_the_words():
    base = substream(3, MST_THRESHOLDS, 0, 1).uniform(size=4)
    for other in (substream(4, MST_THRESHOLDS, 0, 1),
                  substream(3, MATCHING_THRESHOLDS, 0, 1),
                  substream(3, MST_THRESHOLDS, 0, 2),
                  substream(3, MST_THRESHOLDS, 1, 0),
                  substream(3, MST_THRESHOLDS, 0)):
        assert not np.any(other.uniform(size=4) == base)


def test_uniforms_lie_on_the_2_to_minus_53_grid_of_the_unit_interval():
    u = substream(1, SETCOVER_CLOCKS, 7).uniform(size=5000)
    scalars = np.array([substream(1, SETCOVER_CLOCKS, i).uniform() for i in range(500)])
    for values in (u, scalars):
        assert values.dtype == np.float64
        assert values.min() >= 0.0 and values.max() < 1.0
        scaled = values * 2.0 ** 53
        assert np.array_equal(scaled, np.floor(scaled))


def test_uniform_and_exponential_moments():
    u = substream(2, MATCHING_THRESHOLDS, "moments").uniform(size=40000)
    counts = np.bincount((u * 10).astype(int), minlength=10)
    # each decile holds 4000 +- 5 sigma (sigma = 60)
    assert np.all(np.abs(counts - 4000) <= 300)
    assert abs(u.mean() - 0.5) <= 0.01
    scale = 2.0
    e = np.array([substream(2, SETCOVER_CLOCKS, i).exponential(scale) for i in range(20000)])
    assert e.min() >= 0.0
    # mean 2 with standard error 2 / sqrt(20000) = 0.014
    assert abs(e.mean() - scale) <= 0.07


def test_golden_draw_pins_the_key_packing():
    assert substream(1, MST_THRESHOLDS, 0, 1).uniform() == 0.21654577464260705


def one_hash_stream(seed, label, *key) -> KeyedStream:
    """The packing the prefix cache replaced: one hash of every token."""
    tokens = [int(seed) & (2**63 - 1), int(label) & (2**63 - 1)] + [_token(k) for k in key]
    return KeyedStream(hashlib.shake_256(b"".join(t.to_bytes(8, "little") for t in tokens)))


def test_prefix_cache_reads_the_bytes_of_one_hash():
    keys = [(), (0,), (7, 3), (np.int64(7), np.int32(3)), ("a", "b"), ("a", 2),
            (-1,), (2**70,), (True,), (np.uint64(2**63 + 5),), ("moments",)]
    for seed in (0, 1, np.int64(9), -3, 2**64 + 1):
        for label in (SETCOVER_CLOCKS, MATCHING_THRESHOLDS, MST_THRESHOLDS):
            for key in keys:
                fast, ref = substream(seed, label, *key), one_hash_stream(seed, label, *key)
                assert fast.uniform() == ref.uniform()
                assert fast.uniform(size=5).tobytes() == ref.uniform(size=5).tobytes()
                assert fast.exponential(2.0) == ref.exponential(2.0)


UPDATE_FILES = {
    "setcover": ('{"problem": "setcover", "sets": [{"cost": 1.0, "elements": [0, 1]}, '
                 '{"cost": 2.0, "elements": [1, 2]}]}\n'
                 '{"op": "insert", "element": 0}\n{"op": "insert", "element": 2}\n'),
    "matching": ('{"problem": "matching", "n": 8}\n'
                 '{"op": "insert", "u": "a", "v": "b"}\n'
                 '{"op": "insert", "u": "b", "v": "c"}\n'),
    "mst": ('{"problem": "mst", "vertices": [0, 1, 2]}\n'
            '{"op": "insert", "u": 0, "v": 1, "cost": 1.0}\n'
            '{"op": "insert", "u": 1, "v": 2, "cost": 2.0}\n'
            '{"op": "insert", "u": 0, "v": 2, "cost": 4.0}\n'),
}

NO_NUMPY_RANDOM = """
import json, sys
sys.path.insert(0, sys.argv[1])
from bodychase import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "numpy.random": "numpy.random" in sys.modules,
                  "scipy": "scipy" in sys.modules}))
"""


def test_rounding_runs_never_import_numpy_random(tmp_path):
    paths = {}
    for problem, text in UPDATE_FILES.items():
        paths[problem] = tmp_path / ("%s.jsonl" % problem)
        paths[problem].write_text(text)
    stream = tmp_path / "s.txt"
    stream.write_text("C 0:1 1:2\nF 1\nP 0:1 2:0.5\nC 2:1\n")
    report = str(tmp_path / "r.jsonl")
    # the offline LP runs in the chase, offline-opt and mst argvs
    argvs = [["chase", str(stream)], ["offline-opt", str(stream)],
             ["mst", str(paths["mst"]), "--round", "on"],
             ["matching", str(paths["matching"]), "--round", "on"],
             ["setcover", str(paths["setcover"]), "--round", "rand"],
             ["replicate", str(paths["matching"]), "--round", "on", "--runs", "2"]]
    argvs = [argv + ["--report", report] for argv in argvs]
    done = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_RANDOM, str(ROOT / "src"), json.dumps(argvs)],
        capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(done.stdout)
    # scipy would cost more to import than a whole run's set-up
    assert out == {"codes": [0] * 6, "numpy.random": False, "scipy": False}
