"""Seeded input generators for the benchmark workloads.

Each generator takes a numpy Generator and a size dict and returns the
text of one input file: a raw constraint stream for `stream`, a JSON-lines
update file for the three replays. The program only ever sees these files;
the output checks re-read them with the standard json module.
"""

from __future__ import annotations

import json

import numpy as np


def stream_text(rng, n, rows, d, pack_share):
    """Mixed covering/packing rows, each on `d` distinct coordinates.

    Coefficients are uniform on [1, 8]. A packing row over coordinates that
    are still zero is satisfied and costs the engine only a log entry.
    """
    lines = ["# stream n=%d rows=%d d=%d pack_share=%g" % (n, rows, d, pack_share)]
    for _ in range(rows):
        tag = "P" if rng.random() < pack_share else "C"
        support = np.sort(rng.choice(n, size=d, replace=False))
        coeffs = rng.uniform(1.0, 8.0, size=d)
        lines.append(tag + " " + " ".join("%d:%.6f" % (i, c) for i, c in zip(support, coeffs)))
    # the stream's dimension is its largest named coordinate; pin it to n
    lines.append("C %d:1.0" % (n - 1))
    return "\n".join(lines) + "\n"


def _churn(rng, pool, current, live, updates, removable=sorted):
    """`updates` events from the live list `current`: insert a pool member
    while fewer than `live` are live, else delete one, so once it reaches
    `live` the instance churns at a steady size."""
    events = []
    while len(events) < updates:
        if len(current) < live:
            fresh = [e for e in pool if e not in current]
            e = fresh[int(rng.integers(len(fresh)))]
            current.append(e)
            events.append(("insert", e))
        else:
            choices = removable(current)
            e = choices[int(rng.integers(len(choices)))]
            current.remove(e)
            events.append(("delete", e))
    return events


def setcover_text(rng, sets, set_size, universe, live, updates):
    costs = rng.uniform(1.0, 3.0, size=sets)
    members = [sorted(int(u) for u in rng.choice(universe, size=set_size, replace=False))
               for _ in range(sets)]
    covered = sorted({u for m in members for u in m})
    header = {"problem": "setcover",
              "sets": [{"cost": round(float(c), 6), "elements": m}
                       for c, m in zip(costs, members)]}
    events = [{"op": op, "element": u} for op, u in _churn(rng, covered, [], live, updates)]
    return _jsonl(header, events)


def matching_text(rng, left, right, live, updates):
    """Bipartite edges between vertices 0..left-1 and left..left+right-1."""
    pool = [(u, left + v) for u in range(left) for v in range(right)]
    events = [{"op": op, "u": e[0], "v": e[1]} for op, e in _churn(rng, pool, [], live, updates)]
    return _jsonl({"problem": "matching", "n": left + right}, events)


def _connected(vertices, edges):
    parent = {v: v for v in vertices}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    parts = len(parent)
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            parts -= 1
    return parts == 1


def mst_text(rng, vertices, live, updates):
    """Every vertex pair is inserted once, the path 0-1-...-(vertices-1)
    first; then non-bridge edges are deleted down to `live` edges and the
    graph churns at that size. Each dead edge stays a clamped coordinate,
    so the offline LP grows by about the same amount at every update.
    """
    verts = list(range(vertices))
    path = [(i, i + 1) for i in range(vertices - 1)]
    rest = [(u, v) for u in verts for v in verts if u + 1 < v]
    order = path + [rest[int(k)] for k in rng.permutation(len(rest))]
    cost = {e: round(float(rng.uniform(0.5, 3.0)), 6) for e in order}

    def removable(current):
        return [e for e in sorted(current)
                if _connected(verts, [f for f in current if f != e])]

    events = [("insert", e) for e in order]
    events += _churn(rng, order, list(order), live, updates - len(events), removable)
    out = []
    for op, (u, v) in events:
        record = {"op": op, "u": u, "v": v}
        if op == "insert":
            record["cost"] = cost[(u, v)]
        out.append(record)
    return _jsonl({"problem": "mst", "vertices": verts}, out)


def _jsonl(header, events):
    return "\n".join(json.dumps(r, sort_keys=True) for r in [header] + events) + "\n"


GENERATORS = {
    "stream": stream_text,
    "setcover": setcover_text,
    "matching": matching_text,
    "mst-offline": mst_text,
}
