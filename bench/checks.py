"""Output checks, run after the timed section of a benchmark run.

Every check compares a report against a computation made apart from
bodychase (scipy's HiGHS, networkx, a replay of the generated input with
the json module) or against a property the method must have. An item (one
stream row or one update) that fails a check is a failed item; a failure
that belongs to the whole report is a run-level problem.
"""

from __future__ import annotations

import json

import networkx as nx
import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

REL = 1e-9  # slack for properties that hold exactly in exact arithmetic
LP_REL = 1e-6  # agreement between two LP solvers


class Outcome:
    def __init__(self, items):
        self.items = items
        self.failed: dict[int, str] = {}
        self.problems: list[str] = []

    def item(self, index, ok, message):
        if not ok and index not in self.failed:
            self.failed[index] = message

    def run(self, ok, message):
        if not ok:
            self.problems.append(message)


def leq(a, b, rel=REL):
    return a <= b + rel * max(1.0, abs(a), abs(b))


def close(a, b, rel=REL):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _records(report_text):
    return [json.loads(line) for line in report_text.splitlines() if line.strip()]


def _replay(input_text):
    lines = [json.loads(line) for line in input_text.splitlines() if line.strip()]
    return lines[0], lines[1:]


def _meta(records):
    return records[0]["config"]


def check_stream(input_text, report_text, extra=None) -> Outcome:
    rows = [ln for ln in input_text.splitlines() if ln.strip() and not ln.startswith("#")]
    records = _records(report_text)
    eps = _meta(records)["eps"]
    steps = [r for r in records if r["kind"] == "step"]
    summary = records[-1]
    cert = next(r for r in records if r["kind"] == "certificate")
    out = Outcome(len(rows))
    out.run(len(steps) == len(rows), "%d step records for %d rows" % (len(steps), len(rows)))
    for s in steps:
        up, l1 = s["upward_step"], s["l1_step"]
        out.item(s["t"], up >= 0.0 and leq(up, l1), "upward %r outside [0, l1 %r]" % (up, l1))
        cap = (1.0 + eps / 4.0) * s["multiplier"] if s["tag"] == "C" else 0.0
        out.item(s["t"], leq(up, cap), "upward %r above (1+eps/4) multiplier %r" % (up, cap))
    upward = summary["upward_recourse"]
    out.run(close(sum(s["upward_step"] for s in steps), upward, 1e-7),
            "steps do not add up to upward_recourse")
    out.run(min(summary["final_point"]) >= 0.0, "final point has a negative coordinate")
    for key in ("warmup_bound", "refined_bound"):
        out.run(summary[key] is not None and leq(summary[key], upward),
                "%s %r above upward_recourse %r" % (key, summary[key], upward))
    out.run(summary["ratio_refined"] is not None
            and leq(summary["ratio_refined"], cert["theoretical_cap"]),
            "ratio_refined above the theoretical cap")
    return out


def cover_lp_opt(costs, sets, live) -> float:
    if not live:
        return 0.0
    rows = sorted(live)
    A = np.array([[1.0 if u in s else 0.0 for s in sets] for u in rows])
    res = linprog(costs, A_ub=-A, b_ub=-np.ones(len(rows)), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError("HiGHS: %s" % res.message)
    return float(res.fun)


def check_setcover(input_text, report_text, extra) -> Outcome:
    header, events = _replay(input_text)
    costs = np.array([s["cost"] for s in header["sets"]])
    sets = [frozenset(s["elements"]) for s in header["sets"]]
    f = max(sum(u in s for s in sets) for u in set().union(*sets))
    rows = [r for r in _records(report_text) if r["kind"] == "update"]
    frac = extra["fractional_cost"]
    out = Outcome(len(events))
    out.run(len(rows) == len(events) == len(frac),
            "%d update records, %d events, %d rounded points" % (len(rows), len(events), len(frac)))
    live: set = set()
    for i, (event, row, frac_cost) in enumerate(zip(events, rows, frac)):
        (live.add if event["op"] == "insert" else live.discard)(event["element"])
        opt = cover_lp_opt(costs, sets, live)
        out.item(i, close(row["opt"], opt, LP_REL), "opt %r, HiGHS %r" % (row["opt"], opt))
        cost = row["cover_cost"]
        out.item(i, row["cover_feasible"], "cover does not cover the live elements")
        out.item(i, leq(opt, cost, LP_REL) and leq(cost, 2 * f * frac_cost),
                 "cover cost %r outside [%r, 2f x %r]" % (cost, opt, frac_cost))
    return out


def check_matching(input_text, report_text, extra=None) -> Outcome:
    records = _records(report_text)
    delta = _meta(records)["delta"]
    _, events = _replay(input_text)
    rows = [r for r in records if r["kind"] == "update"]
    out = Outcome(len(events))
    out.run(len(rows) == len(events), "%d update records for %d events" % (len(rows), len(events)))
    graph = nx.Graph()
    for i, (event, row) in enumerate(zip(events, rows)):
        edge = (event["u"], event["v"])
        (graph.add_edge if event["op"] == "insert" else graph.remove_edge)(*edge)
        opt = len(nx.max_weight_matching(graph, maxcardinality=True))
        out.item(i, row["opt"] == opt, "opt %r, networkx %d" % (row["opt"], opt))
        out.item(i, leq((1.0 - delta) * opt, row["matching_size"]),
                 "matching size %r below (1-delta) x %d" % (row["matching_size"], opt))
    return out


def recourse_lp_opt(steps, weights) -> float:
    """Offline optimum of a logged stream by HiGHS, from the full
    formulation: x_i^t and upward moves l_i^t at every step, x^0 = 0."""
    T, n = len(steps), len(weights)
    x = lambda t, i: t * n + i  # noqa: E731
    l = lambda t, i: (T + t) * n + i  # noqa: E731
    cost = np.concatenate([np.zeros(T * n), np.tile(weights, T)])
    upper = np.full(2 * T * n, np.inf)
    rows, cols, vals, rhs = [], [], [], []

    def add(entries, bound):
        r = len(rhs)
        for c, v in entries:
            rows.append(r)
            cols.append(c)
            vals.append(v)
        rhs.append(bound)

    for t, group in enumerate(steps):
        for tag, idx, coeffs in group:
            if tag == "F":
                upper[[x(t, i) for i in idx]] = 0.0
            elif tag == "C":
                add([(x(t, i), -c) for i, c in zip(idx, coeffs)], -1.0)
            else:
                add([(x(t, i), c) for i, c in zip(idx, coeffs)], 1.0)
    for t in range(T):
        for i in range(n):
            prev = [(x(t - 1, i), -1.0)] if t else []
            add([(x(t, i), 1.0), (l(t, i), -1.0)] + prev, 0.0)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(len(rhs), 2 * T * n))
    res = linprog(cost, A_ub=A, b_ub=rhs, bounds=list(zip(np.zeros(2 * T * n), upper)),
                  method="highs")
    if res.status != 0:
        raise RuntimeError("HiGHS: %s" % res.message)
    return float(res.fun)


def check_mst(input_text, report_text, extra) -> Outcome:
    records = _records(report_text)
    delta = _meta(records)["delta"]
    header, events = _replay(input_text)
    rows = [r for r in records if r["kind"] == "update"]
    summary = records[-1]
    out = Outcome(len(events))
    out.run(len(rows) == len(events), "%d update records for %d events" % (len(rows), len(events)))
    graph = nx.Graph()
    graph.add_nodes_from(header["vertices"])
    for i, (event, row) in enumerate(zip(events, rows)):
        if event["op"] == "insert":
            graph.add_edge(event["u"], event["v"], weight=event["cost"])
        else:
            graph.remove_edge(event["u"], event["v"])
        if not nx.is_connected(graph):
            out.item(i, "skipped" in row, "update on a disconnected graph was not skipped")
            continue
        opt = nx.minimum_spanning_tree(graph).size(weight="weight")
        out.item(i, "opt" in row and close(row["opt"], opt), "opt %r, networkx %r"
                 % (row.get("opt"), opt))
        if "opt" not in row:
            continue
        tree, frac = row["tree_cost"], row["fractional_cost"]
        out.item(i, leq(opt, tree) and leq(tree, (2.0 + delta) * frac),
                 "tree cost %r outside [%r, (2+delta) x %r]" % (tree, opt, frac))
    offline_opt = summary.get("offline_opt")
    out.run(offline_opt is not None, "offline LP skipped: %s" % summary.get("offline_skipped"))
    if offline_opt is not None:
        upward = summary["upward_recourse"]
        out.run(leq(summary["warmup_bound"], offline_opt, LP_REL) and leq(offline_opt, upward, LP_REL),
                "warmup %r <= offline %r <= upward %r fails"
                % (summary["warmup_bound"], offline_opt, upward))
        lp = extra["offline_lp"]
        highs = recourse_lp_opt(lp["steps"], np.array(lp["weights"]))
        out.run(close(highs, offline_opt, LP_REL), "offline_opt %r, HiGHS %r" % (offline_opt, highs))
    return out


CHECKS = {
    "stream": check_stream,
    "setcover": check_setcover,
    "matching": check_matching,
    "mst-offline": check_mst,
}
