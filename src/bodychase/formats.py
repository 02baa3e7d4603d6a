"""File formats for streams, weights, update sequences, and reports.

Constraint streams are plain text, one time step per line. A step is
one or more parts separated by ";", each part being

    C idx:coeff idx:coeff ...      covering row
    P idx:coeff ...                packing row
    F idx idx ...                  clamp the listed coordinates to zero

Blank lines and lines starting with "#" are skipped. Weights files hold
idx:weight tokens (unlisted coordinates default to 1). Update sequences
are JSON lines: a header record describing the instance followed by one
insert/delete event per line. Reports are emitted as JSON lines with
sorted keys and no timestamps so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .adapters import UpdateEvent
from .core import ChaseError, Freeze, HalfspaceConstraint, Kind, stream_steps

__all__ = [
    "FormatError",
    "parse_stream",
    "parse_weights",
    "stream_dimension",
    "MAX_DIMENSION",
    "parse_updates",
    "dump_records",
    "write_report",
]


# The largest dimension a stream or weights file may ask for: the parser
# refuses a coordinate id at or above it, before any row is built. A run holds
# several float vectors of that length (8 bytes a coordinate), so a larger
# id would allocate gigabytes before the first step; 2**25 (256 MiB a
# vector) is 33 times the largest runs measured, at n = 1e6.
MAX_DIMENSION = 2**25


class FormatError(ChaseError):
    pass


def _fail(source, lineno, message):
    raise FormatError("%s:%d: %s" % (source, lineno, message))


def _check_bound(idx, source, lineno):
    if idx >= MAX_DIMENSION:
        _fail(source, lineno, "coordinate %d is past the largest supported id %d"
              % (idx, MAX_DIMENSION - 1))


def _parse_pairs(tokens, source, lineno):
    coeffs = {}
    for tok in tokens:
        if ":" not in tok:
            _fail(source, lineno, "expected idx:value, got %r" % tok)
        idx_s, val_s = tok.split(":", 1)
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            _fail(source, lineno, "bad idx:value pair %r" % tok)
        if idx < 0:
            _fail(source, lineno, "negative coordinate %d" % idx)
        _check_bound(idx, source, lineno)
        if idx in coeffs:
            _fail(source, lineno, "coordinate %d repeated" % idx)
        coeffs[idx] = val
    return coeffs


def _parse_part(part, source, lineno):
    tokens = part.split()
    try:
        kind = Kind(tokens[0].upper())
    except ValueError:
        _fail(source, lineno, "unknown record tag %r" % tokens[0])
    if kind is Kind.FREEZE:
        if len(tokens) < 2:
            _fail(source, lineno, "freeze with no coordinates")
        try:
            indices = [int(t) for t in tokens[1:]]
        except ValueError:
            _fail(source, lineno, "freeze coordinates must be integers")
        if any(i < 0 for i in indices):
            _fail(source, lineno, "negative coordinate in freeze")
        _check_bound(max(indices), source, lineno)
        return Freeze(indices)
    if len(tokens) < 2:
        _fail(source, lineno, "constraint with no coefficients")
    coeffs = _parse_pairs(tokens[1:], source, lineno)
    try:
        return HalfspaceConstraint(kind, coeffs)
    except ChaseError as exc:
        _fail(source, lineno, str(exc))


def _lines(lines, source):
    """The name of the input, `lines` itself or `source`, and its
    (line number, stripped line) pairs, blank and "#" lines left out.
    A `str` is read as a path."""
    if isinstance(lines, str):
        source = lines
        with open(lines, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    return source, ((lineno, line) for lineno, raw in enumerate(lines, start=1)
                    if (line := raw.strip()) and not line.startswith("#"))


def parse_stream(lines, source="<stream>"):
    """Parse a constraint stream. `lines` is an iterable of text lines
    or a path."""
    source, numbered = _lines(lines, source)
    stream = []
    for lineno, line in numbered:
        parts = [p.strip() for p in line.split(";") if p.strip()]
        if not parts:
            continue
        items = [_parse_part(p, source, lineno) for p in parts]
        stream.append(items[0] if len(items) == 1 else items)
    return stream


def stream_dimension(stream) -> int:
    """One more than the largest coordinate a row or freeze names."""
    tops = [item.max_index for group in stream_steps(stream) for item in group]
    return max(tops, default=-1) + 1


def parse_weights(lines, dimension, source="<weights>"):
    source, numbered = _lines(lines, source)
    pairs = {}
    for lineno, line in numbered:
        for idx, val in _parse_pairs(line.split(), source, lineno).items():
            if idx in pairs:
                _fail(source, lineno, "weight for %d given twice" % idx)
            if not 0.0 < val < math.inf:  # nan fails too
                _fail(source, lineno, "weights must be finite and positive")
            pairs[idx] = val
    dim = max(dimension, max(pairs, default=-1) + 1)
    w = np.ones(dim)
    for idx, val in pairs.items():
        w[idx] = val
    return w


_HEADER_KEYS = {
    "setcover": ("sets",),
    "matching": (),
    "mst": ("vertices",),
    "loadbalance": ("machines",),
}


def _numeric(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _loads(v) -> bool:
    return isinstance(v, dict) and all(map(_numeric, v.values()))


# per problem: the ids every event names, and the field an insert adds
# with its check and its description
_EVENT_KEYS = {
    "setcover": (("element",), None),
    "matching": (("u", "v"), None),
    "mst": (("u", "v"), ("cost", _numeric, "a number")),
    "loadbalance": (("job",), ("loads", _loads, "an object of numbers")),
}


def _check_header_shape(problem, record, source, lineno) -> list:
    """The ids the header names. Presence is already checked; wrong shapes
    are rejected before the adapters trip over them."""
    if problem == "setcover":
        sets = record["sets"]
        if not isinstance(sets, list):
            _fail(source, lineno, "sets must be a list")
        for s in sets:
            if (not isinstance(s, dict) or not _numeric(s.get("cost"))
                    or not isinstance(s.get("elements"), list)):
                _fail(source, lineno,
                      "each set needs a numeric cost and an element list")
        return [u for s in sets for u in s["elements"]]
    if problem == "matching":
        n = record.get("n")
        if n is not None and (isinstance(n, bool)
                              or not isinstance(n, int) or n <= 0):
            _fail(source, lineno, "n must be a positive integer")
    elif problem == "mst":
        if not isinstance(record["vertices"], list):
            _fail(source, lineno, "vertices must be a list of vertex ids")
        return record["vertices"]
    elif problem == "loadbalance":
        machines = record["machines"]
        # a job's loads are a JSON object, so they name machines by string keys
        if (not isinstance(machines, list) or not machines
                or not all(isinstance(m, str) for m in machines)):
            _fail(source, lineno, "machines must be a nonempty list of string ids")
        if len(set(machines)) != len(machines):
            _fail(source, lineno, "machine ids must be distinct")
    return []


def _id_type(ids, seen, source, lineno):
    """The one JSON type, str or int, of a file's ids: `seen` so far (None
    before the first id), checked against `ids`."""
    for v in ids:
        if isinstance(v, bool) or not isinstance(v, (str, int)):
            _fail(source, lineno, "ids must be strings or integers, got %r" % (v,))
        if type(v) is not (seen := seen or type(v)):
            _fail(source, lineno, "id %r: a file's ids must be all strings or all integers" % (v,))
    return seen


def _event_payload(problem, op, record, source, lineno) -> dict:
    """The fields the adapter's insert or delete takes, checked; the
    adapters' parameter names are these keys."""
    ids, extra = _EVENT_KEYS[problem]
    payload = {key: record.get(key) for key in ids}
    for key, v in payload.items():
        if isinstance(v, bool) or not isinstance(v, (str, int)):
            _fail(source, lineno, "%s event needs %r as a string or integer id" % (problem, key))
    if len(ids) == 2 and type(payload["u"]) is not type(payload["v"]):
        _fail(source, lineno, "u and v must both be strings or both integers")
    if op == "insert" and extra is not None:
        key, valid, what = extra
        if not valid(record.get(key)):
            _fail(source, lineno, "%s insert needs %r as %s" % (problem, key, what))
        payload[key] = record[key]
    return payload


def parse_updates(lines, source="<updates>"):
    """Parse an update sequence: header record, then events.

    Returns (problem, header dict, list of UpdateEvent).
    """
    source, numbered = _lines(lines, source)
    header = None
    problem = None
    id_type = None
    events = []
    for lineno, line in numbered:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            _fail(source, lineno, "bad JSON (%s)" % exc.msg)
        if not isinstance(record, dict):
            _fail(source, lineno, "record must be an object")
        if header is None:
            problem = record.get("problem")
            # a list or an object is no problem's name, and cannot be looked up
            if not isinstance(problem, str) or problem not in _HEADER_KEYS:
                _fail(source, lineno, "header must name a known problem, got %r" % (problem,))
            for key in _HEADER_KEYS[problem]:
                if key not in record:
                    _fail(source, lineno, "%s header needs %r" % (problem, key))
            id_type = _id_type(_check_header_shape(problem, record, source, lineno),
                               id_type, source, lineno)
            header = record
            continue
        op = record.get("op")
        if op not in ("insert", "delete"):
            _fail(source, lineno, "event op must be insert or delete, got %r" % (op,))
        payload = _event_payload(problem, op, record, source, lineno)
        id_type = _id_type([payload[key] for key in _EVENT_KEYS[problem][0]],
                           id_type, source, lineno)
        events.append(UpdateEvent(problem, op, payload))
    if header is None:
        _fail(source, 1, "empty update file: header record required")
    return problem, header, events


def dump_records(records) -> str:
    """One line of sorted-key JSON per record. A record holds plain JSON
    values; one that JSON cannot hold (a non-finite float, an array, a
    numpy integer) is a ChaseError naming its kind."""
    out = []
    for record in records:
        try:
            out.append(json.dumps(record, sort_keys=True, allow_nan=False))
        except (TypeError, ValueError) as exc:
            raise ChaseError("%s record is not plain JSON: %s"
                             % (record.get("kind"), exc)) from None
    return "\n".join(out) + "\n" if out else ""


def write_report(records, path=None):
    text = dump_records(records)
    if path is not None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)
    return text
