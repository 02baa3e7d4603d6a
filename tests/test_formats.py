"""Parsers and the report writer."""

import json
import math

import numpy as np
import pytest

from bodychase.cli import main
from bodychase.core import ChaseError, HalfspaceConstraint, Kind
from bodychase.formats import (
    FormatError,
    dump_records,
    parse_stream,
    parse_updates,
    parse_weights,
    stream_dimension,
    write_report,
)
from bodychase.offline import Freeze


def test_stream_roundtrip():
    lines = [
        "# comment",
        "",
        "C 0:1 2:2.5",
        "P 1:0.5",
        "F 0 2",
        "C 0:1 ; P 1:1",
    ]
    stream = parse_stream(lines)
    assert len(stream) == 4
    assert stream[0].kind is Kind.COVERING
    assert stream[0].as_dict() == {0: 1.0, 2: 2.5}
    assert stream[1].kind is Kind.PACKING
    assert isinstance(stream[2], Freeze)
    assert stream[2].indices == (0, 2)
    group = stream[3]
    assert isinstance(group, list) and len(group) == 2
    assert group[0].kind is Kind.COVERING
    assert group[1].kind is Kind.PACKING
    assert stream_dimension(stream) == 3


def test_stream_from_file(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("C 0:1\nP 0:2\n")
    stream = parse_stream(str(path))
    assert len(stream) == 2


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("C zzz", "expected idx:value"),
        ("C 0:abc", "bad idx:value"),
        ("C -1:1", "negative coordinate"),
        ("C 0:1 0:2", "repeated"),
        ("C", "no coefficients"),
        ("F", "no coordinates"),
        ("F 1.5", "must be integers"),
        ("Q 0:1", "unknown record tag"),
        ("C 0:-1", "positive"),
    ],
)
def test_stream_errors_carry_location(line, fragment):
    with pytest.raises(FormatError) as err:
        parse_stream([line], source="input.txt")
    assert str(err.value).startswith("input.txt:1:")
    assert fragment in str(err.value)


def test_weights_defaults_and_errors():
    w = parse_weights(["0:2 3:0.5"], dimension=2)
    assert w.shape == (4,)
    assert list(w) == [2.0, 1.0, 1.0, 0.5]
    with pytest.raises(FormatError):
        parse_weights(["0:0"], 1)
    with pytest.raises(FormatError):
        parse_weights(["0:1", "0:2"], 1)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
def test_weights_must_be_finite_and_positive(value):
    with pytest.raises(FormatError) as err:
        parse_weights(["1:2", "0:%s" % value], 2, source="w.txt")
    assert str(err.value) == "w.txt:2: weights must be finite and positive"


@pytest.mark.parametrize("machines, fragment", [
    ([0, 1], "string ids"),
    (["a", 1], "string ids"),
    (["a", "a"], "distinct"),
])
def test_loadbalance_machines_are_distinct_string_ids(machines, fragment):
    # a job's loads are a JSON object, whose keys are always strings
    lines = ["# jobs", json.dumps({"problem": "loadbalance", "machines": machines})]
    with pytest.raises(FormatError) as err:
        parse_updates(lines, source="u.jsonl")
    assert str(err.value).startswith("u.jsonl:2:")
    assert fragment in str(err.value)


def test_updates_header_and_events():
    lines = [
        json.dumps({"problem": "setcover", "sets": [{"cost": 1, "elements": [0]}]}),
        json.dumps({"op": "insert", "element": 0}),
        json.dumps({"op": "delete", "element": 0}),
    ]
    problem, header, events = parse_updates(lines)
    assert problem == "setcover"
    assert header["sets"][0]["cost"] == 1
    assert [e.op for e in events] == ["insert", "delete"]
    assert events[0].payload == {"element": 0}


@pytest.mark.parametrize(
    "lines,fragment",
    [
        ([], "header record required"),
        (["{not json"], "bad JSON"),
        (['["a"]'], "must be an object"),
        (['{"problem": "sudoku"}'], "known problem"),
        (['{"problem": "mst"}'], "needs 'vertices'"),
        (['{"problem": "mst", "vertices": 4}'], "list of vertex ids"),
        (['{"problem": "setcover", "sets": 3}'], "sets must be a list"),
        (['{"problem": "setcover", "sets": [{"cost": "x", "elements": []}]}'],
         "numeric cost"),
        (['{"problem": "matching", "n": 0}'], "positive integer"),
        (['{"problem": "matching", "n": true}'], "positive integer"),
        (['{"problem": "loadbalance", "machines": []}'], "nonempty list"),
        (['{"problem": "matching"}', '{"op": "upsert"}'], "insert or delete"),
    ],
)
def test_updates_errors(lines, fragment):
    with pytest.raises(FormatError) as err:
        parse_updates(lines, source="u.jsonl")
    assert fragment in str(err.value)


@pytest.mark.parametrize("problem", ['["mst"]', '{"mst": 1}', "[]", "3", "null"])
def test_a_header_problem_that_is_not_a_name_is_a_format_error(problem, tmp_path, capsys):
    lines = ["# header", '{"problem": %s, "vertices": [0, 1]}' % problem]
    with pytest.raises(FormatError) as err:
        parse_updates(lines, source="u.jsonl")
    assert str(err.value).startswith("u.jsonl:2: header must name a known problem")
    path = tmp_path / "u.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["mst", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: %s:2: " % path) and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -math.inf,
                                   np.array([1.0, 2.0]), np.int64(3)])
def test_dump_refuses_a_value_json_cannot_hold(value):
    # a report holds plain JSON values: nothing is rewritten on the way out
    assert dump_records([{"kind": "summary", "x": 1.5, "y": [1, None]}]) == \
        '{"kind": "summary", "x": 1.5, "y": [1, null]}\n'
    with pytest.raises(ChaseError, match="^certificate record is not plain JSON"):
        dump_records([{"kind": "meta"}, {"kind": "certificate", "ratio": value}])


def test_write_report_file_and_text(tmp_path):
    path = tmp_path / "r.jsonl"
    text = write_report([{"x": 1}, {"y": 2}], path=str(path))
    assert path.read_text() == text
    assert text == '{"x": 1}\n{"y": 2}\n'


@pytest.mark.parametrize(
    "header,event,fragment",
    [
        ('{"problem": "setcover", "sets": []}', '{"op": "insert", "elem": 0}',
         "'element' as a string or integer id"),
        ('{"problem": "setcover", "sets": []}', '{"op": "delete", "element": 1.5}',
         "'element' as a string or integer id"),
        ('{"problem": "matching"}', '{"op": "insert", "u": [0], "v": 1}',
         "'u' as a string or integer id"),
        ('{"problem": "matching"}', '{"op": "delete", "u": true, "v": 1}',
         "'u' as a string or integer id"),
        ('{"problem": "matching"}', '{"op": "insert", "u": "a", "v": 1}',
         "must both be strings or both integers"),
        ('{"problem": "mst", "vertices": [0, 1]}', '{"op": "insert", "u": 0, "v": 1}',
         "'cost' as a number"),
        ('{"problem": "mst", "vertices": [0, 1]}',
         '{"op": "insert", "u": 0, "v": 1, "cost": false}', "'cost' as a number"),
        ('{"problem": "mst", "vertices": [0, 1]}',
         '{"op": "insert", "u": 0, "v": 1, "cost": NaN}', "'cost' as a number"),
        ('{"problem": "mst", "vertices": [0, 1]}', '{"op": "delete", "v": 1}',
         "'u' as a string or integer id"),
        ('{"problem": "loadbalance", "machines": ["m"]}', '{"op": "insert", "job": "j"}',
         "'loads' as an object of numbers"),
        ('{"problem": "loadbalance", "machines": ["m"]}',
         '{"op": "insert", "job": "j", "loads": {"m": "1"}}', "'loads' as an object of numbers"),
        ('{"problem": "loadbalance", "machines": ["m"]}', '{"op": "delete"}',
         "'job' as a string or integer id"),
    ],
)
def test_event_fields_are_checked(header, event, fragment):
    with pytest.raises(FormatError) as err:
        parse_updates([header, event], source="u.jsonl")
    assert str(err.value).startswith("u.jsonl:2: ")
    assert fragment in str(err.value)


def test_event_payload_keeps_only_the_adapter_fields():
    _, _, events = parse_updates([
        '{"problem": "mst", "vertices": [0, 1]}',
        '{"op": "insert", "u": 0, "v": 1, "cost": 2, "note": "x"}',
        '{"op": "delete", "u": 0, "v": 1, "cost": 2}',
    ])
    assert [e.payload for e in events] == [{"u": 0, "v": 1, "cost": 2}, {"u": 0, "v": 1}]
    _, _, events = parse_updates([
        '{"problem": "loadbalance", "machines": ["m0", "m1"]}',
        '{"op": "insert", "job": 3, "loads": {"m0": 1, "m1": 2.5}}',
        '{"op": "delete", "job": 3, "loads": {}}',
    ])
    assert [e.payload for e in events] == [{"job": 3, "loads": {"m0": 1, "m1": 2.5}},
                                           {"job": 3}]


@pytest.mark.parametrize(
    "lines,lineno",
    [
        # set cover: the header's element ids fix the file's id type
        (['{"problem": "setcover", "sets": [{"cost": 1, "elements": [0, 1]}]}',
          '{"op": "insert", "element": "0"}'], 2),
        (['{"problem": "setcover", "sets": [{"cost": 1, "elements": [0, "a"]}]}'], 1),
        (['{"problem": "setcover", "sets": [{"cost": 1, "elements": []}]}',
          '{"op": "insert", "element": 0}', '{"op": "delete", "element": "0"}'], 3),
        # matching: the first event fixes it
        (['{"problem": "matching"}', '{"op": "insert", "u": 0, "v": 1}',
          '{"op": "insert", "u": "a", "v": "b"}'], 3),
        (['{"problem": "mst", "vertices": [0, "a"]}'], 1),
        (['{"problem": "loadbalance", "machines": ["m"]}',
          '{"op": "insert", "job": 0, "loads": {"m": 1}}',
          '{"op": "insert", "job": "a", "loads": {"m": 1}}'], 3),
    ],
)
def test_ids_share_one_json_type_per_file(lines, lineno):
    with pytest.raises(FormatError) as err:
        parse_updates(lines, source="u.jsonl")
    assert str(err.value).startswith("u.jsonl:%d: " % lineno)
    assert "all strings or all integers" in str(err.value)


def test_header_ids_must_be_strings_or_integers():
    for elements in ("[1.5]", "[true]", "[[0]]"):
        with pytest.raises(FormatError, match="ids must be strings or integers"):
            parse_updates(['{"problem": "setcover", "sets": [{"cost": 1, "elements": %s}]}'
                           % elements])
    _, header, events = parse_updates([
        '{"problem": "setcover", "sets": [{"cost": 1, "elements": ["a", "b"]}]}',
        '{"op": "insert", "element": "a"}',
    ])
    assert events[0].payload == {"element": "a"}
