"""The machine-report writer against the standard library's JSON encoder."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibresum.reports import _render_json
from oracles import json_report

GOLDEN = Path(__file__).parent / "golden"

# Strings with non-ASCII text, control characters, quotes and backslashes.
_strings = st.text(max_size=10) | st.sampled_from(
    ["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", " ", "\U0001f600", 'a"b\\c']
)
_leaves = st.none() | st.booleans() | st.integers() | _strings
_documents = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(_strings, children, max_size=4),
    max_leaves=30,
)


@given(_documents)
@example({"a": [], "b": {}, "c": [[]], "d": [{}], "e": {"f": {}}, "g": ((),)})
@example([True, 1, False, 0, None, "1", ["x", "y"], ["x", 1]])
@settings(max_examples=300, deadline=None)
def test_writer_matches_json_dumps(doc):
    assert _render_json(doc) == json_report(doc)


@pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_writer_reproduces_each_golden(golden):
    data = (GOLDEN / golden).read_bytes()
    assert (_render_json(json.loads(data)) + "\n").encode("utf-8") == data


@pytest.mark.parametrize(
    "doc", [1.5, {"a": [0.0]}, {"a": {1, 2}}, {1: "a"}, [{"a": "b", 2: "c"}], {"a": object()}]
)
def test_writer_rejects_what_reports_do_not_hold(doc):
    with pytest.raises(TypeError):
        _render_json(doc)
