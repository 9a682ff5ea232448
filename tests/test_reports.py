"""The report writers against their oracles: the machine writer against
the standard library's JSON encoder, the grouped form checks against a
per-form loop, and the two formats against each other."""

import contextlib
import io
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibresum import theoremreport
from fibresum.cli import main
from fibresum.gompfsum import CheckReport, FormClass
from fibresum.intlat import DivisibilityReport, IntVector
from fibresum.reports import _render_json
from fibresum.theoremreport import FormList, TheoremReportBuilder
from oracles import form_doc, json_report, per_form_check_entries

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
    "doc",
    [
        1.5,
        {"a": [0.0]},
        {"a": {1, 2}},
        {1: "a"},
        [{"a": "b", 2: "c"}],
        {"a": object()},
        # A form is written only as an item of a `FormList`.
        [FormClass((("T", 1),), (1,), IntVector((0,)), DivisibilityReport(0, 0))],
    ],
)
def test_writer_rejects_what_reports_do_not_hold(doc):
    with pytest.raises(TypeError):
        _render_json(doc)


# Exact, inexact (no upper bound, or a proper multiple of the lower one)
# and undefined divisibility reports.
_divisibilities = st.one_of(
    st.integers(1, 10**6).map(lambda k: DivisibilityReport(k, k)),
    st.builds(
        lambda lower, m: DivisibilityReport(lower, lower * m),
        st.integers(1, 10**6),
        st.just(0) | st.integers(2, 1000),
    ),
    st.just(DivisibilityReport(0, 0)),
)
# A layout of up to five gluings and one plus count per gluing.
_profiles = st.lists(st.integers(1, 12), max_size=5).flatmap(
    lambda copies: st.tuples(
        st.just(tuple((f"T{i}", c) for i, c in enumerate(copies))),
        st.tuples(*(st.integers(0, c) for c in copies)),
    )
)
_forms = st.builds(
    lambda layout_profile, c1, d: FormClass(*layout_profile, c1, d),
    _profiles,
    st.lists(st.integers(-(10**12), 10**12), max_size=12).map(IntVector),
    _divisibilities,
)


@given(st.lists(_forms, min_size=1, max_size=3), st.lists(st.sampled_from(["list", "dict"]), max_size=2))
@settings(max_examples=300, deadline=None)
def test_form_writer_matches_the_oracle(forms, wrappers):
    # The forms' list is one level of nesting; each wrapper adds one.
    def nest(value):
        for wrapper in wrappers:
            value = [value, "x"] if wrapper == "list" else {"a": "x", "forms": value, "z": []}
        return value

    written = _render_json(nest(FormList(forms)))
    assert written == json_report(nest([form_doc(f) for f in forms]))


def _random_check_reports(rng):
    """Forms and their check reports: a few shared outcomes and some
    fresh ones, messages repeated within a form, a message that passes
    for one form and is skipped for another, and failures on some forms."""
    pool = [f"m{i}" for i in range(8)]

    def outcome():
        return (
            tuple(rng.choices(pool, k=rng.randint(0, 6))),
            tuple(rng.choices(pool, k=rng.randint(0, 3))),
        )

    shared = [outcome() for _ in range(3)]
    reports = [CheckReport(("m0", "m0", "m1"), (), ("m2",)), CheckReport(("m2",), ("bad",), ("m0",))]
    for _ in range(rng.randint(0, 40)):
        passed, skipped = rng.choice(shared) if rng.random() < 0.7 else outcome()
        failed = tuple(rng.sample(["bad", "worse"], k=rng.randint(1, 2))) if rng.random() < 0.2 else ()
        reports.append(CheckReport(passed, failed, skipped))
    layout = (("Tx", 1), ("Tz", 3))
    forms = [
        FormClass(layout, (rng.randint(0, 1), rng.randint(0, 3)), IntVector(()), DivisibilityReport(0, 0))
        for _ in reports
    ]
    return forms, reports


@pytest.mark.parametrize("seed", range(40))
def test_grouped_form_checks_match_the_per_form_loop(seed):
    forms, reports = _random_check_reports(random.Random(seed))
    builder = TheoremReportBuilder(seed=0, cap=0)
    builder.add_form_checks("r", forms, reports)
    assert (builder.checks, builder.table_lines) == per_form_check_entries("r", forms, reports)


# Between them, these runs' forms have exact, inexact and undefined divisibility.
FORMAT_CASES = {
    "wide3": ["run", "--config", str(GOLDEN / "wide3.cfg")],
    "inexact": ["run", "--config", str(GOLDEN / "inexact.cfg")],
    "solve357": ["solve", "--primes", "3,5,7"],
}


def _report(argv, output):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--output", output]) == 0
    return out.getvalue()


def _refuse(*args):
    raise AssertionError("per-form output built for the format not printed")


@pytest.mark.parametrize("case", sorted(FORMAT_CASES))
def test_each_format_builds_only_its_own_per_form_output(case, monkeypatch):
    argv = FORMAT_CASES[case]
    item_writer, table_rows = FormList.item_writer, theoremreport._table_rows
    written, rows = [], []

    def counting_writer():
        write_form = item_writer()
        return lambda form, *a: written.append(form) or write_form(form, *a)

    with monkeypatch.context() as patch:
        patch.setattr(theoremreport, "_table_rows", _refuse)
        patch.setattr(FormList, "item_writer", staticmethod(counting_writer))
        machine = json.loads(_report(argv, "machine"))
    with monkeypatch.context() as patch:
        patch.setattr(FormList, "item_writer", staticmethod(_refuse))
        patch.setattr(theoremreport, "_table_rows", lambda forms: rows.extend(forms) or table_rows(forms))
        _report(argv, "table")
    assert len(written) == len(rows) == len(machine["forms"]) > 0


def _profile_signs(profile):
    """The sign string a table's profile stands for: per gluing, its
    plus signs then its minus signs."""
    signs = ""
    for counts in profile.split()[1::2]:
        plus, minus = re.fullmatch(r"(?:\+(\d+))?(?:-(\d+))?", counts).groups()
        signs += "+" * int(plus or 0) + "-" * int(minus or 0)
    return signs


def _table_forms(text):
    """(signs, c1, divisibility) per row of a table's form listings."""
    forms = []
    listing = False
    for line in text.splitlines():
        if re.fullmatch(r"  profile +c1 +divisibility", line):
            listing = True
        elif listing and (match := re.fullmatch(r"  (\S.*?) +\(([^)]*)\) +(\S+)", line)):
            forms.append((_profile_signs(match[1]), match[2].split(", ") if match[2] else [], match[3]))
        else:
            listing = False
    return forms


def _machine_forms(text):
    """(signs, c1, divisibility) per form of a machine report, in the
    table's notation."""
    forms = []
    for form in json.loads(text)["forms"]:
        d = form["divisibility"]
        if d["undefined"]:
            div = "undefined"
        elif d["exact"]:
            div = d["lower"]
        else:
            div = f"{d['lower']}..{'unconstrained' if d['upper'] == '0' else d['upper']}"
        signs = "".join("-" if s.startswith("-") else "+" for s in form["signs"])
        forms.append((signs, form["c1"], div))
    return forms


@pytest.mark.parametrize("case", sorted(FORMAT_CASES))
def test_table_and_machine_list_the_same_forms(case):
    argv = FORMAT_CASES[case]
    machine = _machine_forms(_report(argv, "machine"))
    assert machine
    assert _table_forms(_report(argv, "table")) == machine


def test_a_form_row_does_not_grow_with_the_copies():
    # 2,000 copies of Tz take a profile such as `Tz +1234-766`.
    from fibresum.construct import enumerate_forms
    from fibresum.fourman import build_t4
    from fibresum.gompfsum import Gluing, SumRecipe

    recipe = SumRecipe(build_t4(), (Gluing("Tx", 1, 1), Gluing("Tz", 2000, 1000), Gluing("Tw", 4, 4)))
    rows = theoremreport._table_rows(enumerate_forms(recipe).forms)
    assert len(rows) == 2002
    assert rows[1].split("(")[0].split() == ["Tx", "+1", "Tz", "+2000", "Tw", "+4"]
    assert rows[1001].split("(")[0].split() == ["Tx", "+1", "Tz", "+1000-1000", "Tw", "+4"]
    assert max(map(len, rows)) < 80
