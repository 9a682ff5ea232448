"""The package's immutable records: frozen fields, value equality and
hashing, dataclass-style reprs, and the checks their constructors run."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fibresum.settings import EnumerateTask, LinkingTask, SolveTask, TheoremTask
from fibresum.construct import EnumerationResult, HypothesisReport, SolveResult
from fibresum.errors import EmbeddingError, RecipeError
from fibresum.fourman import LAGRANGIAN, EmbeddedTorus, build_t4
from fibresum.gompfsum import CheckReport, FormClass, Gluing, SumRecipe
from fibresum.intlat import DivisibilityReport, IntVector, PairingMatrix
from fibresum.linkgeom import PolygonalCurve, PolygonalLink
from fixtures import replace

T4 = build_t4()
TX, TY = T4.tori[:2]
TRIANGLE = ((0, 0, 0), (1, 0, 0), (0, 1, Fraction(1, 3)))


def _hypothesis_report(**changes):
    fields = dict(
        rank=2,
        condition1_reasons=(),
        condition2_reasons=(),
        n=3,
        torus_divisibility=None,
        condition3_reasons=("indeterminate",),
    )
    return HypothesisReport(**{**fields, **changes})


# One builder per frozen record; each call makes a new, equal record.
RECORDS = {
    "IntVector": lambda: IntVector((1, -2, 0)),
    "PairingMatrix": lambda: PairingMatrix(((0, 1), (1, None))),
    "DivisibilityReport": lambda: DivisibilityReport(3, 3),
    "EmbeddedTorus": lambda: EmbeddedTorus("Tz", IntVector((0, 0, 1, 0, 0, 0)), LAGRANGIAN, None, False),
    "FourManifold": build_t4,
    "Gluing": lambda: Gluing("Tz", 2, 1),
    "SumRecipe": lambda: SumRecipe(T4, (Gluing("Tz", 2, 1),), name="r"),
    "FormClass": lambda: FormClass(
        (("Tz", 2),), (1,), IntVector((0, 0, 0)), DivisibilityReport(0, 0)
    ),
    "CheckReport": lambda: CheckReport(("a",), (), ("b",)),
    "HypothesisReport": _hypothesis_report,
    "EnumerationResult": lambda: EnumerationResult(T4, (), 0),
    "SolveResult": lambda: SolveResult(
        SumRecipe(T4, (Gluing("Tx", 1, 1),)), 1, (3, 5)
    ),
    "TheoremTask": lambda: TheoremTask("verify", "T4", T4, ("Tz", "Tx"), "Tw", 3),
    "EnumerateTask": lambda: EnumerateTask(SumRecipe(T4, (Gluing("Tz", 2, 1),), name="r")),
    "SolveTask": lambda: SolveTask((3, 5)),
    "LinkingTask": lambda: LinkingTask("borromean.lnk", None),
    "PolygonalCurve": lambda: PolygonalCurve(TRIANGLE),
    "PolygonalLink": lambda: PolygonalLink((PolygonalCurve(TRIANGLE),)),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_are_frozen(name):
    record = RECORDS[name]()
    field = record._fields[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b
    assert a == b
    assert not a != b
    if name != "SolveResult":  # its dict field is unhashable, as it was
        assert hash(a) == hash(b)
    assert a != tuple(getattr(a, f) for f in a._fields)
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_constructor_takes_the_fields_in_order(name):
    # Copies and pickles rebuild a record from its field values in order.
    record = RECORDS[name]()
    assert type(record)(*record._values()) == record
    assert type(record)(**dict(zip(record._fields, record._values()))) == record


def test_generic_constructor_binds_positions_and_keywords():
    report = CheckReport(("a",), (), ("b",))
    assert CheckReport(("a",), skipped=("b",), failed=()) == report
    assert CheckReport(skipped=("b",), passed=("a",), failed=()) == report
    assert (report.passed, report.failed, report.skipped) == (("a",), (), ("b",))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CheckReport((), (), (), ()), r"CheckReport\(\) takes 3 arguments but 4 were given"),
        (
            lambda: CheckReport((), (), (), extra=()),
            r"CheckReport\(\) got an unexpected keyword argument 'extra'",
        ),
        (
            lambda: CheckReport((), (), (), passed=()),
            r"CheckReport\(\) got multiple values for argument 'passed'",
        ),
        (lambda: CheckReport((), failed=()), r"CheckReport\(\) missing arguments: 'skipped'"),
        (lambda: LinkingTask("borromean.lnk"), r"LinkingTask\(\) missing arguments: 'axis'"),
        (
            lambda: EmbeddedTorus("Tz", IntVector((0, 0, 1)), LAGRANGIAN),
            r"EmbeddedTorus\(\) missing arguments: 'dual', 'parallel_copies_available'",
        ),
    ],
)
def test_generic_constructor_rejects_bad_arguments(build, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        build()


def test_records_differ_by_field_and_class():
    assert IntVector((1, 2)) != IntVector((1, 3))
    assert Gluing("Tz", 1, 1) != Gluing("Ty", 1, 1)
    assert EnumerateTask("r") != SolveTask("r")
    assert len({IntVector((1, 2)), IntVector((1, 2)), IntVector((2, 1))}) == 2
    # A record hashes its fields, so one holding a list does not hash.
    with pytest.raises(TypeError, match="unhashable"):
        hash(SolveTask([3, 5]))


def test_derived_state_stays_out_of_equality_and_repr():
    curve = PolygonalCurve(TRIANGLE)
    other = PolygonalCurve(TRIANGLE)
    PolygonalLink((curve, PolygonalCurve(((5, 5, 5), (6, 5, 5), (5, 6, 5)))))
    assert curve._apart and not other._apart
    assert curve == other and hash(curve) == hash(other)
    assert curve._fields == ("vertices",)
    assert PairingMatrix(((0, 1), (1, 0)))._fields == ("entries",)
    assert IntVector((1, 0))._fields == ("coords",)


def test_reprs_have_dataclass_form():
    assert repr(IntVector((1, -2))) == "IntVector(coords=(1, -2))"
    assert repr(DivisibilityReport(3, 3)) == "DivisibilityReport(lower=3, upper=3)"
    assert repr(Gluing("Tz", 2, 1)) == "Gluing(torus_label='Tz', copies=2, plus=1)"
    assert repr(PairingMatrix(((0, 1), (1, None)))) == "PairingMatrix(entries=((0, 1), (1, None)))"
    assert repr(LinkingTask("a", None)) == "LinkingTask(link='a', axis=None)"
    assert repr(EnumerateTask("r")) == "EnumerateTask(recipe='r')"
    assert repr(PolygonalCurve(((0, 0, 0), (1, 0, 0), (0, 1, 0)))).startswith(
        "PolygonalCurve(vertices=((Fraction(0, 1), Fraction(0, 1), Fraction(0, 1)), "
    )
    assert repr(build_t4().tori[0]) == (
        "EmbeddedTorus(label='Tx', klass=IntVector(coords=(1, 0, 0, 0, 0, 0)), "
        "kind='symplectic', dual=IntVector(coords=(0, 0, 0, 1, 0, 0)), "
        "parallel_copies_available=True)"
    )


def test_replace_reruns_the_constructor_checks():
    report = DivisibilityReport(3, 3)
    assert replace(report, lower=1, upper=1) == DivisibilityReport(1, 1)
    with pytest.raises(ValueError, match="lower bound 3 does not divide upper bound 4"):
        replace(report, upper=4)
    with pytest.raises(TypeError):
        replace(report, no_such_field=1)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: PairingMatrix(((0, 1), (1,))), ValueError, "pairing matrix not square: row 1 has 1 entries"),
        (lambda: PairingMatrix(((0, 1), (2, 0))), ValueError, r"pairing matrix not symmetric at \(0,1\)"),
        (lambda: DivisibilityReport(-1, 0), ValueError, "divisibility bounds must be nonnegative"),
        (lambda: DivisibilityReport(2, 3), ValueError, "lower bound 2 does not divide upper bound 3"),
        (
            lambda: DivisibilityReport(0, 2),
            ValueError,
            "undefined report must be all-zero, got upper bound 2",
        ),
        (lambda: Gluing("Tx", 0, 0), RecipeError, "gluing along Tx: copies must be positive"),
        (lambda: Gluing("Tx", 1, 2), RecipeError, r"gluing along Tx: plus count 2 is not in 0\.\.1"),
        (
            lambda: SumRecipe(T4, (Gluing("Tx", 1, 0),)),
            RecipeError,
            r"gluing along Tx: orientation not flippable \(symplectic torus\)",
        ),
        (
            lambda: SumRecipe(T4, (Gluing("Tx", 1, 1), Gluing("Tq", 1, 1))),
            RecipeError,
            "gluing references undeclared torus Tq",
        ),
        (
            lambda: replace(T4, tori=(TX, TY, TX)),
            ValueError,
            "manifold 'T4' is inconsistent: torus Tx: duplicate label",
        ),
        (
            lambda: replace(T4, lattice_basis_labels=("Tx",)),
            ValueError,
            "pairing dimension does not match basis labels",
        ),
        (
            lambda: replace(T4, c1=IntVector((0,))),
            ValueError,
            "c1 length does not match tracked lattice rank",
        ),
        (
            lambda: PolygonalCurve(((0, 0, 0), (1, 0, 0))),
            EmbeddingError,
            "a closed polygonal curve needs at least 3 vertices",
        ),
    ],
)
def test_constructor_checks_raise(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_cli_jobs_never_import_dataclasses(tmp_path):
    # On Python 3.11 importing dataclasses and building records with it
    # costs about 23 ms per process; a fresh interpreter shows whether
    # any module pulls it in.
    script = """
import sys

import fibresum
from fibresum.cli import main

assert "dataclasses" not in sys.modules, "on import"
for argv in (
    ["run", "--config", "corollary15.cfg"],
    ["linking", "--link", "borromean.lnk", "--axis", "axis.lnk"],
):
    assert main(argv) == 0, argv
    assert "dataclasses" not in sys.modules, argv
print("no dataclasses", file=sys.stderr)
"""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert "no dataclasses" in proc.stderr
