"""The config parser: each error with its whole `path:line: message`,
the record and gate problems a config can reach, and the README's key
listing."""

import json
import re
import sys
from pathlib import Path

import pytest

from fibresum import fourman
from fibresum.cli import main
from fibresum.config import parse_config, parse_config_text
from fibresum.errors import ConfigError
from fibresum.fourman import build_t4
from fibresum.gompfsum import Gluing, SumRecipe, sum_invariants
from fibresum.settings import KEYS, bundled_path
from fibresum.theoremreport import manifold_doc

README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().parent / "golden"

T4 = "[manifold T4]\nbuiltin = T4\n"
# A valid simply connected record of rank 2 on lines 1 to 9.
M = (
    "[manifold M]\neuler = 4\nsignature = 0\nb1 = 0\nb2 = 2\nbasis = A B\n"
    "pairing_row = 0 1\npairing_row = 1 0\nsimply_connected = true\n"
)
TORUS_A = "[torus A]\nmanifold = M\nclass = 1 0\nkind = lagrangian\ndual = 0 1\n"
SOLVE = "[task solve]\nprimes = 3\n"
# A torus that the config gives the builtin T4, on lines 3 to 6.
TXY = "[torus Txy]\nmanifold = T4\nclass = 1 1 0 0 0 0\nkind = symplectic\n"

# The interpreter's limit on the digits `int()` converts, 0 for none
# (Python 3.10 before 3.10.7, or PYTHONINTMAXSTRDIGITS=0).
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
# An integer past that limit, of INT_DIGITS + 1 digits.
LONG = "1" + "0" * INT_DIGITS

# A bad value is reported at its key's line, a problem of the whole
# section at the section's header.
ERRORS = [
    ("[manifold T4\n", "cfg:1: unterminated section header"),
    ("seed = 0\n[ ]\n", "cfg:2: empty section header"),
    ("[task solve now]\n", "cfg:1: section header takes at most two words"),
    ("= 3\n", "cfg:1: empty key"),
    ("# comment\nnot a pair\n", "cfg:2: expected 'key = value', got 'not a pair'"),
    ("output = json\n", "cfg:1: output must be 'table' or 'machine', got 'json'"),
    ("seed = x\n", "cfg:1: seed: expected an integer, got 'x'"),
    ("cap = 0\n", "cfg:1: cap must be positive"),
    ("seed = -1\n", "cfg:1: seed must be nonnegative"),
    (
        M.replace("= true", "= maybe") + SOLVE,
        "cfg:9: simply_connected: expected a boolean, got 'maybe'",
    ),
    (
        M + TORUS_A + "parallel = often\n" + SOLVE,
        "cfg:15: parallel: expected a boolean, got 'often'",
    ),
    # An empty boolean is no boolean, not false.
    (M.replace("= true", "=") + SOLVE, "cfg:9: simply_connected: expected a boolean, got ''"),
    (M + TORUS_A + "parallel =\n" + SOLVE, "cfg:15: parallel: expected a boolean, got ''"),
    # An integer is an optional sign and ASCII digits, nothing `int()` also takes.
    ("seed = 1_0\n", "cfg:1: seed: expected an integer, got '1_0'"),
    (
        T4 + "[task verify]\nmanifold = T4\ntori = Tz Tx Ty\nsum = Tw\nn = \uff15\n",
        "cfg:7: n: expected an integer, got '\uff15'",
    ),
    (T4 + "[recipe r]\nmanifold = T4\nglue = Tz x\n", "cfg:5: expected a sign (+ or -), got 'x'"),
    ("[widget w]\n" + SOLVE, "cfg:1: unknown section kind 'widget'"),
    (
        "[task frobnicate]\n",
        "cfg:1: unknown task kind 'frobnicate' (verify, build, enumerate, solve, linking)",
    ),
    ("[manifold]\nbuiltin = T4\n", "cfg:1: manifold section needs a name"),
    (T4 + "[torus]\nmanifold = T4\n", "cfg:3: torus section needs a name"),
    (T4 + "[recipe]\nmanifold = T4\n", "cfg:3: recipe section needs a name"),
    (T4 + T4, "cfg:3: manifold 'T4' defined twice"),
    (T4 + "[torus Tx]\nmanifold = T4\n", "cfg:3: torus 'Tx' on 'T4' defined twice"),
    # A builtin is checked with the tori a config gives it, at its header.
    (
        T4 + TXY.replace("1 1 0 0", "1 0 0 1") + SOLVE,
        "cfg:1: manifold 'T4' is inconsistent: torus Txy: not square-zero (self-pairing 2)",
    ),
    (
        T4 + "[recipe r]\nmanifold = T4\nglue = Tz +\n" * 2,
        "cfg:6: recipe 'r' defined twice",
    ),
    ("[manifold K]\nbuiltin = K3\n", "cfg:2: unknown builtin 'K3' (available: T4, E1)"),
    (M.replace("euler = 4", "euler = x"), "cfg:2: euler: expected an integer, got 'x'"),
    (
        M.replace("pairing_row = 1 0", "pairing_row = 1 x"),
        "cfg:8: pairing entry: expected an integer, got 'x'",
    ),
    (
        M.replace("pairing_row = 1 0", "pairing_row = 1 0 0"),
        "cfg:8: pairing row has 3 entries, expected 2",
    ),
    (M.replace("pairing_row = 1 0\n", ""), "cfg:1: manifold 'M' needs 2 pairing rows, got 1"),
    (
        M.replace("pairing_row = 1 0", "pairing_row = 2 0"),
        "cfg:1: pairing matrix not symmetric at (0,1)",
    ),
    (M + "c1 = 1 0 0\n", "cfg:1: c1 length does not match tracked lattice rank"),
    (
        M + TORUS_A.replace("lagrangian", "spiky"),
        "cfg:13: torus kind must be 'symplectic' or 'lagrangian', got 'spiky'",
    ),
    (
        T4 + "[recipe r]\nmanifold = T4\nglue = Tz\n",
        "cfg:5: glue needs a torus label and at least one sign",
    ),
    (
        T4 + "[recipe r]\nmanifold = T4\nglue = Tq +\n",
        "cfg:5: unknown torus 'Tq' on manifold 'T4'",
    ),
    ("[task solve]\nprimes =\n", "cfg:2: solve task needs at least one prime"),
    ("[torus F]\nmanifold = K\n", "cfg:2: unknown manifold 'K'"),
    ("[recipe r]\nmanifold = K\n", "cfg:2: unknown manifold 'K'"),
    ("[task verify]\nmanifold = K\ntori = Tz\nsum = Tz\nn = 3\n", "cfg:2: unknown manifold 'K'"),
    (
        T4 + "[task verify]\nmanifold = T4\nsum = Tw\ntori = Tz Tq\nn = 3\n",
        "cfg:6: unknown torus 'Tq' on manifold 'T4'",
    ),
    (
        T4 + "[task verify]\nmanifold = T4\ntori = Tz Tx Ty\nn = 3\nsum = Tq\n",
        "cfg:7: unknown torus 'Tq' on manifold 'T4'",
    ),
    (T4 + "[task enumerate]\nrecipe = r\n", "cfg:4: unknown recipe 'r'"),
    # A repeated key is reported at its second line.
    ("[task solve]\nprimes = 3\nprimes = 5\n", "cfg:3: duplicate key 'primes' in [task solve]"),
    ("[task solve]\n", "cfg:1: missing key 'primes' in [task solve]"),
    ("seed = 0\n", "cfg: no tasks"),
    (
        M.replace("euler = 4", "euler = 5") + SOLVE,
        "cfg:1: manifold 'M' is inconsistent: M: euler = 5 != 2 - 2*b1 + b2 = 4",
    ),
    # The gate's preconditions, at their key's line.
    (
        T4 + "[task verify]\nmanifold = T4\ntori = Tz Tx Ty\nsum = Tw\nn = 2\n",
        "cfg:7: the construction needs n > 2",
    ),
    (
        T4 + "[task build]\nmanifold = T4\ntori =\nsum = Tw\nn = 3\n",
        "cfg:5: at least one torus is required",
    ),
    # A gluing that breaks a recipe's rules is reported at its glue line;
    # copies count per torus, so the fault is the line taking it past one.
    (
        T4 + "[recipe r]\nmanifold = T4\nglue = Tx -\n",
        "cfg:5: recipe 'r' is invalid: gluing along Tx: orientation not flippable (symplectic torus)",
    ),
    (
        M + TORUS_A + "[recipe r]\nmanifold = M\nglue = A + +\n" + SOLVE,
        "cfg:17: recipe 'r' is invalid: gluing along A: 2 parallel copies requested but none declared available",
    ),
    (
        M + TORUS_A + "[recipe r]\nmanifold = M\nglue = A +\nglue = A -\nglue = A +\n" + SOLVE,
        "cfg:18: recipe 'r' is invalid: gluing along A: 3 parallel copies requested but none declared available",
    ),
]

# An integer past the interpreter's digit limit is a bad value at its key.
if INT_DIGITS:
    ERRORS += [
        (f"seed = {LONG}\n", f"cfg:1: seed: integer too long ({INT_DIGITS + 1} digits)"),
        (f"cap = +{LONG}\n", f"cfg:1: cap: integer too long ({INT_DIGITS + 1} digits)"),
        (M.replace("euler = 4", f"euler = -{LONG}"), f"cfg:2: euler: integer too long ({INT_DIGITS + 1} digits)"),
        (
            T4 + f"[task verify]\nmanifold = T4\ntori = Tz Tx Ty\nsum = Tw\nn = {LONG}\n",
            f"cfg:7: n: integer too long ({INT_DIGITS + 1} digits)",
        ),
        (f"[task solve]\nprimes = 3 {LONG}\n", f"cfg:2: primes: integer too long ({INT_DIGITS + 1} digits)"),
    ]


@pytest.mark.parametrize("text, expected", ERRORS, ids=[e for _, e in ERRORS])
def test_each_config_error_names_its_line(text, expected):
    with pytest.raises(ConfigError) as info:
        parse_config_text(text, path="cfg")
    assert str(info.value) == expected


def _run(tmp_path, text, *argv):
    """Exit code of `argv --config` on `text`, and the config's path."""
    path = tmp_path / "case.cfg"
    path.write_text(text)
    return main([*argv, "--config", str(path)]), path


@pytest.mark.parametrize(
    "text, error",
    [
        (
            M.replace("simply_connected", "simply_conected") + SOLVE,
            ":9: unknown key 'simply_conected' in [manifold M]",
        ),
        (T4 + "euler = 5\n" + SOLVE, ":3: unknown key 'euler' in [manifold T4]"),
        (
            T4 + "[recipe r]\nmanifold = T4\nglue = Tz +\n[task enumerate]\nrecipe = r\ncap = 1\n",
            ":8: unknown key 'cap' in [task enumerate]",
        ),
    ],
    ids=["simply_conected", "euler-beside-builtin", "cap-in-task"],
)
def test_unknown_section_key_exits_2_naming_the_key_and_its_line(text, error, tmp_path, capsys):
    code, path = _run(tmp_path, text, "run")
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}{error}\n"


HYPERBOLIC = "pairing_row = 0 1\npairing_row = 1 0\n"
UNTRACKED = "pairing_row = 0 ?\npairing_row = ? 0\n"
# The record M with torus A, its pairing rows swapped in below.
RECORD = M.replace(HYPERBOLIC, "{rows}") + TORUS_A + SOLVE

# The record M, not declared simply connected.
M_OPEN = M.replace("simply_connected = true\n", "")

RECORD_PROBLEMS = [
    # Each record below keeps euler = 2 - 2*b1 + b2, so that its one
    # problem is the only one.
    (
        M_OPEN.replace("euler = 4", "euler = 6").replace("b1 = 0", "b1 = -1") + SOLVE,
        "M: negative Betti number",
    ),
    (
        M.replace("euler = 4", "euler = 0").replace("b1 = 0", "b1 = 2") + SOLVE,
        "M: simply connected but b1 = 2",
    ),
    # Not simply connected, yet held to Poincare duality: at load, not
    # only once a gluing derives a negative b2 for the sum.
    (
        M_OPEN.replace("euler = 4", "euler = -30").replace("b2 = 2", "b2 = 0")
        + TORUS_A
        + "[recipe x]\nmanifold = M\nglue = A +\n[task enumerate]\nrecipe = x\n",
        "M: euler = -30 != 2 - 2*b1 + b2 = 2",
    ),
    (
        RECORD.format(rows="pairing_row = ? 1\npairing_row = 1 0\n"),
        "torus A: self-pairing not tracked",
    ),
    (
        RECORD.format(rows=HYPERBOLIC).replace("dual = 0 1", "dual = 0 1 0"),
        "torus A: dual length 3 != rank 2",
    ),
    (RECORD.format(rows=UNTRACKED), "torus A: pairing with dual not tracked"),
    (
        RECORD.format(rows=HYPERBOLIC).replace("dual = 0 1", "dual = 0 2"),
        "torus A: dual pairs to 2, expected 1",
    ),
    (
        RECORD.format(rows="c1 = 0 1\n" + UNTRACKED).replace("dual = 0 1\n", ""),
        "torus A: adjunction pairing <c1, T> not tracked",
    ),
    # Each label names one class, so each identity check has its own name.
    (M.replace("basis = A B", "basis = F F") + SOLVE, "M: duplicate basis label 'F'"),
    (
        RECORD.format(rows=HYPERBOLIC).replace("[torus A]", "[torus B]"),
        "torus B: named after basis class B but carries (1, 0)",
    ),
]


@pytest.mark.parametrize("text, problem", RECORD_PROBLEMS, ids=[p for _, p in RECORD_PROBLEMS])
def test_record_problems_in_a_config_exit_2(text, problem, tmp_path, capsys):
    code, path = _run(tmp_path, text, "run")
    assert code == 2
    # Line 1 holds the `[manifold M]` header.
    assert capsys.readouterr().err == f"error: {path}:1: manifold 'M' is inconsistent: {problem}\n"


def test_a_verify_task_on_a_torus_the_record_lacks_exits_2_at_its_tori_line(tmp_path, capsys):
    text = T4 + "[task verify]\nmanifold = T4\ntori = Tz Tq\nsum = Tw\nn = 3\n"
    code, path = _run(tmp_path, text, "verify")
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}:5: unknown torus 'Tq' on manifold 'T4'\n"


def test_a_glue_line_reads_plus_one_and_minus_one_as_its_signs():
    recipes = [
        parse_config_text(T4 + f"[recipe r]\nmanifold = T4\nglue = Tz {signs}\n[task enumerate]\nrecipe = r\n").recipes["r"]
        for signs in ("+1 -1", "+ -", "- +1")
    ]
    assert recipes[0] == recipes[1] == recipes[2]
    assert recipes[0].gluings == (Gluing("Tz", 2, 1),)


@pytest.mark.parametrize(
    "path, checked",
    [(GOLDEN / "wide3.cfg", [("M", 3)]), (bundled_path("corollary15.cfg"), [("T4", 4)])],
    ids=["wide3", "corollary15"],
)
def test_loading_a_config_checks_each_record_once(path, checked, monkeypatch):
    calls = []
    violations = fourman._violations

    def counted(manifold):
        calls.append((manifold.name, len(manifold.tori)))
        return violations(manifold)

    monkeypatch.setattr(fourman, "_violations", counted)
    parse_config(path)
    assert calls == checked


def test_a_builtin_holds_the_tori_a_config_gives_it():
    config = parse_config_text(T4 + TXY + "[recipe r]\nmanifold = T4\nglue = Txy +\n" + SOLVE)
    assert [t.label for t in config.manifolds["T4"].tori] == ["Tx", "Ty", "Tz", "Tw", "Txy"]
    assert config.recipes["r"].base is config.manifolds["T4"]


def test_a_sum_through_the_api_is_the_record_that_enumerate_prints(tmp_path, capsys):
    # Both glue Tz and Tw on the base with its four tori; whether the
    # values are the true ones is another matter.
    text = T4 + "[recipe r]\nmanifold = T4\nglue = Tz +\nglue = Tw +\n[task enumerate]\nrecipe = r\n"
    code, _ = _run(tmp_path, text, "run", "--output", "machine")
    assert code == 0
    summed = sum_invariants(SumRecipe(build_t4(), (Gluing("Tz", 1, 1), Gluing("Tw", 1, 1)), "r"))
    assert json.loads(capsys.readouterr().out)["manifold"] == manifold_doc(summed)


# Two hyperbolic pairs F1.G1 = F2.G2 = 1, with tori on F1 (Lagrangian),
# F2, F1 + F2 and the zero class.
PAIRS = (
    "[manifold P]\neuler = 6\nsignature = 0\nb1 = 0\nb2 = 4\nbasis = F1 F2 G1 G2\n"
    "pairing_row = 0 0 1 0\npairing_row = 0 0 0 1\npairing_row = 1 0 0 0\n"
    "pairing_row = 0 1 0 0\nsimply_connected = true\n"
    "[torus T1]\nmanifold = P\nclass = 1 0 0 0\nkind = lagrangian\ndual = 0 0 1 0\n"
    "[torus T2]\nmanifold = P\nclass = 0 1 0 0\nkind = symplectic\ndual = 0 0 0 1\n"
    "[torus S]\nmanifold = P\nclass = 1 1 0 0\nkind = symplectic\ndual = 0 0 1 0\n"
    "[torus Z]\nmanifold = P\nclass = 0 0 0 0\nkind = lagrangian\n"
)


GATE_REASONS = [
    (
        T4 + "[task verify]\nmanifold = T4\ntori = Tz Tx Tz\nsum = Tw\nn = 3\n",
        "classes span rank 2, expected 3",
    ),
    (
        PAIRS.replace("simply_connected", "c1 = 2 0 0 0\nsimply_connected")
        + "[task verify]\nmanifold = P\ntori = T1 T2\nsum = S\nn = 3\n",
        "n = 3 does not divide the c1 divisibility 2",
    ),
    (
        PAIRS + "[task verify]\nmanifold = P\ntori = Z T2\nsum = T2\nn = 3\n",
        "first torus Z is null-homologous",
    ),
]


@pytest.mark.parametrize("text, reason", GATE_REASONS, ids=[r for _, r in GATE_REASONS])
def test_gate_reasons_exit_2_and_fail_a_check(text, reason, tmp_path, capsys):
    code, _ = _run(tmp_path, text, "verify", "--output", "machine")
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    failed = [check.get("detail", "") for check in doc["checks"] if check["status"] == "fail"]
    assert any(reason in detail.split("; ") for detail in failed), failed


def test_readme_config_block_lists_every_key_and_parses():
    section = README.read_text(encoding="utf-8").split("## Configuration format", 1)[1]
    block = section.split("```ini\n", 1)[1].split("```", 1)[0]
    listed = set(re.findall(r"^(\w+) =", block, flags=re.MULTILINE))
    keys = {key.rstrip("*") for entry in KEYS.values() for key in entry.split()}
    assert sorted(keys - listed) == []
    config = parse_config_text(block)
    assert [task.kind for task in config.tasks] == ["verify", "enumerate", "solve", "linking"]
