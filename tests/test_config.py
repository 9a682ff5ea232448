"""The config parser: each error with its whole `path:line: message`,
the record and gate problems a config can reach, and the README's key
listing."""

import json
import re
from pathlib import Path

import pytest

from fibresum.cli import main
from fibresum.config import KEYS, parse_config_text
from fibresum.errors import ConfigError

README = Path(__file__).resolve().parents[1] / "README.md"

T4 = "[manifold T4]\nbuiltin = T4\n"
# A valid simply connected record of rank 2 on lines 1 to 9.
M = (
    "[manifold M]\neuler = 4\nsignature = 0\nb1 = 0\nb2 = 2\nbasis = A B\n"
    "pairing_row = 0 1\npairing_row = 1 0\nsimply_connected = true\n"
)
TORUS_A = "[torus A]\nmanifold = M\nclass = 1 0\nkind = lagrangian\ndual = 0 1\n"
SOLVE = "[task solve]\nprimes = 3\n"

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
        "cfg:1: simply_connected: expected a boolean, got 'maybe'",
    ),
    (
        M + TORUS_A + "parallel = often\n" + SOLVE,
        "cfg:10: parallel: expected a boolean, got 'often'",
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
    (
        T4 + "[recipe r]\nmanifold = T4\nglue = Tz +\n" * 2,
        "cfg:6: recipe 'r' defined twice",
    ),
    ("[manifold K]\nbuiltin = K3\n", "cfg:1: unknown builtin 'K3' (available: T4, E1)"),
    (M.replace("euler = 4", "euler = x"), "cfg:1: euler: expected an integer, got 'x'"),
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
        "cfg:10: torus kind must be 'symplectic' or 'lagrangian', got 'spiky'",
    ),
    (
        T4 + "[recipe r]\nmanifold = T4\nglue = Tz\n",
        "cfg:5: glue needs a torus label and at least one sign",
    ),
    (
        T4 + "[recipe r]\nmanifold = T4\nglue = Tq +\n",
        "cfg:5: unknown torus 'Tq' on manifold 'T4'",
    ),
    ("[task solve]\nprimes =\n", "cfg:1: solve task needs at least one prime"),
    ("[torus F]\nmanifold = K\n", "cfg:1: unknown manifold 'K'"),
    ("[recipe r]\nmanifold = K\n", "cfg:1: unknown manifold 'K'"),
    ("[task verify]\nmanifold = K\ntori = Tz\nsum = Tz\nn = 3\n", "cfg:1: unknown manifold 'K'"),
    (
        T4 + "[task verify]\nmanifold = T4\ntori = Tz Tq\nsum = Tw\nn = 3\n",
        "cfg:3: unknown torus 'Tq' on manifold 'T4'",
    ),
    (T4 + "[task enumerate]\nrecipe = r\n", "cfg:3: unknown recipe 'r'"),
    ("[task solve]\nprimes = 3\nprimes = 5\n", "cfg:1: duplicate key 'primes' in [task solve]"),
    ("[task solve]\n", "cfg:1: missing key 'primes' in [task solve]"),
    ("seed = 0\n", "cfg: no tasks"),
    (
        M.replace("euler = 4", "euler = 5") + SOLVE,
        "cfg: manifold 'M' is inconsistent: M: simply connected but euler = 5 != 2 + b2 = 4",
    ),
    (
        T4 + "[recipe r]\nmanifold = T4\nglue = Tx -\n",
        "cfg:3: recipe 'r' is invalid: gluing along Tx: orientation not flippable (symplectic torus)",
    ),
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

RECORD_PROBLEMS = [
    (
        M.replace("b1 = 0", "b1 = -1").replace("simply_connected = true\n", "") + SOLVE,
        "M: negative Betti number",
    ),
    (M.replace("b1 = 0", "b1 = 2") + SOLVE, "M: simply connected but b1 = 2"),
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
]


@pytest.mark.parametrize("text, problem", RECORD_PROBLEMS, ids=[p for _, p in RECORD_PROBLEMS])
def test_record_problems_in_a_config_exit_2(text, problem, tmp_path, capsys):
    code, path = _run(tmp_path, text, "run")
    assert code == 2
    assert capsys.readouterr().err == f"error: {path}: manifold 'M' is inconsistent: {problem}\n"


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
