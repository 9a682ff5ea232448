"""Reports for the bundled inputs, compared byte for byte.

Each case's ``tests/golden/<case>.json`` is the stdout of one CLI run
with ``--output machine``, and its ``<case>.txt`` the stdout of the same
run with ``--output table``; both runs exit with the case's code. A
change that alters any of them must regenerate the file on purpose and
say why.

The file also runs without pytest, on any supported Python:

    python3 tests/test_golden.py

replays every case in both formats from an empty temporary directory
and exits 1 naming the first report or exit code that differs, with
both exit codes and the first line where the reports differ.
"""

import contextlib
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "corollary15.json": (0, ["run", "--config", "corollary15.cfg"]),
    # A run that fails part way prints what it did before the error: the
    # hypothesis report, then the enumeration's error, and exits 2.
    "corollary15_cap2.json": (2, ["run", "--config", "corollary15.cfg", "--cap", "2"]),
    "mcmullen_taubes.json": (0, ["run", "--config", "mcmullen_taubes.cfg"]),
    "solve35.json": (0, ["run", "--config", "solve35.cfg"]),
    "borromean_linking.json": (0, ["linking", "--link", "borromean.lnk", "--axis", "axis.lnk"]),
    # Seeded refinements with perturbed rational vertices, so the exact
    # geometry works with large denominators.
    "borromean16_linking.json": (
        0,
        [
            "linking",
            "--link",
            str(GOLDEN / "borromean16.lnk"),
            "--axis",
            str(GOLDEN / "borromean16-axis.lnk"),
        ],
    ),
    "hopf32_linking.json": (0, ["linking", "--link", str(GOLDEN / "hopf32.lnk")]),
    # A custom record and T4 verify, build and enumerate tasks: covers the
    # build report's per-gluing copies and its c1 trace.
    "build.json": (0, ["run", "--config", str(GOLDEN / "build.cfg")]),
    # A small record like the benchmark's `wide` ones: every sign assignment
    # is a distinct form, and one identity check per dual class is skipped.
    "wide3.json": (0, ["run", "--config", str(GOLDEN / "wide3.cfg")]),
    # Records that are not simply connected, whose forms include bounds
    # that do not meet and the zero class: reports exact = false and
    # undefined = true, and a nonzero inexact count.
    "inexact.json": (0, ["run", "--config", str(GOLDEN / "inexact.cfg")]),
}


def _run(golden, output):
    """The exit code and the standard output of a case's CLI run."""
    from fibresum.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(CASES[golden][1] + ["--output", output])
    return code, out.getvalue().encode("utf-8")


def _expected(golden, output):
    """A case's exit code and the golden file of its report in one
    output format."""
    name = golden if output == "machine" else Path(golden).with_suffix(".txt").name
    return CASES[golden][0], GOLDEN / name


def pytest_generate_tests(metafunc):
    # Parametrized here rather than by decorator, so running the file as a
    # script needs no pytest.
    if "golden" in metafunc.fixturenames:
        metafunc.parametrize("golden", sorted(CASES))


def test_machine_report_matches_golden(golden, tmp_path, monkeypatch):
    # An empty working directory, so the bundled names resolve to the
    # files shipped with the package.
    monkeypatch.chdir(tmp_path)
    code, expected = _expected(golden, "machine")
    assert _run(golden, "machine") == (code, expected.read_bytes())


def test_table_report_matches_golden(golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, expected = _expected(golden, "table")
    assert _run(golden, "table") == (code, expected.read_bytes())


def mismatch(name, expected, got) -> str:
    """What differs between a golden's (exit code, bytes) and a run's:
    both exit codes, and the first line that differs in both versions."""
    lines = [f"mismatch: {name} (exit {got[0]}, golden exit {expected[0]})"]
    pairs = itertools.zip_longest(expected[1].splitlines(True), got[1].splitlines(True))
    for number, pair in enumerate(pairs, 1):
        if pair[0] != pair[1]:
            golden, run = (
                "(end of report)" if text is None else text.decode("utf-8", "replace").rstrip("\n")
                for text in pair
            )
            lines += [f"  line {number}:", f"    golden: {golden}", f"    run:    {run}"]
            break
    return "\n".join(lines)


def replay() -> int:
    """Every case in both formats, from an empty temporary directory:
    0 when all match, else 1 after naming the first that differs."""
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as empty:
        os.chdir(empty)
        try:
            for golden in sorted(CASES):
                for output in ("machine", "table"):
                    code, expected = _expected(golden, output)
                    want = (code, expected.read_bytes())
                    got = _run(golden, output)
                    if got != want:
                        print(mismatch(expected.name, want, got), file=sys.stderr)
                        return 1
        finally:
            os.chdir(start)
    print(f"{2 * len(CASES)} golden reports match", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(replay())
