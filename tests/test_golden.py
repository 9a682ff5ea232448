"""Reports for the bundled inputs, compared byte for byte.

Each case's ``tests/golden/<case>.json`` is the stdout of one CLI run
with ``--output machine``, and its ``<case>.txt`` the stdout of the same
run with ``--output table``. A change that alters any of them must
regenerate the file on purpose and say why.

The file also runs without pytest, on any supported Python:

    python3 tests/test_golden.py

replays every case in both formats from an empty temporary directory
and exits 1 naming the first report that differs.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "corollary15.json": ["run", "--config", "corollary15.cfg"],
    "mcmullen_taubes.json": ["run", "--config", "mcmullen_taubes.cfg"],
    "solve35.json": ["run", "--config", "solve35.cfg"],
    "borromean_linking.json": ["linking", "--link", "borromean.lnk", "--axis", "axis.lnk"],
    # Seeded refinements with perturbed rational vertices, so the exact
    # geometry works with large denominators.
    "borromean16_linking.json": [
        "linking",
        "--link",
        str(GOLDEN / "borromean16.lnk"),
        "--axis",
        str(GOLDEN / "borromean16-axis.lnk"),
    ],
    "hopf32_linking.json": ["linking", "--link", str(GOLDEN / "hopf32.lnk")],
    # A custom record and T4 verify, build and enumerate tasks: covers the
    # build report's per-gluing copies and its c1 trace.
    "build.json": ["run", "--config", str(GOLDEN / "build.cfg")],
    # A small record like the benchmark's `wide` ones: every sign assignment
    # is a distinct form, and one identity check per dual class is skipped.
    "wide3.json": ["run", "--config", str(GOLDEN / "wide3.cfg")],
    # Records that are not simply connected, whose forms include bounds
    # that do not meet and the zero class: reports exact = false and
    # undefined = true, and a nonzero inexact count.
    "inexact.json": ["run", "--config", str(GOLDEN / "inexact.cfg")],
}


def _stdout(argv):
    """The exit code and the standard output of one CLI run."""
    from fibresum.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


def _expected(golden, output):
    """The golden file of a case's report in one output format."""
    name = golden if output == "machine" else Path(golden).with_suffix(".txt").name
    return GOLDEN / name


def pytest_generate_tests(metafunc):
    # Parametrized here rather than by decorator, so running the file as a
    # script needs no pytest.
    if "golden" in metafunc.fixturenames:
        metafunc.parametrize("golden", sorted(CASES))


def test_machine_report_matches_golden(golden, tmp_path, monkeypatch):
    # An empty working directory, so the bundled names resolve to the
    # files shipped with the package.
    monkeypatch.chdir(tmp_path)
    expected = _expected(golden, "machine").read_bytes()
    assert _stdout(CASES[golden] + ["--output", "machine"]) == (0, expected)


def test_table_report_matches_golden(golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = _expected(golden, "table").read_bytes()
    assert _stdout(CASES[golden] + ["--output", "table"]) == (0, expected)


def replay() -> int:
    """Every case in both formats, from an empty temporary directory:
    0 when all match, else 1 after naming the first that differs."""
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as empty:
        os.chdir(empty)
        try:
            for golden in sorted(CASES):
                for output in ("machine", "table"):
                    expected = _expected(golden, output)
                    code, got = _stdout(CASES[golden] + ["--output", output])
                    if (code, got) != (0, expected.read_bytes()):
                        print(f"mismatch: {expected.name} (exit {code})", file=sys.stderr)
                        return 1
        finally:
            os.chdir(start)
    print(f"{2 * len(CASES)} golden reports match", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(replay())
