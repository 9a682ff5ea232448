"""Reports for the bundled inputs, compared byte for byte.

Each case's ``tests/golden/<case>.json`` is the stdout of one CLI run
with ``--output machine``, and its ``<case>.txt`` the stdout of the same
run with ``--output table``. A change that alters any of them must
regenerate the file on purpose and say why.
"""

import contextlib
import io
from pathlib import Path

import pytest

from fibresum.cli import main

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
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("golden", sorted(CASES))
def test_machine_report_matches_golden(golden, tmp_path, monkeypatch):
    # An empty working directory, so the bundled names resolve to the
    # files shipped with the package.
    monkeypatch.chdir(tmp_path)
    assert _stdout(CASES[golden] + ["--output", "machine"]) == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("golden", sorted(CASES))
def test_table_report_matches_golden(golden, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    table = Path(golden).with_suffix(".txt").name
    assert _stdout(CASES[golden] + ["--output", "table"]) == (GOLDEN / table).read_bytes()
