"""Tests of the benchmark itself: input generation, oracles and tracing.

    python3 -m pytest bench -q

Tests that run the program need the package sources under ``src``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types

import pytest

import inputs
import oracles
import run
import tracer

needs_src = pytest.mark.skipif(
    not (run.SRC / "fibresum" / "__init__.py").is_file(), reason="package sources absent"
)


def _files(workload: str, seed: int) -> dict[str, str]:
    out = {}
    for index in range(2):
        for job in inputs.cycle(workload, seed, index):
            out.update(job.files)
            out[job.name] = json.dumps([job.argv, job.check, job.expect])
    return out


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = _files(workload, 7)
    assert first == _files(workload, 7)
    for job in inputs.cycle(workload, 7, 0):
        inputs.write_files(job, tmp_path)
        for name, text in job.files.items():
            assert (tmp_path / name).read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_gives_other_inputs_with_the_same_job_mix(workload):
    a, b = inputs.cycle(workload, 1, 0), inputs.cycle(workload, 2, 0)
    assert [j.name for j in a] == [j.name for j in b]
    assert _files(workload, 1) != _files(workload, 2)


def _run_cli(argv, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    return subprocess.run(
        [sys.executable, "-m", "fibresum", *argv], cwd=cwd, env=env, capture_output=True, text=True
    )


@needs_src
@pytest.mark.parametrize("seed", [1, 2])
def test_oracles_accept_the_program_on_small_jobs_of_any_seed(seed, tmp_path):
    small = {"c0-collapse9", "c0-wide7", "c0-borromean8", "c0-hopf8"}
    jobs = [j for w in inputs.WORKLOADS for j in inputs.cycle(w, seed, 0) if j.name in small]
    assert len(jobs) == len(small)
    for job in jobs:
        inputs.write_files(job, tmp_path)
        proc = _run_cli(job.argv, tmp_path)
        assert oracles.check(job.check, job.expect, proc.returncode, proc.stdout) == [], job.name


def test_collapse_oracle_hand_cases():
    # corollary15.cfg: Tx once, Ty once, Tz once and Tw twice (a = b = 1, m = 2).
    cor15 = oracles.collapse_expected(1, 1, 2)
    assert len(cor15) == 4
    assert sorted(set(cor15.values())) == [1, 3]
    # solve --primes 3,5: n = 15, sign sums -11 and -9, so 11 Tz copies.
    assert oracles.solve_shape([3, 5]) == (11, 15)
    solve = oracles.collapse_expected(1, 11, 14)
    assert len(solve) == 24
    assert sorted(set(solve.values())) == [1, 3, 5, 15]


def test_wide_oracle_hand_case():
    # c1 = (3, 5): c - e ranges over (2|4, 4|6), with gcds 2, 2, 4, 2.
    assert oracles.wide_divisibilities([3, 5]) == [2, 4]
    assert len(oracles.wide_expected([3, 5])) == 4


@needs_src
def test_oracles_on_bundled_inputs(tmp_path):
    proc = _run_cli(["run", "--config", "corollary15.cfg", "--output", "machine"], tmp_path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["divisibilities"] == ["1", "3"]

    proc = _run_cli(
        ["linking", "--link", "borromean.lnk", "--axis", "axis.lnk", "--output", "machine"], tmp_path
    )
    expect = inputs.cycle("linking", 0, 0)[0].expect
    assert expect["relation"] == [1, 1, 1]
    assert oracles.check("linking", expect, proc.returncode, proc.stdout) == []
    tampered = proc.stdout.replace('"relation": [\n        "1"', '"relation": [\n        "2"')
    assert tampered != proc.stdout
    assert oracles.check("linking", expect, 0, tampered) != []
    assert oracles.check("linking", expect, 2, proc.stdout) == ["exit code 2, expected 0"]


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


INNER = """
__all__ = ["inner", "removed_helper"]

def inner(x):
    clock.now += 2.0
    if x < 0:
        raise ValueError("negative")
    return [x]
"""

OUTER = """
__all__ = ["outer"]

def outer(x):
    clock.now += 1.0
    value = inner(x)
    clock.now += 3.0
    return value
"""


def _toy_layers(clock: _Clock) -> dict:
    """Two toy layers: construct.outer calls gompfsum.inner through its own
    module-level reference, the way fibresum layers import each other.
    gompfsum lists a public name that no longer exists."""
    inner_mod = types.ModuleType("toy.gompfsum")
    inner_mod.clock = clock
    exec(INNER, vars(inner_mod))
    outer_mod = types.ModuleType("toy.construct")
    outer_mod.clock = clock
    outer_mod.inner = inner_mod.inner
    exec(OUTER, vars(outer_mod))
    return {"gompfsum": inner_mod, "construct": outer_mod}


def test_self_time_of_a_nested_call():
    clock = _Clock()
    modules = _toy_layers(clock)
    original = modules["gompfsum"].inner
    t = tracer.Tracer(clock=clock)
    patched = tracer.install(t, modules, extra_methods={})
    try:
        assert modules["construct"].inner is modules["gompfsum"].inner is not original
        result = modules["construct"].outer(5)
    finally:
        tracer.uninstall(patched)
    assert result == [5]
    assert t.total_s["construct.outer"] == 6.0
    assert t.self_s["construct.outer"] == 4.0
    assert t.self_s["gompfsum.inner"] == 2.0
    assert t.layer_totals("construct") == (4.0, 1, 0)
    assert t.layer_totals("gompfsum") == (2.0, 1, 0)
    assert modules["construct"].inner is original


def test_wrappers_keep_values_and_exceptions():
    clock = _Clock()
    modules = _toy_layers(clock)
    original = modules["gompfsum"].inner
    t = tracer.Tracer(clock=clock)
    patched = tracer.install(t, modules, extra_methods={})
    try:
        wrapped = modules["gompfsum"].inner
        assert wrapped is not original and wrapped.__wrapped__ is original
        value = wrapped(3)
        assert value == [3]
        with pytest.raises(ValueError, match="negative"):
            wrapped(-1)
    finally:
        tracer.uninstall(patched)
    assert modules["gompfsum"].inner is original
    assert t.calls["gompfsum.inner"] == 2
    assert t.errors["gompfsum.inner"] == 1
    assert not t.stack


def test_failing_observer_is_counted_not_raised():
    clock = _Clock()
    modules = _toy_layers(clock)
    t = tracer.Tracer(clock=clock)
    t.observers["gompfsum.inner"] = lambda *_: 1 / 0
    patched = tracer.install(t, modules, extra_methods={})
    try:
        assert modules["gompfsum"].inner(1) == [1]
    finally:
        tracer.uninstall(patched)
    assert t.counters["trace.observer_failures"] == 1


def test_tail_keeps_ten_jobs_beyond():
    times = [float(i) for i in range(1, 31)]
    assert run.tail(times) == (20.0, 100.0 * 20 / 30)
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100.0)


def test_a_run_holds_the_rounded_number_of_cycles():
    def cycles(cycle_s, seconds):
        done = 0
        while inputs.another_cycle(done * cycle_s, done, seconds):
            done += 1
        return done

    assert cycles(17.0, 35) == 2
    assert cycles(4.5, 35) == 8
    assert cycles(40.0, 35) == 1
