"""Seeded end-to-end benchmark of the fibresum command line.

    python3 bench/run.py --workload collapse --seed 1 --seconds 30 --trace 0

Run from anywhere; the checkout is the directory above this file, and the
program is run from its ``src`` tree. One closed-loop client runs one
``python -m fibresum`` job process at a time (the reference machine has
two cores) until ``--seconds`` have passed, always finishing the cycle of
jobs it started (see inputs.py). Every job's report is checked by an
oracle that does not use fibresum. With ``--trace 1`` the jobs run
in-process instead, with per-layer spans (see tracer.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it print each metric with its unit, and the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs
import oracles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

SETUP_REPEATS = 9
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs above it
RUN_DEADLINE_S = 160  # no job may still run this long after the run starts

# Shared machines change speed by up to 1.6x for seconds at a time (another
# tenant on the sibling hyperthread), which would swamp any change in the
# program. Every timed interval is therefore scaled to reference speed by a
# fixed pure-Python probe timed just before and just after it:
#   scaled = raw * REFERENCE_PROBE_S / mean(probe before, probe after).
# REFERENCE_PROBE_S is about the probe's time on an uncontended reference
# core, where scaled and raw times agree; raw times are printed too.
PROBE_LOOPS = 50_000
PROBE_REPEATS = 3
REFERENCE_PROBE_S = 0.003


def source_digest() -> str:
    """SHA-256 over the package sources, identifying the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "fibresum").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def probe() -> float:
    """Median time of a fixed integer loop: the host's current speed."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Scaler:
    """Scales consecutive timed intervals to reference speed; the probe
    after one interval is the probe before the next."""

    def __init__(self) -> None:
        self.last = probe()

    def scale(self, raw_s: float) -> float:
        after = probe()
        factor = REFERENCE_PROBE_S / ((self.last + after) / 2)
        self.last = after
        return raw_s * factor


def measure_setup(env: dict, workdir: Path) -> tuple[float, float]:
    """Median (scaled, raw) wall time of a fresh interpreter that imports
    fibresum and exits; one untimed import first writes byte-code caches."""
    command = [sys.executable, "-c", "import fibresum"]
    subprocess.run(command, env=env, cwd=workdir, check=True)
    scaler = Scaler()
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=workdir, check=True)
        raw.append(time.perf_counter() - start)
        scaled.append(scaler.scale(raw[-1]))
    return statistics.median(scaled), statistics.median(raw)


def run_job(job: inputs.Job, workdir: Path, env: dict, timeout: float) -> dict:
    """Spawn one CLI job, time it from spawn to exit, and take its own
    resource usage from wait4."""
    with open(workdir / f"{job.name}.stderr", "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "fibresum", *job.argv],
            cwd=workdir,
            env=env,
            stdout=subprocess.PIPE,
            stderr=stderr,
        )
        killer = threading.Timer(max(timeout, 0.1), proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    problems = oracles.check(job.check, job.expect, code, out.decode("utf-8", "replace"))
    if problems:
        problems.append("stderr: " + (workdir / f"{job.name}.stderr").read_text(errors="replace")[-300:])
    return {"name": job.name, "s": elapsed, "rss_kb": usage.ru_maxrss, "problems": problems}


def closed_loop(workload: str, seed: int, seconds: float, workdir: Path, env: dict) -> tuple[list[dict], float, int]:
    results: list[dict] = []
    start = time.perf_counter()
    scaler = Scaler()
    index = 0
    # Run length counts reference-speed seconds, so the number of cycles,
    # and with it the rank the tail percentile picks, does not follow the
    # host's speed.
    while inputs.another_cycle(sum(r["scaled_s"] for r in results), index, seconds):
        jobs = inputs.cycle(workload, seed, index)
        for job in jobs:
            inputs.write_files(job, workdir)
        for job in jobs:
            remaining = RUN_DEADLINE_S - (time.perf_counter() - start)
            if remaining <= 0:
                return results, time.perf_counter() - start, index + 1
            results.append(run_job(job, workdir, env, remaining))
            results[-1]["scaled_s"] = scaler.scale(results[-1]["s"])
        index += 1
    return results, time.perf_counter() - start, index


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least
    TAIL_BEYOND jobs beyond it; the maximum when there are too few jobs."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def timing_metrics(times: list[float], completed: int) -> dict[str, float]:
    """Throughput of the one closed-loop client, and per-job percentiles."""
    return {
        "jobs_per_s": completed / sum(times),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail(times)[0],
    }


def end_to_end(args, env: dict, workdir: Path) -> tuple[dict, int, int, dict]:
    setup_s, setup_raw_s = measure_setup(env, workdir)
    results, wall, cycles = closed_loop(args.workload, args.seed, args.seconds, workdir, env)
    failed = [r for r in results if r["problems"]]
    for r in failed[:5]:
        print(f"FAILED {r['name']}: {'; '.join(r['problems'])}", file=sys.stderr)
    completed = len(results) - len(failed)
    scaled = timing_metrics([r["scaled_s"] for r in results], completed)
    raw = timing_metrics([r["s"] for r in results], completed)
    tail_pct = tail([r["s"] for r in results])[1]
    units = {"setup_s": "s", "jobs_per_s": "1/s", "job_s_p50": "s", "job_s_tail": "s"}
    metrics = {"setup_s": (setup_s, "s")}
    metrics.update((name, (value, units[name])) for name, value in scaled.items())
    metrics["peak_rss_mb"] = (max(r["rss_kb"] for r in results) / 1024, "MB")
    raw["setup_s"] = setup_raw_s
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} import-only interpreters",
        "jobs_per_s": "completed jobs over summed job wall time",
        "job_s_p50": f"median of {len(results)} jobs",
        "job_s_tail": f"p{tail_pct:.1f} of {len(results)} jobs",
        "peak_rss_mb": "largest max-RSS of any job process",
    }
    print(f"{args.workload} seed {args.seed}: {len(results)} jobs in {cycles} cycles, {wall:.2f} s")
    print(f"  {'metric':<12} {'value':>12} {'unit':<4} {'raw':>10}  (values at reference speed, raw as timed)")
    for name, (value, unit) in metrics.items():
        raw_text = f"{raw[name]:10.6g}" if name in raw else " " * 10
        print(f"  {name:<12} {value:12.6g} {unit:<4} {raw_text}  {notes[name]}")
    print(f"  {'error_rate':<12} {len(failed) / len(results):12.6g} {'1':<4} {'':10}  {len(failed)} of {len(results)} jobs failed")
    by_kind: dict[str, list[float]] = {}
    for r in results:
        by_kind.setdefault(r["name"].split("-", 1)[1], []).append(r["s"])
    meta = {
        "jobs": len(results),
        "cycles": cycles,
        "wall_s": wall,
        "tail_percentile": tail_pct,
        "raw": raw,
        "raw_job_s_p50_by_kind": {kind: statistics.median(ts) for kind, ts in by_kind.items()},
    }
    return metrics, len(results), len(failed), meta


def traced(args, env: dict, workdir: Path) -> tuple[dict, int, int, dict]:
    command = [
        sys.executable, str(BENCH_DIR / "tracer.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--workdir", str(workdir),
    ]
    proc = subprocess.run(command, env=env, cwd=workdir, stdout=subprocess.PIPE, timeout=RUN_DEADLINE_S)
    if proc.returncode != 0:
        raise RuntimeError(f"traced run exited with {proc.returncode}")
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    for problem in result["problems"][:5]:
        print(f"FAILED {problem}", file=sys.stderr)
    metrics = {name: tuple(v) for name, v in result["metrics"].items()}
    print(f"{args.workload} seed {args.seed} traced: {result['attempted']} in-process runs in {result['cycles']} cycles")
    notes = {
        "linkgeom.segment_pairs": "computed from argument sizes",
        "trace_overhead": "in-process job time, traced over untraced",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:14.6g} {unit:<12} {notes.get(name, '')}")
    for kind, (forms, assignments) in sorted(result["useful_ratio_by_kind"].items()):
        print(f"  construct.useful_ratio {kind}: {forms:.0f}/{assignments:.0f} = {forms / assignments:.6g}")
    if result["observer_failures"]:
        print(f"  trace observers failed {result['observer_failures']} times", file=sys.stderr)
    meta = {"jobs": result["attempted"], "cycles": result["cycles"]}
    return metrics, result["attempted"], result["failed"], meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into SystemExit, so the running job is
    # killed and waited for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "fibresum" / "__init__.py").is_file():
        print(f"error: no fibresum sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = child_env()
    try:
        run = traced if args.trace else end_to_end
        metrics, attempted, failed, meta = run(args, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        commit=git_commit(),
        source_sha256=source_digest(),
    )
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
