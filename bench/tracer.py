"""Per-layer tracing from outside the program, and the traced run itself.

`install` wraps every public function of each fibresum layer (the names
in the module's ``__all__``, or its public functions when it has none)
plus a few named methods, and puts the wrapper wherever any layer module
holds a reference to the original, so calls from one layer into another
become nested spans. Names that no longer exist are skipped. A wrapper
returns the wrapped function's value and re-raises its exception
unchanged; it only records the span, and an observer that fails is
counted, never propagated.

Run as a script, this file is the traced run: it executes the jobs of a
workload in-process through ``fibresum.cli.main``, first untraced and
then traced, and prints the per-layer metrics as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import inputs
import oracles

LAYERS = ("config", "fourman", "gompfsum", "construct", "intlat", "linkgeom", "reports", "cli")

# Methods traced besides the module-level public functions.
EXTRA_METHODS = {
    "intlat": {"PairingMatrix": ("pair",)},
    "reports": {"ReportBuilder": None},  # None: every public method
}

# Inclusive times: the summed duration of the outermost spans among these
# names, so nested calls within the group are not counted twice.
GROUPS = {
    "config.parse_s": ("config.parse_config", "config.parse_config_text"),
    "linkgeom.load_s": ("linkgeom.load_link", "linkgeom.load_curve", "linkgeom.parse_link_text"),
    "linkgeom.crossings_s": ("linkgeom.linking_number_crossings",),
    "linkgeom.gauss_s": ("linkgeom.linking_number_gauss",),
    "reports.render_s": ("reports.ReportBuilder.render_machine", "reports.ReportBuilder.render_table"),
}


class Tracer:
    """Span statistics: per span name the calls, inclusive and self time,
    and errors (exceptions that left the span), plus named counters."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stack: list[list] = []  # open spans: [name, start, time in children]
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.group_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.observers: dict[str, object] = {}
        self.pending: dict[str, object] = {}
        self._group_of = {name: group for group, names in GROUPS.items() for name in names}

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else None
            frame = [name, tracer.clock(), 0.0]
            tracer.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, error=True)
                raise
            tracer._close(frame, error=False)
            observer = tracer.observers.get(name)
            if observer is not None:
                try:
                    observer(tracer, parent, args, result)
                except Exception:
                    tracer.counters["trace.observer_failures"] += 1
            return result

        return traced

    def _close(self, frame: list, *, error: bool) -> None:
        name, start, children = frame
        duration = self.clock() - start
        self.stack.pop()
        if self.stack:
            self.stack[-1][2] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - children
        if error:
            self.errors[name] += 1
        group = self._group_of.get(name)
        if group is not None and not any(self._group_of.get(f[0]) == group for f in self.stack):
            self.group_s[group] += duration

    def layer_totals(self, layer: str) -> tuple[float, int, int]:
        prefix = layer + "."
        names = [n for n in self.calls if n.startswith(prefix)]
        return (
            sum((self.self_s[n] for n in names), 0.0),
            sum(self.calls[n] for n in names),
            sum(self.errors[n] for n in names),
        )


def _public_functions(module) -> dict[str, object]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


def _methods(cls, names) -> dict[str, object]:
    if names is None:
        names = [n for n, v in vars(cls).items() if not n.startswith("_") and inspect.isfunction(v)]
    return {n: vars(cls)[n] for n in names if inspect.isfunction(vars(cls).get(n))}


def install(tracer: Tracer, modules: dict, extra_methods: dict = EXTRA_METHODS) -> list:
    """Wrap the layers' public functions and the named methods.

    `modules` maps a layer name to its module; every module in it (and
    any other module object listed, such as the package itself under a
    non-layer key) has its references to a wrapped function replaced.
    Returns the (owner, attribute, original) triples `uninstall` needs.
    """
    originals = {}
    for layer, module in modules.items():
        if layer not in LAYERS:
            continue
        for name, fn in _public_functions(module).items():
            originals[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
    patched = []
    for layer, classes in extra_methods.items():
        module = modules.get(layer)
        for cls_name, names in classes.items():
            cls = getattr(module, cls_name, None)
            if not inspect.isclass(cls):
                continue
            for name, fn in _methods(cls, names).items():
                setattr(cls, name, tracer.wrap(f"{layer}.{cls_name}.{name}", fn))
                patched.append((cls, name, fn))
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            entry = originals.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                patched.append((module, attr, value))
    return patched


def uninstall(patched: list) -> None:
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


# -- observers: counters measured where the work happens ------------------------


def _count_assignment(tracer, parent, args, result) -> None:
    if parent == "construct.enumerate_forms":
        tracer.counters["construct.assignments"] += 1


def _count_forms(tracer, parent, args, result) -> None:
    tracer.counters["construct.forms"] += len(result.forms)


def _count_bytes(tracer, parent, args, result) -> None:
    tracer.counters["reports.bytes"] += len(result.encode("utf-8"))


def _count_segment_pairs(tracer, parent, args, result) -> None:
    tracer.counters["linkgeom.segment_pairs"] += len(args[0].vertices) * len(args[1].vertices)


def _remember_gauss(tracer, parent, args, result) -> None:
    _count_segment_pairs(tracer, parent, args, result)
    if parent == "linkgeom.linking_number_verified":
        tracer.pending["gauss"] = result


def _gauss_residual(tracer, parent, args, result) -> None:
    gauss = tracer.pending.pop("gauss", None)
    if gauss is not None:
        residual = abs(gauss - result)
        tracer.counters["linkgeom.gauss_residual_max"] = max(
            tracer.counters["linkgeom.gauss_residual_max"], residual
        )


OBSERVERS = {
    "gompfsum.sum_c1": _count_assignment,
    "construct.enumerate_forms": _count_forms,
    "reports.ReportBuilder.render_machine": _count_bytes,
    "reports.ReportBuilder.render_table": _count_bytes,
    "linkgeom.linking_number_crossings": _count_segment_pairs,
    "linkgeom.linking_number_gauss": _remember_gauss,
    "linkgeom.linking_number_verified": _gauss_residual,
}


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit). Times and counts are per
    cycle of jobs, so a run that fits more cycles into its time does not
    read as more work per layer."""
    out: dict[str, tuple[float, str]] = {}

    def per_cycle(name: str, total: float, unit: str) -> None:
        out[name] = (total / cycles, unit + "/cycle")

    for layer in LAYERS:
        self_s, calls, errors = tracer.layer_totals(layer)
        per_cycle(f"{layer}.self_s", self_s, "s")
        per_cycle(f"{layer}.calls", calls, "count")
        per_cycle(f"{layer}.errors", errors, "count")
    c = tracer.counters
    assignments = c["construct.assignments"]
    per_cycle("construct.assignments", assignments, "count")
    per_cycle("construct.forms", c["construct.forms"], "count")
    out["construct.useful_ratio"] = (c["construct.forms"] / assignments if assignments else 0.0, "ratio")
    per_cycle("intlat.pair.calls", tracer.calls["intlat.PairingMatrix.pair"], "count")
    per_cycle("intlat.divisibility_bounds.calls", tracer.calls["intlat.divisibility_bounds"], "count")
    per_cycle("gompfsum.check_c1_identities.self_s", tracer.self_s["gompfsum.check_c1_identities"], "s")
    per_cycle("reports.render_s", tracer.group_s["reports.render_s"], "s")
    per_cycle("reports.bytes", c["reports.bytes"], "B")
    for name in ("linkgeom.load_s", "linkgeom.crossings_s", "linkgeom.gauss_s", "config.parse_s"):
        per_cycle(name, tracer.group_s[name], "s")
    # Computed from argument sizes (sum of n_a * n_b), not counted by the program.
    per_cycle("linkgeom.segment_pairs", c["linkgeom.segment_pairs"], "pairs")
    out["linkgeom.gauss_residual_max"] = (c["linkgeom.gauss_residual_max"], "dimensionless")
    return out


# -- the traced run -------------------------------------------------------------


def _run_in_process(main, job) -> tuple[float, list[str]]:
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(job.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crashing job is a failed job, not a failed run
        return time.perf_counter() - start, [f"raised {exc!r}"]
    elapsed = time.perf_counter() - start
    return elapsed, oracles.check(job.check, job.expect, code, out.getvalue())


def traced_run(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    fibresum = importlib.import_module("fibresum")
    modules = {"package": fibresum}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"fibresum.{layer}")
        except ImportError:
            continue
    main = modules["cli"].main
    tracer = Tracer()
    tracer.observers.update(OBSERVERS)
    plain_s = traced_s = 0.0
    attempted = failed = 0
    problems: list[str] = []
    per_kind: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    start = time.perf_counter()
    index = 0
    while inputs.another_cycle(time.perf_counter() - start, index, seconds):
        jobs = inputs.cycle(workload, seed, index)
        for job in jobs:
            inputs.write_files(job, workdir)
        for position, job in enumerate(jobs):
            # Alternate which pass goes first, so warm-up favours neither.
            for traced_pass in (position % 2 == 1, position % 2 == 0):
                before = (tracer.counters["construct.forms"], tracer.counters["construct.assignments"])
                patched = install(tracer, modules) if traced_pass else []
                try:
                    elapsed, found = _run_in_process(main, job)
                finally:
                    uninstall(patched)
                attempted += 1
                failed += bool(found)
                label = "traced" if traced_pass else "untraced"
                problems += [f"{job.name} ({label}): {p}" for p in found]
                if not traced_pass:
                    plain_s += elapsed
                    continue
                traced_s += elapsed
                kind = per_kind[job.name.split("-", 1)[1]]
                kind[0] += tracer.counters["construct.forms"] - before[0]
                kind[1] += tracer.counters["construct.assignments"] - before[1]
        index += 1
    metrics = layer_metrics(tracer, index)
    metrics["trace_overhead"] = (traced_s / plain_s, "ratio")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "problems": problems,
        "failed": failed,
        "cycles": index,
        "useful_ratio_by_kind": {k: v for k, v in per_kind.items() if v[1]},
        "observer_failures": int(tracer.counters["trace.observer_failures"]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="traced in-process run of one workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    os.chdir(args.workdir)
    result = traced_run(args.workload, args.seed, args.seconds, args.workdir)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
