"""Command-line interface: subcommand dispatch and task execution.

Exit codes: 0 success, 1 standard output closed before the report was
written, 2 validation failure (bad config, unresolved reference, failed
hypothesis gate, a task too large for the enumeration cap or for
memory), 3 mathematical inconsistency (an internal invariant
check failed, so the run's results must not be trusted).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import ConfigError, FibresumError, MathematicalInconsistencyError
from .reports import ReportBuilder
from .settings import (
    EnumerateTask,
    LinkingTask,
    RunConfig,
    SolveTask,
    Task,
    TheoremTask,
    bundled_path,
    check_limit,
    parse_int_list,
)

if TYPE_CHECKING:
    from .theoremreport import TheoremReportBuilder

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_VALIDATION = 2
EXIT_INCONSISTENT = 3


def _theorem_inputs(task: TheoremTask, config: RunConfig):
    """The task's manifold, its tori and its sum torus."""
    manifold = config.manifolds[task.manifold]
    tori = tuple(config.torus(task.manifold, label) for label in task.tori)
    return manifold, tori, config.torus(task.manifold, task.sum_torus)


def _run_verify(task: TheoremTask, config: RunConfig, report: TheoremReportBuilder) -> None:
    from . import construct

    manifold, tori, sum_torus = _theorem_inputs(task, config)
    hypothesis = construct.check_hypotheses(manifold, tori, task.n, sum_torus)
    report.add_hypothesis_report(f"{task.manifold} n={task.n}", hypothesis)
    if not hypothesis.overall:
        raise FibresumError("hypothesis gate failed")


def _run_build(task: TheoremTask, config: RunConfig, report: TheoremReportBuilder) -> None:
    from . import construct
    from .config import recipe_config_section
    from .gompfsum import sum_invariants

    manifold, tori, sum_torus = _theorem_inputs(task, config)
    recipe = construct.build_theorem_recipe(manifold, tori, task.n, sum_torus)
    report.add_recipe(recipe, sum_invariants(recipe), recipe_config_section(recipe, task.manifold))


def _check_forms(name: str, result, recipe, report: TheoremReportBuilder) -> None:
    from .gompfsum import check_c1_identities

    extras = {t.label: t.klass for t in recipe.tori}
    identities = check_c1_identities(result.manifold, result.forms, extras)
    report.add_form_checks(name, result.forms, identities)
    any_failed = not all(identity.ok for identity in identities)
    report.add_check(f"{name}: c1 identities over all forms", "fail" if any_failed else "pass")
    if any_failed:
        raise MathematicalInconsistencyError("c1 identity check failed")


def _run_enumerate(task: EnumerateTask, config: RunConfig, report: TheoremReportBuilder) -> None:
    from . import construct

    recipe = config.recipes[task.recipe]
    result = construct.enumerate_forms(recipe, cap=config.enumeration_cap)
    report.add_enumeration(task.recipe, result)
    if result.manifold.simply_connected:
        _check_forms(task.recipe, result, recipe, report)


def _run_solve(task: SolveTask, config: RunConfig, report: TheoremReportBuilder) -> None:
    from . import construct

    result = construct.solve_signs(task.primes)
    report.add_solve(result)
    enumeration = construct.enumerate_forms(result.recipe, cap=config.enumeration_cap)
    report.add_witnesses(result, result.witnesses(enumeration))
    report.add_enumeration(result.recipe.name, enumeration)
    if enumeration.manifold.simply_connected:
        _check_forms(result.recipe.name, enumeration, result.recipe, report)


def _load_geometry(config: RunConfig, name: str, loader, what: str):
    path = config.resolve_file(name)
    try:
        return loader(path)
    except (OSError, ValueError, FibresumError) as exc:
        raise ConfigError(f"bad {what} file {name}: {exc}", path=config.path) from None


def _run_linking(task: LinkingTask, config: RunConfig, report: ReportBuilder) -> None:
    from . import linkgeom

    link = _load_geometry(config, task.link, linkgeom.load_link, "link")
    # Read the axis first, so a bad axis file fails before any geometry is computed.
    axis = None if task.axis is None else _load_geometry(config, task.axis, linkgeom.load_curve, "axis")
    matrix, axis_coords = linkgeom.linking_numbers(link, axis, seed=config.seed)
    relation = None
    try:
        if axis_coords is not None and len(matrix) == 3:
            relation = list(linkgeom.torus_relation(matrix, axis_coords))
    finally:
        # The matrix and the axis numbers are reported even when the
        # relation is rejected.
        report.add_linking(Path(task.link).name, matrix, axis_coords, relation)
    report.add_check("linking: crossing count agrees with Gauss integral", "pass")


# One runner per task kind.
_RUNNERS = {
    "verify": _run_verify,
    "build": _run_build,
    "enumerate": _run_enumerate,
    "solve": _run_solve,
    "linking": _run_linking,
}


def run(config: RunConfig, kinds: Optional[set[str]] = None, stream=None) -> int:
    """Execute the config's tasks in order; returns the exit code.

    Partial results accumulated before an error are still emitted.
    """
    stream = stream or sys.stdout
    selected = [
        t for t in config.tasks if kinds is None or t.kind in kinds
    ]
    # Only theorem tasks need the theorem sections' code.
    builder = ReportBuilder
    if any(t.kind != "linking" for t in selected):
        from .theoremreport import TheoremReportBuilder as builder
    report = builder(seed=config.seed, cap=config.enumeration_cap)
    code = EXIT_OK
    if not selected:
        wanted = ", ".join(sorted(kinds)) if kinds else "any"
        report.note_error(f"no matching tasks in config (wanted: {wanted})")
        code = EXIT_VALIDATION
    try:
        for task in selected:
            _RUNNERS[task.kind](task, config, report)
    except MathematicalInconsistencyError as exc:
        report.note_error(f"mathematical inconsistency: {exc}")
        code = EXIT_INCONSISTENT
    except (FibresumError, ValueError) as exc:
        report.note_error(str(exc))
        code = EXIT_VALIDATION
    except MemoryError:
        # Reported like the enumeration cap. The failed task's frames, and
        # what they hold, are freed when this block ends, before rendering.
        report.note_error(f"out of memory while running the {task.kind} task")
        code = EXIT_VALIDATION
    if config.output_format == "machine":
        print(report.render_machine(), file=stream)
    else:
        print(report.render_table(), file=stream)
    return code


def _load_config(args: argparse.Namespace) -> RunConfig:
    from .config import parse_config

    if args.config is None:
        raise ConfigError("a --config file is required for this subcommand")
    path = Path(args.config)
    if not path.exists():
        bundled = bundled_path(args.config)
        if bundled is not None:
            path = bundled
    config = parse_config(path)
    _apply_overrides(config, args)
    return config


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> None:
    if getattr(args, "output", None):
        config.output_format = args.output
    if getattr(args, "seed", None) is not None:
        config.seed = check_limit("seed", args.seed, path="--seed")
    if getattr(args, "cap", None) is not None:
        config.enumeration_cap = check_limit("cap", args.cap, path="--cap")


def _synthetic_config(args: argparse.Namespace, tasks: list[Task]) -> RunConfig:
    config = RunConfig(tasks=tasks, base_dir=Path.cwd(), path="<args>")
    _apply_overrides(config, args)
    return config


def _add_common_flags(parser: argparse.ArgumentParser, *, config_required: bool) -> None:
    parser.add_argument(
        "--config",
        metavar="PATH",
        required=config_required,
        help="configuration file (bundled names like corollary15.cfg also resolve)",
    )
    parser.add_argument(
        "--output", choices=("table", "machine"), default=None, help="report format"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="seed for the projection directions of linking numbers",
    )
    parser.add_argument(
        "--cap",
        type=int,
        default=None,
        metavar="N",
        help="most distinct Chern classes the sign enumeration may hold after a gluing",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibresum",
        description=(
            "Exact bookkeeping for torus fibre sums of four-manifolds: "
            "hypothesis checks, Chern class sign enumeration, divisibility "
            "certificates, and polygonal linking numbers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("verify", "run the hypothesis gate for the config's verify tasks"),
        ("build", "synthesize recipes for the config's build tasks"),
        ("enumerate", "enumerate sign assignments for the config's enumerate tasks"),
        ("run", "run every task in the config, in order"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p, config_required=True)

    p = sub.add_parser("solve", help="realize one divisibility per prime")
    _add_common_flags(p, config_required=False)
    p.add_argument("--primes", metavar="P1,P2,...", help="distinct odd primes")

    p = sub.add_parser("linking", help="linking numbers and the torus relation")
    _add_common_flags(p, config_required=False)
    p.add_argument("--link", metavar="PATH", help="link file (surgery components)")
    p.add_argument("--axis", metavar="PATH", help="axis curve file")
    return parser


def _reject_config(args: argparse.Namespace, flag: str) -> None:
    if args.config is not None:
        raise ConfigError(f"--config and {flag} cannot be combined")


def _plan(args: argparse.Namespace) -> tuple[RunConfig, Optional[set[str]]]:
    """The configuration a command line names, and the task kinds to run
    from it (None for all)."""
    if args.command == "solve" and args.primes is not None:
        _reject_config(args, "--primes")
        primes = parse_int_list(args.primes, "--primes", None, None)
        if not primes:
            raise ConfigError("--primes: expected at least one prime")
        return _synthetic_config(args, [SolveTask(primes)]), {"solve"}
    if args.command == "linking":
        if args.link is not None:
            _reject_config(args, "--link")
            if not args.link:
                raise ConfigError("--link: expected a file name")
            return _synthetic_config(args, [LinkingTask(args.link, args.axis)]), {"linking"}
        if args.axis is not None:
            _reject_config(args, "--axis")
    config = _load_config(args)
    return config, None if args.command == "run" else {args.command}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = run(*_plan(args))
        # Flushed here, so a closed pipe is met below rather than at exit.
        sys.stdout.flush()
    except FibresumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BrokenPipeError:
        # The reader went away (`fibresum ... | head`). As the signal
        # module's documentation advises, point stdout at devnull so the
        # interpreter's own flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
