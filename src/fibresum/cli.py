"""Command-line interface: subcommand dispatch and task execution.

Exit codes: 0 success (also after `--help`), 1 standard output closed
before the report was written, 2 validation failure (bad config,
unresolved reference, failed hypothesis gate, a task too large for the
enumeration cap or for memory) or usage error (no or unknown command,
unknown or repeated flag, missing or bad value, missing `--config`),
3 mathematical inconsistency (an internal invariant check failed, so the
run's results must not be trusted).

The command line is read through one flag table, `_COMMANDS`: flags are
spelled in full, as `--flag value` or `--flag=value`, each at most once.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import SimpleNamespace
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


def _load_config(args: SimpleNamespace) -> RunConfig:
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


def _apply_overrides(config: RunConfig, args: SimpleNamespace) -> None:
    if args.output is not None:
        config.output_format = args.output
    if args.seed is not None:
        config.seed = check_limit("seed", args.seed, path="--seed")
    if args.cap is not None:
        config.enumeration_cap = check_limit("cap", args.cap, path="--cap")


def _synthetic_config(args: SimpleNamespace, tasks: list[Task]) -> RunConfig:
    config = RunConfig(tasks=tasks, base_dir=Path.cwd(), path="<args>")
    _apply_overrides(config, args)
    return config


# Each flag's value name and help.
_FLAGS = {
    "config": ("PATH", "configuration file (bundled names like corollary15.cfg also resolve)"),
    "output": ("table|machine", "report format"),
    "seed": ("N", "seed for the projection directions of linking numbers"),
    "cap": ("N", "most distinct Chern classes the sign enumeration may hold after a gluing"),
    "primes": ("P1,P2,...", "distinct odd primes"),
    "link": ("PATH", "link file (surgery components)"),
    "axis": ("PATH", "axis curve file"),
}
# Each command's help and flags; a flag marked `!` is required.
_COMMANDS = {
    "verify": ("run the hypothesis gate for the config's verify tasks", "config! output seed cap"),
    "build": ("synthesize recipes for the config's build tasks", "config! output seed cap"),
    "enumerate": ("enumerate sign assignments for the config's enumerate tasks", "config! output seed cap"),
    "run": ("run every task in the config, in order", "config! output seed cap"),
    "solve": ("realize one divisibility per prime", "config output seed cap primes"),
    "linking": ("linking numbers and the torus relation", "config output seed cap link axis"),
}
_HELP = ("-h", "--help")


class _Usage(Exception):
    """A command line that cannot run; args: the command or None, the message."""


def _flags(command: str) -> dict[str, bool]:
    """The command's flags, each with whether it is required."""
    return {flag.rstrip("!"): flag.endswith("!") for flag in _COMMANDS[command][1].split()}


def _usage(command: Optional[str]) -> str:
    if command is None:
        return "usage: fibresum COMMAND [--FLAG VALUE ...]"
    words = (
        f"--{flag} {_FLAGS[flag][0]}" if required else f"[--{flag} {_FLAGS[flag][0]}]"
        for flag, required in _flags(command).items()
    )
    return " ".join(["usage: fibresum", command, *words])


def _help(command: Optional[str]) -> str:
    if command is None:
        about = "Exact bookkeeping for torus fibre sums. `fibresum COMMAND --help` lists a command's flags."
        rows = [(name, text) for name, (text, _) in _COMMANDS.items()]
    else:
        about = _COMMANDS[command][0]
        rows = [(f"--{flag} {_FLAGS[flag][0]}", _FLAGS[flag][1]) for flag in _flags(command)]
    return "\n".join([_usage(command), "", about, "", *(f"  {name:<24}{text}" for name, text in rows)])


def _read_command_line(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The command and each flag's value (None when not given), or None
    once `--help` is answered."""
    command = argv[0] if argv else None
    if command in _HELP:
        print(_help(None))
        return None
    if command not in _COMMANDS:
        what = f"unknown command {command!r}" if command else "expected a command"
        raise _Usage(None, f"{what} ({', '.join(_COMMANDS)})")
    flags = _flags(command)
    args = SimpleNamespace(command=command, **dict.fromkeys(_FLAGS))
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            print(_help(command))
            return None
        name, equals, value = token.partition("=")
        flag = name[2:]
        if not name.startswith("--") or flag not in flags:
            raise _Usage(command, f"unknown flag {name!r} for {command}")
        if getattr(args, flag) is not None:
            raise _Usage(command, f"{name} given twice")
        if not equals:
            # The next token is the value even when it starts with a dash.
            value = next(tokens, None)
            if value is None:
                raise _Usage(command, f"{name} expects a value")
        if flag in ("seed", "cap"):
            try:
                value = int(value)
            except ValueError:
                raise _Usage(command, f"{name}: expected an integer, got {value!r}") from None
        elif flag == "output" and value not in ("table", "machine"):
            raise _Usage(command, f"{name} must be 'table' or 'machine', got {value!r}")
        setattr(args, flag, value)
    for flag, required in flags.items():
        if required and getattr(args, flag) is None:
            raise _Usage(command, f"{command} needs --{flag}")
    return args


def _reject_config(args: SimpleNamespace, flag: str) -> None:
    if args.config is not None:
        raise ConfigError(f"--config and {flag} cannot be combined")


def _plan(args: SimpleNamespace) -> tuple[RunConfig, Optional[set[str]]]:
    """The configuration a command line names, and the task kinds to run
    from it (None for all)."""
    # Only `solve` takes --primes, and only `linking` --link and --axis.
    if args.primes is not None:
        _reject_config(args, "--primes")
        primes = parse_int_list(args.primes, "--primes", None, None)
        if not primes:
            raise ConfigError("--primes: expected at least one prime")
        return _synthetic_config(args, [SolveTask(primes)]), {"solve"}
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
    try:
        args = _read_command_line(sys.argv[1:] if argv is None else argv)
        code = EXIT_OK if args is None else run(*_plan(args))
        # Flushed here, so a closed pipe is met below rather than at exit.
        sys.stdout.flush()
    except _Usage as usage:
        command, message = usage.args
        print(f"{_usage(command)}\nfibresum: error: {message}", file=sys.stderr)
        return EXIT_VALIDATION
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
