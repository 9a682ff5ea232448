"""Command-line interface: subcommand dispatch and task execution.

Exit codes: 0 success (also after `--help`), 1 standard output closed
before the report was written, 2 validation failure (bad config,
unresolved reference, failed hypothesis gate, a task too large for the
enumeration cap or for memory, a report too large for memory) or usage
error (no or unknown command, unknown or repeated flag, missing value,
no input to run), 3
mathematical inconsistency (an internal invariant check failed, so the
run's results must not be trusted).

A command line is a config, read through the key table `settings.KEYS`:
`--output`, `--seed` and `--cap` are top-level keys, read after those of
a `--config` file, and the other flags of `solve` and `linking` spell
their task section. Flags are spelled in full, as `--flag value` or
`--flag=value`, each at most once.
"""

from __future__ import annotations

import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import ConfigError, FibresumError, MathematicalInconsistencyError, MissingKeyError
from .reports import ReportBuilder
from .settings import (
    FLAG_TASKS,
    FLAGS,
    EnumerateTask,
    LinkingTask,
    RunConfig,
    SolveTask,
    TheoremTask,
    flag_config,
    key_names,
)

if TYPE_CHECKING:
    from .theoremreport import TheoremReportBuilder

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_VALIDATION = 2
EXIT_INCONSISTENT = 3


def _run_verify(task: TheoremTask, config: RunConfig, report: TheoremReportBuilder) -> None:
    from . import construct

    hypothesis = construct.check_hypotheses(task.manifold, task.labels, task.n, task.sum_label)
    report.add_hypothesis_report(f"{task.name} n={task.n}", hypothesis)
    if not hypothesis.overall:
        raise FibresumError("hypothesis gate failed")


def _run_build(task: TheoremTask, config: RunConfig, report: TheoremReportBuilder) -> None:
    from . import construct
    from .config import recipe_config_section
    from .gompfsum import sum_invariants

    recipe = construct.build_theorem_recipe(task.manifold, task.labels, task.n, task.sum_label)
    report.add_recipe(recipe, sum_invariants(recipe), recipe_config_section(recipe, task.name))


def _enumerate(recipe, config: RunConfig, report: TheoremReportBuilder, solve=None) -> None:
    """The recipe's enumeration section, after the witnesses of `solve`
    when given, and the c1 identity checks of a simply connected sum."""
    from . import construct
    from .gompfsum import check_c1_identities

    result = construct.enumerate_forms(recipe, cap=config.enumeration_cap)
    if solve is not None:
        report.add_witnesses(solve.witnesses(result))
    report.add_enumeration(recipe.name, result)
    if not result.manifold.simply_connected:
        return
    extras = {t.label: t.klass for t in recipe.base.tori}
    identities = check_c1_identities(result.manifold, result.forms, extras)
    report.add_form_checks(recipe.name, result.forms, identities)
    any_failed = not all(identity.ok for identity in identities)
    report.add_check(f"{recipe.name}: c1 identities over all forms", "fail" if any_failed else "pass")
    if any_failed:
        raise MathematicalInconsistencyError("c1 identity check failed")


def _run_enumerate(task: EnumerateTask, config: RunConfig, report: TheoremReportBuilder) -> None:
    _enumerate(task.recipe, config, report)


def _run_solve(task: SolveTask, config: RunConfig, report: TheoremReportBuilder) -> None:
    from . import construct

    result = construct.solve_signs(task.primes)
    report.add_solve(result)
    _enumerate(result.recipe, config, report, result)


def _load_geometry(config: RunConfig, path, loader, what: str):
    try:
        return loader(path)
    except (OSError, ValueError, FibresumError) as exc:
        raise ConfigError(f"bad {what} file {path}: {exc}", path=config.path) from None


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
        report.add_linking(task.link.name, matrix, axis_coords, relation)
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
    try:
        render = report.render_machine if config.output_format == "machine" else report.render_table
        print(render(), file=stream)
    except MemoryError:
        print("error: out of memory while writing the report", file=sys.stderr)
        return EXIT_VALIDATION
    return code


# Each command's help.
_COMMANDS = {
    "verify": "run the hypothesis gate for the config's verify tasks",
    "build": "synthesize recipes for the config's build tasks",
    "enumerate": "enumerate sign assignments for the config's enumerate tasks",
    "run": "run every task in the config, in order",
    "solve": "realize one divisibility per prime",
    "linking": "linking numbers and the torus relation",
}
_HELP = ("-h", "--help")


class _Usage(Exception):
    """A command line that cannot run; args: the command or None, the message."""


def _flags(command: str) -> list[str]:
    """The command's flags: `--config`, the top-level keys and the keys
    of its task section when that is one of `FLAG_TASKS`."""
    return ["config", *key_names(""), *(key_names(f"task {command}") if command in FLAG_TASKS else ())]


def _usage(command: Optional[str]) -> str:
    if command is None:
        return "usage: fibresum COMMAND [--FLAG VALUE ...]"
    words = [f"[--{flag} {FLAGS[flag][0]}]" for flag in _flags(command)]
    if command not in FLAG_TASKS:
        words[0] = words[0][1:-1]  # only a config file can give its task
    return " ".join(["usage: fibresum", command, *words])


def _help(command: Optional[str]) -> str:
    if command is None:
        about = "Exact bookkeeping for torus fibre sums. `fibresum COMMAND --help` lists a command's flags."
        rows = list(_COMMANDS.items())
    else:
        about = _COMMANDS[command]
        rows = [(f"--{flag} {FLAGS[flag][0]}", FLAGS[flag][1]) for flag in _flags(command)]
    return "\n".join([_usage(command), "", about, "", *(f"  {name:<24}{text}" for name, text in rows)])


def _read_command_line(argv: Sequence[str]) -> Optional[tuple[str, dict[str, str]]]:
    """The command and its flags' values, or None once `--help` is answered."""
    command = argv[0] if argv else None
    if command in _HELP:
        print(_help(None))
        return None
    if command not in _COMMANDS:
        what = f"unknown command {command!r}" if command else "expected a command"
        raise _Usage(None, f"{what} ({', '.join(_COMMANDS)})")
    flags = _flags(command)
    values: dict[str, str] = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            print(_help(command))
            return None
        name, equals, value = token.partition("=")
        flag = name[2:]
        if not name.startswith("--") or flag not in flags:
            raise _Usage(command, f"unknown flag {name!r} for {command}")
        if flag in values:
            raise _Usage(command, f"{name} given twice")
        if not equals:
            # The next token is the value even when it starts with a dash.
            value = next(tokens, None)
            if value is None:
                raise _Usage(command, f"{name} expects a value")
        values[flag] = value
    return command, values


def _configure(command: str, values: dict[str, str]) -> RunConfig:
    """The `--config` file with the top-level flags read after its own
    keys, or else the config that the flags spell."""
    flags = tuple((key, value, f"--{key}") for key, value in values.items() if key != "config")
    if "config" not in values:
        if command not in FLAG_TASKS:
            raise _Usage(command, f"{command} needs --config")
        try:
            return flag_config(command, flags)
        except MissingKeyError as exc:
            raise _Usage(command, f"{command} needs --config or --{exc.key}") from None
    for key, _, flag in flags:
        if key not in key_names(""):
            raise ConfigError(f"--config and {flag} cannot be combined")
    from .config import parse_config

    return parse_config(RunConfig().resolve_file(values["config"], line="--config"), flags)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        command_line = _read_command_line(sys.argv[1:] if argv is None else argv)
        code = EXIT_OK
        if command_line is not None:
            command, values = command_line
            code = run(_configure(command, values), None if command == "run" else {command})
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
