"""Run settings and task records: what a command line or a config file asks for.

`RunConfig` holds a run's records, tasks and top-level settings, and the
task records name the work. The rules for the seed and the cap, and the
integer lists of config values and of ``--primes``, are shared by the
config-file parser (`config`) and the command line (`cli`). This module
imports nothing that computes, so a command that builds its
configuration from flags loads only what its task runs.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from ._record import Record
from .errors import ConfigError

if TYPE_CHECKING:
    from .fourman import EmbeddedTorus, FourManifold
    from .gompfsum import SumRecipe

__all__ = [
    "RunConfig",
    "TheoremTask",
    "EnumerateTask",
    "SolveTask",
    "LinkingTask",
    "Task",
    "DEFAULT_SEED",
    "DEFAULT_ENUMERATION_CAP",
    "bundled_path",
    "check_limit",
    "parse_int",
    "parse_int_list",
]

DEFAULT_SEED = 0
DEFAULT_ENUMERATION_CAP = 2**20

# Smallest allowed value and the error message, per top-level integer
# setting; config files and command-line flags share these rules.
_LIMITS = {"seed": (0, "seed must be nonnegative"), "cap": (1, "cap must be positive")}


class TheoremTask(Record):
    """The theorem's inputs: `verify` runs the hypothesis gate on them,
    `build` also synthesizes the recipe."""

    __slots__ = ("kind", "manifold", "tori", "sum_torus", "n")


class EnumerateTask(Record):
    __slots__ = ("recipe",)
    kind = "enumerate"


class SolveTask(Record):
    __slots__ = ("primes",)
    kind = "solve"


class LinkingTask(Record):
    __slots__ = ("link", "axis")
    kind = "linking"


# Every task's `kind` is the name of its `[task ...]` section.
Task = Union[TheoremTask, EnumerateTask, SolveTask, LinkingTask]


class RunConfig:
    def __init__(
        self,
        tasks: Optional[list[Task]] = None,
        base_dir: Optional[Path] = None,
        path: str = "<config>",
    ) -> None:
        self.manifolds: dict[str, FourManifold] = {}
        self.tori: dict[str, dict[str, EmbeddedTorus]] = {}
        self.recipes: dict[str, SumRecipe] = {}
        self.tasks = [] if tasks is None else tasks
        self.output_format = "table"
        self.seed = DEFAULT_SEED
        self.enumeration_cap = DEFAULT_ENUMERATION_CAP
        self.base_dir = Path.cwd() if base_dir is None else base_dir
        self.path = path

    def torus(self, manifold_name: str, label: str, *, line: int = 0) -> EmbeddedTorus:
        table = self.tori.get(manifold_name, {})
        if label not in table:
            raise ConfigError(
                f"unknown torus {label!r} on manifold {manifold_name!r}",
                path=self.path,
                line=line or None,
            )
        return table[label]

    def resolve_file(self, name: str, *, line: Optional[int] = None) -> Path:
        if not name:
            # An empty name would resolve to the base directory itself.
            raise ConfigError("expected a file name, got an empty value", path=self.path, line=line)
        candidate = Path(name)
        if not candidate.is_absolute():
            candidate = self.base_dir / name
        if candidate.exists():
            return candidate
        bundled = bundled_path(name)
        if bundled is not None:
            return bundled
        raise ConfigError(f"file not found: {name}", path=self.path, line=line)


def bundled_path(name: str) -> Optional[Path]:
    """Path of a bundled data file (configs and link files shipped with
    the package), or None when no such file exists."""
    if "/" in name or "\\" in name:
        return None
    candidate = Path(__file__).parent / "data" / name
    return candidate if candidate.exists() else None


def check_limit(key: str, value: int, *, path: str, line: Optional[int] = None) -> int:
    """Return the value of setting `key` (seed or cap) if it is in range."""
    least, message = _LIMITS[key]
    if value < least:
        raise ConfigError(message, path=path, line=line)
    return value


def parse_int(value: str, what: str, path: Optional[str], line: Optional[int]) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{what}: expected an integer, got {value!r}", path=path, line=line) from None


def parse_int_list(value: str, what: str, path: Optional[str], line: Optional[int]) -> tuple[int, ...]:
    """Integers separated by commas or spaces (config values and --primes)."""
    parts = value.replace(",", " ").split()
    return tuple(parse_int(p, what, path, line) for p in parts)
