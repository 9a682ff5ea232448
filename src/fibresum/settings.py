"""The key table, run settings and task records: what a config file or a
command line asks for.

`KEYS` names the keys of each section kind and task kind, and `Section`
reads one section's `key = value` pairs through it. A command line is a
config: the top-level keys are flags of every command, and the keys of a
task in `FLAG_TASKS` are flags of its command, so `solve --primes 3,5`
reads as `[task solve] primes = 3,5`. Each value is reported where it
was given: at `path:line` in a file, at its flag on a command line.

`RunConfig` holds a run's records, tasks and top-level settings, and the
task records name the work. This module imports nothing that computes,
so a command that spells its configuration in flags loads only what its
task runs; the file reader and the record sections are in `config`.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union

from ._record import Record
from .errors import ConfigError, MissingKeyError

if TYPE_CHECKING:
    from .fourman import FourManifold
    from .gompfsum import SumRecipe

__all__ = [
    "KEYS",
    "FLAG_TASKS",
    "FLAGS",
    "Section",
    "RunConfig",
    "TheoremTask",
    "EnumerateTask",
    "SolveTask",
    "LinkingTask",
    "Task",
    "DEFAULT_SEED",
    "DEFAULT_ENUMERATION_CAP",
    "bundled_path",
    "key_names",
    "load_top",
    "load_task",
    "flag_config",
]

DEFAULT_SEED = 0
DEFAULT_ENUMERATION_CAP = 2**20

# The keys of each section kind, with task sections keyed by task kind;
# a key marked `*` may repeat. A manifold section with `builtin` takes
# that key alone. Top-level keys, under "", may repeat and the last holds.
KEYS = {
    "": "output* seed* cap*",
    "builtin": "builtin",
    "manifold": "euler signature b1 b2 basis c1 pairing_row* pi1_tori_generate simply_connected",
    "torus": "manifold class kind dual parallel",
    "recipe": "manifold glue*",
    "task verify": "manifold tori sum n",
    "task build": "manifold tori sum n",
    "task enumerate": "recipe",
    "task solve": "primes",
    "task linking": "link axis",
}
# The tasks whose section names no other section, so that a command line
# may give it in flags instead of a config file.
FLAG_TASKS = ("solve", "linking")
# Each flag's value name and help: `--config`, then every key that is a flag.
FLAGS = {
    "config": ("PATH", "configuration file (bundled names like corollary15.cfg also resolve)"),
    "output": ("table|machine", "report format"),
    "seed": ("N", "seed for the projection directions of linking numbers"),
    "cap": ("N", "most distinct Chern classes the sign enumeration may hold after a gluing"),
    "primes": ("P1,P2,...", "distinct odd primes"),
    "link": ("PATH", "link file (surgery components)"),
    "axis": ("PATH", "axis curve file"),
}

# Per integer top-level key: its `RunConfig` attribute, its least value
# and the error below that.
_LIMITS = {
    "seed": ("seed", 0, "seed must be nonnegative"),
    "cap": ("enumeration_cap", 1, "cap must be positive"),
}
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


class TheoremTask(Record):
    """The theorem's inputs: `verify` runs the hypothesis gate on them,
    `build` also synthesizes the recipe. `name` is the config's name for
    the manifold record, which the report prints; `labels` and
    `sum_label` name tori the record holds."""

    __slots__ = ("kind", "name", "manifold", "labels", "sum_label", "n")


class EnumerateTask(Record):
    """The recipe whose forms to enumerate, as its config built it."""

    __slots__ = ("recipe",)
    kind = "enumerate"


class SolveTask(Record):
    __slots__ = ("primes",)
    kind = "solve"


class LinkingTask(Record):
    """The resolved link file and axis file (or None)."""

    __slots__ = ("link", "axis")
    kind = "linking"


# Every task's `kind` is the name of its `[task ...]` section.
Task = Union[TheoremTask, EnumerateTask, SolveTask, LinkingTask]


class RunConfig:
    def __init__(self, base_dir: Optional[Path] = None, path: str = "<config>") -> None:
        self.manifolds: dict[str, FourManifold] = {}
        self.recipes: dict[str, SumRecipe] = {}
        self.tasks: list[Task] = []
        self.output_format = "table"
        self.seed = DEFAULT_SEED
        self.enumeration_cap = DEFAULT_ENUMERATION_CAP
        self.base_dir = Path.cwd() if base_dir is None else base_dir
        self.path = path

    def torus(self, manifold_name: str, label: str, *, line: Union[int, str, None]) -> None:
        """Refuse a torus label that the manifold's record does not hold."""
        if label not in self.manifolds[manifold_name].torus_table:
            raise ConfigError(
                f"unknown torus {label!r} on manifold {manifold_name!r}",
                path=self.path,
                line=line,
            )

    def resolve_file(self, name: str, *, line: Union[int, str, None] = None) -> Path:
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


def key_names(entry: str) -> list[str]:
    """The keys of a `KEYS` entry, without their markers."""
    return KEYS[entry].replace("*", "").split()


def bundled_path(name: str) -> Optional[Path]:
    """Path of a bundled data file (configs and link files shipped with
    the package), or None when no such file exists."""
    if "/" in name or "\\" in name:
        return None
    candidate = Path(__file__).parent / "data" / name
    return candidate if candidate.exists() else None


class Section:
    """One section's `key = value` pairs, read through `KEYS`; each pair
    keeps where it was given, a file line or a flag, and a bad value is
    reported there. A problem of the whole section is reported at its
    header: its line in a file, its first flag on a command line."""

    def __init__(self, path: str, kind: str, name: str, line: Union[int, str, None]) -> None:
        self.path = path
        self.kind = kind
        self.name = name
        self.line = line
        self.pairs: list[tuple[str, str, Union[int, str]]] = []
        self.values: dict[str, str] = {}
        self.lines: dict[str, Union[int, str]] = {}

    def __str__(self) -> str:
        return f"[{self.kind} {self.name}]"

    def error(self, message: str, line: Union[int, str, None] = None) -> ConfigError:
        return ConfigError(message, path=self.path, line=line or self.line)

    def read(self) -> None:
        """Take each key's value, refusing a key that `KEYS` does not name
        for this section and a second value for a key that does not repeat."""
        entry = self.kind
        if self.kind == "task":
            entry = f"task {self.name}"
            if entry not in KEYS:
                kinds = ", ".join(k.split()[1] for k in KEYS if k.startswith("task "))
                raise self.error(f"unknown task kind {self.name!r} ({kinds})")
        elif self.kind == "manifold" and any(key == "builtin" for key, _, _ in self.pairs):
            entry = "builtin"
        keys = KEYS[entry].split()
        for key, value, line in self.pairs:
            if key + "*" in keys:
                continue
            if key not in keys:
                where = f"key {key!r} in {self}" if self.kind else f"top-level key {key!r}"
                raise self.error(f"unknown {where}", line)
            if key in self.values:
                raise self.error(f"duplicate key {key!r} in {self}", line)
            self.values[key] = value
            self.lines[key] = line

    def require(self, key: str) -> str:
        if key not in self.values:
            raise MissingKeyError(key, f"missing key {key!r} in {self}", path=self.path, line=self.line)
        return self.values[key]

    def all(self, key: str) -> list[tuple[str, int]]:
        """The values of a repeated key, each with its line."""
        return [(v, ln) for k, v, ln in self.pairs if k == key]

    def parse_int(self, value: str, what: str, line: Union[int, str, None] = None) -> int:
        """An optional sign and ASCII digits, the one integer form of files and
        flags, within the interpreter's limit on integer conversion, if any."""
        digits = value[1:] if value[:1] in ("+", "-") else value
        if not (digits.isascii() and digits.isdigit()):
            raise self.error(f"{what}: expected an integer, got {value!r}", line)
        try:
            return int(value)
        except ValueError:
            raise self.error(f"{what}: integer too long ({len(digits)} digits)", line) from None

    def integer(self, key: str) -> int:
        return self.parse_int(self.require(key), key, self.lines[key])

    def integers(self, key: str, required: bool = True) -> Optional[tuple[int, ...]]:
        """The integers under `key`, separated by commas or spaces."""
        value = self.require(key) if required else self.values.get(key)
        if value is None:
            return None
        return tuple(self.parse_int(part, key, self.lines[key]) for part in value.replace(",", " ").split())

    def boolean(self, key: str) -> bool:
        value = self.values.get(key, "false")
        if value.lower() not in _BOOLEANS:
            raise self.error(f"{key}: expected a boolean, got {value!r}", self.lines[key])
        return _BOOLEANS[value.lower()]

    def new_name(self, taken: dict, owner: str = "") -> str:
        """The section's name, refused when empty or already in `taken`."""
        if not self.name:
            raise self.error(f"{self.kind} section needs a name")
        if self.name in taken:
            raise self.error(f"{self.kind} {self.name!r}{owner} defined twice")
        return self.name

    def file(self, key: str, config: RunConfig, required: bool = True) -> Optional[Path]:
        """The file that the name under `key` resolves to; a name that
        does not resolve is reported where the key was given."""
        name = self.require(key) if required else self.values.get(key)
        return None if name is None else config.resolve_file(name, line=self.lines[key])

    def manifold(self, names: dict) -> str:
        """The `manifold` key's value, refused unless `names` holds it."""
        name = self.require("manifold")
        if name not in names:
            raise self.error(f"unknown manifold {name!r}", self.lines["manifold"])
        return name


def load_top(top: Section, config: RunConfig) -> None:
    """Set the top-level keys, each value over the one before."""
    for key, value, line in top.pairs:
        if key == "output":
            if value not in ("table", "machine"):
                raise top.error(f"output must be 'table' or 'machine', got {value!r}", line)
            config.output_format = value
            continue
        attribute, least, message = _LIMITS[key]
        number = top.parse_int(value, key, line)
        if number < least:
            raise top.error(message, line)
        setattr(config, attribute, number)


def load_task(section: Section, config: RunConfig) -> None:
    """Append the section's task with every name it gives resolved."""
    kind = section.name
    lines = section.lines
    if kind in ("verify", "build"):
        name = section.manifold(config.manifolds)
        labels = tuple(section.require("tori").split())
        sum_label = section.require("sum")
        if not labels:
            raise section.error("at least one torus is required", lines["tori"])
        for label in labels:
            config.torus(name, label, line=lines["tori"])
        config.torus(name, sum_label, line=lines["sum"])
        n = section.integer("n")
        if n <= 2:
            raise section.error("the construction needs n > 2", lines["n"])
        config.tasks.append(TheoremTask(kind, name, config.manifolds[name], labels, sum_label, n))
    elif kind == "enumerate":
        recipe_name = section.require("recipe")
        if recipe_name not in config.recipes:
            raise section.error(f"unknown recipe {recipe_name!r}", lines["recipe"])
        config.tasks.append(EnumerateTask(config.recipes[recipe_name]))
    elif kind == "solve":
        primes = section.integers("primes")
        if not primes:
            raise section.error("solve task needs at least one prime", lines["primes"])
        config.tasks.append(SolveTask(primes))
    else:
        link = section.file("link", config)
        config.tasks.append(LinkingTask(link, section.file("axis", config, required=False)))


def flag_config(command: str, flags: list[tuple[str, str, str]]) -> RunConfig:
    """The config a command line without `--config` spells: its top-level
    keys and its command's task section, from (key, value, flag) triples
    in command-line order."""
    config = RunConfig(path="<args>")
    top = Section(config.path, "", "", None)
    task = Section(config.path, "task", command, None)
    for triple in flags:
        (top if triple[0] in key_names("") else task).pairs.append(triple)
    # Where a file reports a section at its header line, flags name the first flag.
    task.line = task.pairs[0][2] if task.pairs else None
    for section in (top, task):
        section.read()
    load_top(top, config)
    load_task(task, config)
    return config
