"""The config-file parser: parsing, validation, name resolution.

A configuration is a sequence of sections introduced by bracket headers,
with one `key = value` pair per line and `#` comments:

    seed = 0
    cap = 1048576

    [manifold T4]
    builtin = T4

    [recipe cor15]
    manifold = T4
    glue = Tx +
    glue = Tw + +

    [task enumerate]
    recipe = cor15

`KEYS` names the keys of each section kind and task kind. Custom
manifolds mirror the record fields (euler, signature, b1, b2, basis, c1,
pairing_row repeated per basis row with `?` for untracked entries) and
declare their tori in `[torus NAME]` sections. Any other key is a
`ConfigError` naming the key and its line, which exits 2 from the
command line; so is a second value for a key that does not repeat.
Every reference is resolved and every record validated at load time.
The parsed result is a `settings.RunConfig`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from .errors import ConfigError, RecipeError
from .fourman import (
    LAGRANGIAN,
    SYMPLECTIC,
    EmbeddedTorus,
    FourManifold,
    build_e1,
    build_t4,
    validate,
)
from .gompfsum import Gluing, SumRecipe
from .intlat import IntVector, PairingMatrix
from .settings import (
    EnumerateTask,
    LinkingTask,
    RunConfig,
    SolveTask,
    TheoremTask,
    check_limit,
    parse_int,
    parse_int_list,
)

__all__ = ["parse_config", "parse_config_text"]

# The keys of each section kind, with task sections keyed by task kind;
# a key marked `*` may repeat. A manifold section with `builtin` takes
# that key alone. Top-level keys, under "", may repeat and the last holds.
KEYS = {
    "": "seed* cap* output*",
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


def _e1() -> tuple[FourManifold, tuple[EmbeddedTorus, ...]]:
    manifold, fibre = build_e1()
    return manifold, (fibre,)


# Each builtin record with its tori, by name.
_BUILTINS = {"T4": build_t4, "E1": _e1}

_FLAGS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_SIGNS = {"+": 1, "+1": 1, "-": -1, "-1": -1}


class _Section:
    """One section's `key = value` pairs, read through `KEYS`. Its typed
    reads report errors at the section's header line."""

    def __init__(self, path: str, kind: str, name: str, line: Optional[int]) -> None:
        self.path = path
        self.kind = kind
        self.name = name
        self.line = line
        self.pairs: list[tuple[str, str, int]] = []
        self.values: dict[str, str] = {}

    def __str__(self) -> str:
        return f"[{self.kind} {self.name}]"

    def error(self, message: str, line: Optional[int] = None) -> ConfigError:
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
                raise self.error(f"duplicate key {key!r} in {self}")
            self.values[key] = value

    def require(self, key: str) -> str:
        if key not in self.values:
            raise self.error(f"missing key {key!r} in {self}")
        return self.values[key]

    def all(self, key: str) -> list[tuple[str, int]]:
        """The values of a repeated key, each with its line."""
        return [(v, ln) for k, v, ln in self.pairs if k == key]

    def integer(self, key: str) -> int:
        return parse_int(self.require(key), key, self.path, self.line)

    def vector(self, key: str, required: bool = True) -> Optional[IntVector]:
        value = self.require(key) if required else self.values.get(key)
        return None if value is None else IntVector(parse_int_list(value, key, self.path, self.line))

    def flag(self, key: str) -> bool:
        value = self.values.get(key) or "false"
        if value.lower() not in _FLAGS:
            raise self.error(f"{key}: expected a boolean, got {value!r}")
        return _FLAGS[value.lower()]

    def new_name(self, taken: dict, owner: str = "") -> str:
        """The section's name, refused when empty or already in `taken`."""
        if not self.name:
            raise self.error(f"{self.kind} section needs a name")
        if self.name in taken:
            raise self.error(f"{self.kind} {self.name!r}{owner} defined twice")
        return self.name

    def manifold(self, config: RunConfig) -> str:
        """The loaded manifold that the `manifold` key names."""
        name = self.require("manifold")
        if name not in config.manifolds:
            raise self.error(f"unknown manifold {name!r}")
        return name


def _split_sections(text: str, path: str) -> tuple[_Section, list[_Section]]:
    """The top-level keys and the sections, each read through `KEYS`."""
    top = current = _Section(path, "", "", None)
    sections: list[_Section] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", path=path, line=lineno)
            tokens = line[1:-1].split()
            if not tokens:
                raise ConfigError("empty section header", path=path, line=lineno)
            if len(tokens) > 2:
                raise ConfigError("section header takes at most two words", path=path, line=lineno)
            if tokens[0] not in _LOADERS:
                raise ConfigError(f"unknown section kind {tokens[0]!r}", path=path, line=lineno)
            current = _Section(path, tokens[0], tokens[1] if len(tokens) > 1 else "", lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", path=path, line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", path=path, line=lineno)
        current.pairs.append((key, value, lineno))
    for section in [top] + sections:
        section.read()
    return top, sections


def parse_config_text(text: str, *, path: str = "<config>", base_dir: Optional[Path] = None) -> RunConfig:
    top, sections = _split_sections(text, path)
    config = RunConfig(path=path, base_dir=base_dir or Path.cwd())

    for key, value, lineno in top.pairs:
        if key == "output":
            if value not in ("table", "machine"):
                raise top.error(f"output must be 'table' or 'machine', got {value!r}", lineno)
            config.output_format = value
            continue
        number = check_limit(key, parse_int(value, key, path, lineno), path=path, line=lineno)
        if key == "seed":
            config.seed = number
        else:
            config.enumeration_cap = number

    # Manifolds first, then tori, then recipes, then tasks, so sections
    # may appear in any order in the file. The records are validated
    # once their tori are in.
    for kind, load in _LOADERS.items():
        if kind == "recipe":
            _validate_records(config)
        for section in sections:
            if section.kind == kind:
                load(section, config)

    if not config.tasks:
        raise ConfigError("no tasks", path=path)
    return config


def _load_manifold(section: _Section, config: RunConfig) -> None:
    name = section.new_name(config.manifolds)
    builtin = section.values.get("builtin")
    if builtin is not None:
        if builtin not in _BUILTINS:
            raise section.error(f"unknown builtin {builtin!r} (available: {', '.join(_BUILTINS)})")
        manifold, tori = _BUILTINS[builtin]()
        config.manifolds[name] = manifold
        config.tori[name] = {t.label: t for t in tori}
        return
    basis = tuple(section.require("basis").split())
    dim = len(basis)
    rows = []
    for value, lineno in section.all("pairing_row"):
        entries = []
        for tok in value.split():
            entries.append(None if tok == "?" else parse_int(tok, "pairing entry", config.path, lineno))
        if len(entries) != dim:
            raise section.error(f"pairing row has {len(entries)} entries, expected {dim}", lineno)
        rows.append(tuple(entries))
    if len(rows) != dim:
        raise section.error(f"manifold {name!r} needs {dim} pairing rows, got {len(rows)}")
    c1 = section.vector("c1", required=False)
    try:
        config.manifolds[name] = FourManifold(
            name=name,
            euler=section.integer("euler"),
            signature=section.integer("signature"),
            b1=section.integer("b1"),
            b2=section.integer("b2"),
            lattice_basis_labels=basis,
            pairing=PairingMatrix(tuple(rows)),
            c1=IntVector.zero(dim) if c1 is None else c1,
            pi1_normally_generated_by_tori=section.flag("pi1_tori_generate"),
            simply_connected=section.flag("simply_connected"),
        )
    except ValueError as exc:
        raise section.error(str(exc)) from None
    config.tori[name] = {}


def _load_torus(section: _Section, config: RunConfig) -> None:
    manifold_name = section.manifold(config)
    table = config.tori[manifold_name]
    label = section.new_name(table, f" on {manifold_name!r}")
    kind = section.require("kind")
    if kind not in (SYMPLECTIC, LAGRANGIAN):
        raise section.error(f"torus kind must be {SYMPLECTIC!r} or {LAGRANGIAN!r}, got {kind!r}")
    table[label] = EmbeddedTorus(
        label=label,
        klass=section.vector("class"),
        kind=kind,
        dual=section.vector("dual", required=False),
        parallel_copies_available=section.flag("parallel"),
    )


def _validate_records(config: RunConfig) -> None:
    for name, manifold in config.manifolds.items():
        problems = validate(manifold, tuple(config.tori[name].values()))
        if problems:
            raise ConfigError(
                f"manifold {name!r} is inconsistent: " + "; ".join(problems), path=config.path
            )


def _load_recipe(section: _Section, config: RunConfig) -> None:
    name = section.new_name(config.recipes)
    manifold_name = section.manifold(config)
    gluings = []
    for value, lineno in section.all("glue"):
        tokens = value.split()
        if len(tokens) < 2:
            raise section.error("glue needs a torus label and at least one sign", lineno)
        config.torus(manifold_name, tokens[0], line=lineno)
        for tok in tokens[1:]:
            if tok not in _SIGNS:
                raise section.error(f"expected a sign (+ or -), got {tok!r}", lineno)
        gluings.append(Gluing(tokens[0], tuple(_SIGNS[tok] for tok in tokens[1:])))
    try:
        config.recipes[name] = SumRecipe(
            base=config.manifolds[manifold_name],
            tori=tuple(config.tori[manifold_name].values()),
            gluings=tuple(gluings),
            name=name,
        )
    except RecipeError as exc:
        raise section.error(f"recipe {name!r} is invalid: {exc}") from None


def _load_task(section: _Section, config: RunConfig) -> None:
    kind = section.name
    if kind in ("verify", "build"):
        manifold_name = section.manifold(config)
        tori_labels = tuple(section.require("tori").split())
        sum_label = section.require("sum")
        for label in tori_labels + (sum_label,):
            config.torus(manifold_name, label, line=section.line)
        n = section.integer("n")
        config.tasks.append(TheoremTask(kind, manifold_name, tori_labels, sum_label, n))
    elif kind == "enumerate":
        recipe_name = section.require("recipe")
        if recipe_name not in config.recipes:
            raise section.error(f"unknown recipe {recipe_name!r}")
        config.tasks.append(EnumerateTask(recipe_name))
    elif kind == "solve":
        primes = section.vector("primes").coords
        if not primes:
            raise section.error("solve task needs at least one prime")
        config.tasks.append(SolveTask(primes))
    else:
        config.tasks.append(LinkingTask(section.require("link"), section.values.get("axis")))


# Each section kind's loader, in load order.
_LOADERS = {"manifold": _load_manifold, "torus": _load_torus, "recipe": _load_recipe, "task": _load_task}


def parse_config(path: "str | Path") -> RunConfig:
    """Load and fully validate a configuration file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path=str(path)) from None
    return parse_config_text(text, path=str(p), base_dir=p.parent)


def recipe_config_section(recipe: SumRecipe, manifold_name: str) -> str:
    """Render a recipe as a loadable `[recipe ...]` config section."""
    lines = [f"[recipe {recipe.name}]", f"manifold = {manifold_name}"]
    for gluing in recipe.gluings:
        signs = " ".join("+" if s > 0 else "-" for s in gluing.signs)
        lines.append(f"glue = {gluing.torus_label} {signs}")
    return "\n".join(lines) + "\n"
