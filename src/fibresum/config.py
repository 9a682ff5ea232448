"""The config-file reader and its record sections: parsing, validation,
name resolution.

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

`settings.KEYS` names the keys of each section kind and task kind. Custom
manifolds mirror the record fields (euler, signature, b1, b2, basis, c1,
pairing_row repeated per basis row with `?` for untracked entries); a
`[torus NAME]` section gives a torus to the manifold it names, a builtin
included. Any other key is a `ConfigError` naming the key and its line,
which exits 2 from the command line; so is a second value for a key
that does not repeat. Every reference, file names included, is resolved
at load time, and each record is built, and so checked, once with all
its tori; a record's problems are reported at its `[manifold NAME]`
header, and a recipe's faulty gluing at its `glue` line. The top-level
keys and the task sections are read by `settings`, which also reads
them from a command line. The parsed result is a `settings.RunConfig`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from .errors import ConfigError, RecipeError
from .fourman import LAGRANGIAN, SYMPLECTIC, EmbeddedTorus, FourManifold, build_e1, build_t4
from .gompfsum import Gluing, SumRecipe
from .intlat import IntVector, PairingMatrix
from .settings import RunConfig, Section, load_task, load_top

__all__ = ["parse_config", "parse_config_text"]

# Each builtin record, by name.
_BUILTINS = {"T4": build_t4, "E1": build_e1}
# The section kinds, in load order.
_KINDS = ("manifold", "torus", "recipe", "task")

# Each sign token's share of its gluing's plus count.
_PLUS = {"+": 1, "+1": 1, "-": 0, "-1": 0}


def _split_sections(text: str, path: str) -> tuple[Section, list[Section]]:
    """The top-level keys and the sections, in file order."""
    top = current = Section(path, "", "", None)
    sections: list[Section] = []
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
            if tokens[0] not in _KINDS:
                raise ConfigError(f"unknown section kind {tokens[0]!r}", path=path, line=lineno)
            current = Section(path, tokens[0], tokens[1] if len(tokens) > 1 else "", lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", path=path, line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", path=path, line=lineno)
        current.pairs.append((key, value, lineno))
    return top, sections


def parse_config_text(
    text: str, *, path: str = "<config>", base_dir: Optional[Path] = None, flags: tuple = ()
) -> RunConfig:
    """Load a config's text; `flags` holds top-level (key, value, flag)
    triples, read after the text's own top-level keys."""
    top, sections = _split_sections(text, path)
    top.pairs += flags
    for section in [top] + sections:
        section.read()
    config = RunConfig(path=path, base_dir=base_dir or Path.cwd())
    load_top(top, config)

    # Manifolds first, then tori, then recipes, then tasks, so sections
    # may appear in any order in the file. Each record is built once its
    # tori are read.
    of_kind = {kind: [s for s in sections if s.kind == kind] for kind in _KINDS}
    records: dict = {}
    for section in of_kind["manifold"]:
        _load_manifold(section, records)
    for section in of_kind["torus"]:
        _load_torus(section, records)
    config.manifolds = {name: _build_record(*record) for name, record in records.items()}
    for section in of_kind["recipe"]:
        _load_recipe(section, config)
    for section in of_kind["task"]:
        load_task(section, config)

    if not config.tasks:
        raise ConfigError("no tasks", path=path)
    return config


def _load_manifold(section: Section, records: dict) -> None:
    """Enter (section, fields but the tori, tori by label) in `records`
    under the section's name; a builtin gives its whole record as fields."""
    name = section.new_name(records)
    builtin = section.values.get("builtin")
    if builtin is not None:
        if builtin not in _BUILTINS:
            message = f"unknown builtin {builtin!r} (available: {', '.join(_BUILTINS)})"
            raise section.error(message, section.lines["builtin"])
        manifold = _BUILTINS[builtin]()
        records[name] = (section, manifold, manifold.torus_table)
        return
    basis = tuple(section.require("basis").split())
    dim = len(basis)
    rows = []
    for value, lineno in section.all("pairing_row"):
        entries = []
        for tok in value.split():
            entries.append(None if tok == "?" else section.parse_int(tok, "pairing entry", lineno))
        if len(entries) != dim:
            raise section.error(f"pairing row has {len(entries)} entries, expected {dim}", lineno)
        rows.append(tuple(entries))
    if len(rows) != dim:
        raise section.error(f"manifold {name!r} needs {dim} pairing rows, got {len(rows)}")
    c1 = section.integers("c1", required=False)
    try:
        fields = (
            name,
            section.integer("euler"),
            section.integer("signature"),
            section.integer("b1"),
            section.integer("b2"),
            basis,
            PairingMatrix(tuple(rows)),
            IntVector.zero(dim) if c1 is None else IntVector(c1),
            section.boolean("pi1_tori_generate"),
            section.boolean("simply_connected"),
        )
    except ValueError as exc:
        raise section.error(str(exc)) from None
    records[name] = (section, fields, {})


def _load_torus(section: Section, records: dict) -> None:
    manifold_name = section.manifold(records)
    table = records[manifold_name][2]
    label = section.new_name(table, f" on {manifold_name!r}")
    kind = section.require("kind")
    if kind not in (SYMPLECTIC, LAGRANGIAN):
        message = f"torus kind must be {SYMPLECTIC!r} or {LAGRANGIAN!r}, got {kind!r}"
        raise section.error(message, section.lines["kind"])
    dual = section.integers("dual", required=False)
    table[label] = EmbeddedTorus(
        label=label,
        klass=IntVector(section.integers("class")),
        kind=kind,
        dual=None if dual is None else IntVector(dual),
        parallel_copies_available=section.boolean("parallel"),
    )


def _build_record(section: Section, fields: "tuple | FourManifold", tori: dict) -> FourManifold:
    """The record with its tori, its problems reported at its header; a
    builtin is rebuilt only when the config gives it more tori."""
    if isinstance(fields, FourManifold):
        if len(tori) == len(fields.tori):
            return fields
        fields = fields._values()[:-1]
    try:
        return FourManifold(*fields, tuple(tori.values()))
    except ValueError as exc:
        raise section.error(str(exc)) from None


def _load_recipe(section: Section, config: RunConfig) -> None:
    name = section.new_name(config.recipes)
    manifold_name = section.manifold(config.manifolds)
    gluings, lines = [], []
    for value, lineno in section.all("glue"):
        tokens = value.split()
        if len(tokens) < 2:
            raise section.error("glue needs a torus label and at least one sign", lineno)
        config.torus(manifold_name, tokens[0], line=lineno)
        for tok in tokens[1:]:
            if tok not in _PLUS:
                raise section.error(f"expected a sign (+ or -), got {tok!r}", lineno)
        gluings.append(Gluing(tokens[0], len(tokens) - 1, sum(_PLUS[tok] for tok in tokens[1:])))
        lines.append(lineno)
    try:
        config.recipes[name] = SumRecipe(config.manifolds[manifold_name], tuple(gluings), name)
    except RecipeError as exc:
        line = None if exc.gluing is None else lines[exc.gluing]
        raise section.error(f"recipe {name!r} is invalid: {exc}", line) from None


def parse_config(path: "str | Path", flags: tuple = ()) -> RunConfig:
    """Load and fully validate a configuration file, with top-level
    `flags` as in `parse_config_text`."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path=str(path)) from None
    return parse_config_text(text, path=str(p), base_dir=p.parent, flags=flags)


def recipe_config_section(recipe: SumRecipe, manifold_name: str) -> str:
    """Render a recipe as a loadable `[recipe ...]` config section: the
    format has no copy count, so each copy's sign, plus signs first."""
    lines = [f"[recipe {recipe.name}]", f"manifold = {manifold_name}"]
    for gluing in recipe.gluings:
        signs = " ".join(["+"] * gluing.plus + ["-"] * (gluing.copies - gluing.plus))
        lines.append(f"glue = {gluing.torus_label} {signs}")
    return "\n".join(lines) + "\n"
