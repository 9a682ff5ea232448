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
pairing_row repeated per basis row with `?` for untracked entries) and
declare their tori in `[torus NAME]` sections. Any other key is a
`ConfigError` naming the key and its line, which exits 2 from the
command line; so is a second value for a key that does not repeat.
Every reference, file names included, is resolved and every record
validated at load time; a record's problems are reported at its
`[manifold NAME]` header. The top-level keys and the task sections are
read by `settings`, which also reads them from a command line. The
parsed result is a `settings.RunConfig`.
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
from .settings import RunConfig, Section, load_task, load_top

__all__ = ["parse_config", "parse_config_text"]

def _e1() -> tuple[FourManifold, tuple[EmbeddedTorus, ...]]:
    manifold, fibre = build_e1()
    return manifold, (fibre,)


# Each builtin record with its tori, by name.
_BUILTINS = {"T4": build_t4, "E1": _e1}

_SIGNS = {"+": 1, "+1": 1, "-": -1, "-1": -1}


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
            if tokens[0] not in _LOADERS:
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
    # may appear in any order in the file. The records are validated
    # once their tori are in.
    for kind, load in _LOADERS.items():
        if kind == "recipe":
            _validate_records(sections, config)
        for section in sections:
            if section.kind == kind:
                load(section, config)

    if not config.tasks:
        raise ConfigError("no tasks", path=path)
    return config


def _load_manifold(section: Section, config: RunConfig) -> None:
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
            entries.append(None if tok == "?" else section.parse_int(tok, "pairing entry", lineno))
        if len(entries) != dim:
            raise section.error(f"pairing row has {len(entries)} entries, expected {dim}", lineno)
        rows.append(tuple(entries))
    if len(rows) != dim:
        raise section.error(f"manifold {name!r} needs {dim} pairing rows, got {len(rows)}")
    c1 = section.integers("c1", required=False)
    try:
        config.manifolds[name] = FourManifold(
            name=name,
            euler=section.integer("euler"),
            signature=section.integer("signature"),
            b1=section.integer("b1"),
            b2=section.integer("b2"),
            lattice_basis_labels=basis,
            pairing=PairingMatrix(tuple(rows)),
            c1=IntVector.zero(dim) if c1 is None else IntVector(c1),
            pi1_normally_generated_by_tori=section.boolean("pi1_tori_generate"),
            simply_connected=section.boolean("simply_connected"),
        )
    except ValueError as exc:
        raise section.error(str(exc)) from None
    config.tori[name] = {}


def _load_torus(section: Section, config: RunConfig) -> None:
    manifold_name = section.manifold(config)
    table = config.tori[manifold_name]
    label = section.new_name(table, f" on {manifold_name!r}")
    kind = section.require("kind")
    if kind not in (SYMPLECTIC, LAGRANGIAN):
        raise section.error(f"torus kind must be {SYMPLECTIC!r} or {LAGRANGIAN!r}, got {kind!r}")
    dual = section.integers("dual", required=False)
    table[label] = EmbeddedTorus(
        label=label,
        klass=IntVector(section.integers("class")),
        kind=kind,
        dual=None if dual is None else IntVector(dual),
        parallel_copies_available=section.boolean("parallel"),
    )


def _validate_records(sections: list[Section], config: RunConfig) -> None:
    """Check each loaded record with its tori, naming the record's header line."""
    for section in sections:
        if section.kind == "manifold":
            name = section.name
            problems = validate(config.manifolds[name], tuple(config.tori[name].values()))
            if problems:
                raise section.error(f"manifold {name!r} is inconsistent: " + "; ".join(problems))


def _load_recipe(section: Section, config: RunConfig) -> None:
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


# Each section kind's loader, in load order.
_LOADERS = {"manifold": _load_manifold, "torus": _load_torus, "recipe": _load_recipe, "task": load_task}


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
    """Render a recipe as a loadable `[recipe ...]` config section."""
    lines = [f"[recipe {recipe.name}]", f"manifold = {manifold_name}"]
    for gluing in recipe.gluings:
        signs = " ".join("+" if s > 0 else "-" for s in gluing.signs)
        lines.append(f"glue = {gluing.torus_label} {signs}")
    return "\n".join(lines) + "\n"
