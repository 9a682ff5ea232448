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

Custom manifolds mirror the record fields (euler, signature, b1, b2,
basis, c1, pairing_row repeated per basis row with `?` for untracked
entries) and declare their tori in `[torus NAME]` sections. Every
reference is resolved and every record validated at load time. The
parsed result is a `settings.RunConfig`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence

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

BUILTIN_MANIFOLDS = ("T4", "E1")


def _builtin(name: str) -> tuple[FourManifold, dict[str, EmbeddedTorus]]:
    if name == "T4":
        manifold, tori = build_t4()
        return manifold, {t.label: t for t in tori}
    if name == "E1":
        manifold, fibre = build_e1()
        return manifold, {fibre.label: fibre}
    raise ValueError(f"unknown builtin manifold {name}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _Section:
    def __init__(self, kind: str, name: str, line: int) -> None:
        self.kind = kind
        self.name = name
        self.line = line
        self.pairs: list[tuple[str, str, int]] = []

    def get(self, key: str, path: str) -> Optional[str]:
        values = [v for k, v, _ in self.pairs if k == key]
        if not values:
            return None
        if len(values) > 1:
            raise ConfigError(f"duplicate key {key!r} in [{self.kind} {self.name}]", path=path, line=self.line)
        return values[0]

    def require(self, key: str, path: str) -> str:
        value = self.get(key, path)
        if value is None:
            raise ConfigError(f"missing key {key!r} in [{self.kind} {self.name}]", path=path, line=self.line)
        return value

    def all(self, key: str) -> list[tuple[str, int]]:
        return [(v, ln) for k, v, ln in self.pairs if k == key]


def _split_sections(text: str, path: str) -> tuple[list[tuple[str, str, int]], list[_Section]]:
    top: list[tuple[str, str, int]] = []
    sections: list[_Section] = []
    current: Optional[_Section] = None
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
            kind = tokens[0]
            name = tokens[1] if len(tokens) > 1 else ""
            if len(tokens) > 2:
                raise ConfigError("section header takes at most two words", path=path, line=lineno)
            current = _Section(kind=kind, name=name, line=lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", path=path, line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", path=path, line=lineno)
        if current is None:
            top.append((key, value, lineno))
        else:
            current.pairs.append((key, value, lineno))
    return top, sections


def _parse_bool(value: str, what: str, path: str, line: int) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"{what}: expected a boolean, got {value!r}", path=path, line=line)


def _parse_signs(tokens: Sequence[str], path: str, line: int) -> tuple[int, ...]:
    signs = []
    for tok in tokens:
        if tok in ("+", "+1"):
            signs.append(1)
        elif tok in ("-", "-1"):
            signs.append(-1)
        else:
            raise ConfigError(f"expected a sign (+ or -), got {tok!r}", path=path, line=line)
    return tuple(signs)


def parse_config_text(text: str, *, path: str = "<config>", base_dir: Optional[Path] = None) -> RunConfig:
    top, sections = _split_sections(text, path)
    config = RunConfig(path=path, base_dir=base_dir or Path.cwd())

    for key, value, lineno in top:
        if key == "seed":
            seed = parse_int(value, "seed", path, lineno)
            config.seed = check_limit("seed", seed, path=path, line=lineno)
        elif key == "cap":
            cap = parse_int(value, "cap", path, lineno)
            config.enumeration_cap = check_limit("cap", cap, path=path, line=lineno)
        elif key == "output":
            if value not in ("table", "machine"):
                raise ConfigError(f"output must be 'table' or 'machine', got {value!r}", path=path, line=lineno)
            config.output_format = value
        else:
            raise ConfigError(f"unknown top-level key {key!r}", path=path, line=lineno)

    # Manifolds first, then tori, then recipes, then tasks, so sections
    # may appear in any order in the file.
    for section in sections:
        if section.kind == "manifold":
            _load_manifold(section, config)
    for section in sections:
        if section.kind == "torus":
            _load_torus(section, config)
    for name, manifold in config.manifolds.items():
        problems = validate(manifold, tuple(config.tori.get(name, {}).values()))
        if problems:
            raise ConfigError(
                f"manifold {name!r} is inconsistent: " + "; ".join(problems), path=path
            )
    for section in sections:
        if section.kind == "recipe":
            _load_recipe(section, config)
    for section in sections:
        if section.kind == "task":
            _load_task(section, config)
        elif section.kind not in ("manifold", "torus", "recipe"):
            raise ConfigError(f"unknown section kind {section.kind!r}", path=path, line=section.line)

    if not config.tasks:
        raise ConfigError("no tasks", path=path)
    return config


def _load_manifold(section: _Section, config: RunConfig) -> None:
    path = config.path
    name = section.name
    if not name:
        raise ConfigError("manifold section needs a name", path=path, line=section.line)
    if name in config.manifolds:
        raise ConfigError(f"manifold {name!r} defined twice", path=path, line=section.line)
    builtin = section.get("builtin", path)
    if builtin is not None:
        if builtin not in BUILTIN_MANIFOLDS:
            raise ConfigError(
                f"unknown builtin {builtin!r} (available: {', '.join(BUILTIN_MANIFOLDS)})",
                path=path,
                line=section.line,
            )
        manifold, tori = _builtin(builtin)
        config.manifolds[name] = manifold
        config.tori[name] = tori
        return
    basis = tuple(section.require("basis", path).split())
    dim = len(basis)
    rows = []
    for value, lineno in section.all("pairing_row"):
        entries = []
        for tok in value.split():
            entries.append(None if tok == "?" else parse_int(tok, "pairing entry", path, lineno))
        if len(entries) != dim:
            raise ConfigError(
                f"pairing row has {len(entries)} entries, expected {dim}", path=path, line=lineno
            )
        rows.append(tuple(entries))
    if len(rows) != dim:
        raise ConfigError(
            f"manifold {name!r} needs {dim} pairing rows, got {len(rows)}",
            path=path,
            line=section.line,
        )
    try:
        pairing = PairingMatrix(tuple(rows))
    except ValueError as exc:
        raise ConfigError(str(exc), path=path, line=section.line) from None
    c1_value = section.get("c1", path)
    c1 = (
        IntVector(parse_int_list(c1_value, "c1", path, section.line))
        if c1_value is not None
        else IntVector.zero(dim)
    )
    try:
        manifold = FourManifold(
            name=name,
            euler=parse_int(section.require("euler", path), "euler", path, section.line),
            signature=parse_int(section.require("signature", path), "signature", path, section.line),
            b1=parse_int(section.require("b1", path), "b1", path, section.line),
            b2=parse_int(section.require("b2", path), "b2", path, section.line),
            lattice_basis_labels=basis,
            pairing=pairing,
            c1=c1,
            pi1_normally_generated_by_tori=_parse_bool(
                section.get("pi1_tori_generate", path) or "false",
                "pi1_tori_generate",
                path,
                section.line,
            ),
            simply_connected=_parse_bool(
                section.get("simply_connected", path) or "false",
                "simply_connected",
                path,
                section.line,
            ),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), path=path, line=section.line) from None
    config.manifolds[name] = manifold
    config.tori.setdefault(name, {})


def _load_torus(section: _Section, config: RunConfig) -> None:
    path = config.path
    label = section.name
    if not label:
        raise ConfigError("torus section needs a name", path=path, line=section.line)
    manifold_name = section.require("manifold", path)
    if manifold_name not in config.manifolds:
        raise ConfigError(f"unknown manifold {manifold_name!r}", path=path, line=section.line)
    table = config.tori.setdefault(manifold_name, {})
    if label in table:
        raise ConfigError(
            f"torus {label!r} on {manifold_name!r} defined twice", path=path, line=section.line
        )
    kind = section.require("kind", path)
    if kind not in (SYMPLECTIC, LAGRANGIAN):
        raise ConfigError(
            f"torus kind must be {SYMPLECTIC!r} or {LAGRANGIAN!r}, got {kind!r}",
            path=path,
            line=section.line,
        )
    klass = IntVector(parse_int_list(section.require("class", path), "class", path, section.line))
    dual_value = section.get("dual", path)
    dual = (
        IntVector(parse_int_list(dual_value, "dual", path, section.line))
        if dual_value is not None
        else None
    )
    table[label] = EmbeddedTorus(
        label=label,
        klass=klass,
        kind=kind,
        dual=dual,
        parallel_copies_available=_parse_bool(
            section.get("parallel", path) or "false", "parallel", path, section.line
        ),
    )


def _load_recipe(section: _Section, config: RunConfig) -> None:
    path = config.path
    name = section.name
    if not name:
        raise ConfigError("recipe section needs a name", path=path, line=section.line)
    if name in config.recipes:
        raise ConfigError(f"recipe {name!r} defined twice", path=path, line=section.line)
    manifold_name = section.require("manifold", path)
    if manifold_name not in config.manifolds:
        raise ConfigError(f"unknown manifold {manifold_name!r}", path=path, line=section.line)
    gluings = []
    for value, lineno in section.all("glue"):
        tokens = value.split()
        if len(tokens) < 2:
            raise ConfigError(
                "glue needs a torus label and at least one sign", path=path, line=lineno
            )
        label = tokens[0]
        config.torus(manifold_name, label, line=lineno)
        signs = _parse_signs(tokens[1:], path, lineno)
        gluings.append(Gluing(label, signs))
    try:
        config.recipes[name] = SumRecipe(
            base=config.manifolds[manifold_name],
            tori=tuple(config.tori[manifold_name].values()),
            gluings=tuple(gluings),
            name=name,
        )
    except RecipeError as exc:
        raise ConfigError(f"recipe {name!r} is invalid: {exc}", path=path, line=section.line) from None


def _load_task(section: _Section, config: RunConfig) -> None:
    path = config.path
    kind = section.name
    line = section.line
    if kind in ("verify", "build"):
        manifold_name = section.require("manifold", path)
        if manifold_name not in config.manifolds:
            raise ConfigError(f"unknown manifold {manifold_name!r}", path=path, line=line)
        tori_labels = tuple(section.require("tori", path).split())
        for label in tori_labels:
            config.torus(manifold_name, label, line=line)
        sum_label = section.require("sum", path)
        config.torus(manifold_name, sum_label, line=line)
        n = parse_int(section.require("n", path), "n", path, line)
        config.tasks.append(TheoremTask(kind, manifold_name, tori_labels, sum_label, n))
    elif kind == "enumerate":
        recipe_name = section.require("recipe", path)
        if recipe_name not in config.recipes:
            raise ConfigError(f"unknown recipe {recipe_name!r}", path=path, line=line)
        config.tasks.append(EnumerateTask(recipe_name))
    elif kind == "solve":
        primes = parse_int_list(section.require("primes", path), "primes", path, line)
        if not primes:
            raise ConfigError("solve task needs at least one prime", path=path, line=line)
        config.tasks.append(SolveTask(primes))
    elif kind == "linking":
        link = section.require("link", path)
        axis = section.get("axis", path)
        config.tasks.append(LinkingTask(link, axis))
    else:
        raise ConfigError(
            f"unknown task kind {kind!r} (verify, build, enumerate, solve, linking)",
            path=path,
            line=line,
        )


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
