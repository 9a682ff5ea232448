"""Fibre sums with rational elliptic pieces, at the invariant level.

Each glued copy is a normal fibre sum with one copy of E(1) along a
declared square-zero torus of the base, the fibre glued to the torus.
The smooth result depends only on the torus orientations and normal
trivialisations, so one manifold record is shared by every sign
assignment; the signs select a symplectic structure and enter only
through the first Chern class.

Per copy glued along torus T with sign e (e = +1 when the perturbed
form orients T positively, -1 otherwise, allowed only for Lagrangian
tori): the Chern class gains e*[F] - 2*e*[T], with the fibre class [F]
identified with [T] by the gluing. The net contribution is -e*[T]; the
two-step form is kept in `c1_contributions` for traceable reports.

Euler characteristics add (a torus neighbourhood has zero Euler
characteristic) and signatures add by Novikov additivity across the
T^3 splitting hypersurface, giving +12 and -8 per copy.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ._record import Record, _set
from .errors import RecipeError
from .fourman import LAGRANGIAN, EmbeddedTorus, FourManifold
from .intlat import IntVector, row_pairing

__all__ = [
    "Gluing",
    "SumRecipe",
    "FormClass",
    "CheckReport",
    "sum_c1",
    "c1_contributions",
    "sum_invariants",
    "check_c1_identities",
]

EULER_PER_COPY = 12
SIGNATURE_PER_COPY = -8


class Gluing(Record):
    """Copies of E(1) glued along one torus, one sign per copy."""

    __slots__ = ("torus_label", "signs")

    def __init__(self, torus_label: str, signs: Sequence[int]) -> None:
        signs = tuple(int(s) for s in signs)
        if not signs:
            raise RecipeError(f"gluing along {torus_label}: copies must be positive")
        if any(s not in (1, -1) for s in signs):
            raise RecipeError(f"gluing along {torus_label}: signs must be +1 or -1")
        _set(self, "torus_label", torus_label)
        _set(self, "signs", signs)

    @property
    def copies(self) -> int:
        return len(self.signs)


class SumRecipe(Record):
    """Ordered gluings of a base manifold with copies of E(1).

    A recipe checks itself when it is built: every torus label is
    declared once, every class and dual has the base's tracked rank,
    there is at least one gluing, every gluing names a declared torus,
    signs flip only on Lagrangian tori, and parallel copies go only
    where the torus declares them available.
    Any violation raises one RecipeError listing all of them.
    """

    __slots__ = ("base", "tori", "gluings", "name")

    def __init__(
        self,
        base: FourManifold,
        tori: Sequence[EmbeddedTorus],
        gluings: Sequence[Gluing],
        name: str = "recipe",
    ) -> None:
        tori = tuple(tori)
        gluings = tuple(gluings)
        violations: list[str] = []
        table: dict[str, EmbeddedTorus] = {}
        for torus in tori:
            if torus.label in table:
                violations.append(f"torus {torus.label}: declared twice")
            table[torus.label] = torus
            if len(torus.klass) != base.rank:
                violations.append(
                    f"torus {torus.label}: class length {len(torus.klass)} != "
                    f"tracked rank {base.rank}"
                )
            if torus.dual is not None and len(torus.dual) != base.rank:
                violations.append(
                    f"torus {torus.label}: dual length {len(torus.dual)} != "
                    f"tracked rank {base.rank}"
                )
        if not gluings:
            violations.append("no gluings")
        for gluing in gluings:
            torus = table.get(gluing.torus_label)
            if torus is None:
                violations.append(f"gluing references undeclared torus {gluing.torus_label}")
                continue
            if -1 in gluing.signs and torus.kind != LAGRANGIAN:
                violations.append(
                    f"gluing along {torus.label}: orientation not flippable "
                    f"({torus.kind} torus)"
                )
            if gluing.copies > 1 and not torus.parallel_copies_available:
                violations.append(
                    f"gluing along {torus.label}: {gluing.copies} parallel copies "
                    "requested but none declared available"
                )
        if violations:
            raise RecipeError("; ".join(violations))
        _set(self, "base", base)
        _set(self, "tori", tori)
        _set(self, "gluings", gluings)
        _set(self, "name", name)

    @property
    def torus_table(self) -> dict[str, EmbeddedTorus]:
        return {t.label: t for t in self.tori}

    @property
    def total_copies(self) -> int:
        return sum(g.copies for g in self.gluings)


class FormClass(Record):
    """One symplectic structure on the summed manifold."""

    __slots__ = ("signs_flat", "c1", "divisibility")


class CheckReport(Record):
    """Outcome of a consistency-check battery."""

    __slots__ = ("passed", "failed", "skipped")

    @property
    def ok(self) -> bool:
        return not self.failed


def c1_contributions(recipe: SumRecipe) -> list[dict]:
    """Per-copy Chern contributions in two-step form.

    Each record carries the fibre term e*[F] (written in base
    coordinates through the identification [F] = [T]) and the normal
    correction -2*e*[T]; their sum is the net contribution -e*[T].
    """
    table = recipe.torus_table
    out: list[dict] = []
    for gluing in recipe.gluings:
        torus = table[gluing.torus_label]
        for copy_index, sign in enumerate(gluing.signs):
            fibre_term = sign * torus.klass
            normal_term = (-2 * sign) * torus.klass
            out.append(
                {
                    "torus": torus.label,
                    "copy": copy_index,
                    "sign": sign,
                    "fibre_term": fibre_term,
                    "normal_term": normal_term,
                    "net": fibre_term + normal_term,
                }
            )
    return out


def sum_c1(recipe: SumRecipe) -> IntVector:
    """First Chern class of the summed structure for the recipe's signs.

    Each gluing adds its net contribution -(sum of signs)*[T] in one step.
    """
    table = recipe.torus_table
    total = recipe.base.c1
    for gluing in recipe.gluings:
        total = total - sum(gluing.signs) * table[gluing.torus_label].klass
    return total


def _dual_block_indices(tori: Iterable[EmbeddedTorus]) -> set[int]:
    dual_support: set[int] = set()
    klass_support: set[int] = set()
    for torus in tori:
        klass_support |= set(torus.klass.support())
        if torus.dual is not None:
            dual_support |= set(torus.dual.support())
    return dual_support - klass_support


def sum_invariants(recipe: SumRecipe) -> FourManifold:
    """Invariant record of the sum, named after the recipe; identical for
    every sign assignment.

    The record's own c1 is the one computed from the gluings as given
    (sign-flipped variants are carried by FormClass values instead).
    Torus classes and their pairings against everything survive the sum;
    dual classes survive but get capped inside the elliptic pieces, so
    every pairing between two dual classes is downgraded to untracked.

    The sum is simply connected when the base is, or when the declared
    tori normally generate its fundamental group and each is glued at
    least once (every loop on a glued torus dies in the fibre
    complement, whose fundamental group is trivial). For a sum that is
    not certified simply connected, b1 is carried over from the base and
    b2 follows from Poincare duality given that b1; the carried b1 can
    overcount when gluings kill part of H1, so those two fields are
    best-effort rather than certified.
    """
    base = recipe.base
    total = recipe.total_copies
    euler = base.euler + EULER_PER_COPY * total
    signature = base.signature + SIGNATURE_PER_COPY * total
    glued = {g.torus_label for g in recipe.gluings}
    simply_connected = base.simply_connected or (
        base.pi1_normally_generated_by_tori
        and all(t.label in glued for t in recipe.tori)
    )
    if simply_connected:
        b1, b2 = 0, euler - 2
    else:
        b1 = base.b1
        b2 = euler - 2 + 2 * b1
    return FourManifold(
        name=recipe.name,
        euler=euler,
        signature=signature,
        b1=b1,
        b2=b2,
        lattice_basis_labels=base.lattice_basis_labels,
        pairing=base.pairing.masked(_dual_block_indices(recipe.tori)),
        c1=sum_c1(recipe),
        pi1_normally_generated_by_tori=base.pi1_normally_generated_by_tori,
        simply_connected=simply_connected,
    )


def check_c1_identities(
    manifold: FourManifold,
    forms: Sequence[FormClass],
    extra_classes: "Mapping[str, IntVector] | None" = None,
) -> list[CheckReport]:
    """Almost-complex consistency checks, one report per form class.

    Verifies <c1, c1> = 2e + 3*sigma and the characteristic property
    <c1, x> = <x, x> (mod 2) for every tracked basis class, plus any
    extra named classes; an extra class with a basis class's name and
    vector is that check, run once. Each form's pairings are read off
    its one row of basis pairings. Checks needing untracked pairings are
    reported as skipped rather than silently dropped.
    """
    if not manifold.simply_connected:
        raise ValueError("c1 identity checks require a simply connected record")
    pairing = manifold.pairing
    labels = manifold.lattice_basis_labels
    target = 2 * manifold.euler + 3 * manifold.signature
    square_label = f"<c1,c1> = 2e + 3sigma = {target}"
    # (name, self-pairing, basis index, None) per basis class and
    # (name, self-pairing, None, vector) per other extra class.
    classes = [(name, pairing.entries[j][j], j, None) for j, name in enumerate(labels)]
    units = {(name, tuple(int(i == j) for i in range(len(labels)))) for j, name in enumerate(labels)}
    for name, vec in (extra_classes or {}).items():
        if (name, tuple(vec)) not in units:
            classes.append((name, pairing.pair(vec, vec), None, vec))
    parity_labels = [f"parity of <c1, {name}>" for name, *_ in classes]

    reports = []
    for form in forms:
        passed, failed, skipped = [], [], []
        row = pairing.basis_pairings(form.c1)
        square = row_pairing(row, form.c1)
        if square is None:
            skipped.append(square_label + " (pairing untracked)")
        elif square == target:
            passed.append(square_label)
        else:
            failed.append(f"<c1,c1> = {square}, expected {target}")
        for label, (name, self_pairing, j, vec) in zip(parity_labels, classes):
            if self_pairing is None:
                skipped.append(label + " (self-pairing untracked)")
                continue
            cp = row[j] if vec is None else row_pairing(row, vec)
            if cp is None:
                skipped.append(label + " (c1 pairing untracked)")
            elif (cp - self_pairing) % 2 == 0:
                passed.append(label)
            else:
                failed.append(
                    f"characteristic parity fails on {name}: "
                    f"<c1, {name}> = {cp}, <{name}, {name}> = {self_pairing}"
                )
        reports.append(CheckReport(tuple(passed), tuple(failed), tuple(skipped)))
    return reports
