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
identified with [T] by the gluing. The net contribution is -e*[T], so a
gluing whose signs sum to s adds -s*[T]. A gluing is therefore held as
its copy count and plus count, and a form as one plus count per gluing,
its profile; `c1_contributions` keeps the two-step form of each
gluing's sum for traceable reports.

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
    """Copies of E(1) glued along one torus, `plus` of them with sign +1
    and the rest with -1; c1 sees only the counts."""

    __slots__ = ("torus_label", "copies", "plus")

    def __init__(self, torus_label: str, copies: int, plus: int) -> None:
        if copies < 1:
            raise RecipeError(f"gluing along {torus_label}: copies must be positive")
        if not 0 <= plus <= copies:
            raise RecipeError(f"gluing along {torus_label}: plus count {plus} is not in 0..{copies}")
        _set(self, "torus_label", torus_label)
        _set(self, "copies", copies)
        _set(self, "plus", plus)


class SumRecipe(Record):
    """Ordered gluings of a base manifold with copies of E(1).

    A recipe checks its gluings against the base's tori when it is built:
    there is at least one gluing, every gluing names a torus of the base,
    signs flip only on Lagrangian tori, and a torus takes more than one
    copy, over all its gluings, only where it declares parallel copies
    available. Any violation raises one RecipeError listing all of them,
    which names the first gluing at fault.
    """

    __slots__ = ("base", "gluings", "name")

    def __init__(self, base: FourManifold, gluings: Sequence[Gluing], name: str = "recipe") -> None:
        gluings = tuple(gluings)
        if not gluings:
            raise RecipeError("no gluings")
        table = base.torus_table
        totals: dict[str, int] = {}
        for gluing in gluings:
            totals[gluing.torus_label] = totals.get(gluing.torus_label, 0) + gluing.copies
        placed: dict[str, int] = {}
        violations = []  # (index of the gluing at fault, message)
        for index, gluing in enumerate(gluings):
            label = gluing.torus_label
            torus = table.get(label)
            if torus is None:
                violations.append((index, f"gluing references undeclared torus {label}"))
                continue
            if gluing.plus < gluing.copies and torus.kind != LAGRANGIAN:
                violations.append(
                    (index, f"gluing along {label}: orientation not flippable ({torus.kind} torus)")
                )
            # The fault is the gluing that takes its torus past one copy.
            used = placed.get(label, 0)
            placed[label] = used + gluing.copies
            if used <= 1 < placed[label] and not torus.parallel_copies_available:
                violations.append(
                    (index, f"gluing along {label}: {totals[label]} parallel copies "
                     "requested but none declared available")
                )
        if violations:
            raise RecipeError("; ".join(m for _, m in violations), violations[0][0])
        _set(self, "base", base)
        _set(self, "gluings", gluings)
        _set(self, "name", name)

    @property
    def total_copies(self) -> int:
        return sum(g.copies for g in self.gluings)


class FormClass(Record):
    """One symplectic structure on the summed manifold: `layout` holds the
    recipe's (torus label, copies) per gluing, one tuple that an
    enumeration's forms share, and `profile` each gluing's number of plus
    signs, which come before its minus signs."""

    __slots__ = ("layout", "profile", "c1", "divisibility")

    @property
    def signs_flat(self) -> tuple[int, ...]:
        """One sign per copy, in gluing order."""
        return tuple(
            s for (_, copies), plus in zip(self.layout, self.profile)
            for s in (1,) * plus + (-1,) * (copies - plus)
        )


class CheckReport(Record):
    """Outcome of a consistency-check battery."""

    __slots__ = ("passed", "failed", "skipped")

    @property
    def ok(self) -> bool:
        return not self.failed


def c1_contributions(recipe: SumRecipe) -> list[dict]:
    """Per-gluing Chern contributions in two-step form.

    For a gluing whose signs sum to s = 2*plus - copies, each record
    carries the fibre term s*[F] (written in base coordinates through the
    identification [F] = [T]) and the normal correction -2*s*[T]; their
    sum is the net contribution -s*[T].
    """
    table = recipe.base.torus_table
    out: list[dict] = []
    for gluing in recipe.gluings:
        klass = table[gluing.torus_label].klass
        sign_sum = 2 * gluing.plus - gluing.copies
        fibre_term = sign_sum * klass
        normal_term = (-2 * sign_sum) * klass
        out.append(
            {
                "torus": gluing.torus_label,
                "sign_sum": sign_sum,
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
    table = recipe.base.torus_table
    total = recipe.base.c1
    for gluing in recipe.gluings:
        total = total - (2 * gluing.plus - gluing.copies) * table[gluing.torus_label].klass
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
    The summed record declares no tori.

    The sum is simply connected when the base is, or when the base's
    tori normally generate its fundamental group and each of them is
    glued at least once (every loop on a glued torus dies in the fibre
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
        and all(t.label in glued for t in base.tori)
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
        pairing=base.pairing.masked(_dual_block_indices(base.tori)),
        c1=sum_c1(recipe),
        pi1_normally_generated_by_tori=base.pi1_normally_generated_by_tori,
        simply_connected=simply_connected,
        tori=(),
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
