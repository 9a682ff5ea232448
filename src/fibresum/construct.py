"""Construction pipelines: hypothesis gate, recipe synthesis, sign
enumeration, the multi-prime solver, and the moduli-component bound.

The pipeline certifies lower bounds on the number of connected
components of the moduli space of symplectic forms: the divisibility of
the first Chern class is invariant under diffeomorphisms and
deformations, so forms on one smooth record whose c1 divisibilities
differ must live in different components. Only exact divisibility
reports are counted, which keeps the bound sound when the tracked
pairing cannot pin a value down.
"""

from __future__ import annotations

import math
from operator import add
from typing import Optional, Sequence

from ._record import Record
from .errors import EnumerationCapError, MathematicalInconsistencyError, RecipeError
from .fourman import LAGRANGIAN, SYMPLECTIC, EmbeddedTorus, FourManifold, build_t4
from .gompfsum import FormClass, Gluing, SumRecipe, sum_invariants
from .intlat import IntVector, divisibility_bounds, gcd_content, rank
from .settings import DEFAULT_ENUMERATION_CAP

__all__ = [
    "HypothesisReport",
    "EnumerationResult",
    "SolveResult",
    "check_hypotheses",
    "build_theorem_recipe",
    "enumerate_forms",
    "solve_signs",
]


class HypothesisReport(Record):
    """Outcome of the three-part gate for the inequivalent-forms recipe.

    Condition 1: the torus classes are square-zero and span an
    r-dimensional subspace with r > 1 (the declared sum class being
    dependent on them). Condition 2: the first torus is Lagrangian so
    its orientation is a free choice, the others and the sum torus admit
    positively oriented symplectic representatives, with declared
    disjointness. Condition 3: n divides the divisibility of c1 of the
    base while n does not divide 2d, d the exact divisibility of the
    first torus class. A condition holds when it has no reasons against
    it, and ``torus_divisibility`` is d, or None when it is not exact.
    """

    __slots__ = (
        "rank",
        "condition1_reasons",
        "condition2_reasons",
        "n",
        "torus_divisibility",
        "condition3_reasons",
    )

    @property
    def condition1(self) -> bool:
        return not self.condition1_reasons

    @property
    def condition2(self) -> bool:
        return not self.condition2_reasons

    @property
    def condition3(self) -> bool:
        return not self.condition3_reasons

    @property
    def overall(self) -> bool:
        return self.condition1 and self.condition2 and self.condition3

    @property
    def n_divides_2d(self) -> Optional[bool]:
        d = self.torus_divisibility
        return None if d is None else (2 * d) % self.n == 0


class EnumerationResult(Record):
    """All form classes of a recipe over the flippable sign assignments,
    on the one summed manifold they share. Only exact divisibilities
    feed the component bound; the tallies walk the forms on each read.
    """

    __slots__ = ("manifold", "forms", "flippable_copies")

    @property
    def assignments_covered(self) -> int:
        """Sign assignments the forms account for, 2^flippable_copies."""
        return 2**self.flippable_copies

    @property
    def distinct_divisibilities(self) -> tuple[int, ...]:
        """The exact divisibilities among the forms, ascending."""
        return tuple(sorted({f.divisibility.lower for f in self.forms if f.divisibility.exact}))

    @property
    def inexact_count(self) -> int:
        return sum(not f.divisibility.exact for f in self.forms)

    @property
    def divisibility_inconclusive(self) -> bool:
        """Whether two exact forms share a divisibility."""
        return len(self.forms) - self.inexact_count > self.pi0_lower_bound

    @property
    def pi0_lower_bound(self) -> int:
        """Component bound: the number of distinct exact divisibilities."""
        return len(self.distinct_divisibilities)


class SolveResult(Record):
    """Multi-prime construction: one gated recipe, one sign sum per prime."""

    __slots__ = ("recipe", "n", "lagrangian_copies", "sign_sums")

    def witnesses(self, enumeration: EnumerationResult) -> dict[int, FormClass]:
        """Each prime's witness in the enumeration of the recipe: the form
        with the closed-form c1 -(n Tx + n Ty + (n-1+s) Tz), s the prime's
        sign sum, checked to have exact divisibility p. A missing form is
        an inconsistency.
        """
        t, n = self.recipe.base.torus_table, self.n
        fixed = self.recipe.base.c1 - (t["Tx"].klass + t["Ty"].klass) * n
        by_c1 = {f.c1.coords: f for f in enumeration.forms}
        forms = {}
        for p, s in self.sign_sums.items():
            form = by_c1.get((fixed - t["Tz"].klass * (n - 1 + s)).coords)
            if form is None:
                raise MathematicalInconsistencyError(
                    f"enumeration has no form with the signs solved for prime {p}"
                )
            report = form.divisibility
            if not report.exact or report.lower != p:
                raise MathematicalInconsistencyError(
                    f"assignment for prime {p} yields divisibility "
                    f"{report.lower}..{report.upper} (exact={report.exact})"
                )
            forms[p] = form
        return forms


def check_hypotheses(
    manifold: FourManifold,
    tori: Sequence[EmbeddedTorus],
    n: int,
    sum_torus: EmbeddedTorus,
) -> HypothesisReport:
    """Run the three-part gate; fails safe on indeterminate divisibility."""
    if n <= 2:
        raise ValueError("the construction needs n > 2")
    if not tori:
        raise ValueError("at least one torus is required")

    # Condition 1: square-zero classes spanning a subspace of full count,
    # more than one of them, with the sum class dependent as it must be.
    reasons1: list[str] = []
    for torus in tori:
        sq = manifold.pairing.pair(torus.klass, torus.klass)
        if sq is None:
            reasons1.append(f"{torus.label}: self-pairing untracked")
        elif sq != 0:
            reasons1.append(f"{torus.label}: not square-zero")
    klasses = [t.klass for t in tori]
    r = rank(klasses)
    if r != len(tori):
        reasons1.append(f"classes span rank {r}, expected {len(tori)}")
    if len(tori) <= 1:
        reasons1.append("need more than one torus")
    if rank(klasses + [sum_torus.klass]) != r:
        reasons1.append("sum torus class is independent of the summands")

    # Condition 2: orientation-flip freedom on the first torus only;
    # positive symplectic representatives for the rest. A Lagrangian
    # torus counts because a small perturbation of the form makes it
    # positively symplectic without moving c1. Disjointness is a
    # property of the declared embeddings, taken on trust here.
    reasons2: list[str] = []
    first = tori[0]
    if first.kind != LAGRANGIAN:
        reasons2.append(f"first torus {first.label} must be Lagrangian, is {first.kind}")
    for torus in list(tori[1:]) + [sum_torus]:
        if torus.kind not in (SYMPLECTIC, LAGRANGIAN):
            reasons2.append(f"{torus.label}: no symplectic representative ({torus.kind})")
    expected_sum = klasses[0]
    for k in klasses[1:]:
        expected_sum = expected_sum + k
    if sum_torus.klass != expected_sum:
        reasons2.append(
            f"sum torus {sum_torus.label} carries {tuple(sum_torus.klass)}, "
            f"expected {tuple(expected_sum)}"
        )

    # Condition 3: n | div(c1) but n does not divide 2d.
    reasons3: list[str] = []
    c1_content = gcd_content(manifold.c1)
    if c1_content % n != 0:
        reasons3.append(f"n = {n} does not divide the c1 divisibility {c1_content}")
    report = divisibility_bounds(tori[0].klass, manifold.pairing)
    d = report.lower if report.exact else None
    if report.undefined:
        reasons3.append(f"first torus {first.label} is null-homologous")
    elif d is None:
        reasons3.append(
            f"divisibility of {first.label} indeterminate "
            f"(bounds {report.lower}..{report.upper or 'unconstrained'})"
        )
    elif (2 * d) % n == 0:
        reasons3.append(f"n = {n} divides 2d = {2 * d}")

    return HypothesisReport(
        rank=r,
        condition1_reasons=tuple(reasons1),
        condition2_reasons=tuple(reasons2),
        n=n,
        torus_divisibility=d,
        condition3_reasons=tuple(reasons3),
    )


def build_theorem_recipe(
    manifold: FourManifold,
    tori: Sequence[EmbeddedTorus],
    n: int,
    sum_torus: EmbeddedTorus,
    copies: int = 1,
) -> SumRecipe:
    """The theorem's recipe, once the hypothesis gate passes: one copy of
    E(1) along each torus after the first, then `copies` parallel copies
    along the first (Lagrangian) torus, then n-1 parallel copies along
    the sum torus, all signs positive. On T4 with tori (Tz, Tx, Ty) and
    sum Tw that glues Tx, Ty, Tz x copies, Tw x (n-1)."""
    report = check_hypotheses(manifold, tori, n, sum_torus)
    if not report.overall:
        reasons = (
            report.condition1_reasons
            + report.condition2_reasons
            + report.condition3_reasons
        )
        raise RecipeError("hypotheses not satisfied: " + "; ".join(reasons))
    gluings = [Gluing(t.label, (1,)) for t in tori[1:]]
    gluings.append(Gluing(tori[0].label, (1,) * copies))
    gluings.append(Gluing(sum_torus.label, (1,) * (n - 1)))
    return SumRecipe(base=manifold, gluings=tuple(gluings), name=f"{manifold.name}-n{n}")


def enumerate_forms(recipe: SumRecipe, *, cap: int = DEFAULT_ENUMERATION_CAP) -> EnumerationResult:
    """Every form class of the recipe over all signs on the Lagrangian-glued copies.

    A gluing adds -(sum of its signs)*[T] to c1, so c1 depends only on
    each gluing's sign sum. One pass over the gluings keeps, per distinct
    partial c1, the first sign prefix reaching it: a Lagrangian gluing
    with c copies offers the c+1 blocks +...+-...- (more plus signs
    first), any other gluing its own signs. Walking the prefixes in
    insertion order, the forms come out in the order an exhaustive scan
    of all 2^k assignments (plus before minus) first meets their c1, each
    with that first assignment's signs. The cap bounds the distinct
    classes held after any gluing.
    """
    manifold = sum_invariants(recipe)
    table = recipe.base.torus_table

    # Partial Chern classes are plain coordinate tuples during the pass;
    # only the final classes become IntVectors.
    states: dict[tuple[int, ...], tuple[int, ...]] = {recipe.base.c1.coords: ()}
    flippable = 0
    for gluing in recipe.gluings:
        torus = table[gluing.torus_label]
        if torus.kind == LAGRANGIAN:
            c = gluing.copies
            flippable += c
            blocks = [(1,) * p + (-1,) * (c - p) for p in range(c, -1, -1)]
        else:
            blocks = [gluing.signs]
        steps = [(tuple(-sum(block) * t for t in torus.klass.coords), block) for block in blocks]
        nxt: dict[tuple[int, ...], tuple[int, ...]] = {}
        for c1, prefix in states.items():
            for step, block in steps:
                key = tuple(map(add, c1, step))
                if key not in nxt:
                    nxt[key] = prefix + block
            if len(nxt) > cap:
                raise EnumerationCapError(
                    f"enumeration too large: more than {cap} distinct Chern classes "
                    f"after gluing {torus.label}"
                )
        states = nxt

    forms = []
    for coords, signs in states.items():
        c1 = IntVector(coords)
        forms.append(FormClass(signs, c1, divisibility_bounds(c1, manifold.pairing)))
    return EnumerationResult(manifold=manifold, forms=tuple(forms), flippable_copies=flippable)


def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def solve_signs(primes: Sequence[int]) -> SolveResult:
    """Realize, for each prime, a form whose c1 divisibility is exactly it.

    With n = p1 * ... * pm for the given distinct odd primes, the recipe is
    `build_theorem_recipe` on the four-torus with tori (Tz, Tx, Ty), sum
    torus Tw and k copies of the Lagrangian Tz, so the hypothesis gate
    runs: it glues Tx and Ty once each, Tz k times and the diagonal Tw
    n-1 times. An assignment keeping Ty positive whose Tz signs sum to s
    gives c1 = (-n, -n, -(n-1)-s) in torus coordinates, with divisibility
    gcd(n, n-1+s). For each prime the first workable s is found by
    scanning odd s upward from -(n-2), and k is the largest |s|. No form
    is computed here: `SolveResult.witnesses` reads each prime's form off
    the recipe's enumeration rather than trusting the arithmetic.
    """
    primes = tuple(int(p) for p in primes)
    if not primes:
        raise ValueError("at least one odd prime is required")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    for p in primes:
        if not _is_odd_prime(p):
            raise ValueError(f"{p} is not an odd prime")
    n = math.prod(primes)

    # The scan cannot run out: s = p - n + 1 is odd and in range.
    sign_sums = {
        p: next(s for s in range(-(n - 2), n - 1, 2) if math.gcd(n, n - 1 + s) == p)
        for p in primes
    }
    k = max(abs(s) for s in sign_sums.values())

    t4 = build_t4()
    tx, ty, tz, tw = t4.tori
    return SolveResult(
        recipe=build_theorem_recipe(t4, (tz, tx, ty), n, tw, copies=k),
        n=n,
        lagrangian_copies=k,
        sign_sums=sign_sums,
    )
