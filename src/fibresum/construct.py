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
from .fourman import LAGRANGIAN, FourManifold, build_t4
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

    Condition 1: the torus classes span an r-dimensional subspace with
    r > 1, the declared sum class being dependent on them; the record
    already holds each torus square-zero. Condition 2: the first torus
    is Lagrangian so its orientation is a free choice, and the sum torus
    carries the sum of the classes; every other torus of a record is
    symplectic or Lagrangian, so it admits a positively oriented
    symplectic representative, and disjointness is declared. Condition
    3: n divides the divisibility of c1 of the base while n does not
    divide 2d, d the exact divisibility of the first torus class. A
    condition holds when it has no reasons against it, and
    ``torus_divisibility`` is d, or None when it is not exact.
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
    on the one summed manifold they share: one form per distinct c1, each
    with the first profile reaching it. Only exact divisibilities feed
    the component bound; the tallies walk the forms on each read.
    """

    __slots__ = ("manifold", "forms", "flippable_copies")

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
    """Multi-prime construction: one gated recipe and the primes its
    enumeration must realize."""

    __slots__ = ("recipe", "lagrangian_copies", "primes")

    @property
    def n(self) -> int:
        return math.prod(self.primes)

    def witnesses(self, enumeration: EnumerationResult) -> dict[int, FormClass]:
        """Each prime's witness in the enumeration of the recipe: the first
        form whose divisibility is exactly that prime. The recipe realizes
        every prime, so a prime without one is an inconsistency.
        """
        forms: dict[int, FormClass] = {}
        for form in enumeration.forms:
            d = form.divisibility
            if d.exact and d.lower in self.primes:
                forms.setdefault(d.lower, form)
        for p in self.primes:
            if p not in forms:
                raise MathematicalInconsistencyError(f"enumeration has no form of exact divisibility {p}")
        return forms


def check_hypotheses(
    manifold: FourManifold,
    labels: Sequence[str],
    n: int,
    sum_label: str,
) -> HypothesisReport:
    """Run the three-part gate on the manifold's tori named by `labels`
    and `sum_label`; fails safe on indeterminate divisibility. A label
    the record does not hold raises ValueError."""
    if n <= 2:
        raise ValueError("the construction needs n > 2")
    if not labels:
        raise ValueError("at least one torus is required")
    table = manifold.torus_table
    for label in (*labels, sum_label):
        if label not in table:
            raise ValueError(f"unknown torus {label!r} on manifold {manifold.name!r}")
    tori = [table[label] for label in labels]
    sum_torus = table[sum_label]

    # Condition 1: classes spanning a subspace of full count, more than
    # one of them, with the sum class dependent as it must be.
    reasons1: list[str] = []
    klasses = [t.klass for t in tori]
    r = rank(klasses)
    if r != len(tori):
        reasons1.append(f"classes span rank {r}, expected {len(tori)}")
    if len(tori) <= 1:
        reasons1.append("need more than one torus")
    if rank(klasses + [sum_torus.klass]) != r:
        reasons1.append("sum torus class is independent of the summands")

    # Condition 2: orientation-flip freedom on the first torus only. The
    # rest need positive symplectic representatives, which every torus of
    # a record has: a Lagrangian torus counts because a small perturbation
    # of the form makes it positively symplectic without moving c1.
    # Disjointness is a property of the declared embeddings, taken on
    # trust here.
    reasons2: list[str] = []
    first = tori[0]
    if first.kind != LAGRANGIAN:
        reasons2.append(f"first torus {first.label} must be Lagrangian, is {first.kind}")
    expected_sum = sum(klasses[1:], klasses[0])
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
    labels: Sequence[str],
    n: int,
    sum_label: str,
    copies: int = 1,
) -> SumRecipe:
    """The theorem's recipe on the manifold's tori, once the hypothesis
    gate passes: one copy of E(1) along each torus after the first, then
    `copies` parallel copies along the first (Lagrangian) torus, then n-1
    parallel copies along the sum torus, all signs positive. On T4 with
    tori (Tz, Tx, Ty) and sum Tw that glues Tx, Ty, Tz x copies,
    Tw x (n-1). A label the record does not hold raises ValueError
    before any recipe exists."""
    report = check_hypotheses(manifold, labels, n, sum_label)
    if not report.overall:
        reasons = (
            report.condition1_reasons
            + report.condition2_reasons
            + report.condition3_reasons
        )
        raise RecipeError("hypotheses not satisfied: " + "; ".join(reasons))
    gluings = [Gluing(label, 1, 1) for label in labels[1:]]
    gluings.append(Gluing(labels[0], copies, copies))
    gluings.append(Gluing(sum_label, n - 1, n - 1))
    return SumRecipe(base=manifold, gluings=tuple(gluings), name=f"{manifold.name}-n{n}")


def enumerate_forms(recipe: SumRecipe, *, cap: int = DEFAULT_ENUMERATION_CAP) -> EnumerationResult:
    """Every form class of the recipe over all signs on the Lagrangian-glued copies.

    A gluing adds -(sum of its signs)*[T] to c1, so c1 depends only on
    each gluing's plus count. One pass over the gluings keeps, per
    distinct partial c1, the first profile (plus counts so far) reaching
    it: a Lagrangian gluing with c copies offers the counts c, c-1, ...,
    0, any other gluing its own count. Walking the profiles in insertion
    order, the forms come out in the order an exhaustive scan of all 2^k
    assignments (plus before minus) first meets their c1, each with that
    first assignment's signs. The cap bounds the distinct classes held
    at any point of the pass.
    """
    manifold = sum_invariants(recipe)
    table = recipe.base.torus_table
    layout = tuple((g.torus_label, g.copies) for g in recipe.gluings)

    # Partial Chern classes are plain coordinate tuples during the pass;
    # only the final classes become IntVectors.
    states: dict[tuple[int, ...], tuple[int, ...]] = {recipe.base.c1.coords: ()}
    flippable = 0
    for gluing in recipe.gluings:
        torus = table[gluing.torus_label]
        c = gluing.copies
        if torus.kind == LAGRANGIAN:
            flippable += c
            # From one state distinct counts reach distinct classes unless
            # [T] = 0, so no count past the first cap + 1 can matter.
            counts = range(c, max(c - cap - 1, -1), -1)
        else:
            counts = (gluing.plus,)
        steps = [(tuple((c - 2 * p) * t for t in torus.klass.coords), (p,)) for p in counts]
        nxt: dict[tuple[int, ...], tuple[int, ...]] = {}
        for c1, prefix in states.items():
            for step, count in steps:
                key = tuple(map(add, c1, step))
                if key not in nxt:
                    nxt[key] = prefix + count
                    if len(nxt) > cap:
                        raise EnumerationCapError(
                            f"enumeration too large: more than {cap} distinct Chern classes "
                            f"after gluing {torus.label}"
                        )
        states = nxt

    forms = []
    for coords, profile in states.items():
        c1 = IntVector(coords)
        forms.append(FormClass(layout, profile, c1, divisibility_bounds(c1, manifold.pairing)))
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
    is computed here: `SolveResult.witnesses` takes each prime's form
    from the recipe's enumeration, which certifies every divisibility.
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
    k = max(
        abs(next(s for s in range(-(n - 2), n - 1, 2) if math.gcd(n, n - 1 + s) == p))
        for p in primes
    )
    return SolveResult(
        recipe=build_theorem_recipe(build_t4(), ("Tz", "Tx", "Ty"), n, "Tw", copies=k),
        lagrangian_copies=k,
        primes=primes,
    )
