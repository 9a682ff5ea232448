"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all
even on success). Tolerances and runtime budgets are fixed here, not
configurable.
"""

import random
import time
from contextlib import contextmanager

from fibresum.config import parse_config
from fibresum.construct import check_hypotheses, enumerate_forms, solve_signs
from fibresum.fourman import LAGRANGIAN, SYMPLECTIC, EmbeddedTorus, build_t4
from fibresum.gompfsum import Gluing, SumRecipe, check_c1_identities, sum_c1, sum_invariants
from fibresum.intlat import IntVector
from fibresum.linkgeom import (
    PolygonalLink,
    linking_number_crossings,
    linking_number_gauss,
    linking_numbers,
    torus_relation,
)
from fibresum.settings import bundled_path
from fixtures import (
    borromean_axis,
    borromean_rings,
    flat_signs,
    hopf_link,
    mcmullen_taubes_recipe,
    perturb_curve,
    split_link,
    with_signs,
)

LINKING_TOLERANCE = 1e-6


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL criterion {number}: {description}")
        raise
    print(f"ACCEPTANCE PASS criterion {number}: {description}")


def section_enumeration():
    config = parse_config(bundled_path("corollary15.cfg"))
    recipe = config.recipes["cor15"]
    return recipe, enumerate_forms(recipe)


def test_criterion_1_corollary_reproduction():
    with criterion(1, "bundled five-copy recipe gives divisibilities 3 and 1"):
        start = time.perf_counter()
        recipe, result = section_enumeration()
        assert recipe.total_copies == 5
        by_c1 = {f.c1.coords: f for f in result.forms}
        divisible = by_c1[(-3, -3, -3, 0, 0, 0)]
        prime = by_c1[(-3, -3, -1, 0, 0, 0)]
        assert divisible.divisibility.exact and divisible.divisibility.lower == 3
        assert prime.divisibility.exact and prime.divisibility.lower == 1
        assert result.pi0_lower_bound >= 2
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_two_prime_solver():
    with criterion(2, "solve over primes 3,5 realizes divisibilities 3, 5 and 15"):
        start = time.perf_counter()
        solution = solve_signs((3, 5))
        result = enumerate_forms(solution.recipe)
        assert {3, 5, 15} <= set(result.distinct_divisibilities)
        assert result.pi0_lower_bound >= 3
        witnesses = solution.witnesses(result)
        assert sorted(witnesses) == [3, 5]
        for p, form in witnesses.items():
            c1 = sum_c1(with_signs(solution.recipe, form.signs_flat))
            matching = [f for f in result.forms if f.c1 == c1]
            assert matching == [form] and form.divisibility.lower == p
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_3_negative_control():
    with criterion(3, "single-diagonal recipe is flagged divisibility-inconclusive"):
        result = enumerate_forms(mcmullen_taubes_recipe())
        assert len({f.c1 for f in result.forms}) > 1
        assert result.distinct_divisibilities == (2,)
        assert result.pi0_lower_bound == 1
        assert result.divisibility_inconclusive


def test_criterion_4_invariant_suite():
    with criterion(4, "c1 identities and additivity hold on every produced form"):
        recipe, section = section_enumeration()
        solution = solve_signs((3, 5))
        batches = [
            (recipe, section),
            (solution.recipe, enumerate_forms(solution.recipe)),
            (mcmullen_taubes_recipe(), None),
        ]
        for source_recipe, result in batches:
            if result is None:
                result = enumerate_forms(source_recipe)
            manifold = result.manifold
            extras = {t.label: t.klass for t in source_recipe.tori}
            reports = check_c1_identities(manifold, result.forms, extras)
            assert len(reports) == len(result.forms)
            for report in reports:
                assert report.ok, report.failed
                assert any("2e + 3sigma" in msg for msg in report.passed)
        section_manifold = section.manifold
        assert (
            section_manifold.euler,
            section_manifold.signature,
            section_manifold.b2,
        ) == (60, -40, 58)


def _perturbed_configurations(seed: int, count: int):
    """Deterministic stream of (curve, curve, expected) linking pairs."""
    rng = random.Random(seed)
    hopf = hopf_link().components
    split = split_link().components
    rings = borromean_rings().components
    axis = borromean_axis()
    produced = 0
    kind = 0
    while produced < count:
        if kind == 0:
            a, b = (perturb_curve(c, rng) for c in hopf)
            PolygonalLink((a, b))
            yield a, b, 1
        elif kind == 1:
            a, b = (perturb_curve(c, rng) for c in split)
            PolygonalLink((a, b))
            yield a, b, 0
        else:
            comps = tuple(perturb_curve(c, rng) for c in rings)
            moved = perturb_curve(axis, rng)
            PolygonalLink(comps + (moved,))
            i, j = rng.sample(range(3), 2)
            yield comps[i], comps[j], 0
            yield moved, comps[rng.randrange(3)], 1
        produced += 1
        kind = (kind + 1) % 3


def test_criterion_5_linking_oracle_equivalence():
    with criterion(5, "crossing and integral linking agree on 100+ perturbed links"):
        rings = borromean_rings()
        for i in range(3):
            for j in range(i + 1, 3):
                assert linking_number_crossings(rings.components[i], rings.components[j]) == 0
        axis = borromean_axis()
        assert linking_numbers(rings, axis)[1] == [1, 1, 1]
        assert torus_relation(*linking_numbers(rings, axis)) == (1, 1, 1)
        checked = 0
        for a, b, expected in _perturbed_configurations(seed=20240117, count=100):
            exact = linking_number_crossings(a, b)
            approx = linking_number_gauss(a, b)
            assert abs(approx - exact) < LINKING_TOLERANCE
            assert exact == expected
            checked += 1
        assert checked >= 100


def test_criterion_6_hypothesis_gate():
    with criterion(6, "gate rejects bad configurations and accepts all odd n"):
        manifold, (tx, ty, tz, tw) = build_t4()
        assert not check_hypotheses(manifold, (tz,), 3, tz).overall
        doubled = EmbeddedTorus("T2z", IntVector((0, 0, 2, 0, 0, 0)), LAGRANGIAN, None, False)
        doubled_sum = EmbeddedTorus("Ts", IntVector((1, 1, 2, 0, 0, 0)), SYMPLECTIC, None, False)
        bad_d = check_hypotheses(manifold, (doubled, tx, ty), 4, doubled_sum)
        assert bad_d.n_divides_2d and not bad_d.overall
        assert not check_hypotheses(manifold, (tx, ty, tz), 3, tw).overall
        for n in range(3, 100, 2):
            report = check_hypotheses(manifold, (tz, tx, ty), n, tw)
            assert report.overall and report.torus_divisibility == 1


def _random_recipe(rng, manifold, tori):
    gluings = []
    for torus in tori:
        copies = rng.randint(0, 2)
        if copies:
            signs = tuple(
                rng.choice((1, -1)) if torus.kind == LAGRANGIAN else 1
                for _ in range(copies)
            )
            gluings.append(Gluing(torus.label, signs))
    lagrangian_glued = any(
        g.copies for g in gluings if g.torus_label in ("Ty", "Tz")
    )
    if not lagrangian_glued:
        gluings.append(Gluing(rng.choice(("Ty", "Tz")), (rng.choice((1, -1)),)))
    rng.shuffle(gluings)
    return SumRecipe(manifold, tori, tuple(gluings), name="random")


def test_criterion_7_sign_locality_and_permutation():
    with criterion(7, "sign flips move c1 by exactly 2T; gluing order is irrelevant"):
        manifold, tori = build_t4()
        table = {t.label: t for t in tori}
        rng = random.Random(31337)
        for _ in range(1000):
            recipe = _random_recipe(rng, manifold, tori)
            signs = list(flat_signs(recipe))
            labels_flat = [g.torus_label for g in recipe.gluings for _ in range(g.copies)]
            flippable = [
                i for i, label in enumerate(labels_flat) if table[label].kind == LAGRANGIAN
            ]
            pick = rng.choice(flippable)
            flipped = list(signs)
            flipped[pick] = -flipped[pick]
            before = sum_c1(recipe)
            after = sum_c1(with_signs(recipe, flipped))
            delta = after - before
            expected = (signs[pick] - flipped[pick]) * table[labels_flat[pick]].klass
            assert delta == expected
            assert delta in (2 * table[labels_flat[pick]].klass, -2 * table[labels_flat[pick]].klass)

            shuffled = list(recipe.gluings)
            rng.shuffle(shuffled)
            permuted = SumRecipe(manifold, tori, tuple(shuffled), recipe.name)
            assert sum_invariants(permuted) == sum_invariants(recipe)
            assert sum_c1(permuted) == before
