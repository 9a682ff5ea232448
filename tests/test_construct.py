import math
import random

import pytest

from fibresum import construct
from fibresum.cli import main
from fibresum.construct import (
    HypothesisReport,
    build_theorem_recipe,
    check_hypotheses,
    enumerate_forms,
    solve_signs,
)
from fibresum.errors import EnumerationCapError, MathematicalInconsistencyError, RecipeError
from fibresum.fourman import LAGRANGIAN, SYMPLECTIC, EmbeddedTorus, FourManifold, build_t4
from fibresum.gompfsum import Gluing, SumRecipe, sum_c1, sum_invariants
from fibresum.intlat import DivisibilityReport, IntVector, PairingMatrix, gcd_content
from fixtures import flat_signs, mcmullen_taubes_recipe, perform_recipe, replace, with_signs, zero_pairing
from oracles import (
    brute_force_forms,
    pairwise_divisibility_bounds,
    theorem_family_divisibilities,
    theorem_family_witness_c1,
)

# The theorem's tori on T4: the Lagrangian Tz first, then Tx and Ty, and
# the diagonal Tw as the sum torus.
TORI, SUM = ("Tz", "Tx", "Ty"), "Tw"


def test_check_hypotheses_accepts_standard_configuration():
    report = check_hypotheses(build_t4(), TORI, 3, SUM)
    assert report.overall
    assert report.rank == 3
    assert report.torus_divisibility == 1
    assert report.n_divides_2d is False


def test_check_hypotheses_rejects_single_torus():
    report = check_hypotheses(build_t4(), ("Tz",), 3, "Tz")
    assert not report.condition1
    assert not report.overall


def _with_tori(manifold, *tori):
    """The record with `tori` declared after its own."""
    return replace(manifold, tori=manifold.tori + tori)


def test_check_hypotheses_rejects_when_n_divides_2d():
    doubled = EmbeddedTorus("T2z", IntVector((0, 0, 2, 0, 0, 0)), LAGRANGIAN, None, False)
    sum_torus = EmbeddedTorus("Tsum", IntVector((1, 1, 2, 0, 0, 0)), SYMPLECTIC, None, False)
    report = check_hypotheses(_with_tori(build_t4(), doubled, sum_torus), ("T2z", "Tx", "Ty"), 4, "Tsum")
    assert report.condition1 and report.condition2
    assert report.torus_divisibility == 2
    assert report.n_divides_2d is True
    assert not report.condition3
    assert not report.overall


def test_check_hypotheses_rejects_non_lagrangian_first_torus():
    report = check_hypotheses(build_t4(), ("Tx", "Ty", "Tz"), 3, SUM)
    assert not report.condition2
    assert any("must be Lagrangian" in r for r in report.condition2_reasons)
    assert not report.overall


def test_check_hypotheses_rejects_wrong_sum_class():
    report = check_hypotheses(build_t4(), ("Tz", "Tx"), 3, SUM)
    assert not report.condition2
    assert any("expected" in r for r in report.condition2_reasons)


def test_gate_and_recipe_refuse_a_torus_the_record_does_not_hold():
    # Txz is square-zero, but T4 does not declare it.
    message = "unknown torus 'Txz' on manifold 'T4'"
    with pytest.raises(ValueError, match=message) as info:
        build_theorem_recipe(build_t4(), ("Tz", "Tx"), 3, "Txz")
    assert not isinstance(info.value, RecipeError)
    with pytest.raises(ValueError, match=message):
        check_hypotheses(build_t4(), ("Tz", "Tx"), 3, "Txz")
    with pytest.raises(ValueError, match="unknown torus 'Tq' on manifold 'T4'"):
        check_hypotheses(build_t4(), ("Tz", "Tq"), 3, SUM)


def test_check_hypotheses_fails_safe_on_indeterminate_divisibility():
    t1 = EmbeddedTorus("a", IntVector((1, 0)), LAGRANGIAN, None, False)
    t2 = EmbeddedTorus("b", IntVector((0, 1)), SYMPLECTIC, None, False)
    sum_torus = EmbeddedTorus("ab", IntVector((1, 1)), SYMPLECTIC, None, False)
    blind = FourManifold(
        name="blind",
        euler=0,
        signature=0,
        b1=2,
        b2=2,
        lattice_basis_labels=("a", "b"),
        pairing=zero_pairing(2),
        c1=IntVector((0, 0)),
        pi1_normally_generated_by_tori=False,
        simply_connected=False,
        tori=(t1, t2, sum_torus),
    )
    report = check_hypotheses(blind, ("a", "b"), 3, "ab")
    assert not report.condition3
    assert report.torus_divisibility is None
    assert report.n_divides_2d is None
    assert any("indeterminate" in r for r in report.condition3_reasons)
    assert not report.overall


def test_hypothesis_report_flags_follow_its_reasons_and_d():
    report = HypothesisReport(
        rank=2,
        condition1_reasons=(),
        condition2_reasons=("first torus is symplectic",),
        n=3,
        torus_divisibility=None,
        condition3_reasons=(),
    )
    assert report.condition1 and not report.condition2 and report.condition3
    assert not report.overall
    assert replace(report, condition2_reasons=()).overall
    assert not replace(report, condition2_reasons=(), condition1_reasons=("rank 1",)).overall
    assert not replace(report, condition2_reasons=(), condition3_reasons=("d = 3",)).overall
    # n_divides_2d: None without d, else whether n divides 2d.
    assert report.n_divides_2d is None
    assert replace(report, torus_divisibility=3).n_divides_2d is True
    assert replace(report, n=6, torus_divisibility=3).n_divides_2d is True
    assert replace(report, torus_divisibility=1).n_divides_2d is False
    assert replace(report, n=5, torus_divisibility=5).n_divides_2d is True


def test_check_hypotheses_precondition_errors():
    with pytest.raises(ValueError, match="the construction needs n > 2"):
        check_hypotheses(build_t4(), TORI, 2, SUM)
    with pytest.raises(ValueError, match="at least one torus is required"):
        check_hypotheses(build_t4(), (), 3, SUM)


def test_check_hypotheses_accepts_all_odd_n_up_to_99():
    manifold = build_t4()
    for n in range(3, 100, 2):
        report = check_hypotheses(manifold, TORI, n, SUM)
        assert report.overall, n
        assert report.torus_divisibility == 1


def test_build_theorem_recipe_copy_counts():
    manifold = build_t4()
    recipe = build_theorem_recipe(manifold, TORI, 3, SUM)
    assert recipe.total_copies == 5
    xz_sum = EmbeddedTorus(
        "Txz", IntVector((1, 0, 1, 0, 0, 0)), SYMPLECTIC,
        dual=IntVector((0, 0, 0, 1, 0, 0)), parallel_copies_available=True,
    )
    recipe2 = build_theorem_recipe(_with_tori(manifold, xz_sum), ("Tz", "Tx"), 3, "Txz")
    assert recipe2.total_copies == 4


def test_build_theorem_recipe_enforces_gate():
    with pytest.raises(RecipeError, match="hypotheses not satisfied"):
        build_theorem_recipe(build_t4(), ("Tx", "Ty", "Tz"), 3, SUM)


def test_mcmullen_taubes_recipe_has_four_copies():
    recipe = mcmullen_taubes_recipe()
    assert recipe.total_copies == 4
    labels = sorted(g.torus_label for g in recipe.gluings)
    assert labels == ["Tw", "Tx", "Ty", "Tz"]


def test_enumerate_forms_section_recipe():
    recipe = build_theorem_recipe(build_t4(), TORI, 3, SUM)
    result = enumerate_forms(recipe)
    assert result.flippable_copies == 2
    # Tx, Ty, Tz, Tw x2: Ty and Tz flip, more plus signs first.
    assert {f.layout for f in result.forms} == {(("Tx", 1), ("Ty", 1), ("Tz", 1), ("Tw", 2))}
    assert [f.profile for f in result.forms] == [(1, 1, 1, 2), (1, 1, 0, 2), (1, 0, 1, 2), (1, 0, 0, 2)]
    torus_parts = {f.c1.coords[:3] for f in result.forms}
    assert torus_parts == {(-3, -3, -3), (-3, -3, -1), (-3, -1, -3), (-3, -1, -1)}
    assert result.distinct_divisibilities == (1, 3)
    assert result.pi0_lower_bound == 2
    # Exhaustive and deterministic: a rerun reproduces everything.
    assert enumerate_forms(recipe) == result


def test_enumerate_forms_negative_control():
    result = enumerate_forms(mcmullen_taubes_recipe())
    assert result.distinct_divisibilities == (2,)
    assert result.pi0_lower_bound == 1
    assert result.divisibility_inconclusive
    assert len({f.c1 for f in result.forms}) == 4


def test_enumerate_forms_no_flippable_copies():
    recipe = SumRecipe(build_t4(), (Gluing("Tx", 1, 1), Gluing("Tw", 1, 1)))
    result = enumerate_forms(recipe)
    assert result.flippable_copies == 0
    assert len(result.forms) == 1
    assert result.pi0_lower_bound == 1


def test_enumerate_forms_cap_bounds_chern_classes():
    manifold = build_t4()
    # 2^8 assignments but only 9 sign sums, so 9 classes fit under 16.
    recipe = SumRecipe(manifold, (Gluing("Tz", 8, 8),))
    result = enumerate_forms(recipe, cap=16)
    assert len(result.forms) == 9
    assert result.flippable_copies == 8
    assert [f.profile for f in result.forms] == [(p,) for p in range(8, -1, -1)]
    # Two independent gluings of four copies give 5 * 5 classes.
    recipe = SumRecipe(manifold, (Gluing("Ty", 4, 4), Gluing("Tz", 4, 4)))
    with pytest.raises(EnumerationCapError, match="enumeration too large"):
        enumerate_forms(recipe, cap=16)
    assert len(enumerate_forms(recipe, cap=25).forms) == 25


def _random_t4_recipe(rng):
    """Repeated coordinate and diagonal gluings, at most 10 flippable copies."""
    manifold = build_t4()
    tori = manifold.tori
    gluings = []
    flippable = 0
    for _ in range(rng.randint(1, 6)):
        torus = rng.choice(tori)
        copies = rng.randint(1, 4)
        flips = torus.kind == LAGRANGIAN
        if flippable + copies * flips > 10:
            continue
        flippable += copies * flips
        signs = tuple(rng.choice((1, -1)) if flips else 1 for _ in range(copies))
        gluings.append(Gluing(torus.label, copies, signs.count(1)))
    return SumRecipe(manifold, tuple(gluings))


def _random_hyperbolic_recipe(rng):
    """Simply connected record whose lattice is hyperbolic pairs F_i, G_i,
    each Lagrangian F_i glued once or twice."""
    pairs = rng.randint(2, 5)
    dim = 2 * pairs
    rows = tuple(
        tuple(1 if j == (i + pairs) % dim else 0 for j in range(dim)) for i in range(dim)
    )
    coeffs = tuple(rng.choice((0, 2, 3, 4, 6, 9, 12)) for _ in range(pairs))

    def unit(i):
        return IntVector(tuple(int(j == i) for j in range(dim)))

    tori = tuple(
        EmbeddedTorus(f"F{i}", unit(i), LAGRANGIAN, dual=unit(pairs + i), parallel_copies_available=True)
        for i in range(pairs)
    )
    manifold = FourManifold(
        name="M",
        euler=24,
        signature=-16,
        b1=0,
        b2=22,
        lattice_basis_labels=tuple(f"F{i}" for i in range(pairs))
        + tuple(f"G{i}" for i in range(pairs)),
        pairing=PairingMatrix(rows),
        c1=IntVector(coeffs + (0,) * pairs),
        pi1_normally_generated_by_tori=False,
        simply_connected=True,
        tori=tori,
    )
    gluings = []
    for torus in tori:
        copies = rng.randint(1, 2)
        signs = [rng.choice((1, -1)) for _ in range(copies)]
        gluings.append(Gluing(torus.label, copies, signs.count(1)))
    return SumRecipe(manifold, tuple(gluings))


def test_enumerate_forms_matches_brute_force_oracle():
    rng = random.Random(20261018)
    recipes = [_random_t4_recipe(rng) for _ in range(30)]
    recipes += [_random_hyperbolic_recipe(rng) for _ in range(15)]
    recipes += [mcmullen_taubes_recipe(), solve_signs((3,)).recipe]
    flippable = set()
    for recipe in recipes:
        result = enumerate_forms(recipe)
        expected = brute_force_forms(recipe)
        assert [(f.signs_flat, f.c1.coords) for f in result.forms] == expected
        summed = sum_invariants(recipe)
        # The oracle also pairs c1 with every declared dual class.
        duals = [t.dual for t in recipe.base.tori if t.dual is not None]
        reports = [pairwise_divisibility_bounds(c1, summed.pairing.entries, duals) for _, c1 in expected]
        got = [(f.divisibility.lower, f.divisibility.upper, f.divisibility.exact, f.divisibility.undefined)
               for f in result.forms]
        assert got == reports
        # The tallies, from the oracle's own per-form reports.
        exact = [lower for lower, _, is_exact, _ in reports if is_exact]
        assert result.distinct_divisibilities == tuple(sorted(set(exact)))
        assert result.inexact_count == len(reports) - len(exact)
        assert result.divisibility_inconclusive == (len(exact) > len(set(exact)))
        assert result.pi0_lower_bound == len(set(exact))
        flippable.add(result.flippable_copies)
    assert min(flippable) == 0 and max(flippable) == 10


def _mixed_lagrangian_recipe(rng):
    """T4 recipes whose Lagrangian gluings (Ty, Tz) have two to five
    copies with both signs given, around symplectic gluings of the
    recipe's own (positive) signs; at most 10 flippable copies."""
    gluings = []
    flippable = 0
    while flippable < 4 or rng.random() < 0.5:
        label = rng.choice(("Tx", "Ty", "Tz", "Tw"))
        copies = rng.randint(2, 5)
        if label in ("Ty", "Tz"):
            if flippable + copies > 10:
                break
            flippable += copies
            signs = [1, -1] + [rng.choice((1, -1)) for _ in range(copies - 2)]
            rng.shuffle(signs)
        else:
            signs = [1] * copies
        gluings.append(Gluing(label, copies, signs.count(1)))
    return SumRecipe(build_t4(), tuple(gluings))


def test_profiles_expand_to_the_brute_force_forms():
    rng = random.Random(33)
    for _ in range(40):
        recipe = _mixed_lagrangian_recipe(rng)
        result = enumerate_forms(recipe)
        expected = brute_force_forms(recipe)
        layout = tuple((g.torus_label, g.copies) for g in recipe.gluings)
        assert [f.layout for f in result.forms] == [layout] * len(expected)
        assert [(f.signs_flat, f.c1.coords) for f in result.forms] == expected
        # Each profile is its oracle signs' plus count per gluing.
        for form, (signs, _) in zip(result.forms, expected):
            blocks = []
            for _, copies in layout:
                blocks.append(signs[:copies].count(1))
                signs = signs[copies:]
            assert form.profile == tuple(blocks)


def test_enumerate_forms_cap_bounds_one_large_gluing():
    # One gluing of 3,000 Lagrangian copies offers 3,001 classes. The pass
    # holds one plus count per class, builds the steps of the first six
    # counts only and stops at the sixth class. One sign per copy per
    # class would take over 70 MB, and one step per count about 0.7 MB.
    import tracemalloc

    recipe = SumRecipe(build_t4(), (Gluing("Tz", 3000, 3000),))
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError, match="more than 5 distinct Chern classes after gluing Tz"):
            enumerate_forms(recipe, cap=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18


def test_solve_signs_two_primes_matches_gcd_search_oracle():
    for primes in ((3,), (3, 5), (3, 5, 7), (7, 11, 13)):
        result = solve_signs(primes)
        n = math.prod(primes)
        assert result.n == n
        assert result.primes == primes
        # Oracle: scan all odd sign sums in [-(n-2), n-2] and keep the
        # first value whose gcd against n realizes each prime; k is the
        # largest of their sizes.
        first_hit = {}
        for s in range(-(n - 2), n - 1, 2):
            first_hit.setdefault(math.gcd(n, n - 1 + s), s)
        assert result.lagrangian_copies == max(abs(first_hit[p]) for p in primes)
        enumeration = enumerate_forms(result.recipe)
        assert set(primes) <= set(enumeration.distinct_divisibilities)
        # Every witness is an enumerated form, and the one-recipe-per-
        # assignment route gives the same c1.
        forms = result.witnesses(enumeration)
        assert sorted(forms) == sorted(primes)
        for p, form in forms.items():
            assert any(f is form for f in enumeration.forms)
            c1 = sum_c1(with_signs(result.recipe, form.signs_flat))
            assert form.c1 == c1
            assert gcd_content(c1) == p
    assert solve_signs((3, 5)).lagrangian_copies == 11


@pytest.mark.parametrize("primes", [(3, 5), (3, 7), (3, 5, 7), (5, 7, 11)])
def test_solve_matches_the_closed_form_of_the_theorem_family(primes):
    result = solve_signs(primes)
    n, k = result.n, result.lagrangian_copies
    enumeration = enumerate_forms(result.recipe)
    assert set(enumeration.distinct_divisibilities) == theorem_family_divisibilities(n, k)
    witnesses = result.witnesses(enumeration)
    for p in primes:
        first = next(f for f in enumeration.forms if f.divisibility.exact and f.divisibility.lower == p)
        assert witnesses[p] is first
        assert witnesses[p].c1.coords == theorem_family_witness_c1(n, k, p)
        assert gcd_content(witnesses[p].c1) == p


def test_solve_runs_the_hypothesis_gate_once(monkeypatch, capsys):
    calls = []
    original = construct.check_hypotheses

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(construct, "check_hypotheses", counted)
    assert main(["solve", "--primes", "3,5"]) == 0
    assert len(calls) == 1
    assert calls[0] == (build_t4(), TORI, 15, SUM)


def test_solve_job_rejects_an_enumeration_missing_a_solved_form(monkeypatch, capsys):
    original = construct.enumerate_forms

    def dropped(recipe, **kwargs):
        # Every form of exact divisibility 3 goes.
        enumeration = original(recipe, **kwargs)
        forms = [f for f in enumeration.forms if not (f.divisibility.exact and f.divisibility.lower == 3)]
        assert len(forms) < len(enumeration.forms)
        return replace(enumeration, forms=tuple(forms))

    monkeypatch.setattr(construct, "enumerate_forms", dropped)
    assert main(["solve", "--primes", "3,5"]) == 3
    assert capsys.readouterr().out.endswith(
        "error: mathematical inconsistency: enumeration has no form of exact divisibility 3\n"
    )
    result = solve_signs((3, 5))
    with pytest.raises(MathematicalInconsistencyError, match="no form of exact divisibility 3"):
        result.witnesses(dropped(result.recipe))


@pytest.mark.parametrize(
    "report",
    [
        DivisibilityReport(1, 1),  # a wrong exact divisibility
        DivisibilityReport(15, 15),  # also divisible by the other prime
        DivisibilityReport(5, 0),  # the right lower bound, not exact
    ],
)
def test_realized_forms_rejects_a_wrong_divisibility(report):
    # Prime 5's first form, reported otherwise, is no witness: the next
    # form of exact divisibility 5 is.
    result = solve_signs((3, 5))
    enumeration = enumerate_forms(result.recipe)
    first, second = [f for f in enumeration.forms if f.divisibility == DivisibilityReport(5, 5)]
    forms = tuple(replace(f, divisibility=report) if f is first else f for f in enumeration.forms)
    assert result.witnesses(replace(enumeration, forms=forms))[5] is second


def test_solve_signs_single_prime_reproduces_section_construction():
    result = solve_signs((3,))
    assert result.n == 3
    assert result.lagrangian_copies == 1
    assert result.recipe.total_copies == 5
    enumeration = enumerate_forms(result.recipe)
    assert set(enumeration.distinct_divisibilities) == {1, 3}
    # The all-positive assignment is the first form, of divisibility 3.
    assert result.witnesses(enumeration)[3].signs_flat == (1,) * 5


def test_solve_signs_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_signs(())
    with pytest.raises(ValueError):
        solve_signs((3, 3))
    with pytest.raises(ValueError):
        solve_signs((4,))
    with pytest.raises(ValueError):
        solve_signs((2, 3))
    with pytest.raises(ValueError):
        solve_signs((9,))


@pytest.mark.parametrize("n", [3, 5, 9, 15, 21])
def test_positive_assignment_divisible_by_n_and_flip_breaks_it(n):
    recipe = build_theorem_recipe(build_t4(), TORI, n, SUM)
    _, form = perform_recipe(recipe)
    assert form.divisibility.exact
    assert form.divisibility.lower % n == 0
    # Flip the one Tz copy, wherever the builder glues it.
    signs = list(flat_signs(recipe))
    labels = [g.torus_label for g in recipe.gluings for _ in range(g.copies)]
    signs[labels.index("Tz")] = -1
    _, flipped = perform_recipe(with_signs(recipe, signs))
    assert flipped.divisibility.exact
    assert flipped.divisibility.lower % n != 0


@pytest.mark.parametrize("n, k", [(3, 1), (5, 3), (15, 11)])
def test_build_theorem_recipe_glues_the_first_torus_copies_times(n, k):
    recipe = build_theorem_recipe(build_t4(), TORI, n, SUM, copies=k)
    assert [(g.torus_label, g.copies) for g in recipe.gluings] == [
        ("Tx", 1), ("Ty", 1), ("Tz", k), ("Tw", n - 1)
    ]
    assert all(g.plus == g.copies for g in recipe.gluings)
    assert recipe.name == f"T4-n{n}"


def test_a_gluing_along_a_zero_class_fits_any_cap():
    # Every count of a gluing along [T] = 0 reaches the one class its
    # first count reaches, so ten copies fit under a cap of 1.
    zero = EmbeddedTorus("Z", IntVector((0, 0)), LAGRANGIAN, None, True)
    manifold = FourManifold("M", 0, 0, 2, 2, ("a", "b"), zero_pairing(2), IntVector((0, 0)), False, False, (zero,))
    recipe = SumRecipe(manifold, (Gluing("Z", 10, 5),))
    (form,) = enumerate_forms(recipe, cap=1).forms
    assert form.profile == (10,)
    assert [(form.signs_flat, form.c1.coords)] == brute_force_forms(recipe)
