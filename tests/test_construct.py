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
from oracles import brute_force_forms, pairwise_divisibility_bounds


def t4_setup():
    manifold = build_t4()
    return (manifold, *manifold.tori)


def test_check_hypotheses_accepts_standard_configuration():
    manifold, tx, ty, tz, tw = t4_setup()
    report = check_hypotheses(manifold, (tz, tx, ty), 3, tw)
    assert report.overall
    assert report.rank == 3
    assert report.torus_divisibility == 1
    assert report.n_divides_2d is False


def test_check_hypotheses_rejects_single_torus():
    manifold, tx, ty, tz, tw = t4_setup()
    report = check_hypotheses(manifold, (tz,), 3, tz)
    assert not report.condition1
    assert not report.overall


def test_check_hypotheses_rejects_when_n_divides_2d():
    manifold, tx, ty, tz, tw = t4_setup()
    doubled = EmbeddedTorus("T2z", IntVector((0, 0, 2, 0, 0, 0)), LAGRANGIAN, None, False)
    sum_torus = EmbeddedTorus("Tsum", IntVector((1, 1, 2, 0, 0, 0)), SYMPLECTIC, None, False)
    report = check_hypotheses(manifold, (doubled, tx, ty), 4, sum_torus)
    assert report.condition1 and report.condition2
    assert report.torus_divisibility == 2
    assert report.n_divides_2d is True
    assert not report.condition3
    assert not report.overall


def test_check_hypotheses_rejects_non_lagrangian_first_torus():
    manifold, tx, ty, tz, tw = t4_setup()
    report = check_hypotheses(manifold, (tx, ty, tz), 3, tw)
    assert not report.condition2
    assert any("must be Lagrangian" in r for r in report.condition2_reasons)
    assert not report.overall


def test_check_hypotheses_rejects_wrong_sum_class():
    manifold, tx, ty, tz, tw = t4_setup()
    report = check_hypotheses(manifold, (tz, tx), 3, tw)
    assert not report.condition2
    assert any("expected" in r for r in report.condition2_reasons)


_T4 = build_t4()
_TX, _TY, _TZ, _TW = _T4.tori
# Gate inputs that each break one check, with the report field that
# names it and the reason.
GATE_REASONS = [
    # A record with Tz's self-pairing untracked refuses Tz as its torus,
    # so this one declares no tori and the gate gets them on their own.
    (
        replace(_T4, pairing=_T4.pairing.masked({2}), tori=()),
        (_TZ, _TX, _TY),
        "condition1_reasons",
        "Tz: self-pairing untracked",
    ),
    # Ty + Uy pairs to 2 with itself.
    (
        _T4,
        (_TZ, _TX, replace(_TY, klass=IntVector((0, 1, 0, 0, 1, 0)))),
        "condition1_reasons",
        "Ty: not square-zero",
    ),
    (
        _T4,
        (_TZ, replace(_TX, kind="spiky"), _TY),
        "condition2_reasons",
        "Tx: no symplectic representative (spiky)",
    ),
]


@pytest.mark.parametrize("manifold, tori, field, reason", GATE_REASONS, ids=[r for *_, r in GATE_REASONS])
def test_check_hypotheses_names_each_broken_check(manifold, tori, field, reason):
    report = check_hypotheses(manifold, tori, 3, _TW)
    assert reason in getattr(report, field)
    assert not report.overall


def test_check_hypotheses_fails_safe_on_indeterminate_divisibility():
    from fibresum.fourman import FourManifold

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
        tori=(),
    )
    t1 = EmbeddedTorus("a", IntVector((1, 0)), LAGRANGIAN, None, False)
    t2 = EmbeddedTorus("b", IntVector((0, 1)), SYMPLECTIC, None, False)
    sum_torus = EmbeddedTorus("ab", IntVector((1, 1)), SYMPLECTIC, None, False)
    report = check_hypotheses(blind, (t1, t2), 3, sum_torus)
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
    manifold, tx, ty, tz, tw = t4_setup()
    with pytest.raises(ValueError):
        check_hypotheses(manifold, (tz, tx, ty), 2, tw)
    with pytest.raises(ValueError):
        check_hypotheses(manifold, (), 3, tw)


def test_check_hypotheses_accepts_all_odd_n_up_to_99():
    manifold, tx, ty, tz, tw = t4_setup()
    for n in range(3, 100, 2):
        report = check_hypotheses(manifold, (tz, tx, ty), n, tw)
        assert report.overall, n
        assert report.torus_divisibility == 1


def test_build_theorem_recipe_copy_counts():
    manifold, tx, ty, tz, tw = t4_setup()
    recipe = build_theorem_recipe(manifold, (tz, tx, ty), 3, tw)
    assert recipe.total_copies == 5
    xz_sum = EmbeddedTorus(
        "Txz", IntVector((1, 0, 1, 0, 0, 0)), SYMPLECTIC,
        dual=IntVector((0, 0, 0, 1, 0, 0)), parallel_copies_available=True,
    )
    # The recipe glues only tori of its base, so Txz joins them.
    recipe2 = build_theorem_recipe(replace(manifold, tori=manifold.tori + (xz_sum,)), (tz, tx), 3, xz_sum)
    assert recipe2.total_copies == 4


def test_build_theorem_recipe_enforces_gate():
    manifold, tx, ty, tz, tw = t4_setup()
    with pytest.raises(RecipeError, match="hypotheses not satisfied"):
        build_theorem_recipe(manifold, (tx, ty, tz), 3, tw)


def test_mcmullen_taubes_recipe_has_four_copies():
    recipe = mcmullen_taubes_recipe()
    assert recipe.total_copies == 4
    labels = sorted(g.torus_label for g in recipe.gluings)
    assert labels == ["Tw", "Tx", "Ty", "Tz"]


def test_enumerate_forms_section_recipe():
    manifold, tx, ty, tz, tw = t4_setup()
    recipe = build_theorem_recipe(manifold, (tz, tx, ty), 3, tw)
    result = enumerate_forms(recipe)
    assert result.flippable_copies == 2
    assert result.assignments_covered == 4
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
    manifold, tx, ty, tz, tw = t4_setup()
    recipe = SumRecipe(manifold, (Gluing("Tx", (1,)), Gluing("Tw", (1,))))
    result = enumerate_forms(recipe)
    assert result.flippable_copies == 0
    assert len(result.forms) == 1
    assert result.pi0_lower_bound == 1


def test_enumerate_forms_cap_bounds_chern_classes():
    manifold = build_t4()
    # 2^8 assignments but only 9 sign sums, so 9 classes fit under 16.
    recipe = SumRecipe(manifold, (Gluing("Tz", (1,) * 8),))
    result = enumerate_forms(recipe, cap=16)
    assert len(result.forms) == 9
    assert result.flippable_copies == 8
    assert result.assignments_covered == 256
    # Two independent gluings of four copies give 5 * 5 classes.
    recipe = SumRecipe(manifold, (Gluing("Ty", (1,) * 4), Gluing("Tz", (1,) * 4)))
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
        gluings.append(Gluing(torus.label, signs))
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
        gluings.append(Gluing(torus.label, tuple(rng.choice((1, -1)) for _ in range(copies))))
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


def solver_signs(result, p):
    """Prime p's assignment by the closed form: Tx and Ty positive, the
    Tz copies with their plus signs first summing to p's sign sum, every
    Tw copy positive."""
    k, s = result.lagrangian_copies, result.sign_sums[p]
    plus = (k + s) // 2
    return (1, 1) + (1,) * plus + (-1,) * (k - plus) + (1,) * (result.n - 1)


def test_solve_signs_two_primes_matches_gcd_search_oracle():
    for primes in ((3,), (3, 5), (3, 5, 7), (7, 11, 13)):
        result = solve_signs(primes)
        n = math.prod(primes)
        assert result.n == n
        # Oracle: scan all odd sign sums in [-(n-2), n-2] and keep the
        # first value whose gcd against n realizes each prime.
        first_hit = {}
        for s in range(-(n - 2), n - 1, 2):
            first_hit.setdefault(math.gcd(n, n - 1 + s), s)
        assert result.sign_sums == {p: first_hit[p] for p in primes}
        assert result.lagrangian_copies == max(abs(s) for s in result.sign_sums.values())
        enumeration = enumerate_forms(result.recipe)
        assert set(primes) <= set(enumeration.distinct_divisibilities)
        # Every witness is an enumerated form carrying the closed-form
        # assignment, and the one-recipe-per-assignment route gives the
        # same c1.
        forms = result.witnesses(enumeration)
        assert sorted(forms) == sorted(primes)
        for p, form in forms.items():
            assert any(f is form for f in enumeration.forms)
            assert form.signs_flat == solver_signs(result, p)
            c1 = sum_c1(with_signs(result.recipe, form.signs_flat))
            assert form.c1 == c1
            assert gcd_content(c1) == p
    assert solve_signs((3, 5)).sign_sums == {3: -11, 5: -9}


def test_solve_runs_the_hypothesis_gate_once(monkeypatch, capsys):
    calls = []
    original = construct.check_hypotheses

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(construct, "check_hypotheses", counted)
    assert main(["solve", "--primes", "3,5"]) == 0
    assert len(calls) == 1
    manifold, tx, ty, tz, tw = t4_setup()
    assert calls[0] == (manifold, (tz, tx, ty), 15, tw)


def _doctored(enumeration, signs, change):
    """The enumeration with the form carrying `signs` passed through
    `change` (None drops it)."""
    forms = (change(f) if f.signs_flat == signs else f for f in enumeration.forms)
    return replace(enumeration, forms=tuple(f for f in forms if f is not None))


def test_solve_job_rejects_an_enumeration_missing_a_solved_form(monkeypatch, capsys):
    signs = solver_signs(solve_signs((3, 5)), 3)
    original = construct.enumerate_forms

    def dropped(recipe, **kwargs):
        return _doctored(original(recipe, **kwargs), signs, lambda form: None)

    monkeypatch.setattr(construct, "enumerate_forms", dropped)
    assert main(["solve", "--primes", "3,5"]) == 3
    assert capsys.readouterr().out.endswith(
        "error: mathematical inconsistency: enumeration has no form with the signs solved for prime 3\n"
    )


@pytest.mark.parametrize(
    "report",
    [
        DivisibilityReport(1, 1),  # a wrong exact divisibility
        DivisibilityReport(15, 15),  # also divisible by the other prime
        DivisibilityReport(5, 0),  # right witness, not exact
    ],
)
def test_realized_forms_rejects_a_wrong_divisibility(report):
    result = solve_signs((3, 5))
    enumeration = _doctored(
        enumerate_forms(result.recipe),
        solver_signs(result, 5),
        lambda form: replace(form, divisibility=report),
    )
    with pytest.raises(MathematicalInconsistencyError, match="assignment for prime 5 yields divisibility"):
        result.witnesses(enumeration)


def test_solve_signs_single_prime_reproduces_section_construction():
    result = solve_signs((3,))
    assert result.n == 3
    assert result.lagrangian_copies == 1
    assert result.recipe.total_copies == 5
    assert result.sign_sums[3] == 1
    enumeration = enumerate_forms(result.recipe)
    assert set(enumeration.distinct_divisibilities) == {1, 3}


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
    manifold, tx, ty, tz, tw = t4_setup()
    recipe = build_theorem_recipe(manifold, (tz, tx, ty), n, tw)
    _, form = perform_recipe(recipe)
    assert form.divisibility.exact
    assert form.divisibility.lower % n == 0
    # Flip the one Tz copy, wherever the builder glues it.
    signs = list(flat_signs(recipe))
    labels = [g.torus_label for g in recipe.gluings for _ in g.signs]
    signs[labels.index("Tz")] = -1
    _, flipped = perform_recipe(with_signs(recipe, signs))
    assert flipped.divisibility.exact
    assert flipped.divisibility.lower % n != 0


@pytest.mark.parametrize("n, k", [(3, 1), (5, 3), (15, 11)])
def test_build_theorem_recipe_glues_the_first_torus_copies_times(n, k):
    manifold, tx, ty, tz, tw = t4_setup()
    recipe = build_theorem_recipe(manifold, (tz, tx, ty), n, tw, copies=k)
    assert [(g.torus_label, g.copies) for g in recipe.gluings] == [
        ("Tx", 1), ("Ty", 1), ("Tz", k), ("Tw", n - 1)
    ]
    assert all(s == 1 for g in recipe.gluings for s in g.signs)
    assert recipe.name == f"T4-n{n}"
