import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibresum.errors import RecipeError
from fibresum.fourman import LAGRANGIAN, EmbeddedTorus, FourManifold, build_e1, build_t4
from fibresum.gompfsum import (
    FormClass,
    Gluing,
    SumRecipe,
    c1_contributions,
    check_c1_identities,
    sum_c1,
    sum_invariants,
)
from fibresum.intlat import IntVector, PairingMatrix, divisibility_bounds
from fixtures import flat_signs, perform_recipe, with_signs
from oracles import pairwise_c1_identities, pairwise_divisibility_bounds, pairwise_pairing


def t4_tables():
    manifold, tori = build_t4()
    return manifold, tori, {t.label: t for t in tori}


def section_recipe(signs_tz=(1,), tw_copies=2):
    manifold, tori, _ = t4_tables()
    gluings = (
        Gluing("Tx", (1,)),
        Gluing("Ty", (1,)),
        Gluing("Tz", tuple(signs_tz)),
        Gluing("Tw", (1,) * tw_copies),
    )
    return SumRecipe(manifold, tori, gluings, name="section")


def test_sum_c1_diagonal_recipe():
    recipe = section_recipe()
    c1 = sum_c1(recipe)
    assert c1.coords == (-3, -3, -3, 0, 0, 0)


def test_sum_c1_with_one_flip():
    recipe = section_recipe(signs_tz=(-1,))
    c1 = sum_c1(recipe)
    assert c1.coords == (-3, -3, -1, 0, 0, 0)


def test_sum_c1_empty_gluings_is_identity():
    # Without gluings the sum would be the base itself, which does not
    # carry the recipe's name, so the recipe is refused before sum_c1.
    manifold, tori, _ = t4_tables()
    with pytest.raises(RecipeError) as caught:
        SumRecipe(manifold, tori, ())
    assert str(caught.value) == "no gluings"


def test_contribution_trace_keeps_two_step_form():
    manifold, tori, table = t4_tables()
    records = c1_contributions(SumRecipe(manifold, tori, (Gluing("Tz", (1, -1)),)))
    assert len(records) == 2
    plus, minus = records
    tz = table["Tz"].klass
    assert plus["fibre_term"] == tz and plus["normal_term"] == -2 * tz
    assert minus["fibre_term"] == -1 * tz and minus["normal_term"] == 2 * tz
    assert plus["net"] == -1 * tz and minus["net"] == tz


def test_sum_invariants_five_copies():
    recipe = section_recipe()
    summed = sum_invariants(recipe)
    # Additivity oracle by hand: e = 0 + 5 * 12, sigma = 0 - 5 * 8.
    assert (summed.euler, summed.signature, summed.b2) == (60, -40, 58)
    assert summed.simply_connected and summed.b1 == 0


def test_sum_invariants_not_simply_connected_when_a_torus_is_missed():
    manifold, tori, _ = t4_tables()
    summed = sum_invariants(SumRecipe(manifold, tori, (Gluing("Tx", (1,)),)))
    assert not summed.simply_connected
    assert summed.euler == 12 and summed.signature == -8


def test_sum_invariants_zero_gluings_returns_base():
    # The missing gluings join the other violations of the recipe.
    manifold, tori, _ = t4_tables()
    with pytest.raises(RecipeError) as caught:
        SumRecipe(manifold, tori + tori[:1], (), name="x")
    assert str(caught.value) == "torus Tx: declared twice; no gluings"


def test_perform_recipe_zero_copies_returns_base():
    # Zero copies are refused both as a whole recipe and along one torus.
    manifold, tori, _ = t4_tables()
    with pytest.raises(RecipeError, match="^no gluings$"):
        SumRecipe(manifold, tori, (), name="empty")
    with pytest.raises(RecipeError, match="^gluing along Tz: copies must be positive$"):
        Gluing("Tz", ())


def test_sum_marks_dual_self_pairings_unknown():
    _, tori, _ = t4_tables()
    recipe = section_recipe()
    summed = sum_invariants(recipe)
    ux = IntVector((0, 0, 0, 1, 0, 0))
    tx = tori[0].klass
    assert summed.pairing.pair(ux, ux) is None
    assert summed.pairing.pair(tx, ux) == 1
    assert summed.pairing.pair(tx, tx) == 0


def test_elliptic_surface_self_sum_gives_k3_record():
    manifold, fibre = build_e1()
    summed = sum_invariants(SumRecipe(manifold, (fibre,), (Gluing("F", (1,)),)))
    assert (summed.euler, summed.signature, summed.b2) == (24, -16, 22)
    assert summed.c1 == IntVector.zero(summed.rank)
    assert summed.simply_connected


def test_perform_recipe_theorem_shapes():
    manifold, tori, table = t4_tables()
    for n in (3, 5, 7):
        gluings = (
            Gluing("Tz", (1,)),
            Gluing("Tx", (1,)),
            Gluing("Ty", (1,)),
            Gluing("Tw", (1,) * (n - 1)),
        )
        recipe = SumRecipe(manifold, tori, gluings, name=f"n{n}")
        summed, form = perform_recipe(recipe)
        expected = IntVector((-n, -n, -n, 0, 0, 0))
        assert form.c1 == expected
        assert form.divisibility.exact and form.divisibility.lower == n
        # Flipping the Lagrangian first torus adds 2 * [Tz].
        flipped = with_signs(recipe, (-1,) + flat_signs(recipe)[1:])
        _, flipped_form = perform_recipe(flipped)
        assert flipped_form.c1 == expected + 2 * table["Tz"].klass


_, _T4_TORI = build_t4()
_SHORT_TZ = EmbeddedTorus("Tz", IntVector((0, 0, 1)), LAGRANGIAN, None, False)
_SHORT_DUAL_TZ = EmbeddedTorus(
    "Tz",
    IntVector((0, 0, 1, 0, 0, 0)),
    LAGRANGIAN,
    dual=IntVector((0, 0, 0, 0, 1)),
    parallel_copies_available=False,
)


@pytest.mark.parametrize(
    "tori, gluings, message",
    [
        (_T4_TORI, (Gluing("nope", (1,)),), "gluing references undeclared torus nope"),
        (_T4_TORI + _T4_TORI[:1], (Gluing("Tx", (1,)),), "torus Tx: declared twice"),
        (_T4_TORI[:2] + (_SHORT_TZ,), (Gluing("Tx", (1,)),), "torus Tz: class length 3 != tracked rank 6"),
        (_T4_TORI[:2] + (_SHORT_DUAL_TZ,), (Gluing("Tx", (1,)),), "torus Tz: dual length 5 != tracked rank 6"),
        (
            _T4_TORI,
            (Gluing("Tw", (-1,)),),
            "gluing along Tw: orientation not flippable (symplectic torus)",
        ),
        (
            _T4_TORI,
            (Gluing("Tx", (-1,)), Gluing("nope", (1,))),
            "gluing along Tx: orientation not flippable (symplectic torus); "
            "gluing references undeclared torus nope",
        ),
    ],
    ids=[
        "undeclared-torus",
        "duplicate-label",
        "class-length",
        "dual-length",
        "flip-on-symplectic-torus",
        "every-violation-joined",
    ],
)
def test_recipe_rejected_at_construction(tori, gluings, message):
    manifold, _ = build_t4()
    with pytest.raises(RecipeError) as caught:
        SumRecipe(manifold, tori, gluings)
    assert str(caught.value) == message


def test_with_signs_rechecks_the_flip_rule():
    recipe = section_recipe()
    with pytest.raises(RecipeError, match="not flippable"):
        with_signs(recipe, (-1,) + flat_signs(recipe)[1:])


def test_parallel_copies_need_declaration():
    manifold, tori, _ = t4_tables()
    lonely = tuple(
        t if t.label != "Tw" else type(t)(
            label=t.label,
            klass=t.klass,
            kind=t.kind,
            dual=t.dual,
            parallel_copies_available=False,
        )
        for t in tori
    )
    with pytest.raises(RecipeError) as caught:
        SumRecipe(manifold, lonely, (Gluing("Tw", (1, 1)),))
    assert str(caught.value) == (
        "gluing along Tw: 2 parallel copies requested but none declared available"
    )


def test_gluing_constructor_validation():
    with pytest.raises(RecipeError):
        Gluing("Tx", ())
    with pytest.raises(RecipeError):
        Gluing("Tx", (2,))
    assert Gluing("Tx", (1, -1)).copies == 2


def test_check_c1_identities_on_section_manifold():
    recipe = section_recipe()
    summed, form = perform_recipe(recipe)
    (report,) = check_c1_identities(summed, [form], {t.label: t.klass for t in recipe.tori})
    assert report.ok
    assert any("<c1,c1> = 2e + 3sigma" in msg for msg in report.passed)
    assert any("parity of <c1, Tx>" in msg for msg in report.passed)
    # Dual self-pairings are untracked after the sum, hence skipped.
    assert any("Ux" in msg for msg in report.skipped)


def test_check_c1_identities_catches_corruption():
    # On the summed manifold, bumping c1 by a dual class flips the
    # parity of its pairing with the corresponding torus class.
    recipe = section_recipe()
    summed, form = perform_recipe(recipe)
    corrupted = FormClass(
        signs_flat=form.signs_flat,
        c1=form.c1 + IntVector((0, 0, 0, 1, 0, 0)),
        divisibility=form.divisibility,
    )
    (report,) = check_c1_identities(summed, [corrupted])
    assert not report.ok
    assert any("parity" in msg and "Tx" in msg for msg in report.failed)


def test_check_c1_identities_catches_corruption_on_full_pairing():
    # With a fully tracked pairing, bumping c1 by the torus class itself
    # is caught through the dual: the elliptic surface record sees
    # <c1 + F, S> turn even against the odd section square.
    manifold, fibre = build_e1()
    from fibresum.intlat import divisibility_bounds

    corrupted_c1 = manifold.c1 + fibre.klass
    corrupted = FormClass(
        signs_flat=(),
        c1=corrupted_c1,
        divisibility=divisibility_bounds(corrupted_c1, manifold.pairing),
    )
    (report,) = check_c1_identities(manifold, [corrupted])
    assert not report.ok
    assert any("parity" in msg and "S" in msg for msg in report.failed)


def test_check_c1_identities_requires_simply_connected():
    manifold, tori, _ = t4_tables()
    # Only Tx is glued, so the sum is not certified simply connected.
    summed, form = perform_recipe(SumRecipe(manifold, tori, (Gluing("Tx", (1,)),)))
    assert not summed.simply_connected
    with pytest.raises(ValueError):
        check_c1_identities(summed, [form])


def _random_checked_record(rng):
    """A simply connected record on a random symmetric pairing with
    scattered untracked entries and one untracked block, several random
    c1 vectors (the first one usually meeting the square target), one to
    three random dual classes and extra classes."""
    dim = rng.randint(1, 6)
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            rows[i][j] = rows[j][i] = rng.choice((0, 0, 1, -1, 2, 3, None))
    pairing = PairingMatrix(tuple(map(tuple, rows))).masked(
        rng.sample(range(dim), rng.randint(0, dim))
    )
    labels = tuple(f"B{j}" for j in range(dim))

    def vector():
        return IntVector(tuple(rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(dim)))

    c1s = [vector() for _ in range(rng.randint(1, 5))]
    square = pairwise_pairing(pairing.entries, c1s[0], c1s[0])
    # euler = -s and signature = s put the target 2e + 3sigma at s.
    s = rng.randint(-6, 6) if square is None or rng.random() < 0.3 else square
    manifold = FourManifold(
        name="random", euler=-s, signature=s, b1=0, b2=dim, lattice_basis_labels=labels,
        pairing=pairing, c1=c1s[0], pi1_normally_generated_by_tori=True, simply_connected=True,
    )
    extras = {}
    for k in range(rng.randint(0, 3)):
        j = rng.randrange(dim)
        kind = rng.choice(("basis", "basis name", "new"))
        if kind == "basis":
            extras[labels[j]] = IntVector(tuple(int(i == j) for i in range(dim)))
        else:
            extras[labels[j] if kind == "basis name" else f"X{k}"] = vector()
    duals = [vector() for _ in range(rng.randint(1, 3))]
    return manifold, c1s, duals, extras


def test_row_kernel_matches_pairwise_oracle():
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(400):
        manifold, c1s, duals, extras = _random_checked_record(rng)
        forms = []
        for c1 in c1s:
            # The oracle pairs c1 with the duals too; they cannot move the bound.
            report = divisibility_bounds(c1, manifold.pairing)
            got = (report.lower, report.upper, report.exact, report.undefined)
            assert got == pairwise_divisibility_bounds(c1, manifold.pairing.entries, duals)
            forms.append(FormClass((), c1, report))
        reports = check_c1_identities(manifold, forms, extras)
        assert len(reports) == len(forms)
        for c1, report in zip(c1s, reports):
            expected = pairwise_c1_identities(manifold, c1, extras)
            assert (report.passed, report.failed, report.skipped) == expected
            outcomes |= {msg[msg.index("("):] for msg in report.skipped}
            outcomes |= {"fail"} if report.failed else set()
            outcomes |= {"square pass"} if any("2e + 3sigma" in m for m in report.passed) else set()
    assert outcomes == {
        "(pairing untracked)",
        "(self-pairing untracked)",
        "(c1 pairing untracked)",
        "fail",
        "square pass",
    }


@given(st.integers(0, 6), st.integers(0, 6))
@settings(max_examples=30, deadline=None)
def test_euler_signature_affine_in_copy_count(a, b):
    manifold, tori, _ = t4_tables()
    total = a + b
    gluings = []
    if a:
        gluings.append(Gluing("Tx", (1,) * a))
    if b:
        gluings.append(Gluing("Tw", (1,) * b))
    if not gluings:
        with pytest.raises(RecipeError, match="^no gluings$"):
            SumRecipe(manifold, tori, ())
        return
    summed = sum_invariants(SumRecipe(manifold, tori, tuple(gluings)))
    assert summed.euler == manifold.euler + 12 * total
    assert summed.signature == manifold.signature - 8 * total


def random_recipe(rng):
    manifold, tori, _ = t4_tables()
    gluings = []
    for torus in tori:
        copies = rng.randint(0, 2)
        if not copies:
            continue
        signs = tuple(
            rng.choice((1, -1)) if torus.kind == LAGRANGIAN else 1 for _ in range(copies)
        )
        gluings.append(Gluing(torus.label, signs))
    if not any(t.kind == LAGRANGIAN for t in tori for g in gluings if g.torus_label == t.label):
        gluings.append(Gluing("Tz", (rng.choice((1, -1)),)))
    rng.shuffle(gluings)
    return SumRecipe(manifold, tori, tuple(gluings), name="random")


def test_sign_locality_and_permutation_invariance():
    rng = random.Random(777)
    for _ in range(100):
        recipe = random_recipe(rng)
        table = recipe.torus_table
        signs = list(flat_signs(recipe))
        flippable = [
            i
            for i, (label, _) in enumerate(
                (g.torus_label, c) for g in recipe.gluings for c in range(g.copies)
            )
            if table[label].kind == LAGRANGIAN
        ]
        labels_flat = [g.torus_label for g in recipe.gluings for _ in range(g.copies)]
        pick = rng.choice(flippable)
        flipped = list(signs)
        flipped[pick] = -flipped[pick]
        base_c1 = sum_c1(recipe)
        # The two-step trace is an independent path to the same class.
        traced = recipe.base.c1
        for record in c1_contributions(recipe):
            traced = traced + record["net"]
        assert base_c1 == traced
        new_c1 = sum_c1(with_signs(recipe, flipped))
        delta = (signs[pick] - flipped[pick]) * table[labels_flat[pick]].klass
        assert new_c1 == base_c1 + delta

        shuffled = list(recipe.gluings)
        rng.shuffle(shuffled)
        permuted = SumRecipe(recipe.base, recipe.tori, tuple(shuffled), recipe.name)
        assert sum_invariants(permuted) == sum_invariants(recipe)
        assert sum_c1(permuted) == base_c1


def test_form_class_recompute_bit_exact():
    recipe = section_recipe(signs_tz=(-1,))
    _, form = perform_recipe(recipe)
    again = sum_c1(with_signs(recipe, form.signs_flat))
    assert again == form.c1
