import pytest

from fibresum.fourman import (
    LAGRANGIAN,
    SYMPLECTIC,
    EmbeddedTorus,
    FourManifold,
    build_e1,
    build_t4,
    form_parity,
    validate,
)
from fibresum.intlat import IntVector, PairingMatrix
from fixtures import zero_pairing
from oracles import add_classes, t4_surface_class, wedge_pairing


def test_t4_record_values():
    manifold, tori = build_t4()
    assert (manifold.euler, manifold.signature, manifold.b1, manifold.b2) == (0, 0, 4, 6)
    assert manifold.c1 == IntVector.zero(6)
    assert not manifold.simply_connected
    assert manifold.pi1_normally_generated_by_tori
    labels = [t.label for t in tori]
    assert labels == ["Tx", "Ty", "Tz", "Tw"]
    kinds = {t.label: t.kind for t in tori}
    assert kinds == {
        "Tx": SYMPLECTIC,
        "Ty": LAGRANGIAN,
        "Tz": LAGRANGIAN,
        "Tw": SYMPLECTIC,
    }
    tw = tori[3]
    assert tw.klass.coords[:3] == (1, 1, 1)
    assert tw.parallel_copies_available
    assert validate(manifold, tori) == []


def test_t4_pairing_matches_wedge_product_oracle():
    # The tracked pairing block is recomputed from scratch by wedging
    # the dual 2-forms on the four-torus: torus classes T_i span the
    # (i, t) coordinate planes, their duals span the complementary ones.
    manifold, tori = build_t4()
    spans = {
        "Tx": (0, 3),
        "Ty": (1, 3),
        "Tz": (2, 3),
        "Ux": (1, 2),
        "Uy": (2, 0),
        "Uz": (0, 1),
    }
    classes = {name: t4_surface_class(span) for name, span in spans.items()}
    classes["Tw"] = add_classes(classes["Tx"], classes["Ty"], classes["Tz"])

    def tracked(name):
        order = ["Tx", "Ty", "Tz", "Ux", "Uy", "Uz"]
        return IntVector(tuple(1 if n == name else 0 for n in order))

    for i, name_a in enumerate(["Tx", "Ty", "Tz", "Ux", "Uy", "Uz"]):
        for name_b in ["Tx", "Ty", "Tz", "Ux", "Uy", "Uz"]:
            expected = wedge_pairing(classes[name_a], classes[name_b])
            assert manifold.pairing.pair(tracked(name_a), tracked(name_b)) == expected
    # All four embedded tori are square-zero and mutually unpaired.
    for a in ("Tx", "Ty", "Tz", "Tw"):
        for b in ("Tx", "Ty", "Tz", "Tw"):
            assert wedge_pairing(classes[a], classes[b]) == 0
    # Declared duals pair +1 with their tori, per the oracle.
    for name in ("Tx", "Ty", "Tz"):
        dual = "U" + name[1]
        assert wedge_pairing(classes[name], classes[dual]) == 1


def test_e1_record_values_against_blowup_additivity():
    # Nine blow-ups of the projective plane: e = 3 + 9, sigma = 1 - 9,
    # b2 = 1 + 9.
    manifold, fibre = build_e1()
    assert manifold.euler == 3 + 9
    assert manifold.signature == 1 - 9
    assert manifold.b2 == 1 + 9
    assert manifold.simply_connected and manifold.b1 == 0
    assert manifold.c1 == fibre.klass
    assert manifold.pairing.pair(fibre.klass, fibre.klass) == 0
    assert manifold.pairing.pair(fibre.klass, fibre.dual) == 1
    assert validate(manifold, [fibre]) == []


def test_builders_are_deterministic():
    assert build_t4() == build_t4()
    assert build_e1() == build_e1()


def test_validate_flags_non_square_zero_torus():
    manifold, tori = build_t4()
    bad = EmbeddedTorus("bad", IntVector((1, 0, 0, 1, 0, 0)), SYMPLECTIC, None, False)
    problems = validate(manifold, list(tori) + [bad])
    assert any("not square-zero" in p for p in problems)


def test_validate_flags_record_inconsistencies():
    manifold, _ = build_t4()
    squashed = FourManifold(
        name="bad",
        euler=7,
        signature=9,
        b1=0,
        b2=3,
        lattice_basis_labels=manifold.lattice_basis_labels,
        pairing=manifold.pairing,
        c1=manifold.c1,
        pi1_normally_generated_by_tori=False,
        simply_connected=True,
    )
    problems = validate(squashed)
    assert any("exceeds b2" in p for p in problems)
    assert any("euler" in p for p in problems)


def test_validate_flags_adjunction_violation():
    manifold, fibre = build_e1()
    tampered = FourManifold(
        name="E1",
        euler=12,
        signature=-8,
        b1=0,
        b2=10,
        lattice_basis_labels=manifold.lattice_basis_labels,
        pairing=manifold.pairing,
        c1=IntVector((1, 1)),
        pi1_normally_generated_by_tori=True,
        simply_connected=True,
    )
    problems = validate(tampered, [fibre])
    assert any("adjunction" in p for p in problems)


def test_constructor_rejects_mismatched_lattice_data():
    with pytest.raises(ValueError):
        FourManifold(
            name="x",
            euler=0,
            signature=0,
            b1=0,
            b2=0,
            lattice_basis_labels=("a", "b"),
            pairing=zero_pairing(2),
            c1=IntVector((0,)),
            pi1_normally_generated_by_tori=False,
            simply_connected=False,
        )


def test_form_parity():
    t4, _ = build_t4()
    e1, _ = build_e1()
    assert form_parity(t4) == "even"
    assert form_parity(e1) == "odd"


def test_divisibility_invariant_under_consistent_dual_resigning():
    # Replacing every dual basis vector U by -U flips the off-diagonal
    # pairing blocks and the dual coordinates together; divisibility
    # certificates cannot see the difference.
    from fibresum.intlat import divisibility_bounds

    manifold, _ = build_t4()
    flipped_rows = [
        [
            -e if (i < 3) != (j < 3) else e
            for j, e in enumerate(row)
        ]
        for i, row in enumerate(manifold.pairing.entries)
    ]
    flipped = PairingMatrix(tuple(tuple(r) for r in flipped_rows))
    c = IntVector((-3, -3, -3, 0, 0, 0))
    original = divisibility_bounds(c, manifold.pairing)
    resigned = divisibility_bounds(c, flipped)
    assert (original.lower, original.upper, original.exact) == (
        resigned.lower,
        resigned.upper,
        resigned.exact,
    )
