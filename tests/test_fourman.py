import pytest

from fibresum.fourman import (
    LAGRANGIAN,
    SYMPLECTIC,
    EmbeddedTorus,
    FourManifold,
    build_e1,
    build_t4,
    form_parity,
)
from fibresum.intlat import IntVector, PairingMatrix
from fixtures import replace, zero_pairing
from oracles import add_classes, t4_surface_class, wedge_pairing


def test_t4_record_values():
    manifold = build_t4()
    tori = manifold.tori
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
    assert manifold.torus_table == {t.label: t for t in tori}


def test_t4_pairing_matches_wedge_product_oracle():
    # The tracked pairing block is recomputed from scratch by wedging
    # the dual 2-forms on the four-torus: torus classes T_i span the
    # (i, t) coordinate planes, their duals span the complementary ones.
    manifold = build_t4()
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
    manifold = build_e1()
    (fibre,) = manifold.tori
    assert manifold.euler == 3 + 9
    assert manifold.signature == 1 - 9
    assert manifold.b2 == 1 + 9
    assert manifold.simply_connected and manifold.b1 == 0
    assert manifold.c1 == fibre.klass
    assert manifold.pairing.pair(fibre.klass, fibre.klass) == 0
    assert manifold.pairing.pair(fibre.klass, fibre.dual) == 1


def test_builders_are_deterministic():
    assert build_t4() == build_t4()
    assert build_e1() == build_e1()


def test_validate_flags_non_square_zero_torus():
    manifold = build_t4()
    bad = EmbeddedTorus("bad", IntVector((1, 0, 0, 1, 0, 0)), SYMPLECTIC, None, False)
    with pytest.raises(ValueError) as info:
        replace(manifold, tori=manifold.tori + (bad,))
    assert str(info.value) == "manifold 'T4' is inconsistent: torus bad: not square-zero (self-pairing 2)"


def test_validate_flags_record_inconsistencies():
    manifold = build_t4()
    with pytest.raises(ValueError) as info:
        FourManifold(
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
            tori=(),
        )
    assert str(info.value) == (
        "manifold 'bad' is inconsistent: bad: |signature| = 9 exceeds b2 = 3; "
        "bad: euler = 7 != 2 - 2*b1 + b2 = 5"
    )


def test_validate_flags_adjunction_violation():
    manifold = build_e1()
    with pytest.raises(ValueError, match=r"torus F: adjunction violated \(<c1, T> = 1\)"):
        replace(manifold, c1=IntVector((1, 1)))


def _hyperbolic_plane(labels, *tori):
    """A simply connected record on one hyperbolic pair with c1 = 0."""
    pairing = PairingMatrix(((0, 1), (1, 0)))
    return FourManifold("M", 4, 0, 0, 2, labels, pairing, IntVector.zero(2), False, True, tori)


# Each identity check of `gompfsum.check_c1_identities` is named after one
# class, so a record refuses a repeated basis label and a torus that takes
# a basis class's label but carries another class.
def test_record_refuses_a_repeated_basis_label():
    with pytest.raises(ValueError) as info:
        _hyperbolic_plane(("F", "F"))
    assert str(info.value) == "manifold 'M' is inconsistent: M: duplicate basis label 'F'"


def test_record_refuses_a_torus_named_after_another_basis_class():
    s = EmbeddedTorus("S", IntVector((1, 0)), LAGRANGIAN, None, False)
    with pytest.raises(ValueError) as info:
        _hyperbolic_plane(("F", "S"), s)
    assert str(info.value) == (
        "manifold 'M' is inconsistent: torus S: named after basis class S but carries (1, 0)"
    )
    # The same torus under its own label, or carrying S's class, is consistent.
    for torus in (replace(s, label="A"), replace(s, klass=IntVector((0, 1)))):
        assert _hyperbolic_plane(("F", "S"), torus).tori == (torus,)


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
            tori=(),
        )


def test_form_parity():
    assert form_parity(build_t4()) == "even"
    assert form_parity(build_e1()) == "odd"


def test_divisibility_invariant_under_consistent_dual_resigning():
    # Replacing every dual basis vector U by -U flips the off-diagonal
    # pairing blocks and the dual coordinates together; divisibility
    # certificates cannot see the difference.
    from fibresum.intlat import divisibility_bounds

    manifold = build_t4()
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
