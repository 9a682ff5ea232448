"""Invariant records for closed oriented four-manifolds and embedded tori.

The records track a finite sublattice of the homology of each manifold:
basis labels, the intersection pairing on that sublattice, and the first
Chern class of a distinguished symplectic structure written in tracked
coordinates (homology and cohomology identified by Poincare duality).
Only the classes the fibre-sum bookkeeping touches are tracked, so the
pairing can contain untracked entries after a sum.
"""

from __future__ import annotations

from typing import Sequence

from ._record import Record, _set
from .intlat import IntVector, PairingMatrix

__all__ = [
    "SYMPLECTIC",
    "LAGRANGIAN",
    "EmbeddedTorus",
    "FourManifold",
    "build_t4",
    "build_e1",
    "validate",
    "form_parity",
]

SYMPLECTIC = "symplectic"
LAGRANGIAN = "lagrangian"


class EmbeddedTorus(Record):
    """Square-zero embedded torus with a fixed orientation.

    Lagrangian tori keep their recorded orientation while a symplectic
    form may restrict to either sign on them; symplectic tori have the
    orientation forced by the form. ``dual`` is a tracked class pairing
    1 with ``klass``, or None when none is declared.
    """

    __slots__ = ("label", "klass", "kind", "dual", "parallel_copies_available")


class FourManifold(Record):
    """Closed oriented four-manifold invariant record."""

    __slots__ = (
        "name",
        "euler",
        "signature",
        "b1",
        "b2",
        "lattice_basis_labels",
        "pairing",
        "c1",
        "pi1_normally_generated_by_tori",
        "simply_connected",
    )

    def __init__(
        self,
        name: str,
        euler: int,
        signature: int,
        b1: int,
        b2: int,
        lattice_basis_labels: Sequence[str],
        pairing: PairingMatrix,
        c1: IntVector,
        pi1_normally_generated_by_tori: bool,
        simply_connected: bool,
    ) -> None:
        lattice_basis_labels = tuple(lattice_basis_labels)
        if pairing.dim != len(lattice_basis_labels):
            raise ValueError("pairing dimension does not match basis labels")
        if len(c1) != pairing.dim:
            raise ValueError("c1 length does not match tracked lattice rank")
        _set(self, "name", name)
        _set(self, "euler", euler)
        _set(self, "signature", signature)
        _set(self, "b1", b1)
        _set(self, "b2", b2)
        _set(self, "lattice_basis_labels", lattice_basis_labels)
        _set(self, "pairing", pairing)
        _set(self, "c1", c1)
        _set(self, "pi1_normally_generated_by_tori", pi1_normally_generated_by_tori)
        _set(self, "simply_connected", simply_connected)

    @property
    def rank(self) -> int:
        return self.pairing.dim


def _e(dim: int, index: int, value: int = 1) -> IntVector:
    coords = [0] * dim
    coords[index] = value
    return IntVector(tuple(coords))


def build_t4() -> tuple[FourManifold, tuple[EmbeddedTorus, ...]]:
    """Standard four-torus with the coordinate tori and the diagonal torus.

    Tracked sublattice: the three coordinate torus classes Tx, Ty, Tz
    together with dual torus classes Ux, Uy, Uz pairing hyperbolically
    (<Ti, Uj> = delta_ij, all other pairings zero). The diagonal torus
    Tw carries the class Tx + Ty + Tz. For the standard form, Tx and Tw
    are symplectic while Ty and Tz are Lagrangian; every torus here has
    arbitrarily many disjoint parallel translates.
    """
    labels = ("Tx", "Ty", "Tz", "Ux", "Uy", "Uz")
    rows = [[0] * 6 for _ in range(6)]
    for i in range(3):
        rows[i][3 + i] = 1
        rows[3 + i][i] = 1
    pairing = PairingMatrix(tuple(tuple(r) for r in rows))
    manifold = FourManifold(
        name="T4",
        euler=0,
        signature=0,
        b1=4,
        b2=6,
        lattice_basis_labels=labels,
        pairing=pairing,
        c1=IntVector.zero(6),
        pi1_normally_generated_by_tori=True,
        simply_connected=False,
    )
    tori = (
        EmbeddedTorus("Tx", _e(6, 0), SYMPLECTIC, dual=_e(6, 3), parallel_copies_available=True),
        EmbeddedTorus("Ty", _e(6, 1), LAGRANGIAN, dual=_e(6, 4), parallel_copies_available=True),
        EmbeddedTorus("Tz", _e(6, 2), LAGRANGIAN, dual=_e(6, 5), parallel_copies_available=True),
        EmbeddedTorus(
            "Tw",
            IntVector((1, 1, 1, 0, 0, 0)),
            SYMPLECTIC,
            dual=_e(6, 3),
            parallel_copies_available=True,
        ),
    )
    return manifold, tori


def build_e1() -> tuple[FourManifold, EmbeddedTorus]:
    """Rational elliptic surface with its fibre torus.

    Tracked classes: the fibre F (square zero) and a section S with
    <F, S> = 1 and S.S = -1. The first Chern class of the standard
    Kaehler form is the fibre class; with the opposite form it is -F.
    The fibre complement is simply connected, which is what lets fibre
    sums kill fundamental groups.
    """
    pairing = PairingMatrix(((0, 1), (1, -1)))
    manifold = FourManifold(
        name="E1",
        euler=12,
        signature=-8,
        b1=0,
        b2=10,
        lattice_basis_labels=("F", "S"),
        pairing=pairing,
        c1=IntVector((1, 0)),
        pi1_normally_generated_by_tori=True,
        simply_connected=True,
    )
    fibre = EmbeddedTorus(
        "F",
        IntVector((1, 0)),
        SYMPLECTIC,
        dual=IntVector((0, 1)),
        parallel_copies_available=True,
    )
    return manifold, fibre


def validate(manifold: FourManifold, tori: Sequence[EmbeddedTorus] = ()) -> list[str]:
    """Check record invariants; returns a list of violations (empty = valid).

    Beyond the structural constraints this checks the adjunction
    constraint <c1, T> = 0 for every declared square-zero torus.
    """
    violations: list[str] = []
    m = manifold
    if m.b1 < 0 or m.b2 < 0:
        violations.append(f"{m.name}: negative Betti number")
    if abs(m.signature) > m.b2:
        violations.append(f"{m.name}: |signature| = {abs(m.signature)} exceeds b2 = {m.b2}")
    if m.simply_connected:
        if m.b1 != 0:
            violations.append(f"{m.name}: simply connected but b1 = {m.b1}")
        if m.euler != 2 + m.b2:
            violations.append(
                f"{m.name}: simply connected but euler = {m.euler} != 2 + b2 = {2 + m.b2}"
            )
    seen: set[str] = set()
    for torus in tori:
        t = torus.label
        if t in seen:
            violations.append(f"torus {t}: duplicate label")
        seen.add(t)
        if torus.kind not in (SYMPLECTIC, LAGRANGIAN):
            violations.append(f"torus {t}: unknown kind {torus.kind!r}")
        if len(torus.klass) != m.rank:
            violations.append(f"torus {t}: class length {len(torus.klass)} != rank {m.rank}")
            continue
        self_pairing = m.pairing.pair(torus.klass, torus.klass)
        if self_pairing is None:
            violations.append(f"torus {t}: self-pairing not tracked")
        elif self_pairing != 0:
            violations.append(f"torus {t}: not square-zero (self-pairing {self_pairing})")
        if torus.dual is not None:
            if len(torus.dual) != m.rank:
                violations.append(f"torus {t}: dual length {len(torus.dual)} != rank {m.rank}")
            else:
                p = m.pairing.pair(torus.klass, torus.dual)
                if p is None:
                    violations.append(f"torus {t}: pairing with dual not tracked")
                elif p != 1:
                    violations.append(f"torus {t}: dual pairs to {p}, expected 1")
        adj = m.pairing.pair(m.c1, torus.klass)
        if adj is None:
            violations.append(f"torus {t}: adjunction pairing <c1, T> not tracked")
        elif adj != 0:
            violations.append(f"torus {t}: adjunction violated (<c1, T> = {adj})")
    return violations


def form_parity(manifold: FourManifold) -> str:
    """Parity of the intersection form, as far as the record certifies it.

    Returns "odd" when a tracked class of odd square is exhibited
    (directly, or through the characteristic property of c1), "even"
    when the tracked lattice is the whole of H2 and every diagonal entry
    is known and even, and "undetermined" otherwise.
    """
    diag = [manifold.pairing.entries[i][i] for i in range(manifold.rank)]
    if any(d is not None and d % 2 for d in diag):
        return "odd"
    for p in manifold.pairing.basis_pairings(manifold.c1):
        if p is not None and p % 2:
            return "odd"
    if manifold.rank == manifold.b2 and all(d is not None for d in diag):
        return "even"
    return "undetermined"
