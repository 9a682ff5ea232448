"""Exact integer vector and lattice algebra.

Everything in this module runs on Python's arbitrary-precision integers.
The routines certify divisibility statements, so floating point is never
used. A pairing entry may be ``None``, meaning the value is not tracked;
all consumers treat an untracked entry as absent information rather than
as zero. All values are immutable and all functions pure, so everything
is safe to share across threads. A pairing caches the rows it computes;
two threads computing one row store equal values.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from ._record import Record, _set

__all__ = [
    "IntVector",
    "PairingMatrix",
    "DivisibilityReport",
    "gcd_content",
    "divisibility_bounds",
    "rank",
]


class IntVector(Record):
    """Immutable integer vector, coordinates in a declared lattice basis."""

    __slots__ = ("coords", "_terms")

    def __init__(self, coords: Sequence[int]) -> None:
        coords = tuple(int(c) for c in coords)
        _set(self, "coords", coords)
        # (index, coordinate) per nonzero coordinate: the pairing kernels read only these.
        _set(self, "_terms", tuple((i, a) for i, a in enumerate(coords) if a))

    @classmethod
    def zero(cls, dim: int) -> "IntVector":
        return cls((0,) * dim)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def _check_len(self, other: "IntVector") -> None:
        if len(self) != len(other):
            raise ValueError(
                f"length mismatch: {len(self)} vs {len(other)}"
            )

    def __add__(self, other: "IntVector") -> "IntVector":
        self._check_len(other)
        return IntVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "IntVector") -> "IntVector":
        self._check_len(other)
        return IntVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __mul__(self, k: int) -> "IntVector":
        return IntVector(tuple(a * k for a in self.coords))

    __rmul__ = __mul__

    def support(self) -> frozenset[int]:
        return frozenset(i for i, a in enumerate(self.coords) if a != 0)


def gcd_content(v: IntVector) -> int:
    """Largest k such that v = k * w for an integer vector w; 0 for v = 0."""
    return math.gcd(*v.coords)


class PairingMatrix(Record):
    """Symmetric bilinear pairing on the tracked lattice.

    ``None`` entries mark pairings that are not tracked. ``pair`` returns
    ``None`` whenever an untracked entry would contribute with a nonzero
    coefficient, so partial knowledge never silently becomes a number.
    """

    __slots__ = ("entries", "_sparse_rows", "_rows")

    def __init__(self, entries: Sequence[Sequence[Optional[int]]]) -> None:
        rows = tuple(
            tuple(None if e is None else int(e) for e in row) for row in entries
        )
        _set(self, "entries", rows)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"pairing matrix not square: row {i} has {len(row)} entries")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"pairing matrix not symmetric at ({i},{j})")
        # Per row, its nonzero tracked entries (j, e) and its untracked
        # columns, so basis_pairings touches only what contributes.
        sparse = tuple(
            (
                tuple((j, e) for j, e in enumerate(row) if e),
                tuple(j for j, e in enumerate(row) if e is None),
            )
            for row in rows
        )
        _set(self, "_sparse_rows", sparse)
        # Each vector's `basis_pairings` row, keyed on its coordinates: a
        # form's row is built for its divisibility and read again by the
        # c1 identity checks.
        _set(self, "_rows", {})

    @property
    def dim(self) -> int:
        return len(self.entries)

    def pair(self, u: IntVector, v: IntVector) -> Optional[int]:
        return row_pairing(self.basis_pairings(u), v)

    def basis_pairings(self, v: IntVector) -> tuple[Optional[int], ...]:
        """Pairings of v against every basis vector, None where untracked.
        Entry j is None iff some nonzero coordinate's row has an untracked
        entry in column j. Each distinct v's row is computed once."""
        row = self._rows.get(v.coords)
        if row is None:
            row = self._rows[v.coords] = self._basis_row(v)
        return row

    def _basis_row(self, v: IntVector) -> tuple[Optional[int], ...]:
        """`basis_pairings`, computed: only the nonzero entries of the rows
        of v's nonzero coordinates are read."""
        if len(v) != self.dim:
            raise ValueError("vector length does not match pairing dimension")
        out: list[Optional[int]] = [0] * self.dim
        untracked: list[int] = []
        sparse = self._sparse_rows
        for i, a in v._terms:
            tracked, unknown = sparse[i]
            for j, e in tracked:
                out[j] += a * e
            untracked += unknown
        for j in untracked:
            out[j] = None
        return tuple(out)

    def masked(self, unknown_indices: Iterable[int]) -> "PairingMatrix":
        """Copy with every entry between the given indices marked untracked."""
        idx = set(unknown_indices)
        rows = [list(row) for row in self.entries]
        for i in idx:
            for j in idx:
                rows[i][j] = None
        return PairingMatrix(tuple(tuple(r) for r in rows))


class DivisibilityReport(Record):
    """Two-sided divisibility certificate for a lattice vector.

    ``lower`` is witnessed (the vector equals lower times an integral
    vector in the tracked basis). ``upper`` is the gcd of the tracked
    pairings with the basis vectors, 0 meaning no pairing constrains the
    value. The flags are derived from the bounds: ``exact`` holds when
    the two agree and are nonzero; ``undefined`` holds when ``lower`` is
    0, which marks the zero vector, whose divisibility is not a number
    and whose upper bound is 0 too.
    """

    __slots__ = ("lower", "upper")

    def __init__(self, lower: int, upper: int) -> None:
        if lower < 0 or upper < 0:
            raise ValueError("divisibility bounds must be nonnegative")
        if lower == 0 and upper:
            raise ValueError(f"undefined report must be all-zero, got upper bound {upper}")
        if lower and upper and upper % lower:
            raise ValueError(f"lower bound {lower} does not divide upper bound {upper}")
        _set(self, "lower", lower)
        _set(self, "upper", upper)

    @property
    def exact(self) -> bool:
        return self.upper != 0 and self.lower == self.upper

    @property
    def undefined(self) -> bool:
        return self.lower == 0


def divisibility_bounds(c: IntVector, pairing: PairingMatrix) -> DivisibilityReport:
    """Bracket the divisibility of c using its coordinates and pairings.

    The lower bound is gcd of the coordinates (with the quotient as an
    implicit integral witness). The upper bound is the gcd of the tracked
    pairings <c, e_j> with the basis vectors; any integral class that c
    is a multiple of must divide each of them. Untracked pairings are
    skipped, which can only weaken the upper bound, never falsify it.

    Pairing c with any other class u adds nothing: a tracked <c, u> is
    sum u_j <c, e_j> over tracked basis pairings only, so it lies in the
    ideal they generate and cannot lower their gcd.
    """
    row = pairing.basis_pairings(c)
    # The zero vector pairs to 0 with everything, so it gets (0, 0).
    upper = math.gcd(*(p for p in row if p is not None))
    return DivisibilityReport(math.gcd(*c.coords), upper)


def row_pairing(row: Sequence[Optional[int]], v: IntVector) -> Optional[int]:
    """<c, v> from c's basis pairings ``row``, None when a nonzero
    coordinate of v meets an untracked entry of the row."""
    if len(v) != len(row):
        raise ValueError("vector length does not match pairing dimension")
    total = 0
    for j, b in v._terms:
        p = row[j]
        if p is None:
            return None
        total += b * p
    return total


def rank(vectors: Sequence[IntVector]) -> int:
    """Rank over the rationals of the span, by fraction-free elimination."""
    rows = [list(v.coords) for v in vectors]
    if not rows:
        return 0
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("rank needs vectors of equal length")
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][col]
        for i in range(r + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col]
                rows[i] = [p * a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r
