import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibresum.intlat import (
    DivisibilityReport,
    IntVector,
    PairingMatrix,
    divisibility_bounds,
    gcd_content,
    rank,
    row_pairing,
)
from fixtures import zero_pairing
from oracles import dense_basis_pairings, dense_row_pairing, fraction_rank, pairwise_divisibility_bounds


def test_gcd_content_examples():
    assert gcd_content(IntVector((-3, -3, -3))) == 3
    assert gcd_content(IntVector((0, 0, 0))) == 0
    assert gcd_content(IntVector((-3, -3, -1))) == 1


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8), st.integers(-50, 50))
def test_gcd_content_scales(coords, k):
    v = IntVector(tuple(coords))
    assert gcd_content(k * v) == abs(k) * gcd_content(v)


def hyperbolic_pairing():
    rows = [[0] * 6 for _ in range(6)]
    for i in range(3):
        rows[i][3 + i] = 1
        rows[3 + i][i] = 1
    return PairingMatrix(tuple(tuple(r) for r in rows))


def test_divisibility_bounds_with_duals():
    pairing = hyperbolic_pairing()
    c = IntVector((-3, -3, -3, 0, 0, 0))
    duals = [IntVector((0, 0, 0, 1, 0, 0))]
    report = divisibility_bounds(c, pairing)
    assert (report.lower, report.upper, report.exact) == (3, 3, True)
    # Pairing with the dual too gives the same bound.
    assert pairwise_divisibility_bounds(c, pairing.entries, duals) == (3, 3, True, False)


def test_divisibility_bounds_zero_vector():
    report = divisibility_bounds(IntVector((0, 0)), zero_pairing(2))
    assert (report.lower, report.upper, report.exact) == (0, 0, False)
    assert report.undefined


def test_divisibility_bounds_no_pairing_information():
    report = divisibility_bounds(IntVector((2, 4)), zero_pairing(2))
    assert (report.lower, report.upper, report.exact) == (2, 0, False)


def test_divisibility_report_invariants_enforced():
    with pytest.raises(ValueError):
        DivisibilityReport(lower=2, upper=3)
    with pytest.raises(ValueError, match="must be all-zero"):
        DivisibilityReport(lower=0, upper=2)
    # Every other pair of bounds is accepted, and the flags follow from it.
    for lower in range(5):
        for upper in range(13):
            # Lower divides upper, and the zero vector pairs to zero.
            if upper % lower if lower else upper:
                with pytest.raises(ValueError):
                    DivisibilityReport(lower, upper)
                continue
            report = DivisibilityReport(lower, upper)
            assert report.exact == (lower == upper > 0)
            assert report.undefined == (lower == 0)


def test_pairing_matrix_rejects_asymmetric():
    with pytest.raises(ValueError):
        PairingMatrix(((0, 1), (2, 0)))


def test_pairing_unknown_entries_propagate_only_when_touched():
    pairing = PairingMatrix(((0, 1), (1, None)))
    assert pairing.pair(IntVector((1, 0)), IntVector((0, 1))) == 1
    assert pairing.pair(IntVector((0, 1)), IntVector((0, 1))) is None
    # Zero coefficient on the unknown row keeps the value computable.
    assert pairing.pair(IntVector((1, 0)), IntVector((1, 0))) == 0


def test_pairings_reject_vectors_of_the_wrong_length():
    # A short vector must raise, not be cut to a shorter pairing.
    pairing = PairingMatrix(((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match="pairing dimension"):
        pairing.pair(IntVector((1, 0, 0)), IntVector((1, 0)))
    with pytest.raises(ValueError, match="pairing dimension"):
        pairing.pair(IntVector((1, 0)), IntVector((1, 0, 0)))


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6), st.data())
@settings(max_examples=80, deadline=None)
def test_divisibility_lower_divides_upper(vec, data):
    n = len(vec)
    grid = [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
    sym = [[grid[i][j] + grid[j][i] for j in range(n)] for i in range(n)]
    report = divisibility_bounds(IntVector(tuple(vec)), PairingMatrix(tuple(map(tuple, sym))))
    if report.upper and not report.undefined:
        assert report.upper % report.lower == 0


def _random_pairing(rng, n):
    """A symmetric pairing whose rows are sparse, dense or all zero, with
    an untracked block between a random set of indices."""
    density = rng.choice((0.15, 0.5, 1.0))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < density:
                rows[i][j] = rows[j][i] = rng.randint(-5, 5)
    for i in rng.sample(range(n), rng.randint(0, n // 2)):
        for j in range(n):
            rows[i][j] = rows[j][i] = 0
    pairing = PairingMatrix(tuple(map(tuple, rows)))
    return pairing.masked(rng.sample(range(n), rng.randint(0, n)))


def _random_vector(rng, n, untracked):
    """Mostly zero coordinates; when there are untracked indices, about
    half the vectors are nonzero on one of them."""
    v = [rng.randint(-4, 4) if rng.random() < 0.4 else 0 for _ in range(n)]
    if untracked and rng.random() < 0.5:
        v[rng.choice(untracked)] = rng.choice((-2, -1, 1, 3))
    return v


def test_sparse_pairing_rows_match_the_dense_oracle():
    rng = random.Random(2718)
    seen_none = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        pairing = _random_pairing(rng, n)
        untracked = [i for i in range(n) if None in pairing.entries[i]]
        c = _random_vector(rng, n, untracked)
        others = [_random_vector(rng, n, untracked) for _ in range(3)]
        cv = IntVector(c)
        row = pairing.basis_pairings(cv)
        assert row == dense_basis_pairings(pairing.entries, c)
        seen_none += None in row
        for u in others:
            expected = dense_row_pairing(row, u)
            uv = IntVector(u)
            assert row_pairing(row, uv) == expected
            assert pairing.pair(cv, uv) == expected
    # The untracked rule is exercised, not only the tracked sums.
    assert seen_none > 100


def test_rank_examples():
    assert rank([IntVector(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))]) == 3
    assert rank([]) == 0
    assert rank([IntVector((2, 4)), IntVector((1, 2))]) == 1


def test_rank_rejects_ragged_input():
    with pytest.raises(ValueError):
        rank([IntVector((1, 2)), IntVector((1, 2, 3))])


def test_rank_matches_fraction_elimination_on_random_matrices():
    rng = random.Random(4242)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        matrix = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(m)]
        assert rank([IntVector(row) for row in matrix]) == fraction_rank(matrix)


def test_int_vector_arithmetic():
    v = IntVector((1, -2, 3))
    w = IntVector((4, 0, -1))
    assert (v + w).coords == (5, -2, 2)
    assert (v - w).coords == (-3, -2, 4)
    assert (3 * v).coords == (3, -6, 9)
    with pytest.raises(ValueError):
        v + IntVector((1, 2))
