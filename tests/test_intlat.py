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
)
from oracles import fraction_rank


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
    report = divisibility_bounds(c, pairing, duals)
    assert (report.lower, report.upper, report.exact) == (3, 3, True)


def test_divisibility_bounds_zero_vector():
    report = divisibility_bounds(IntVector((0, 0)), PairingMatrix.zeros(2))
    assert (report.lower, report.upper, report.exact) == (0, 0, False)
    assert report.undefined


def test_divisibility_bounds_no_pairing_information():
    report = divisibility_bounds(IntVector((2, 4)), PairingMatrix.zeros(2))
    assert (report.lower, report.upper, report.exact) == (2, 0, False)


def test_divisibility_report_invariants_enforced():
    with pytest.raises(ValueError):
        DivisibilityReport(lower=2, upper=3, exact=False)
    with pytest.raises(ValueError):
        DivisibilityReport(lower=2, upper=2, exact=False)


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
    with pytest.raises(ValueError, match="pairing dimension"):
        divisibility_bounds(IntVector((2, 0, 0)), pairing, [IntVector((0, 1))])


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6), st.data())
@settings(max_examples=80, deadline=None)
def test_divisibility_lower_divides_upper(vec, data):
    n = len(vec)
    grid = [[data.draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
    sym = [[grid[i][j] + grid[j][i] for j in range(n)] for i in range(n)]
    report = divisibility_bounds(IntVector(tuple(vec)), PairingMatrix(tuple(map(tuple, sym))))
    if report.upper and not report.undefined:
        assert report.upper % report.lower == 0


def test_rank_examples():
    assert rank([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]) == 3
    assert rank([]) == 0
    assert rank([(2, 4), (1, 2)]) == 1


def test_rank_rejects_ragged_input():
    with pytest.raises(ValueError):
        rank([(1, 2), (1, 2, 3)])


def test_rank_matches_fraction_elimination_on_random_matrices():
    rng = random.Random(4242)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        matrix = [[rng.randint(-12, 12) for _ in range(n)] for _ in range(m)]
        assert rank(matrix) == fraction_rank(matrix)


def test_int_vector_arithmetic():
    v = IntVector((1, -2, 3))
    w = IntVector((4, 0, -1))
    assert (v + w).coords == (5, -2, 2)
    assert (v - w).coords == (-3, -2, 4)
    assert (-v).coords == (-1, 2, -3)
    assert (3 * v).coords == (3, -6, 9)
    with pytest.raises(ValueError):
        v + IntVector((1, 2))
