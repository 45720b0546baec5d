import random
from itertools import combinations
from math import gcd, prod

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from groupcover.errors import SearchBudgetExceeded
from groupcover.snf import mat_det, smith_diagonal_reference, smith_normal_form


def dense_matrix(seed, m, n):
    """An m x n matrix of single-digit entries, three quarters nonzero."""
    rng = random.Random(seed)
    return [[rng.choice([0] + [rng.randint(-9, 9)] * 3) for _ in range(n)] for _ in range(m)]


def as_lists(rows):
    return [list(r) for r in rows]


def mat_mul(a, b):
    if not a:
        return []
    if not b:
        return [[] for _ in a]
    cols = len(b[0])
    return [
        [sum(ra[k] * b[k][j] for k in range(len(ra))) for j in range(cols)]
        for ra in a
    ]


def determinantal_divisor_diagonal(rows):
    """SNF diagonal from gcds of k x k minors: the referee that shares no
    step with either elimination."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    size = min(m, n)
    diag = []
    prev = 1
    for k in range(1, size + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                minor = mat_det([[rows[i][j] for j in ci] for i in ri])
                g = gcd(g, minor)
        if g == 0:
            diag.extend(0 for _ in range(size - k + 1))
            return diag
        diag.append(g // prev)
        prev = g
    return diag


def check_transforms(a, result):
    product = mat_mul(mat_mul(as_lists(result.u), a), as_lists(result.v))
    assert product == as_lists(result.d)
    assert abs(mat_det(as_lists(result.u))) == 1
    assert abs(mat_det(as_lists(result.v))) == 1


def check_smith_shape(result):
    d = result.d
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    diag = result.diagonal
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert list(diag[: len(nonzero)]) == nonzero, "zeros must trail"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0


def test_diag_2_3_5():
    a = [[2, 0, 0], [0, 3, 0], [0, 0, 5]]
    r = smith_normal_form(a)
    assert r.diagonal == (1, 1, 30)
    check_transforms(a, r)
    check_smith_shape(r)


def test_rectangular_fixture():
    a = [[4, 0], [0, 2], [2, 2]]
    r = smith_normal_form(a)
    assert r.diagonal == (2, 2)
    check_transforms(a, r)
    check_smith_shape(r)


def test_zero_matrix():
    r = smith_normal_form([[0]])
    assert r.diagonal == (0,)
    r = smith_normal_form([[0, 0], [0, 0]])
    assert r.diagonal == (0, 0)


def test_empty_matrices():
    assert smith_normal_form([]).diagonal == ()
    assert smith_normal_form([[], []]).diagonal == ()


def test_unimodular_input():
    a = [[0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1], [-1, 0, 0, 0]]
    r = smith_normal_form(a)
    assert r.diagonal == (1, 1, 1, 1)
    check_transforms(a, r)


def test_oracles_agree_on_fixtures():
    for a in (
        [[2, 0, 0], [0, 3, 0], [0, 0, 5]],
        [[4, 0], [0, 2], [2, 2]],
        [[0]],
        [[6, 4], [4, 6]],
        [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
    ):
        main = list(smith_normal_form(a).diagonal)
        assert main == smith_diagonal_reference(a)
        assert main == determinantal_divisor_diagonal(a)


matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_snf_matches_oracles(a):
    r = smith_normal_form(a)
    check_transforms(a, r)
    check_smith_shape(r)
    diag = list(r.diagonal)
    assert diag == smith_diagonal_reference(a)
    assert diag == determinantal_divisor_diagonal(a)


@pytest.mark.parametrize("m, n", [(13, 11), (14, 12), (16, 14), (20, 18)])
@pytest.mark.parametrize("seed", range(3))
def test_dense_matches_oracles(seed, m, n):
    # the minors route is too slow at this size, so its referee here is the
    # last determinantal divisor alone: the gcd of the maximal minors equals
    # the product of the diagonal
    a = dense_matrix(seed, m, n)
    r = smith_normal_form(a)
    check_transforms(a, r)
    check_smith_shape(r)
    assert list(r.diagonal) == smith_diagonal_reference(a)
    maximal_minors = 0
    for rows in combinations(a, n):
        maximal_minors = gcd(maximal_minors, mat_det([list(row) for row in rows]))
    assert prod(r.diagonal) == maximal_minors


def test_bit_budget():
    # dense 60 x 40 entries pass the budget within a few row operations
    with pytest.raises(SearchBudgetExceeded, match="past the budget of 16384 bits"):
        smith_normal_form(dense_matrix(0, 60, 40))


def test_det_fixtures():
    assert mat_det([[3]]) == 3
    assert mat_det([[1, 2], [3, 4]]) == -2
    assert mat_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert mat_det([]) == 1
    # permutation-expansion oracle on a 3x3
    from itertools import permutations

    a = [[2, -1, 3], [0, 4, 1], [-2, 5, 7]]
    expected = 0
    for perm in permutations(range(3)):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(3):
            term *= a[i][perm[i]]
        expected += term
    assert mat_det(a) == expected
