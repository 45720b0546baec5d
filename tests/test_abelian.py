import pytest

from groupcover.abelian import (
    AbelianInvariants,
    abelian_weight,
    elementary_p_rank,
    invariants_from_diagonal,
    is_prime,
    max_elementary_rank,
    prime_factors,
)
from groupcover.abelian import MILLER_RABIN_EXACT_BELOW
from groupcover.errors import NotPrime, SearchBudgetExceeded


def test_invariants_validation():
    AbelianInvariants(0, (2, 4, 8))
    AbelianInvariants(3, ())
    with pytest.raises(ValueError):
        AbelianInvariants(0, (1, 2))
    with pytest.raises(ValueError):
        AbelianInvariants(0, (4, 6))
    with pytest.raises(ValueError):
        AbelianInvariants(-1, ())


def test_order_and_describe():
    inv = AbelianInvariants(0, (2, 6))
    assert inv.describe() == "C2 x C6"
    assert AbelianInvariants(0, ()).describe() == "1"
    assert AbelianInvariants(0, ()).is_trivial


def test_abelian_weight():
    assert abelian_weight(AbelianInvariants(0, (30,))) == 1
    assert abelian_weight(AbelianInvariants(0, (2, 2))) == 2
    assert abelian_weight(AbelianInvariants(1, (2,))) == 2
    assert abelian_weight(AbelianInvariants(0, ())) == 0


def test_elementary_p_rank():
    inv = AbelianInvariants(0, (30,))
    assert elementary_p_rank(inv, 2) == 1
    assert elementary_p_rank(inv, 7) == 0
    assert elementary_p_rank(AbelianInvariants(0, (2, 2)), 2) == 2
    assert elementary_p_rank(AbelianInvariants(2, ()), 5) == 2
    with pytest.raises(NotPrime):
        elementary_p_rank(inv, 6)
    with pytest.raises(NotPrime):
        elementary_p_rank(inv, 1)


def test_max_elementary_rank():
    assert max_elementary_rank(AbelianInvariants(0, (2, 2))) == (2, 2)
    # all of 2, 3, 5 give rank 1; smallest prime wins the tie
    assert max_elementary_rank(AbelianInvariants(0, (30,))) == (2, 1)
    assert max_elementary_rank(AbelianInvariants(0, ())) == (2, 0)
    assert max_elementary_rank(AbelianInvariants(2, ())) == (2, 2)
    assert max_elementary_rank(AbelianInvariants(1, (2,))) == (2, 2)
    assert max_elementary_rank(AbelianInvariants(0, (3, 9))) == (3, 2)
    # max rank always equals the weight, by the divisibility chain
    for inv in (
        AbelianInvariants(0, (2, 4, 4)),
        AbelianInvariants(1, (6,)),
        AbelianInvariants(0, (5, 15, 30)),
    ):
        assert max_elementary_rank(inv)[1] == abelian_weight(inv)


def test_invariants_from_diagonal():
    assert invariants_from_diagonal((1, 1, 30), 3) == AbelianInvariants(0, (30,))
    assert invariants_from_diagonal((1, 1, 1, 1), 4) == AbelianInvariants(0, ())
    assert invariants_from_diagonal((1, 1, 0), 3) == AbelianInvariants(1, ())
    assert invariants_from_diagonal((), 2) == AbelianInvariants(2, ())
    assert invariants_from_diagonal((2, 0), 2) == AbelianInvariants(1, (2,))


def test_prime_helpers():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_factors(360) == [2, 3, 5]
    assert prime_factors(1) == []
    assert prime_factors(97) == [97]


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == _trial_division(n) for n in range(20000))


def test_is_prime_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2, 3, 5, 7; to 2..23; and to 2..37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(10**18 + 3)
    assert is_prime(2**61 - 1)


def test_is_prime_refuses_past_exact_bound():
    assert not is_prime(MILLER_RABIN_EXACT_BELOW - 1)  # even
    with pytest.raises(SearchBudgetExceeded):
        is_prime(MILLER_RABIN_EXACT_BELOW)
