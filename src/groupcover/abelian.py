"""Invariants of finitely generated abelian groups.

An ``AbelianInvariants`` value presents a group as Z^r x C_d1 x ... x C_dk
with 2 <= d1 | d2 | ... | dk.  The weight of such a group (its minimal
normal generating count, which for abelian groups is the minimal generating
count) is r + k.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotPrime, SearchBudgetExceeded


@dataclass(frozen=True)
class AbelianInvariants:
    free_rank: int
    factors: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        prev = None
        for d in self.factors:
            if d < 2:
                raise ValueError(f"invariant factor {d} < 2")
            if prev is not None and d % prev != 0:
                raise ValueError(f"broken divisibility chain: {prev} does not divide {d}")
            prev = d

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.factors

    def describe(self) -> str:
        parts = ["Z"] * self.free_rank + [f"C{d}" for d in self.factors]
        return " x ".join(parts) if parts else "1"


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises SearchBudgetExceeded at or above
    MILLER_RABIN_EXACT_BELOW, where these bases no longer decide."""
    if n >= MILLER_RABIN_EXACT_BELOW:
        raise SearchBudgetExceeded(
            f"primality of {n} is not decided below {MILLER_RABIN_EXACT_BELOW}"
        )
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n >= 1, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def abelian_weight(inv: AbelianInvariants) -> int:
    """Minimal generating count of Z^r x prod C_di; 0 iff trivial."""
    return inv.free_rank + len(inv.factors)


def elementary_p_rank(inv: AbelianInvariants, p: int) -> int:
    """Largest k such that the group surjects onto C_p^k."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return inv.free_rank + sum(1 for d in inv.factors if d % p == 0)


def max_elementary_rank(inv: AbelianInvariants) -> tuple[int, int]:
    """A prime attaining the maximal elementary p-rank, and that rank.

    Smallest attaining prime on ties; (2, free_rank) when there is no
    torsion (including the trivial case, by convention).
    """
    if not inv.factors:
        return (2, inv.free_rank)
    # a prime of d1 divides every factor, so it attains the maximum; d1 is
    # factored rather than the last factor, which may be far larger.  max
    # keeps the first, so the smallest, prime on ties
    ranks = {p: elementary_p_rank(inv, p) for p in prime_factors(inv.factors[0])}
    best_p = max(ranks, key=ranks.get)
    return (best_p, ranks[best_p])


def invariants_from_diagonal(diagonal: list[int] | tuple[int, ...], ngens: int) -> AbelianInvariants:
    """Invariants of Z^ngens modulo a row lattice with the given SNF diagonal."""
    nonzero = [d for d in diagonal if d != 0]
    factors = tuple(d for d in nonzero if d != 1)
    return AbelianInvariants(free_rank=ngens - len(nonzero), factors=factors)
