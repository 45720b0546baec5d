"""Brute-force caps, kept as configuration rather than hard constants."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Caps:
    """Order caps guarding the combinatorial searches.

    order: largest group the constructors will close.
    normal: largest group whose normal-subgroup lattice (and so whose
        coverings, F-A witnesses and weight) is computed.
    """

    order: int = 1024
    normal: int = 128

    def __post_init__(self):
        for field in ("order", "normal"):
            value = getattr(self, field)
            if type(value) is not int or value < 1:
                raise ValueError(f"cap {field!r} must be a positive integer, got {value!r}")


DEFAULT_CAPS = Caps()

# Upper bound on the raw assignment space |H|^k explored per target group
# during homomorphism search (pruning usually visits far fewer nodes), and
# on the AND products of the search behind F-A, n-F-A and the weight.
DEFAULT_SEARCH_BUDGET = 10**8
# Steps one search for normal subgroups may spend; three routes count
# against it, each on its own:
# - the lattice, which runs on masks of conjugacy classes: one per base
#   closure a popped subgroup walks over, one per coset product and one per
#   class of B a join N.B tests; E2^6 spends 643 850 and E2^7 13 792 202
#   (their classes are single elements), A5xC2 91;
# - `_hyperplane_masks`: one per coset union and one per membership that
#   builds a hyperplane of G/G'G^p;
# - `_prime_index_kernels`: one per Cayley-graph edge checked and one per
#   element of each kernel it reads off.
LATTICE_BUDGET = DEFAULT_SEARCH_BUDGET
# Operations a group construction may spend: one per point of a permutation
# product, d^3 per product or determinant of d x d matrices.  S6 spends
# 8640, D512 about 10^6; one 200 000-point cycle stops after 20 products.
CONSTRUCTION_BUDGET = 2**22
# Longest entry the Smith normal form may write into A, U or V; dense 20x18
# inputs stay under 2^11 bits.
SNF_BIT_BUDGET = 2**14
