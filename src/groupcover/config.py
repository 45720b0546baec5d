"""Brute-force caps, kept as configuration rather than hard constants."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Caps:
    """Order caps guarding the combinatorial searches.

    order: largest group the constructors will close.
    normal: largest group for normal-subgroup enumeration and coverings.
    weight: largest group for the exact weight search.
    """

    order: int = 1024
    normal: int = 128
    weight: int = 128

    def __post_init__(self):
        for field in ("order", "normal", "weight"):
            if getattr(self, field) < 1:
                raise ValueError(f"cap {field!r} must be positive")


DEFAULT_CAPS = Caps()

# Upper bound on the raw assignment space |H|^k explored per target group
# during homomorphism search (pruning usually visits far fewer nodes), and on
# the tuples the weight search scans.
DEFAULT_SEARCH_BUDGET = 10**8
LATTICE_BUDGET = DEFAULT_SEARCH_BUDGET  # coset products per lattice; E2^7 spends 4.3e7
