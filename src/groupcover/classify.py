"""Verdicts on finitely presented groups from abelianisation data plus an
optional, trusted caller hint about the group's class.

The positive direction never needs a hint: a surjection onto a rank-(n+1)
elementary p-group makes any finitely generated group n-F-A.  Negative
verdicts for groups with small abelianisation hold only inside certain
classes (free, abelian, solvable, finite, simple, finitely many finite
simple quotients), which are undecidable from a presentation, so the caller
asserts membership and a wrong hint voids the verdict.  Everything else is
Unknown: cyclic abelianisation alone proves nothing, since free products of
three cyclic groups of distinct prime orders are F-A with cyclic
abelianisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .abelian import abelian_weight
from .errors import InvalidHint
from .presentation import Presentation, abelian_invariants

FA = "FA"
NOT_FA = "NotFA"
UNKNOWN = "Unknown"

HINTS = (
    "free",
    "abelian",
    "solvable",
    "finite",
    "finitely-many-finite-simple-quotients",
    "simple",
    "two-generator-coprime-torsion",
)

# classes in which (n-)F-A is decided by the abelianisation weight
_AB_DECIDED_HINTS = frozenset(HINTS) - {"two-generator-coprime-torsion"}


@dataclass(frozen=True)
class Verdict:
    status: str
    rule: str
    reason: str
    easily_fa: bool = False

    def as_dict(self) -> dict:
        return {
            "verdict": self.status,
            "reason": f"{self.rule}: {self.reason}",
            "easily_fa": self.easily_fa,
        }


def _check_hint(hint):
    if hint is not None and hint not in HINTS:
        raise InvalidHint(f"unknown hint {hint!r}; expected one of {HINTS}")


def _coprime_torsion_pair(pres: Presentation) -> bool:
    """Exact syntactic match for < x, y | x^m, y^n > with gcd(m, n) = 1."""
    if pres.ngens != 2 or len(pres.relators) != 2:
        return False
    exps = {}
    for rel in pres.relators:
        if len(rel) != 1:
            return False
        g, e = rel[0]
        if g in exps:
            return False
        exps[g] = abs(e)
    return set(exps) == {0, 1} and gcd(exps[0], exps[1]) == 1


def classify_fa(pres: Presentation, hint: str | None = None) -> Verdict:
    """Decide finite annihilation where possible; hints only ever justify a
    NotFA verdict, never an FA one."""
    return classify_nfa(pres, 1, hint)


def classify_nfa(pres: Presentation, n: int, hint: str | None = None) -> Verdict:
    """n-F-A analogue; F-A is the case n = 1, which alone has the hint-simple
    rule, separate coprime-torsion rules and its own reason texts."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    _check_hint(hint)
    inv = abelian_invariants(pres)
    # the largest elementary p-rank of an abelian group is its weight, so
    # this needs no factoring
    rank = abelian_weight(inv)
    easily = rank >= 2
    fa = n == 1

    def verdict(status, rule, reason):
        return Verdict(status, rule, reason, easily_fa=easily)

    if rank >= n + 1:
        return verdict(
            FA,
            f"elementary-rank-{n + 1}",
            "the abelianisation surjects onto C_p x C_p, and any finitely "
            "generated group with such a quotient is finitely annihilated"
            if fa
            else f"the abelianisation surjects onto a rank-{n + 1} elementary "
            "p-group, which makes any finitely generated group "
            f"{n}-finitely-annihilated",
        )
    if pres.is_trivial_presentation:
        return verdict(
            NOT_FA,
            "trivial-group",
            "the trivial group is not "
            f"{'finitely annihilated' if fa else 'n-finitely-annihilated'} "
            "by convention",
        )
    if fa and hint == "simple":
        return verdict(
            NOT_FA,
            "hint-simple",
            "a nontrivial simple group has no proper nontrivial normal "
            "subgroup, so no element of it is finitely annihilated "
            "(trusted hint)",
        )
    if hint in _AB_DECIDED_HINTS:
        return verdict(
            NOT_FA,
            f"hint-{hint}",
            f"within the {hint} class, finite annihilation is equivalent to "
            "a non-cyclic abelianisation, and this abelianisation is cyclic "
            "(trusted hint)"
            if fa
            else f"within the {hint} class, being {n}-finitely-annihilated is "
            f"equivalent to an abelianisation of weight >= {n + 1}, and this "
            f"abelianisation has weight {rank} (trusted hint)",
        )
    pair = _coprime_torsion_pair(pres)
    if pair or hint == "two-generator-coprime-torsion":
        if not fa:
            return verdict(
                NOT_FA,
                "coprime-torsion-not-fa",
                "the group is not finitely annihilated (coprime torsion "
                "generators), so it cannot be n-finitely-annihilated for any n",
            )
        if pair:
            return verdict(
                NOT_FA,
                "coprime-torsion-pair",
                "a free product of two cyclic groups of coprime orders is the "
                "normal closure of one element, hence not finitely annihilated",
            )
        return verdict(
            NOT_FA,
            "hint-two-generator-coprime-torsion",
            "a two-generator group whose generators are torsion of coprime "
            "orders is a quotient of a weight-one free product, hence not "
            "finitely annihilated (trusted hint)",
        )
    return verdict(
        UNKNOWN,
        "cyclic-abelianisation-inconclusive",
        "cyclic abelianisation alone is inconclusive: free products of "
        "three cyclic groups of distinct prime orders are finitely "
        "annihilated yet have cyclic abelianisation"
        if fa
        else "the abelianisation criterion is only known to decide this inside "
        "the trusted hint classes",
    )


@dataclass(frozen=True)
class RhoChecks:
    """Annihilation into restricted quotient classes; both decidable from
    the abelianisation alone for finitely generated groups."""

    abelian_annihilated: Verdict
    free_annihilated_including_z: Verdict

    def as_dict(self) -> dict:
        return {
            "abelian_A": self.abelian_annihilated.as_dict(),
            "free_A_including_Z": self.free_annihilated_including_z.as_dict(),
        }


def rho_annihilated_checks(pres: Presentation) -> RhoChecks:
    inv = abelian_invariants(pres)
    rank = abelian_weight(inv)
    easily = rank >= 2
    if rank >= 2:
        abelian_a = Verdict(
            FA,
            "abelianisation-noncyclic",
            "every element dies in a nontrivial abelian quotient exactly "
            "when the abelianisation is non-cyclic",
            easily_fa=easily,
        )
    else:
        abelian_a = Verdict(
            NOT_FA,
            "abelianisation-cyclic",
            "a generator of the cyclic abelianisation cannot die in any "
            "nontrivial abelian quotient",
            easily_fa=easily,
        )
    if inv.free_rank >= 2:
        free_a = Verdict(
            FA,
            "free-rank-ge-2",
            "the group surjects onto Z x Z, so every element dies in a "
            "free quotient (Z allowed)",
            easily_fa=easily,
        )
    else:
        free_a = Verdict(
            NOT_FA,
            "free-rank-lt-2",
            f"free rank {inv.free_rank} < 2, so no surjection onto Z x Z "
            "exists",
            easily_fa=easily,
        )
    return RhoChecks(abelian_a, free_a)
