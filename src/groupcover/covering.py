"""Decide finite-annihilation properties of finite groups against their
maximal normal proper subgroups.

A finite group is finitely annihilated (F-A) when the union of its maximal
normal proper subgroups is the whole group; it is n-F-A when every n-subset
lies inside one of them.  A set lies in one of them exactly when the AND of
its elements' masks c(g) is nonzero, so n-F-A holds exactly when the weight
exceeds n, and one intersection search (`fingroup._MeetSearch`) decides
F-A, n-F-A and the weight.  The trivial group is not F-A and not n-F-A by
convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .abelian import max_elementary_rank
from .errors import CapExceeded, GroupCoverError
from .fingroup import (
    FiniteGroup,
    _maximal_cover,
    _MeetSearch,
    _normal_subgroup_sets,
    abelian_invariants_finite,
    derived_subgroup,
    validate_group,
    weight_bruteforce,
)


@dataclass(frozen=True)
class CoverReport:
    """Outcome of a covering check.

    cover lists every maximal normal proper subgroup (even when a smaller
    subcover suffices) as an int mask, bit x set when element x lies in it,
    in cover order: size descending, then mask ascending.  When the verdict
    is true, subcover holds, for each element or n-subset, the first cover
    entry that contains it: the same subgroups a greedy pass over cover
    picks.  uncovered is the minimal witness (an element id, or a sorted
    n-subset) lying in no listed subgroup when the verdict is false.
    """

    group_name: str
    property_name: str
    verdict: bool
    cover: tuple[int, ...]
    uncovered: tuple[int, ...]
    subcover: tuple[int, ...] | None = None

    def as_dict(self) -> dict:
        payload = {
            "group": self.group_name,
            "property": self.property_name,
            "verdict": self.verdict,
            "cover": [hex(m) for m in self.cover],
            "uncovered": list(self.uncovered),
        }
        if self.subcover is not None:
            payload["subcover"] = [hex(m) for m in self.subcover]
        return payload


def is_fa_finite(group: FiniteGroup, cap=None) -> CoverReport:
    """Is the group the union of its maximal normal proper subgroups?"""
    return _covering_check(group, 1, "F-A", cap)


def is_nfa_finite(group: FiniteGroup, n: int, cap=None) -> CoverReport:
    """Does every n-subset of the group lie in some maximal normal proper
    subgroup?  (A tuple lies in N iff its set of entries does, so subsets
    suffice; subsets of size min(n, |G|) decide all n-tuples.)"""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return _covering_check(group, n, f"{n}-F-A", cap)


def _covering_check(group, n, prop, cap) -> CoverReport:
    """The one covering check; F-A is the case n = 1, and k = min(n, |G|).
    Some k-subset lies in no listed subgroup exactly when k masks AND to 0;
    the first such subset in combinations order is the witness.  Otherwise
    the subcover marks the lowest index in the AND of each k-subset, which
    are the lowest indices of the ANDs of at most k masks: every listed M
    then has more than k elements (M and one g outside it normally generate
    G, so the weight is at most |M|), so a set whose AND has lowest index i
    pads inside the i-th subgroup to a k-subset with the same lowest index."""
    if group.order == 1:
        return CoverReport(group.name, prop, False, (), (0,))
    cover, containing = _maximal_cover(group, cap)
    k = min(n, group.order)
    search = _MeetSearch(containing, (1 << len(cover)) - 1, f"{prop} check of {group.name}")
    states, level = search.reach(k)
    if level is not None:
        return CoverReport(group.name, prop, False, cover, search.first_zero(k))
    first = 0
    for a in states:
        first |= a & -a
    subcover = tuple(sub for i, sub in enumerate(cover) if first >> i & 1)
    return CoverReport(group.name, prop, True, cover, (), subcover=subcover)


@dataclass
class TheoremReport:
    """One boolean per theorem instance; all true unless something is wrong
    with either the group data or this library."""

    group_name: str
    checks: dict[str, bool] = field(default_factory=dict)
    details: dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def failing(self) -> list[str]:
        return [k for k, ok in self.checks.items() if not ok]

    def as_dict(self) -> dict:
        return {
            "group": self.group_name,
            "passed": self.passed,
            "checks": dict(self.checks),
            "details": {k: repr(v) for k, v in self.details.items()},
        }


def verify_finite_theorems(
    group: FiniteGroup,
    nfa_range=(1, 2, 3),
    cap=None,
) -> TheoremReport:
    """Cross-check the finite-group theorems on one group:

    (a) F-A  iff  the abelianisation has >= 2 invariant factors;
    (b) F-A  iff  some elementary p-rank of the abelianisation is >= 2;
    (c) n-F-A, read as weight > n,  iff  the abelianisation needs >= n+1
        generators, for each n in nfa_range, plus monotonicity in n;
    (d) weight equals the abelianisation weight when the latter is >= 2,
        and is <= 1 otherwise;
    (e) nontrivial perfect groups have weight exactly 1.

    All of these read the maximal normal subgroups, so the lattice
    enumeration referees them; the check `maximal_match_lattice` appears,
    false, only when the two differ.  A table that fails the group axioms
    gets that check alone.  A cap or budget hit (CapExceeded) propagates,
    since it decides nothing; any other package error marks its check as
    failed.
    """
    report = TheoremReport(group.name)
    checks, details = report.checks, report.details

    try:
        validate_group(group)
    except GroupCoverError as exc:
        checks["group_axioms"] = False
        details["group_axioms"] = exc
        return report
    checks["group_axioms"] = True

    inv = abelian_invariants_finite(group)
    fa = is_fa_finite(group, cap)
    ab_weight = len(inv.factors)
    details["abelian_invariants"] = inv
    details["fa_verdict"] = fa.verdict

    def attempt(name, thunk):
        try:
            checks[name] = bool(thunk())
        except CapExceeded:
            raise
        except GroupCoverError as exc:
            checks[name] = False
            details[name] = exc

    # the lattice referees the cover, which a solvable group reads off its
    # abelianisation, so that the theorems below do not check themselves; it
    # adds a check only when the two disagree
    if group.order > 1:
        try:
            agree = _normal_subgroup_sets(group, cap)[1] == fa.cover
        except CapExceeded:
            raise
        except GroupCoverError as exc:
            agree = False
            details["maximal_match_lattice"] = exc
        if not agree:
            checks["maximal_match_lattice"] = False

    attempt("fa_iff_noncyclic_abelianisation", lambda: fa.verdict == (ab_weight >= 2))
    attempt(
        "fa_iff_rank2_elementary_quotient",
        lambda: fa.verdict == (max_elementary_rank(inv)[1] >= 2),
    )

    # n-F-A holds exactly when the weight exceeds n, so one weight search
    # answers every n
    weight = cache(lambda: weight_bruteforce(group, cap))
    nfa_verdicts = {}

    def check_nfa(n):
        verdict = nfa_verdicts[n] = weight() > n
        return verdict == (ab_weight >= n + 1)

    for n in nfa_range:
        attempt(f"nfa{n}_iff_ab_weight_ge_{n + 1}", lambda n=n: check_nfa(n))
    ordered = sorted(nfa_verdicts)
    checks["nfa_monotone"] = all(
        nfa_verdicts[b] <= nfa_verdicts[a] for a, b in zip(ordered, ordered[1:])
    )

    def check_weight():
        w = details["weight"] = weight()
        if ab_weight >= 2:
            return w == ab_weight
        return w <= 1

    def check_perfect():
        if group.order > 1 and len(derived_subgroup(group)) == group.order:
            return weight() == 1
        return True

    attempt("weight_matches_abelianisation", check_weight)
    attempt("perfect_weight_one", check_perfect)
    return report
