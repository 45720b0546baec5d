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
from itertools import product

from .abelian import max_elementary_rank, prime_factors
from .config import LATTICE_BUDGET
from .errors import CapExceeded, GroupCoverError, NotAGroup, SearchBudgetExceeded
from .fingroup import (
    FiniteGroup,
    _cover_order,
    _generators,
    _is_solvable,
    _maximal_cover,
    _MeetSearch,
    abelian_invariants_finite,
    derived_subgroup,
    normal_subgroups,
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


def weight_from_abelianisation(group: FiniteGroup) -> int:
    """The weight read off G^ab: 0 for the trivial group, else the number of
    invariant factors of G^ab, or 1 when there are none or one.  A finite
    group that is not perfect has the weight of its abelianisation, and a
    nontrivial perfect one has weight 1 (check (e) of the harness, where
    `weight_bruteforce` referees this route)."""
    if group.order == 1:
        return 0
    return max(1, len(abelian_invariants_finite(group).factors))


def _prime_index_kernels(group: FiniteGroup) -> tuple[int, ...]:
    """Masks of the normal subgroups of prime index in cover order: for each
    prime p dividing |G|, the kernels of the nonzero homomorphisms G -> C_p,
    one per line of them.  For a solvable group these are the maximal normal
    subgroups, and this referees `_hyperplane_masks` at a cost that follows
    the answer, not the lattice.

    A breadth-first walk of the Cayley graph over the generators g_k from
    the identity gives each element x the exponent vector v(x) of its tree
    word.  Values a_k in F_p on the generators extend to a homomorphism f
    exactly when each edge x -> x g_k has v(x) + e_k - v(x g_k) orthogonal
    to a.  The relations are row-reduced mod p, the null space is listed
    with its first free value 1, and each kernel is read off the tree by
    f(x g_k) = f(x) + a_k.  One step per edge checked and one per element of
    each kernel count against LATTICE_BUDGET, and a prime's kernels are
    refused before any is built.  A walk that misses an element raises
    NotAGroup.

    Each vector is one int, coordinate k times 2^(k w) with 2^(w-1) > n, so
    an edge costs two int additions and one hash.  A relation coordinate
    lies in [-(n - 1), n], as the tree is shallower than n, so a bias of
    2^(w-1) puts each field of a relation in [1, 2^w - 1], with no carry
    between fields; only the distinct relations are biased and unpacked."""
    t, n = group.table, group.order
    gens = _generators(group)
    r = len(gens)
    spent = 0

    def charge(cost, what):
        nonlocal spent
        if spent + cost > LATTICE_BUDGET:
            raise SearchBudgetExceeded(
                f"prime-index kernels of {group.name} spent {spent} edge checks and kernel "
                f"steps; {what} would spend {cost} more, past the budget of {LATTICE_BUDGET}"
            )
        spent += cost

    charge(n * r, f"the walk over {r} generators")
    w = n.bit_length() + 1
    units = [1 << (w * k) for k in range(r)]
    vec = [0] + [None] * (n - 1)  # packed exponent vector of each element's tree word
    queue = [0]
    tree = []  # (element, parent, generator position) in walk order
    relations = set()  # packed v(x) + e_k - v(x g_k)
    for x in queue:
        vx, row = vec[x], t[x]
        for k, g in enumerate(gens):
            y = row[g]
            vy = vec[y]
            if vy is None:
                vec[y] = vx + units[k]
                queue.append(y)
                tree.append((y, x, k))
            else:
                relations.add(vx + units[k] - vy)
    if len(queue) < n:
        raise NotAGroup(f"the generators of {group.name} reach {len(queue)} of its {n} elements")
    half, field = 1 << (w - 1), (1 << w) - 1
    bias = half * sum(units)  # 2^(w-1) in every field
    relations = [[((rel + bias) >> (w * k) & field) - half for k in range(r)] for rel in relations]
    masks = []
    for p in prime_factors(n):
        pivots = {}  # pivot column -> row with 1 there and 0 at the other pivots
        for rel in relations:
            row = [c % p for c in rel]
            for col, b in pivots.items():
                f = row[col]
                if f:
                    row = [(u - f * v) % p for u, v in zip(row, b)]
            lead = next((i for i, c in enumerate(row) if c), None)
            if lead is None:
                continue
            scale = pow(row[lead], -1, p)
            row = [c * scale % p for c in row]
            for col, b in pivots.items():
                f = b[lead]
                if f:
                    pivots[col] = [(u - f * v) % p for u, v in zip(b, row)]
            pivots[lead] = row
            if len(pivots) == r:
                break
        free = [c for c in range(r) if c not in pivots]
        count = (p ** len(free) - 1) // (p - 1)
        charge(count * n, f"the {count} kernels of index {p}")
        for i, first in enumerate(free):
            for tail in product(range(p), repeat=len(free) - i - 1):
                a = [0] * r
                a[first] = 1
                for col, v in zip(free[i + 1:], tail):
                    a[col] = v
                for col, b in pivots.items():
                    a[col] = -sum(b[c] * a[c] for c in free) % p
                value = [0] * n
                m = 1
                for y, x, k in tree:
                    v = value[y] = (value[x] + a[k]) % p
                    if not v:
                        m |= 1 << y
                masks.append(m)
    return tuple(sorted(masks, key=_cover_order))


def _referee_cover(group: FiniteGroup, cap) -> tuple[int, ...]:
    """The maximal normal subgroups in cover order by a second route: a
    solvable group's prime-index kernels, and any other group's proper
    normal subgroups (`normal_subgroups`) that no other proper one contains,
    in O(L^2) mask tests for L of them.  That enumeration is shared with
    `maximal_normal_subgroups`, but not its rule, which marks N maximal when
    every join of N with a class closure outside it is G."""
    if _is_solvable(group):
        return _prime_index_kernels(group)
    proper = normal_subgroups(group, cap)[:-1]  # by (size, mask), so supersets come later
    maximal = [m for i, m in enumerate(proper) if all(m & b != m for b in proper[i + 1:])]
    return tuple(sorted(maximal, key=_cover_order))


def _value_or_error(compute, group, cap):
    """compute(group, cap), or the package error it raised; CapExceeded propagates."""
    try:
        return compute(group, cap)
    except CapExceeded:
        raise
    except GroupCoverError as exc:
        return exc


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


def verify_finite_theorems(group: FiniteGroup, nfa_range=(1, 2, 3), cap=None) -> TheoremReport:
    """Cross-check the finite-group theorems on one group:

    (a) F-A  iff  the abelianisation has >= 2 invariant factors;
    (b) F-A  iff  some elementary p-rank of the abelianisation is >= 2;
    (c) n-F-A, read as weight > n,  iff  the abelianisation needs >= n+1
        generators, for each n in nfa_range, plus monotonicity in n;
    (d) weight equals the abelianisation weight when that is >= 2, else <= 1;
    (e) nontrivial perfect groups have weight exactly 1.

    All of these read the maximal normal subgroups, so `_referee_cover`
    finds them by a second route; the check `maximal_match_lattice`
    appears, false, only when the two differ.  A table that fails the group
    axioms gets that check alone.  A cap or budget hit (CapExceeded)
    propagates, since it decides nothing; any other package error from the
    referee or `weight_bruteforce` fails each check that reads the value,
    as that check's detail.
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
    referee = _value_or_error(_referee_cover, group, cap)
    weight = _value_or_error(weight_bruteforce, group, cap)
    ab_weight = len(inv.factors)
    details.update(abelian_invariants=inv, fa_verdict=fa.verdict)

    if referee != fa.cover:
        checks["maximal_match_lattice"] = False
        if isinstance(referee, GroupCoverError):
            details["maximal_match_lattice"] = referee
    checks["fa_iff_noncyclic_abelianisation"] = fa.verdict == (ab_weight >= 2)
    checks["fa_iff_rank2_elementary_quotient"] = fa.verdict == (max_elementary_rank(inv)[1] >= 2)

    # n-F-A holds exactly when the weight exceeds n, so every n is read off
    # one weight and the verdicts are monotone in n by construction
    weighed = not isinstance(weight, GroupCoverError)
    first = len(checks)
    for n in nfa_range:
        checks[f"nfa{n}_iff_ab_weight_ge_{n + 1}"] = weighed and (weight > n) == (ab_weight >= n + 1)
    checks["nfa_monotone"] = True
    matches = weighed and (weight == ab_weight if ab_weight >= 2 else weight <= 1)
    checks["weight_matches_abelianisation"] = matches
    perfect = group.order > 1 and len(derived_subgroup(group)) == group.order
    checks["perfect_weight_one"] = not perfect or weighed and weight == 1
    if weighed:
        details["weight"] = weight
    else:  # exactly the checks that read the weight are false
        details.update((name, weight) for name in list(checks)[first:] if not checks[name])
    return report
