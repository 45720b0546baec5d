import re
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from groupcover import abelian, covering, fingroup
from groupcover import (
    FiniteGroup,
    abelian_invariants_finite,
    abelianisation,
    build_from_cayley_table,
    build_from_permutations,
    cyclic_group,
    direct_product,
    elementary_group,
    group_from_spec,
    is_fa_finite,
    is_nfa_finite,
    maximal_normal_subgroups,
    normal_subgroups,
    subgroup_closure,
    verify_finite_theorems,
    weight_bruteforce,
    weight_from_abelianisation,
)
from groupcover.errors import NotAGroup, OrderCapExceeded, SearchBudgetExceeded, TrivialGroup


def members(mask):
    """The element ids of a subgroup mask (bit x set iff x is a member)."""
    return frozenset(fingroup._members(mask))


def test_fa_klein(klein):
    report = is_fa_finite(klein)
    assert report.verdict
    assert sorted(m.bit_count() for m in report.cover) == [2, 2, 2]
    assert report.uncovered == ()


def test_fa_c15():
    report = is_fa_finite(cyclic_group(15))
    assert not report.verdict
    assert report.uncovered == (1,)  # a generator


def test_fa_s5(s5):
    report = is_fa_finite(s5, cap=128)
    assert not report.verdict
    # the only maximal normal proper subgroup is the even half
    assert [m.bit_count() for m in report.cover] == [60]
    assert report.uncovered[0] not in members(report.cover[0])


def test_fa_trivial_group_convention():
    report = is_fa_finite(cyclic_group(1))
    assert not report.verdict
    assert report.property_name == "F-A"


def test_fa_cover_entries_are_maximal_normal(klein, q8):
    for group in (klein, q8):
        report = is_fa_finite(group)
        for m in report.cover:
            assert fingroup._is_normal(group, members(m))
            assert m.bit_count() < group.order


def test_fa_subcover_covers(catalog):
    for group in catalog:
        report = is_fa_finite(group)
        if report.verdict:
            covered = set()
            for m in report.subcover:
                covered |= members(m)
            assert covered == set(range(group.order))


def test_fa_report_json_shape(klein):
    payload = is_fa_finite(klein).as_dict()
    assert set(payload) == {"group", "property", "verdict", "cover", "uncovered", "subcover"}
    assert payload["verdict"] is True
    assert all(mask.startswith("0x") for mask in payload["cover"])


def test_nfa_elementary_eight():
    g = elementary_group(2, 3)
    report = is_nfa_finite(g, 2)
    assert report.verdict
    # derived oracle: every pair generates a proper subgroup
    for pair in combinations(range(8), 2):
        assert len(subgroup_closure(g, set(pair))) < 8


def test_nfa_klein_pair(klein):
    report = is_nfa_finite(klein, 2)
    assert not report.verdict
    assert report.uncovered == (1, 2)  # the two standard generators


def test_nfa_1_equals_fa(catalog):
    for group in catalog[:30]:
        assert is_nfa_finite(group, 1).verdict == is_fa_finite(group).verdict


def test_nfa_rejects_bad_n(klein):
    with pytest.raises(ValueError):
        is_nfa_finite(klein, 0)


def test_nfa_trivial_group():
    for n in (1, 2, 5):
        assert not is_nfa_finite(cyclic_group(1), n).verdict


def test_nfa_n_larger_than_group(klein):
    # no proper subgroup contains all of G
    assert not is_nfa_finite(klein, 10).verdict


def test_nfa_monotone(catalog):
    for group in catalog[:30]:
        verdicts = [is_nfa_finite(group, n).verdict for n in (1, 2, 3)]
        for earlier, later in zip(verdicts, verdicts[1:]):
            assert later <= earlier


def test_nfa_subset_cover_oracle(q8, d4, e8, klein, c6, a4):
    # exhaustive oracle straight from the definition, over all proper
    # normal subgroups (not only maximal ones)
    for group in (q8, d4, e8, klein, c6, a4, elementary_group(2, 4)):
        normals = [members(m) for m in normal_subgroups(group) if m.bit_count() < group.order]
        for n in (1, 2, 3):
            expected = all(
                any(set(subset) <= ns for ns in normals)
                for subset in combinations(range(group.order), min(n, group.order))
            )
            assert is_nfa_finite(group, n).verdict == expected, (group.name, n)


def test_nfa_subcover_covers_all_subsets(e8):
    report = is_nfa_finite(e8, 2)
    assert report.verdict
    for subset in combinations(range(e8.order), 2):
        assert any(set(subset) <= members(m) for m in report.subcover)


def greedy_subset_subcover(group, cover, k):
    """Referee: the set-based greedy pass over cover, keeping each subgroup
    that contains a k-subset no earlier kept subgroup contains."""
    remaining = set(combinations(range(group.order), k))
    chosen = []
    for m in cover:
        mine = {s for s in remaining if all(m >> x & 1 for x in s)}
        if mine:
            chosen.append(m)
            remaining -= mine
        if not remaining:
            break
    return tuple(chosen)


def test_subcover_matches_greedy_referee(catalog):
    # E2^5 (order 32) is one of the catalog groups
    groups = [g for g in catalog if g.order <= 64]
    groups += [group_from_spec(s) for s in ("prod(CxC 2 6, Q8)", "prod(E 3 2, E 3 2)")]
    checked = 0
    for group in groups:
        for n in (1, 2, 3):
            report = is_nfa_finite(group, n)
            if not report.verdict:
                assert report.subcover is None
                continue
            expected = greedy_subset_subcover(group, report.cover, min(n, group.order))
            assert report.subcover == expected, (group.name, n)
            checked += 1
        assert is_fa_finite(group).subcover == is_nfa_finite(group, 1).subcover
    assert checked >= 40


def test_reports_are_reproducible(klein, q8):
    for group in (klein, q8):
        first = is_fa_finite(group)
        second = is_fa_finite(group)
        assert first == second
        assert is_nfa_finite(group, 2) == is_nfa_finite(group, 2)


def referee_fa_witness(group, g, cap=None):
    """The mask of a maximal normal proper subgroup containing g, or None;
    ties broken by smallest mask.  The referee of `find_annihilator` on finite
    groups: g dies in a proper quotient exactly when some maximal normal
    proper subgroup holds it."""
    if group.order == 1:
        raise TrivialGroup("no proper subgroups exist")
    best = None
    for m in maximal_normal_subgroups(group, cap):
        if m >> g & 1 and (best is None or m < best):
            best = m
    return best


def test_fa_witness_s5(s5):
    three_cycle = next(
        x for x in range(120) if s5.element_orders()[x] == 3
    )
    witness = referee_fa_witness(s5, three_cycle, cap=128)
    assert witness is not None and witness.bit_count() == 60
    transposition = next(x for x in range(120) if s5.element_orders()[x] == 2 and referee_fa_witness(s5, x, cap=128) is None)
    assert s5.element_orders()[transposition] == 2


def test_fa_witness_klein_tiebreak(klein):
    witness = referee_fa_witness(klein, 1)
    assert members(witness) == {0, 1}  # smallest mask containing the element


def test_fa_witness_identity_always_covered(catalog):
    for group in catalog[:30]:
        if group.order == 1:
            continue
        assert referee_fa_witness(group, 0) is not None


def test_fa_witness_trivial_raises():
    with pytest.raises(TrivialGroup):
        referee_fa_witness(cyclic_group(1), 0)


def test_simple_annihilated_matches_fa(catalog, c6, a5):
    # every element dies in a simple quotient (has an F-A witness) exactly
    # when the group is F-A
    def every_element_witnessed(group, cap=None):
        return all(referee_fa_witness(group, g, cap) is not None for g in range(group.order))

    assert every_element_witnessed(direct_product(cyclic_group(2), cyclic_group(2)))
    assert not every_element_witnessed(c6)
    assert not every_element_witnessed(a5, cap=128)
    for group in catalog[:30]:
        if group.order > 1:
            assert every_element_witnessed(group) == is_fa_finite(group).verdict


def test_union_over_all_normals_equals_maximal_union(catalog):
    # the reduction to maximal normal subgroups loses nothing
    for group in catalog[:40]:
        if group.order == 1:
            continue
        all_union = set()
        for m in normal_subgroups(group):
            if m.bit_count() < group.order:
                all_union |= members(m)
        report = is_fa_finite(group)
        max_union = set()
        for m in report.cover:
            max_union |= members(m)
        assert all_union == max_union


def test_cap_propagates():
    with pytest.raises(OrderCapExceeded):
        is_fa_finite(cyclic_group(40), cap=20)


def test_covering_subset_budget(monkeypatch, e8):
    # the covering check spends AND products of the intersection search, not
    # subsets: on E2^3, the 2-F-A search extends the all-ones state and the 7
    # masks of level 1 by the 8 distinct masks (64 products), reaching 15
    # intersections and no 0, so every pair is covered
    monkeypatch.setattr(fingroup, "DEFAULT_SEARCH_BUDGET", 64)
    assert is_nfa_finite(e8, 2).verdict
    monkeypatch.setattr(fingroup, "DEFAULT_SEARCH_BUDGET", 63)
    with pytest.raises(SearchBudgetExceeded, match=r"^2-F-A check of E2\^3 reached 15 "
                       r"intersections and spent 56 AND products; 8 more would pass the "
                       r"budget of 63$"):
        is_nfa_finite(e8, 2)
    assert is_fa_finite(e8).verdict  # F-A needs only the 8 products of level 1


def referee_cover_check(group, n):
    """Referee: the subset walk the intersection search replaced.  Every
    k-subset, k = min(n, |G|), in combinations order; the first one lying in
    no maximal normal subgroup is the witness, and otherwise each subset
    marks the lowest index of a subgroup containing it."""
    if group.order == 1:
        return covering.CoverReport(group.name, f"{n}-F-A", False, (), (0,))
    cover, containing = fingroup._maximal_cover(group)
    first = 0
    for subset in combinations(range(group.order), min(n, group.order)):
        hit = -1
        for x in subset:
            hit &= containing[x]
        if not hit:
            return covering.CoverReport(group.name, f"{n}-F-A", False, cover, subset)
        first |= hit & -hit
    subcover = tuple(sub for i, sub in enumerate(cover) if first >> i & 1)
    return covering.CoverReport(group.name, f"{n}-F-A", True, cover, (), subcover=subcover)


# the products of the heavy and middle bands of the finite-lattice
# benchmark workload: groups of order 24-96 with rich normal lattices
LATTICE_PRODUCT_SPECS = tuple(f"prod({a}, {b})" for a, b in (
    ("E 3 2", "E 3 2"), ("CxC 2 6", "Q8"), ("C 6", "E 3 2"), ("A 4", "E 2 3"),
    ("D 6", "E 2 2"), ("E 2 3", "S 3"), ("C 8", "CxC 2 4"), ("D 4", "D 4"),
    ("A 4", "E 3 2"), ("CxC 2 2", "CxC 2 6"), ("Q8", "Q8"), ("D 4", "Q8"),
))

# the groups of the finite-lattice benchmark pools (LATTICE_PRODUCT_SPECS
# holds the two heavy products and the middle band) and the solvable groups
# of finite-large
LATTICE_POOL_SPECS = LATTICE_PRODUCT_SPECS + ("E 2 5", "E 2 4") + tuple(
    f"prod({a}, {b})" for a, b in (
        ("A 4", "S 3"), ("C 6", "E 2 2"), ("C 5", "D 4"), ("C 4", "CxC 2 4"),
        ("C 3", "SL 3"), ("E 2 2", "E 2 2"), ("C 5", "C 8"), ("C 2", "S 4"),
        ("E 3 2", "E 2 2"), ("C 2", "E 2 3"), ("C 4", "Q8"), ("A 4", "E 2 2"),
        ("C 6", "C 6"), ("C 8", "S 3"), ("C 4", "D 4"), ("C 5", "E 3 2"),
        ("C 2", "SL 3"), ("D 4", "E 3 2"), ("A 4", "C 5"), ("C 4", "S 4"),
        ("S 3", "Q8"), ("A 4", "Q8"), ("C 5", "E 2 3"), ("E 2 2", "Q8"),
    )
)
LARGE_SOLVABLE_SPECS = ("D 95", "D 102", "CxC 6 32", "CxC 12 20", "D 86", "D 85")

# the nonsolvable groups of the finite-large benchmark
NONSOLVABLE_LARGE_SPECS = ("S 6", "A 6", "SL 7", "prod(S 5, S 3)") + tuple(
    f"prod({big}, {partner})" for big in ("S 5", "A 5", "SL 5") for partner in ("C 2", "C 3", "E 2 2")
)


def test_covering_matches_subset_referee(catalog):
    # E2^5 (order 32) is a catalog group; E2^6 is 4-F-A, so the referee
    # walks all C(64, 4) of its 4-subsets
    groups = [g for g in catalog if g.order <= 64]
    groups += [group_from_spec(s) for s in LATTICE_PRODUCT_SPECS + ("E 2 6",)]
    for group in groups:
        for n in (1, 2, 3, 4):
            expected = referee_cover_check(group, n)
            assert is_nfa_finite(group, n).as_dict() == expected.as_dict(), (group.name, n)
        fa, expected = is_fa_finite(group), referee_cover_check(group, 1)
        assert (fa.verdict, fa.uncovered, fa.subcover) == (
            expected.verdict, expected.uncovered, expected.subcover)


# ---------------------------------------------------------------------------
# theorem harness

def test_verify_q8(q8):
    report = verify_finite_theorems(q8)
    assert report.passed, report.failing()
    assert report.details["weight"] == 2
    inv = report.details["abelian_invariants"]
    assert inv.factors == (2, 2)


def test_verify_sl25(sl25):
    report = verify_finite_theorems(sl25)
    assert report.passed, report.failing()
    assert report.details["weight"] == 1
    assert report.checks["perfect_weight_one"]


def test_verify_c30():
    report = verify_finite_theorems(cyclic_group(30))
    assert report.passed, report.failing()
    assert not report.details["fa_verdict"]


def test_verify_trivial():
    report = verify_finite_theorems(cyclic_group(1))
    assert report.passed, report.failing()


def test_verify_referees_maximal_subgroups_with_the_lattice(monkeypatch):
    # a pass adds no check; a solvable route that loses a subgroup is caught
    passed = verify_finite_theorems(group_from_spec("prod(S 3, C 4)"))
    assert passed.passed and "maximal_match_lattice" not in passed.checks
    hyperplanes = fingroup._hyperplane_masks
    monkeypatch.setattr(fingroup, "_hyperplane_masks", lambda group: hyperplanes(group)[1:])
    report = verify_finite_theorems(group_from_spec("prod(S 3, C 4)"))
    assert report.failing()[0] == "maximal_match_lattice"  # the theorems fail after it


def test_verify_stops_at_the_lattice_budget_of_a_solvable_group(monkeypatch):
    # the kernel referee of E2^3 walks 8 elements x 3 generators (24 edge
    # checks) and reads its 7 kernels onto C2 off the tree, 8 steps each
    # (56): 80 steps, charged apart from the hyperplane route's own 56
    monkeypatch.setattr(covering, "LATTICE_BUDGET", 80)
    assert verify_finite_theorems(group_from_spec("E 2 3")).passed
    monkeypatch.setattr(covering, "LATTICE_BUDGET", 79)
    with pytest.raises(SearchBudgetExceeded, match=re.escape(
        "prime-index kernels of E2^3 spent 24 edge checks and kernel steps; the 7 kernels "
        "of index 2 would spend 56 more, past the budget of 79"
    )):
        verify_finite_theorems(group_from_spec("E 2 3"))
    # the walk is refused before it starts
    monkeypatch.setattr(covering, "LATTICE_BUDGET", 23)
    with pytest.raises(SearchBudgetExceeded, match=re.escape(
        "spent 0 edge checks and kernel steps; the walk over 3 generators would spend 24 more"
    )):
        verify_finite_theorems(group_from_spec("E 2 3"))


def test_verify_catches_a_dropped_kernel(monkeypatch):
    # the theorems read the true cover and pass; only the referee disagrees
    kernels = covering._prime_index_kernels
    monkeypatch.setattr(covering, "_prime_index_kernels", lambda group: kernels(group)[1:])
    report = verify_finite_theorems(group_from_spec("prod(S 3, C 4)"))
    assert report.failing() == ["maximal_match_lattice"]


def test_verify_catches_a_dropped_maximal_subgroup_of_a_nonsolvable_group(monkeypatch):
    # a fault in the lattice's maximality rule, planted in the cached result
    # that every caller of the enumeration reads: A5 x C2 loses A5 x 1
    enumerate_lattice = fingroup._normal_subgroup_sets

    def drop_first_maximal(group, cap=None):
        found, maximal = enumerate_lattice(group, cap)
        group._cache["normal_sets"] = found, maximal[1:]
        return group._cache["normal_sets"]

    monkeypatch.setattr(fingroup, "_normal_subgroup_sets", drop_first_maximal)
    report = verify_finite_theorems(group_from_spec("prod(A 5, C 2)"))
    assert report.failing() == ["maximal_match_lattice"]


def test_referee_cover_matches_maximal_normal_subgroups_on_nonsolvable_groups(catalog):
    groups = [(g, 128) for g in catalog if g.order <= 128 and not fingroup._is_solvable(g)]
    assert {g.name for g, _ in groups} >= {"A5", "S5", "SL(2,5)"}
    groups += [(group_from_spec(spec), 1024) for spec in NONSOLVABLE_LARGE_SPECS]
    for group, cap in groups:
        assert not fingroup._is_solvable(group), group.name
        expected = maximal_normal_subgroups(group, cap)
        assert covering._referee_cover(group, cap) == expected, group.name


@pytest.mark.parametrize("fixture, perfect", [("klein", False), ("a5", True)])
def test_verify_fails_each_check_that_reads_a_weight_error(monkeypatch, request, fixture, perfect):
    # every check that reads the weight fails with the error as its detail;
    # the F-A checks and nfa_monotone, which do not, still pass
    error = NotAGroup("planted weight error")

    def raise_error(group, cap=None):
        raise error

    monkeypatch.setattr(covering, "weight_bruteforce", raise_error)
    report = verify_finite_theorems(request.getfixturevalue(fixture))
    nfa = ["nfa1_iff_ab_weight_ge_2", "nfa2_iff_ab_weight_ge_3", "nfa3_iff_ab_weight_ge_4"]
    assert list(report.checks) == [
        "group_axioms", "fa_iff_noncyclic_abelianisation", "fa_iff_rank2_elementary_quotient",
        *nfa, "nfa_monotone", "weight_matches_abelianisation", "perfect_weight_one",
    ]
    failing = [*nfa, "weight_matches_abelianisation"] + ["perfect_weight_one"] * perfect
    assert report.failing() == failing
    assert list(report.details) == ["abelian_invariants", "fa_verdict", *failing]
    assert all(report.details[name] is error for name in failing)
    assert report.checks["nfa_monotone"]


def test_verify_fails_a_walk_that_misses_elements(monkeypatch):
    # one generator of E2^2 reaches 2 of its 4 elements
    monkeypatch.setattr(covering, "_generators", lambda group: fingroup._generators(group)[:1])
    report = verify_finite_theorems(group_from_spec("E 2 2"))
    assert report.failing() == ["maximal_match_lattice"]
    assert "reach 2 of its 4 elements" in str(report.details["maximal_match_lattice"])


def test_verify_builds_the_lattice_only_for_nonsolvable_groups():
    solvable = group_from_spec("prod(S 3, C 4)")
    assert verify_finite_theorems(solvable).passed
    assert "normal_sets" not in solvable._cache
    nonsolvable = group_from_spec("prod(A 5, C 2)")
    assert verify_finite_theorems(nonsolvable).passed
    assert "normal_sets" in nonsolvable._cache


def test_verify_walks_the_derived_series_once(monkeypatch):
    # S4 > A4 > V4 > 1: the walk past G' = A4 closes two terms, each from
    # the greedy generators of the term before; the F-A route and the
    # referee's dispatch share the cached answer
    walked = []
    greedy = fingroup._greedy_generators

    def counted(table, members=None):
        if members is not None:
            walked.append(len(members))
        return greedy(table, members)

    monkeypatch.setattr(fingroup, "_greedy_generators", counted)
    group = group_from_spec("S 4")
    assert verify_finite_theorems(group).passed
    assert walked == [12, 4]
    assert group._cache["solvable"] is True


def assert_kernels_match_lattice(group):
    """The kernel referee against the lattice's maximal members of prime
    index, which for a solvable group are all of its maximal members."""
    maximal = fingroup._normal_subgroup_sets(group, group.order)[1]
    prime_index = tuple(m for m in maximal if abelian.is_prime(group.order // m.bit_count()))
    if fingroup._is_solvable(group):
        assert prime_index == maximal, group.name
    assert covering._prime_index_kernels(group) == prime_index, group.name


def test_kernels_match_lattice_on_catalog(catalog):
    for group in catalog:
        if group.order <= 128:
            assert_kernels_match_lattice(group)


@pytest.mark.parametrize("spec", LATTICE_POOL_SPECS + LARGE_SOLVABLE_SPECS)
def test_kernels_match_lattice_on_benchmark_groups(spec):
    assert_kernels_match_lattice(group_from_spec(spec))


# permutation generators whose tables have three or four greedy generators,
# so that a later pivot of the relations mod p meets an earlier pivot row
# that must be cleared at its column
REDUCTION_CASES = (
    (4, [[2, 1, 3, 0], [0, 1, 3, 2], [2, 0, 3, 1]]),
    (4, [[2, 1, 0, 3], [1, 2, 3, 0], [1, 3, 0, 2], [1, 3, 2, 0]]),
    (6, [[3, 0, 2, 4, 1, 5], [4, 1, 2, 5, 3, 0], [0, 5, 1, 4, 3, 2]]),
)


@pytest.mark.parametrize("degree, gens", REDUCTION_CASES)
def test_kernels_match_lattice_when_pivots_are_cleared(degree, gens):
    assert_kernels_match_lattice(build_from_permutations(degree, gens, cap=1024))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.permutations(range(n)), max_size=3).map(lambda gens: (n, gens))
))
def test_kernels_match_lattice_on_random_permutations(degree_and_gens):
    assert_kernels_match_lattice(build_from_permutations(*degree_and_gens))


def test_weight_from_abelianisation_matches_bruteforce(catalog):
    groups = [g for g in catalog if g.order <= 128]
    groups += [group_from_spec(s) for s in LATTICE_POOL_SPECS]
    for group in groups:
        fresh = FiniteGroup(group.name, group.table)
        weight = weight_from_abelianisation(fresh)
        assert "weight" not in fresh._cache  # the brute-force key stays the referee's
        assert weight == weight_bruteforce(fresh, fresh.order), group.name


def test_verify_catalog(catalog):
    for group in catalog:
        report = verify_finite_theorems(group)
        assert report.passed, (group.name, report.failing())


def test_verify_runs_each_covering_once(monkeypatch, klein):
    # the harness runs the F-A check once and reads every n-F-A verdict off
    # one weight search, never calling is_nfa_finite
    calls = []
    check, weigh = covering._covering_check, covering.weight_bruteforce

    def counting(group, n, prop, cap):
        calls.append(n)
        return check(group, n, prop, cap)

    def weighing(group, cap=None):
        calls.append("weight")
        return weigh(group, cap)

    monkeypatch.setattr(covering, "_covering_check", counting)
    monkeypatch.setattr(covering, "weight_bruteforce", weighing)
    report = verify_finite_theorems(klein, nfa_range=(1, 2, 3))
    assert report.passed, report.failing()
    assert calls == [1, "weight"]


def test_verify_elementary_rank_check_computes_ranks(monkeypatch, klein):
    # the elementary-quotient check must read the p-ranks, not restate the
    # invariant-factor count that the noncyclic check compares
    monkeypatch.setattr(abelian, "elementary_p_rank", lambda inv, p: 0)
    report = verify_finite_theorems(klein)
    assert not report.checks["fa_iff_rank2_elementary_quotient"]
    assert report.checks["fa_iff_noncyclic_abelianisation"]


def test_verify_detects_corrupt_table():
    # swap two body entries of the C5 table, keeping it Latin but breaking
    # associativity / identity structure downstream
    table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    table[1], table[2] = table[2], table[1]
    corrupt = build_from_cayley_table(table, "corrupt", validate=False)
    report = verify_finite_theorems(corrupt)
    assert not report.passed
    # no theorem is checked on a table that is not a group
    assert report.checks == {"group_axioms": False}
    assert isinstance(report.details["group_axioms"], NotAGroup)


def test_quotient_closure_property(catalog):
    # if G/N is F-A for some normal N, then G is F-A
    hits = 0
    for group in catalog[:62]:
        for nsub in normal_subgroups(group):
            from groupcover import quotient

            q = quotient(group, nsub)
            if 1 < q.order and is_fa_finite(q).verdict:
                assert is_fa_finite(group).verdict
                hits += 1
    assert hits > 20


def test_direct_product_closure_property(catalog):
    # A F-A implies A x G F-A
    fa_groups = [g for g in catalog if g.order <= 8 and is_fa_finite(g).verdict]
    others = [g for g in catalog if g.order <= 8]
    pairs = 0
    for a in fa_groups[:3]:
        for g in others[:6]:
            product = direct_product(a, g)
            assert is_fa_finite(product).verdict
            pairs += 1
    assert pairs >= 10
