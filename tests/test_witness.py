import gc
import itertools
import json
import time
from bisect import bisect_right
from functools import lru_cache, partial
from math import gcd
from operator import attrgetter, mul

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from groupcover import (
    abelian_invariants_finite,
    abelianisation,
    alternating_group,
    cyclic_group,
    derived_subgroup,
    dihedral_group,
    direct_product,
    elementary_group,
    enumerate_surjections,
    fa_scan,
    find_annihilator,
    parse_presentation,
    abelian_invariants,
    parse_word_text,
    quaternion_group,
    special_linear_group,
    subgroup_closure,
    symmetric_group,
    verify_witness,
    witness_targets,
)
from groupcover import witness
from groupcover.abelian import AbelianInvariants, is_prime, prime_factors
from groupcover.catalog import _closed_form, build_entry
from groupcover.classify import FA, classify_fa
from groupcover.errors import SearchBudgetExceeded
from groupcover.fingroup import FiniteGroup
from groupcover.presentation import Presentation
from groupcover.witness import (
    BOUND_TOO_SMALL,
    UNWITNESSED,
    WITNESSED,
    ScanEntry,
    ScanReport,
    WitnessTarget,
    evaluate_word,
    evaluate_word_direct,
)
from groupcover.words import EMPTY_WORD, exponent_vector, free_reduce, reduced_words, render_word
from tests.test_covering import referee_fa_witness
from tests.test_fingroup import commutes_pairwise


def pres(text):
    return parse_presentation(text)


@lru_cache(maxsize=1)
def full_catalog():
    """The witness catalog before it kept only simple targets: every target
    of order <= MAX_WITNESS_BOUND, sorted by (order, name).  An entry is
    (family, params, T^ab factors), kept when the order its family's catalog
    row gives is within the bound.  It is the named referee of the simple
    catalog, and holds the composite and nonabelian targets the surjection
    engine is tested on."""
    bound = witness.MAX_WITNESS_BOUND
    entries = [("C", (n,), (n,)) for n in range(2, bound + 1)]
    entries += [("E", (p, k), (p,) * k) for p in (2, 3, 5, 7, 11)
                for k in range(2, bound.bit_length())]
    entries += [("D", (n,), (2, 2) if n % 2 == 0 else (2,)) for n in range(3, bound + 1)]
    entries += [("S", (3,), (2,)), ("S", (4,), (2,)), ("A", (4,), (3,)), ("A", (5,), ()),
                ("Q8", (), (2, 2)), ("SL", (3,), (3,))]
    records = []
    for family, params, factors in entries:
        order, name = _closed_form(family, params, bound)
        if order <= bound:
            records.append(WitnessTarget(
                order, name, AbelianInvariants(0, factors), partial(build_entry, family, params),
            ))
    return tuple(sorted(records, key=attrgetter("order", "name")))


def full_catalog_targets(bound):
    """`witness_targets(bound)` over the full catalog."""
    records = full_catalog()
    return records[: bisect_right(records, bound, key=attrgetter("order"))]


def record(bound, name):
    return next(t for t in full_catalog_targets(bound) if t.name == name)


def by_name(bound, name):
    return record(bound, name).group


def groups(bound):
    """The built tables of `full_catalog_targets(bound)`."""
    return [t.group for t in full_catalog_targets(bound)]


# ---------------------------------------------------------------------------
# surjection enumeration

def test_surjections_x2_onto_c2():
    p = pres("< x | x^2 >")
    assert enumerate_surjections(p, by_name(2, "C2")) == [(1,)]


def test_surjections_k235_onto_c3(k235):
    # x and z are forced to the identity (gcd of orders), y is free
    assert enumerate_surjections(k235, by_name(3, "C3")) == [(0, 1, 0), (0, 2, 0)]


def test_surjections_k235_onto_c4(k235):
    assert enumerate_surjections(k235, by_name(4, "C4")) == []


def test_surjections_higman_empty_up_to_30(higman):
    for target in groups(30):
        assert enumerate_surjections(higman, target) == []


def test_surjections_require_surjectivity():
    p = pres("< x | x^2 >")
    klein = by_name(4, "E2^2")
    assert enumerate_surjections(p, klein) == []


def test_surjections_trivial_presentation():
    p = pres("< | >")
    assert enumerate_surjections(p, by_name(2, "C2")) == []


def test_surjections_budget(monkeypatch):
    monkeypatch.setattr(witness, "DEFAULT_SEARCH_BUDGET", 10**5)
    p = pres("< a, b, c, d, e | >")
    with pytest.raises(SearchBudgetExceeded):
        enumerate_surjections(p, by_name(24, "S4"))


def test_surjection_count_free_group_onto_c2():
    # hom count 2^k, minus the trivial one
    p = pres("< a, b | >")
    assert len(enumerate_surjections(p, by_name(2, "C2"))) == 3


# ---------------------------------------------------------------------------
# the search behind find_annihilator and fa_scan visits one surjection per
# automorphism orbit; enumerate_surjections' full lists referee it

ORBIT_PRESENTATIONS = [
    "< | >",
    "< a | >",
    "< a | a^6 >",
    "< a, b | [a,b] >",
    "< a, b | a^2, b^3 >",
    "< x, y | x^2, y^3, (x y)^5 >",
    "< x, y | x^2, y^3, (x y)^7 >",
    "< x, y | x^3, y^3, (x y)^3 >",
    "< a, b | a^4, a b a^-1 b^-2 >",
    "< a, b | a^5, b a b^-1 a^-2 >",
    "< a, b | a^6, b a^2 b^-2 a >",
    "< x, y, z | x^2, y^3, z^5 >",
    "< a, b, c | a^2, b^2, c^2, (a b)^3, (b c)^3, (a c)^2 >",
]


@lru_cache(maxsize=None)
def full_surjections(text, target):
    return enumerate_surjections(pres(text), target)


@lru_cache(maxsize=None)
def brute_automorphisms(target):
    """The automorphisms the orbit rule uses, as tuples of element images, by
    brute force: conjugation by every element of a nonabelian target, the
    power maps x -> x^u with u prime to the order of an abelian one."""
    n = target.order
    if commutes_pairwise(target):
        return [
            tuple(evaluate_word_direct(target, (x,), ((0, u),)) for x in range(n))
            for u in range(1, n + 1)
            if gcd(u, n) == 1
        ]
    return [tuple(target.conjugate(g, x) for x in range(n)) for g in range(n)]


def test_orbit_minima_match_brute_force():
    for target in groups(60):
        autos = brute_automorphisms(target)
        least = [x == min(a[x] for a in autos) for x in range(target.order)]
        assert list(map(bool, witness._orbit_minima(target))) == least, target.name


@pytest.mark.parametrize("text", ORBIT_PRESENTATIONS)
def test_orbit_search_matches_full_lists(text):
    p = pres(text)
    for rec in full_catalog_targets(60):
        target = rec.group
        autos = brute_automorphisms(target)
        full = full_surjections(text, target)
        reduced = witness._surjections_cached(p, rec)
        # every nonempty full list keeps a representative
        assert bool(reduced) == bool(full), (text, target.name)
        # exactly the surjections whose first non-identity image is the
        # least of its orbit, in the same order
        kept = []
        for images in full:
            first = next(x for x in images if x)
            if first == min(a[first] for a in autos):
                kept.append(images)
        assert list(reduced) == kept, (text, target.name)
        # so each orbit of surjections keeps its lexicographically least member
        orbit_minima = {min(tuple(a[x] for x in images) for a in autos) for images in full}
        assert orbit_minima <= set(reduced), (text, target.name)


# ---------------------------------------------------------------------------
# enumerate_surjections against brute force: every assignment in
# lexicographic order, relators by direct evaluation, surjectivity by closure

# most assignments |T|^k one brute-force list may try
BRUTE_ASSIGNMENTS = 15_000

# the fp-witness shapes < a, b | a^p, r >, r with exponents up to +-7 and
# exponents lifted near 10^6
FP_WITNESS_SHAPES = [
    "< a, b | a^2, a^3 b^-1 a^-4 b^2 >",
    "< a, b | a^4, b^7 a^-2 b^-6 a^3 >",
    "< a, b | a^6, a^-7 b^5 a b^-4 >",
    "< a, b | a^3, b^-7 a^5 b^2 a^-4 b^6 >",
    "< a, b | a^5, a^1000003 b^-999999 a^7 b^1000000 >",
    "< a, b | a^7, b^-1000001 a^-999997 b^1000002 a^2 >",
]


def brute_surjections(p, target):
    n = target.order
    return [
        images
        for images in itertools.product(range(n), repeat=p.ngens)
        if all(evaluate_word_direct(target, images, rel) == 0 for rel in p.relators)
        and len(subgroup_closure(target, set(images))) == n
    ]


@pytest.mark.parametrize("text", ORBIT_PRESENTATIONS + FP_WITNESS_SHAPES)
def test_surjections_match_brute_force(text):
    p = pres(text)
    for target in groups(60):
        if target.order**p.ngens <= BRUTE_ASSIGNMENTS:
            assert enumerate_surjections(p, target) == brute_surjections(p, target), (
                text, target.name,
            )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 7),
    st.lists(
        st.tuples(
            st.integers(0, 1),
            st.sampled_from([1, 2, 3, 5, 7, 10**6, 10**6 + 1]),
            st.sampled_from([1, -1]),
        ),
        min_size=2,
        max_size=6,
    ),
    st.sampled_from([t.name for t in full_catalog_targets(60)]),
)
def test_surjections_match_brute_force_on_random_relators(p_order, syllables, name):
    r = tuple(free_reduce([(g, sign * e) for g, e, sign in syllables]))
    p = Presentation(("a", "b"), (((0, p_order),),) + ((r,) if r else ()))
    target = by_name(60, name)
    assert enumerate_surjections(p, target) == brute_surjections(p, target)


@pytest.mark.parametrize(
    "text, name, full_nodes, orbit_nodes",
    [
        # counted by the search that visited one candidate at a time
        ("< a, b, c | a^2, b^2, c^2, (a b)^3, (b c)^3, (a c)^2 >", "S4", 450, 89),
        ("< a, b | a^4, a b a^-1 b^-2 >", "D10", 252, 72),
        ("< a, b | a^3, b^-7 a^5 b^2 a^-4 b^6 >", "A4", 117, 31),
    ],
)
def test_search_budget_boundary_is_the_node_count(monkeypatch, text, name, full_nodes, orbit_nodes):
    p, target = pres(text), by_name(24, name)
    for least, nodes in ((None, full_nodes), (witness._orbit_minima(target), orbit_nodes)):
        monkeypatch.setattr(witness, "DEFAULT_SEARCH_BUDGET", nodes)
        witness._surjection_search(p, target, least)
        monkeypatch.setattr(witness, "DEFAULT_SEARCH_BUDGET", nodes - 1)
        with pytest.raises(SearchBudgetExceeded, match=f"^search exceeded {nodes - 1} nodes$"):
            witness._surjection_search(p, target, least)


def test_search_leaves_no_reference_cycles():
    # the search frees its recursive closure when it returns, not at a collection
    p = pres("< a, b, c | a^2, b^2, c^2, (a b)^3, (b c)^3, (a c)^2 >")
    target = by_name(24, "S4")
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_surjections(p, target)) == 24
        assert gc.collect() == 0
    finally:
        gc.enable()


def first_kill_over_full_lists(text, word, bound):
    for target in groups(bound):
        for images in full_surjections(text, target):
            if evaluate_word_direct(target, images, word) == 0:
                return target.name, images
    return None


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([t for t in ORBIT_PRESENTATIONS if pres(t).ngens]).flatmap(
        lambda text: st.tuples(
            st.just(text),
            st.lists(
                st.tuples(st.integers(0, pres(text).ngens - 1), st.integers(-7, 7)),
                max_size=6,
            ),
        )
    ),
    st.sampled_from([2, 6, 8, 12, 24, 30, 60]),
)
def test_annihilator_is_first_kill_over_full_lists(text_word, bound):
    text, word = text_word
    word = free_reduce(word)
    found = find_annihilator(pres(text), word, bound)
    got = None if found is None else (found.target.name, found.images)
    assert got == first_kill_over_full_lists(text, word, bound)


# ---------------------------------------------------------------------------
# find_annihilator

def test_annihilator_k235_x(k235):
    w = find_annihilator(k235, parse_word_text("x", k235), 5)
    assert w.target.name == "C3"
    assert w.images == (0, 1, 0)
    assert verify_witness(w)


def test_annihilator_k235_y(k235):
    w = find_annihilator(k235, parse_word_text("y", k235), 5)
    assert w.target.name == "C2"
    assert w.images == (1, 0, 0)


def test_annihilator_none_for_c2_generator():
    p = pres("< a | a^2 >")
    assert find_annihilator(p, parse_word_text("a", p), 60) is None


def test_annihilator_json_shape(k235):
    w = find_annihilator(k235, parse_word_text("x", k235), 5)
    payload = w.as_dict()
    assert payload == {
        "target": {"name": "C3", "order": 3},
        "images": {"x": 0, "y": 1, "z": 0},
        "word": "x",
        "verified": True,
    }


def record_surjection_searches(monkeypatch):
    """Names of the targets the search asks for surjections onto, in order."""
    searched = []
    cached = witness._surjections_cached

    def recording(pres, target):
        searched.append(target.name)
        return cached(pres, target)

    monkeypatch.setattr(witness, "_surjections_cached", recording)
    return searched


def test_annihilator_stops_at_first_target(monkeypatch, k235):
    # targets are searched lazily: y dies in C2, so no larger target is
    # enumerated even with a bound of 120
    searched = record_surjection_searches(monkeypatch)
    w = find_annihilator(k235, parse_word_text("y", k235), 120)
    assert w.target.name == "C2"
    assert searched == ["C2"]


def test_scan_searches_each_target_once(monkeypatch, k235):
    searched = record_surjection_searches(monkeypatch)
    report = fa_scan(k235, 2, 5)
    assert len(report.entries) == 37
    assert searched == [t.name for t in witness_targets(5)]


def test_scan_searches_only_targets_some_word_reaches(monkeypatch):
    # every word of length <= 1 in Z^2 dies in C2, so no later target is searched
    searched = record_surjection_searches(monkeypatch)
    fa_scan(pres("< a, b | [a,b] >"), 1, 60)
    assert searched == ["C2"]


# ---------------------------------------------------------------------------
# nontrivial quotient search

def test_higman_has_no_small_quotient(higman):
    assert find_annihilator(higman, EMPTY_WORD, 30) is None


def test_free_abelian_has_c2_quotient():
    w = find_annihilator(pres("< a, b | [a,b] >"), EMPTY_WORD, 2)
    assert w is not None and w.target.name == "C2"
    assert w.word == ()


def test_trivial_presentation_has_no_quotient():
    assert find_annihilator(pres("< | >"), EMPTY_WORD, 30) is None


def test_collapsing_presentation_has_no_quotient():
    p = pres("< a, b | [a,b], a^2 a^-3, b^2 b^-3 >")
    assert find_annihilator(p, EMPTY_WORD, 16) is None


# ---------------------------------------------------------------------------
# the abelianisation prune: a target with a cyclic factor of T^ab that is no
# quotient of G^ab is skipped before the surjection search; on the simple
# targets that is exactly the full test of T^ab against G^ab


def inv(free_rank, *factors):
    return AbelianInvariants(free_rank, factors)


@pytest.mark.parametrize(
    "source, target, surjects",
    [
        (inv(0, 4), inv(0, 2, 2), False),  # C4 -/-> C2^2
        (inv(0, 2, 2), inv(0, 4), False),  # C2^2 -/-> C4
        (inv(1), inv(0, 7), True),  # Z -> C_n
        (inv(1), inv(0, 120), True),
        (inv(1), inv(0, 2, 2), False),  # Z -/-> C2^2
        (inv(0, 6), inv(0, 3), True),  # C6 -> C3
        (inv(0, 6), inv(0, 4), False),
        (inv(1, 2), inv(0, 2, 2), True),  # Z x C2 -> C2^2
        (inv(0, 2, 12), inv(0, 2, 4), True),
        (inv(0, 2, 12), inv(0, 8), False),
        (inv(0), inv(0, 2), False),  # the trivial group -/-> any nontrivial one
        (inv(0), inv(0, 3, 3), False),
        (inv(0), inv(0), True),  # onto the trivial T^ab of a perfect target
        (inv(0, 5), inv(0), True),
    ],
)
def test_abelian_surjects(source, target, surjects):
    assert abelian_surjects_referee(source, target) is surjects


def abelian_surjects_referee(source, target):
    """The prune read off both invariant lists on every call, factoring the
    target's top invariant each time: for each prime power q dividing it,
    at most r plus the number of the source's factors divisible by q of
    the target's factors may be divisible by q."""
    if not target.factors:
        return True
    top = target.factors[-1]
    for p in prime_factors(top):
        q = p
        while top % q == 0:
            need = sum(1 for e in target.factors if e % q == 0)
            if need > source.free_rank + sum(1 for d in source.factors if d % q == 0):
                return False
            q *= p
    return True


def abelian_invariants_st():
    """G^ab as Z^r x C_d1 x ... x C_dk, each d_i dividing the next."""
    steps = st.lists(st.integers(2, 12), max_size=4)
    return st.tuples(st.integers(0, 2), steps).map(
        lambda rs: inv(rs[0], *itertools.accumulate(rs[1], mul))
    )


def refused_by_the_prune(source, target):
    """Whether `_surjections_cached`, uncached, refuses the target for a
    one-generator presentation whose G^ab reads as `source`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(witness, "_source_abelianisation", lambda pres: source)
        patch.setattr(witness, "_surjection_search", lambda pres, group, least: [(0,)])
        return witness._surjections_cached.__wrapped__(pres("< a | >"), target) == ()


@settings(max_examples=200, deadline=None)
@given(abelian_invariants_st())
def test_prune_refuses_as_the_referee_on_simple_targets(source):
    records = witness_targets(witness.MAX_WITNESS_BOUND)
    assert len(records) == 32
    for target in records:
        assert refused_by_the_prune(source, target) is not abelian_surjects_referee(
            source, target.abelian
        ), (source, target.name)


@settings(max_examples=100, deadline=None)
@given(abelian_invariants_st())
def test_prune_refuses_no_full_catalog_target_the_referee_keeps(source):
    # on a composite target the prune reads only T^ab's cyclic factors, so
    # it may search a target the full test refuses, but never the reverse
    for target in full_catalog_targets(witness.MAX_WITNESS_BOUND):
        if refused_by_the_prune(source, target):
            assert not abelian_surjects_referee(source, target.abelian), (source, target.name)


def test_generators_commute_exactly_on_abelian_targets():
    # G' is the normal closure of the commutators of the greedy generators,
    # so G' = {e} exactly when every pair of elements commutes
    for target in groups(128):
        fresh = FiniteGroup(target.name, target.table)  # G' not cached
        assert (len(derived_subgroup(fresh)) == 1) is commutes_pairwise(fresh), target.name


def test_orbit_rule_reads_nonabelian_as_a_nontrivial_derived_subgroup(monkeypatch):
    # the orbit rule takes conjugacy classes exactly when two greedy
    # generators fail to commute; that is G' > {e} on every record
    records = full_catalog_targets(128)
    assert len(records) == 208
    seen = []
    monkeypatch.setattr(witness, "conjugacy_classes", lambda g: seen.append(g) or ((0,),))
    for rec in records:
        fresh = FiniteGroup(rec.name, rec.group.table)  # no generators, classes or G' cached
        witness._orbit_minima(fresh)
        nonabelian = len(derived_subgroup(FiniteGroup(rec.name, rec.group.table))) > 1
        assert (seen[-1:] == [fresh]) is nonabelian, rec.name


def built(records):
    """The names of the records whose tables have been built."""
    return [t.name for t in records if "group" in vars(t)]


@pytest.fixture
def fresh_catalog():
    """Target records with no table built, and no surjections cached."""
    witness._catalog.cache_clear()
    witness._surjections_cached.cache_clear()
    yield
    witness._catalog.cache_clear()
    witness._surjections_cached.cache_clear()


def test_refused_targets_build_no_classes(fresh_catalog):
    # G^ab = C6 has no quotient C5 or C7; refused by their closed-form T^ab,
    # they build no table at all
    p = pres("< a, b | a^2, b^3, a b a^-1 b^-1 >")
    targets = witness_targets(7)[2:]
    assert [t.name for t in targets] == ["C5", "C7"]
    for target in targets:
        assert witness._surjections_cached(p, target) == ()
    assert built(targets) == []


def test_target_abelianisation_matches_the_quotient():
    # the prune reads T^ab off the cosets of T'; the quotient T/T' referees it
    for target in groups(128):
        fresh = FiniteGroup(target.name, target.table)  # T^ab not cached
        expected = abelian_invariants_finite(abelianisation(target))
        assert abelian_invariants_finite(fresh) == expected, target.name


# (2,3,7) and (2,4,5) triangle groups, < a, b | a^p, r > with b of exponent
# sum 1 in r, a free product of three cyclic groups, a presentation of free
# rank 1 and an abelian-type one, each with its G^ab
PRUNE_CASES = [
    ("< x, y | x^2, y^3, (x y)^7 >", (0,)),
    ("< x, y | x^2, y^4, (x y)^5 >", (0, 2)),
    ("< a, b | a^2, b a b^-1 a^-1 b >", (0, 2)),
    ("< a, b | a^3, a b a^-2 b^-1 a b >", (0, 3)),
    ("< a, b | a^4, b a b^-1 a^-2 b >", (0, 4)),
    ("< a, b | a^6, a^2 b a b^-1 a^-1 b^-2 a b^3 >", (0, 6)),
    ("< x, y, z | x^2, y^3, z^5 >", (0, 30)),
    ("< a, b | a^3 >", (1, 3)),
    ("< a, b, c | [a, b], [a, c], [b, c], a^2, b^12 >", (1, 2, 12)),
]
PRUNE_PRESENTATIONS = [text for text, _ in PRUNE_CASES]


def prune_targets(text):
    return full_catalog_targets(128 if pres(text).ngens < 3 else 60)


@pytest.mark.parametrize("text, stated", PRUNE_CASES)
def test_prune_refuses_only_targets_without_surjections(text, stated):
    p = pres(text)
    assert abelian_invariants(p) == inv(*stated)
    targets = prune_targets(text)
    skipped = [
        t for t in targets
        if not abelian_surjects_referee(inv(*stated), abelian_invariants_finite(t.group))
    ]
    assert skipped  # the prune is not idle on any of them
    for target in skipped:
        assert full_surjections(text, target.group) == [], (text, target.name)
        assert witness._surjections_cached(p, target) == (), (text, target.name)
    for target in targets:
        assert bool(witness._surjections_cached(p, target)) == bool(
            full_surjections(text, target.group)
        )


def first_kill_unpruned(text, word, bound):
    """`_first_kill` over the full, unpruned surjection lists."""
    space = ((t, full_surjections(text, t)) for t in groups(bound))
    found = witness._first_kill(space, word)
    return None if found is None else (found[0].name, found[1])


@pytest.mark.parametrize("text", PRUNE_PRESENTATIONS)
def test_pruned_annihilator_and_scan_match_the_unpruned_search(text):
    p = pres(text)
    bound = prune_targets(text)[-1].order
    for word in reduced_words(p.ngens, 2):
        found = find_annihilator(p, word, bound)
        got = None if found is None else (found.target.name, found.images)
        assert got == first_kill_unpruned(text, word, bound), (text, word)
    assert fa_scan(p, 2, 24) == referee_fa_scan(p, 2, 24)


def test_refused_targets_are_not_searched(monkeypatch):
    # (2,3,7) is perfect: only targets with trivial T^ab reach the search
    searched = []
    search = witness._surjection_search

    def recording(pres, target, least):
        searched.append(target.name)
        return search(pres, target, least)

    monkeypatch.setattr(witness, "_surjection_search", recording)
    witness._surjections_cached.cache_clear()
    assert find_annihilator(pres("< x, y | x^2, y^3, (x y)^7 >"), EMPTY_WORD, 60) is None
    assert searched == ["A5"]


@pytest.fixture
def fresh_caches():
    witness._surjections_cached.cache_clear()
    witness._source_abelianisation.cache_clear()
    yield
    witness._surjections_cached.cache_clear()
    witness._source_abelianisation.cache_clear()


def test_prune_is_skipped_when_the_snf_passes_its_budget(monkeypatch, fresh_caches):
    # killing a kills b, so the search for a is exhaustive and finds nothing
    p = pres("< a, b | a^4, b a b^-1 a^-2 b >")
    words = [parse_word_text(text, p) for text in ("b a^2 b^-1 a^2", "a")]
    expected = [find_annihilator(p, word, 60) for word in words]
    assert expected[0] is not None and expected[1] is None

    def over_budget(pres):
        raise SearchBudgetExceeded("Smith normal form past its bit budget")

    monkeypatch.setattr(witness, "abelian_invariants", over_budget)
    witness._surjections_cached.cache_clear()
    witness._source_abelianisation.cache_clear()
    assert [find_annihilator(p, word, 60) for word in words] == expected
    assert witness._source_abelianisation(p) is None


def test_prune_waits_where_the_search_could_pass_its_budget(monkeypatch, fresh_caches):
    # G^ab = C2 x C6 has no quotient C4; below 2 * 4^2 the prune leaves the
    # target to the search, which reports a budget of 10 as before
    p = pres("< a, b | a^2 b^4, a^4 b^2 >")
    c4 = record(4, "C4")
    assert abelian_invariants(p) == inv(0, 2, 6)
    monkeypatch.setattr(witness, "DEFAULT_SEARCH_BUDGET", 10)
    with pytest.raises(SearchBudgetExceeded):
        witness._surjections_cached(p, c4)
    monkeypatch.setattr(witness, "_surjection_search", None)  # never reached
    monkeypatch.setattr(witness, "DEFAULT_SEARCH_BUDGET", 32)
    assert witness._surjections_cached(p, c4) == ()


# ---------------------------------------------------------------------------
# scans


def referee_fa_scan(pres, max_word_length, order_bound, hint=None):
    """The scan as one `_first_kill` search per word over `reduced_words`,
    re-evaluating every word from the identity under every surjection."""
    verdict = classify_fa(pres, hint)
    space = [(t, enumerate_surjections(pres, t)) for t in groups(order_bound)]
    texts, kills = [], []
    for word in reduced_words(pres.ngens, max_word_length):
        found = witness._first_kill(space, word)
        texts.append(render_word(word, pres.generators))
        kills.append((found[0].name, found[0].order) if found else None)
    return ScanReport(
        pres, max_word_length, order_bound, verdict.status, tuple(texts), tuple(kills)
    )


def referee_entries(pres, max_word_length, order_bound, hint=None):
    """The scan's entries, one `_first_kill` search per word as above."""
    verdict = classify_fa(pres, hint)
    space = [(t, enumerate_surjections(pres, t)) for t in groups(order_bound)]
    entries = []
    for word in reduced_words(pres.ngens, max_word_length):
        found = witness._first_kill(space, word)
        if found:
            entries.append(ScanEntry(word, WITNESSED, found[0].name, found[0].order))
        elif verdict.status == FA:
            entries.append(ScanEntry(word, BOUND_TOO_SMALL))
        else:
            entries.append(ScanEntry(word, UNWITNESSED))
    return tuple(entries)


def report_json(report):
    """The report's JSON document, written by its chunk writer in one piece."""
    return "".join(report.json_chunks([(report.texts, report.kills)]))


def assert_json_matches(report):
    assert report_json(report) == json.dumps(report.as_dict(), indent=2, sort_keys=True)


def checked_scan(pres, max_word_length, order_bound, hint=None):
    """fa_scan, checked against the referee and its JSON against as_dict."""
    report = fa_scan(pres, max_word_length, order_bound, hint)
    assert report == referee_fa_scan(pres, max_word_length, order_bound, hint)
    assert report.entries == referee_entries(pres, max_word_length, order_bound, hint)
    assert_json_matches(report)
    return report


PRIME_TRIPLES = list(itertools.combinations((2, 3, 5, 7, 11, 13), 3))


@pytest.mark.parametrize("primes", PRIME_TRIPLES, ids=str)
def test_scan_agrees_with_referee_on_prime_triples(primes):
    p = pres("< x, y, z | " + ", ".join(f"{g}^{q}" for g, q in zip("xyz", primes)) + " >")
    checked_scan(p, 4, max(primes))


REFEREE_PRESENTATIONS = [
    "< a | a^2 >",
    "< a | >",
    "< | >",
    "< a, b | >",
    "< a, b | [a, b] >",
    "< a, b | a^2, b^2, [a,b] >",
    "< x, y | x^2, y^3, (x y)^7 >",
    "< s, r | s^2, r^3, s r s^-1 = r^-1 >",
    "< i, j | i^4, j^2 = i^2, j i j^-1 = i^-1 >",
]


@pytest.mark.parametrize("text", REFEREE_PRESENTATIONS)
def test_scan_agrees_with_referee(text):
    p = pres(text)
    for length, bound in itertools.product((0, 1, 3), (1, 2, 6, 24)):
        checked_scan(p, length, bound)


def test_scan_agrees_with_referee_when_bound_too_small():
    # E3^2 is F-A, but no catalog target of order 2 is a quotient of it
    report = checked_scan(pres("< a, b | a^3, b^3, [a,b] >"), 3, 2)
    assert {e.status for e in report.entries} == {BOUND_TOO_SMALL}
    report = checked_scan(pres("< a, b | a^3, b^3, [a,b] >"), 3, 9)
    assert {e.status for e in report.entries} == {WITNESSED}


def test_scan_of_negative_length_is_the_empty_word():
    report = checked_scan(pres("< a | a^2 >"), -1, 2)
    assert [e.word for e in report.entries] == [()]


def test_scan_report_json_without_entries():
    # fa_scan always lists the empty word; the writer still matches on none
    assert_json_matches(ScanReport(pres("< a | >"), 0, 2, "Unknown", (), ()))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(-4, 4)), max_size=5
                ),
                max_size=3,
            ),
        )
    ),
    st.integers(0, 3),
    st.integers(1, 8),
)
def test_scan_agrees_with_referee_on_random_presentations(gens_rels, length, bound):
    ngens, relators = gens_rels
    p = Presentation("abc"[:ngens], tuple(free_reduce(r) for r in relators))
    checked_scan(p, length, bound)

@settings(max_examples=20, deadline=None)
@given(
    st.integers(3, 4).flatmap(
        lambda n: st.lists(st.integers(0, 6), min_size=n, max_size=n)
    ),
    st.integers(2, 4),
    st.integers(2, 6),
)
def test_scan_agrees_with_referee_on_torsion_presentations(orders, length, bound):
    # generator g gets the relator g^m for each nonzero m = orders[g]; words
    # of two to four syllables reach blocks that their prefixes skipped
    relators = tuple(((g, m),) for g, m in enumerate(orders) if m)
    checked_scan(Presentation("abcd"[:len(orders)], relators), length, bound)


@pytest.mark.parametrize("text", ["< a | >", "< a | a^6 >"])
def test_scan_agrees_with_referee_on_deep_one_generator_scans(text):
    # 801 words, each a power of a, against every target of order <= 128
    checked_scan(pres(text), 400, 128)


def test_scan_k235_length_one(k235):
    report = checked_scan(k235, 1, 5)
    statuses = {tuple(e.word): e for e in report.entries}
    for text in ("x", "y", "z", "x^-1", "y^-1", "z^-1"):
        word = parse_word_text(text, k235)
        assert statuses[tuple(word)].status == "witnessed", text


def test_scan_c2_presentation():
    p = pres("< a | a^2 >")
    report = checked_scan(p, 1, 60)
    by_word = {e.word: e for e in report.entries}
    assert by_word[()].status == "witnessed"
    assert by_word[((0, 1),)].status == "unwitnessed"
    assert by_word[((0, -1),)].status == "unwitnessed"


def test_scan_empty_word_witnessed_when_quotient_exists():
    report = checked_scan(pres("< a, b | [a,b] >"), 0, 4)
    assert len(report.entries) == 1
    assert report.entries[0].status == "witnessed"


def test_scan_flags_bound_too_small_for_fa_presentations():
    # Klein group, but scanned with a bound of 1: everything is FA yet
    # unwitnessable, so entries say "bound too small" rather than failure
    p = pres("< a, b | a^2, b^2, [a,b] >")
    report = checked_scan(p, 1, 1)
    assert report.classify_status == "FA"
    assert all(e.status == "bound too small" for e in report.entries if e.word)


def test_scan_word_count(k235):
    report = checked_scan(k235, 2, 5)
    assert len(report.entries) == 1 + 6 + 30


@pytest.mark.parametrize(
    "text, length",
    [("< a | a^2 >", 0), ("< a | a^2 >", 7), ("< a, b | >", 3), ("< x, y, z | x^2, y^3, z^5 >", 2)],
)
def test_scan_word_budget_is_the_word_count(monkeypatch, text, length):
    p = pres(text)
    words = sum(1 for _ in reduced_words(p.ngens, length))
    monkeypatch.setattr(witness, "SCAN_WORD_BUDGET", words)
    assert len(fa_scan(p, length, 2).entries) == words
    monkeypatch.setattr(witness, "SCAN_WORD_BUDGET", words - 1)
    message = f"budget of {words - 1} words: it visits {words} to length {length}$"
    with pytest.raises(SearchBudgetExceeded, match=message):
        fa_scan(p, length, 2)


def test_scan_word_budget_huge_length_is_immediate():
    start = time.perf_counter()
    for text in ("< a | >", "< a, b | >", "< a, b, c | a^2 >"):
        with pytest.raises(SearchBudgetExceeded, match="passes the budget"):
            fa_scan(pres(text), 10**12, 2)
    # with no generators the empty word is the only word at any length
    report = fa_scan(pres("< | >"), 10**12, 2)
    assert report.entries == referee_entries(pres("< | >"), 0, 2)
    assert len(report.entries) == 1 and report.witnessed == ()
    assert_json_matches(report)
    assert time.perf_counter() - start < 0.5


def test_scan_json_huge_length_with_no_generators_is_immediate(capsys, tmp_path):
    # the CLI streams one length at a time and stops at the first with no
    # words, so `< | >` at length 10^12 is one chunk for the empty word
    from groupcover.cli import main
    from tests.test_cli import run_within

    path = tmp_path / "trivial.pres"
    path.write_text("< | >\n")
    argv = ["scan", str(path), "--max-length", str(10**12), "--bound", "2", "--format", "json"]
    assert run_within(0.5, argv) == 0
    assert capsys.readouterr().out == report_json(fa_scan(pres("< | >"), 10**12, 2)) + "\n"


def test_scan_report_json(k235):
    payload = checked_scan(k235, 1, 5).as_dict()
    assert payload["classify_status"] == "Unknown"
    assert len(payload["words"]) == 7
    assert all({"word", "status", "target"} <= set(entry) for entry in payload["words"])


# ---------------------------------------------------------------------------
# three-primes witness pattern (length <= 6 checked in acceptance; spot-check
# here at length <= 4)

def test_three_primes_congruence_pattern(k235):
    report = checked_scan(k235, 4, 5)
    for entry in report.entries:
        ex, ey, ez = exponent_vector(entry.word, 3)
        if ex % 2 == 0:
            assert entry.status == "witnessed" and entry.target_name == "C2"
        elif ey % 3 == 0:
            assert entry.status == "witnessed" and entry.target_name == "C3"
        elif ez % 5 == 0:
            assert entry.status == "witnessed" and entry.target_name == "C5"


# ---------------------------------------------------------------------------
# the simple catalog against the full one: if G -> T kills a word, so does
# G -> T/M for a maximal normal subgroup M of T, which is simple, smaller and
# in both catalogs; so both give the same first witnesses and scan bytes


def first_witness(p, word, bound):
    found = find_annihilator(p, word, bound)
    return None if found is None else (found.target.name, found.target.order, found.images)


def streamed_json(p, max_word_length, bound):
    """The scan's JSON document as `scan --format json` streams it."""
    lengths = witness._scan_lengths(p, max_word_length, bound)
    header = ScanReport(p, max_word_length, bound, next(lengths), (), ())
    return "".join(header.json_chunks(lengths))


def catalog_answers(p, bound, words, max_word_length):
    """The first witness to each word and, to the length, the scan report
    and its streamed JSON bytes."""
    witnesses = [first_witness(p, word, bound) for word in words]
    return witnesses, fa_scan(p, max_word_length, bound), streamed_json(p, max_word_length, bound)


def full_catalog_answers(p, bound, words, max_word_length):
    """`catalog_answers` with the full catalog in place of the simple one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(witness, "_catalog", full_catalog)
        return catalog_answers(p, bound, words, max_word_length)


def assert_catalogs_agree(p, bound, words, max_word_length):
    full = full_catalog_answers(p, bound, words, max_word_length)
    assert catalog_answers(p, bound, words, max_word_length) == full, (p.render(), bound)


@pytest.mark.parametrize("primes", PRIME_TRIPLES, ids=str)
def test_simple_catalog_agrees_with_the_full_one_on_prime_triples(primes):
    p = pres("< x, y, z | " + ", ".join(f"{g}^{q}" for g, q in zip("xyz", primes)) + " >")
    assert_catalogs_agree(p, max(primes), list(reduced_words(3, 1)), 4)


@pytest.mark.parametrize("text", FP_WITNESS_SHAPES)
def test_simple_catalog_agrees_with_the_full_one_on_fp_witness_shapes(text):
    # < a, b | a^m, r > with b of exponent sum +-1 in r, as in the fp-witness
    # workload: no quotient kills a^(1 + k m), so that search is exhaustive
    p = pres(text)
    m = p.relators[0][0][1]
    words = [((0, 1 + k * m),) for k in (0, 1, 7, 10**5)]
    words += [((0, k * m),) for k in (1, 3)] + [((1, 1), (0, 2 * m), (1, -1))]
    words += [((0, x), (1, y), (0, z)) for x, y, z in ((1, 1, 2), (3, -2, m - 1), (m, 5, -3))]
    assert_catalogs_agree(p, 120, words, 3)


# the fp-witness triangle groups < x, y | x^l, y^m, (x y)^n >
FP_TRIANGLES = [(2, 3, 7), (2, 3, 8), (2, 4, 5), (3, 3, 4), (2, 5, 5), (2, 4, 6)]


@pytest.mark.parametrize("lmn", FP_TRIANGLES, ids=str)
def test_simple_catalog_agrees_with_the_full_one_on_triangle_groups(lmn):
    l, m, n = lmn
    p = pres(f"< x, y | x^{l}, y^{m}, (x y)^{n} >")
    words = [((0, 1), (1, 1)), ((0, l * 10**5), (1, m * 10**5)), ((0, 1), (1, 3 * 10**5 + 1))]
    assert_catalogs_agree(p, 120, words, 3)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(-6, 6)), max_size=5),
                max_size=3,
            ),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(-12, 12)), max_size=4),
        )
    ),
    st.integers(0, 3),
    st.integers(1, 128),
)
def test_simple_catalog_agrees_with_the_full_one_on_random_presentations(case, length, bound):
    ngens, relators, word = case
    p = Presentation("abc"[:ngens], tuple(free_reduce(r) for r in relators))
    words = [free_reduce(word)]
    # over the full catalog's composite targets of order near 128 a
    # three-generator case takes up to 5 s (in 4500 random draws), so those
    # stop at 24
    if ngens == 3:
        bound = min(bound, 24)
    try:
        full = full_catalog_answers(p, bound, words, length)
    except SearchBudgetExceeded:
        return  # the full catalog exits 3, where the simple one may answer
    assert catalog_answers(p, bound, words, length) == full


# ---------------------------------------------------------------------------
# cross-engine agreement: presentation-side vs finite-engine witnesses

CROSS_FIXTURES = [
    (
        "< a, b | a^2, b^2, [a,b] >",
        lambda: direct_product(cyclic_group(2), cyclic_group(2)),
        (1, 2),
    ),
    ("< a | a^6 >", lambda: cyclic_group(6), (1,)),
    ("< s, r | s^2, r^3, s r s^-1 = r^-1 >", lambda: symmetric_group(3), (1, 2)),
    ("< i, j | i^4, j^2 = i^2, j i j^-1 = i^-1 >", lambda: quaternion_group(), (1, 2)),
]


@pytest.mark.parametrize("text,maker,images", CROSS_FIXTURES)
def test_cross_engine_witness_agreement(text, maker, images):
    p = pres(text)
    group = maker()
    # the declared generator images realise the presentation
    for rel in p.relators:
        assert evaluate_word_direct(group, images, rel) == 0
    from groupcover import subgroup_closure

    assert len(subgroup_closure(group, set(images))) == group.order

    # map short words onto elements until every element is reached
    element_words = {}
    for word in reduced_words(p.ngens, 6):
        g = evaluate_word(group, images, word)
        element_words.setdefault(g, word)
        if len(element_words) == group.order:
            break
    assert len(element_words) == group.order

    for g, word in sorted(element_words.items()):
        finite_side = referee_fa_witness(group, g)
        pres_side = find_annihilator(p, word, group.order)
        assert (finite_side is None) == (pres_side is None), (text, g, word)


@pytest.mark.parametrize("text,maker,images", CROSS_FIXTURES)
def test_cross_engine_invariant_agreement(text, maker, images):
    p = pres(text)
    group = maker()
    assert abelian_invariants(p) == abelian_invariants_finite(abelianisation(group))


# ---------------------------------------------------------------------------
# catalog of targets

def test_witness_targets_sorted_and_bounded():
    # the simple groups of order <= 128: C_p for the 31 primes, and A5
    primes = [p for p in range(2, 129) if is_prime(p)]
    assert len(primes) == 31
    assert [t.name for t in witness_targets(30)] == [f"C{p}" for p in primes if p <= 30]
    targets = witness_targets(128)
    assert [(t.order, t.name) for t in targets] == sorted(
        [(p, f"C{p}") for p in primes] + [(60, "A5")]
    )
    assert [t.name for t in witness_targets(60)][-2:] == ["C59", "A5"]


def test_witness_targets_bound_guard():
    with pytest.raises(SearchBudgetExceeded):
        witness_targets(4096)


def eager_witness_targets(bound):
    """The simple catalog with every table built at once, sorted by (order,
    name): the referee of the records."""
    tables = [cyclic_group(p) for p in range(2, bound + 1) if is_prime(p)]
    if bound >= 60:
        tables.append(alternating_group(5))
    return sorted(tables, key=lambda g: (g.order, g.name))


def eager_full_catalog_targets(bound):
    """The full catalog with every table built at once, sorted by (order,
    name): the route before the records, kept as their referee."""
    tables = [cyclic_group(n) for n in range(2, bound + 1)]
    for p in (2, 3, 5, 7, 11):
        k = 2
        while p**k <= bound:
            tables.append(elementary_group(p, k))
            k += 1
    tables += [dihedral_group(n) for n in range(3, bound // 2 + 1)]
    for builder, order in (
        (lambda: symmetric_group(3), 6),
        (lambda: symmetric_group(4), 24),
        (lambda: alternating_group(4), 12),
        (lambda: alternating_group(5), 60),
        (quaternion_group, 8),
        (lambda: special_linear_group(3), 24),
    ):
        if order <= bound:
            tables.append(builder())
    return sorted(tables, key=lambda g: (g.order, g.name))


def test_records_match_their_tables():
    # the closed-form order, name and T^ab of every record against its table,
    # in the simple catalog and in the full one that referees it
    for records, size in ((witness_targets(128), 32), (full_catalog_targets(128), 208)):
        assert len(records) == size
        for target in records:
            group = target.group
            assert (group.order, group.name) == (target.order, target.name)
            assert abelian_invariants_finite(group) == target.abelian, target.name


@pytest.mark.parametrize("bound", [1, 2, 8, 30, 60, 120, 128])
def test_records_keep_the_eager_order(bound):
    for records, eager in (
        (witness_targets(bound), eager_witness_targets(bound)),
        (full_catalog_targets(bound), eager_full_catalog_targets(bound)),
    ):
        assert [(t.order, t.name) for t in records] == [(g.order, g.name) for g in eager]
        assert [t.group.table for t in records] == [g.table for g in eager]


def test_witness_targets_build_no_table(fresh_catalog):
    for bound in range(-1, 129):
        assert built(witness_targets(bound)) == []
    assert built(witness._catalog()) == []


def test_annihilator_builds_only_the_searched_tables(fresh_catalog):
    # (2,3,7) is perfect, so only a target with trivial T^ab passes the prune
    p = pres("< x, y | x^2, y^3, (x y)^7 >")
    assert find_annihilator(p, parse_word_text("x", p), 120) is None
    records = witness_targets(120)
    passing = [t.name for t in records if abelian_surjects_referee(inv(0), t.abelian)]
    assert passing == ["A5"]
    assert built(records) == passing


def test_every_returned_witness_verifies(k235):
    for text in ("x", "y", "z", "x y", "z^5", "[x, y]"):
        word = parse_word_text(text, k235)
        w = find_annihilator(k235, word, 6)
        if w is not None:
            assert verify_witness(w)
            assert evaluate_word(w.target, w.images, word) == 0


# ---------------------------------------------------------------------------
# direct word evaluation


def test_direct_evaluation_of_huge_exponent_is_fast(s3):
    g = special_linear_group(5)
    t0 = time.perf_counter()
    for e in (10**12, -(10**12), 10**12 + 1):
        assert evaluate_word_direct(g, (7,), ((0, e),)) == evaluate_word(g, (7,), ((0, e),))
    assert time.perf_counter() - t0 < 1.0
    assert evaluate_word_direct(s3, (1,), ((0, 10**12),)) == 0  # order 2 divides it


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["S3", "Q8", "A4", "S4", "SL(2,3)", "A5", "D50", "D51", "D60", "D64"]),
    st.lists(st.integers(0, 127), min_size=2, max_size=2),
    st.lists(
        st.tuples(
            st.integers(0, 1),
            st.one_of(
                st.integers(-(10**9), 10**9),
                st.integers(-20, 20).map(lambda k: 10**6 + k),
                st.integers(-20, 20).map(lambda k: -(10**6) - k),
            ),
        ),
        max_size=6,
    ),
)
def test_direct_evaluation_agrees_with_modular(name, images, word):
    g = by_name(128, name)
    images = tuple(x % g.order for x in images)
    assert evaluate_word_direct(g, images, tuple(word)) == evaluate_word(g, images, tuple(word))
