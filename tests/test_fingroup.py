import math
import re
from collections import deque
from itertools import combinations
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from groupcover import (
    build_catalog,
    abelian_invariants_finite,
    abelianisation,
    alternating_group,
    build_from_cayley_table,
    build_from_matrix_generators,
    build_from_permutations,
    conjugacy_classes,
    cyclic_group,
    derived_subgroup,
    direct_product,
    group_from_spec,
    maximal_normal_subgroups,
    normal_subgroups,
    quotient,
    subgroup_closure,
    symmetric_group,
    validate_group,
    weight_bruteforce,
    weight_witness,
    witness_targets,
)
from groupcover.errors import (
    ClosureExceedsCap,
    InvalidPermutation,
    NotAGroup,
    NotNormal,
    NotPrime,
    OrderCapExceeded,
    SearchBudgetExceeded,
    SingularGenerator,
    TrivialGroup,
)
from groupcover import catalog as catalog_module, fingroup, group as group_module
from groupcover.config import DEFAULT_CAPS
from groupcover.catalog import load_group
from groupcover.fingroup import FiniteGroup, _check_associativity
from groupcover.snf import mat_det
from tests.test_catalog import dihedral_permutations
from tests.test_covering import (
    LARGE_SOLVABLE_SPECS,
    LATTICE_POOL_SPECS,
    LATTICE_PRODUCT_SPECS,
    NONSOLVABLE_LARGE_SPECS,
    members,
)


def normal_closure(group, seeds):
    """Members of the smallest normal subgroup containing the seed elements,
    as the brute-force weight referees below take it."""
    return frozenset(fingroup._normal_closure_members(group, seeds))


XOR_TABLE = [[i ^ j for j in range(4)] for i in range(4)]


# ---------------------------------------------------------------------------
# constructions

def test_permutation_closure_c2():
    g = build_from_permutations(2, [(1, 0)])
    assert g.order == 2
    assert g.table[1][1] == 0


def test_permutation_closure_s5(s5):
    # closure count must equal 5! (independent count)
    assert s5.order == math.factorial(5)


def test_permutation_closure_empty_gens():
    g = build_from_permutations(3, [])
    assert g.order == 1


def test_permutation_invalid():
    with pytest.raises(InvalidPermutation):
        build_from_permutations(3, [(0, 0, 1)])
    with pytest.raises(InvalidPermutation):
        build_from_permutations(3, [(0, 1)])


def test_permutation_cap():
    with pytest.raises(ClosureExceedsCap):
        build_from_permutations(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], cap=100)


def compose_genexpr(p, q):
    """The permutation p read at the points of q, by a tuple genexpr."""
    return tuple(p[i] for i in q)


def pairwise_closure_table(identity, gens, op, cap):
    """Referee for the Schreier-vector table: BFS closure, then every pair
    of elements composed and looked up (n^2 calls of `op`)."""
    elems = [identity]
    index = {identity: 0}
    queue = deque([identity])
    while queue:
        x = queue.popleft()
        for g in gens:
            y = op(x, g)
            if y not in index:
                if len(elems) >= cap:
                    raise ClosureExceedsCap(f"closure exceeds cap {cap}")
                index[y] = len(elems)
                elems.append(y)
                queue.append(y)
    return [tuple(index[op(a, b)] for b in elems) for a in elems]


def tuple_matmul(a, b, p):
    """The product of d x d tuple matrices mod p, a genexpr sum per entry:
    the matrix closure's product before the row maps."""
    d = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(d)) % p for j in range(d))
        for i in range(d)
    )


def row_ids_matrix(x, p):
    """The tuple matrix whose rows have the ids in x, row v having id
    sum v_k p^(d-1-k)."""
    d = len(x)
    return tuple(tuple(v // p ** (d - 1 - k) % p for k in range(d)) for v in x)


def tuple_matrix_frame(p, d, generators, cap):
    """`build_from_matrix_generators`' frame with each matrix a tuple of
    tuple rows composed by `tuple_matmul`, the route before the row maps,
    charged as it is: d^3 per determinant and per product."""
    gens, spent = [], 0
    for mat in generators:
        mat = tuple(tuple(int(x) % p for x in row) for row in mat)
        spent = fingroup._charge(spent, d**3, "determinant")
        gens.append(mat)
    identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    return fingroup._closure_table(
        identity, gens, lambda a, b: tuple_matmul(a, b, p), cap, d**3, spent
    )


@pytest.fixture()
def refereed(monkeypatch):
    """Every group built from generators, and every cap hit, is compared
    with the pairwise referee, its lazily built table tuple for tuple;
    returns the list of orders checked."""
    checked = []
    fast = fingroup._closure_table

    def both(identity, gens, op, cap, cost, spent=0):
        referee_identity, referee_gens, compose = identity, gens, op
        if op is fingroup._apply:
            # a permutation comes as the itemgetter of its images, which
            # returns them when applied to the identity
            referee_gens = [g(identity) for g in gens]
            compose = compose_genexpr
        elif op is fingroup._times_rows:
            # a matrix comes as the lookup of its row map, which keeps it
            # and p; every matrix group refereed here has a generator
            p = gens[0].__self__.p
            referee_identity = row_ids_matrix(identity, p)
            referee_gens = [g.__self__.mat for g in gens]
            compose = lambda a, b: tuple_matmul(a, b, p)  # noqa: E731
        try:
            columns, tree = fast(identity, gens, op, cap, cost, spent)
        except ClosureExceedsCap:
            with pytest.raises(ClosureExceedsCap):
                pairwise_closure_table(referee_identity, referee_gens, compose, cap)
            raise
        table = FiniteGroup("refereed", columns=columns, tree=tree).table
        assert all(type(row) is tuple for row in table)
        assert table == tuple(pairwise_closure_table(referee_identity, referee_gens, compose, cap))
        checked.append(len(table))
        return columns, tree

    monkeypatch.setattr(fingroup, "_closure_table", both)
    monkeypatch.setattr(catalog_module, "_closure_table", both)  # the dihedral ints
    return checked


# the permutation and matrix family members up to order 1024 that the
# default catalog (orders up to 120) leaves out; D n runs on to D 512, of
# which D 95 and D 256 stand in, since the referee makes n^2 products
LARGE_CLOSURE_SPECS = ("S 2", "A 3", "SL 2", "S 6", "A 6", "SL 7", "D 95", "D 256")


def test_closure_table_matches_pairwise_referee(refereed, tmp_path):
    build_catalog()
    assert len(refereed) > 20  # D n, S n, A n, Q8, SL 3 and SL 5
    for spec in LARGE_CLOSURE_SPECS:
        group_from_spec(spec, cap=1024)
    path = tmp_path / "d5x.perm"
    path.write_text("(0 1 2 3 4)\n(1 4)(2 3)\n(5 6 7)\n")
    assert load_group(path, "permutations").order == 30
    assert sorted(refereed[-9:]) == [2, 3, 6, 30, 190, 336, 360, 512, 720]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 7).flatmap(
    lambda n: st.lists(st.permutations(range(n)), max_size=3).map(lambda gens: (n, gens))
))
def test_closure_table_matches_referee_on_random_permutations(refereed, degree_and_gens):
    degree, gens = degree_and_gens
    try:
        build_from_permutations(degree, gens, cap=120)
    except ClosureExceedsCap:
        pass  # past order 120 the referee refused the closure too


def genexpr_permutation_table(degree, gens, cap=None):
    """`build_from_permutations`' table with each product composed by a
    tuple genexpr, the route before one itemgetter per generator."""
    gens = [tuple(g) for g in gens]
    cap = DEFAULT_CAPS.order if cap is None else cap
    columns, tree = fingroup._closure_table(tuple(range(degree)), gens, compose_genexpr, cap, degree)
    return FiniteGroup("genexpr", columns=columns, tree=tree).table


def test_permutation_compose_matches_genexpr_on_the_catalog(monkeypatch):
    calls = []

    def recording(degree, generators, cap=None, name=None):
        calls.append((degree, generators, cap))
        return build_from_permutations(degree, generators, cap, name)

    monkeypatch.setattr(catalog_module, "build_from_permutations", recording)
    build_catalog()
    for target in witness_targets(128):
        target.build()
    for spec in LARGE_CLOSURE_SPECS:
        group_from_spec(spec, cap=1024)
    # D n is built over ints; its permutations are composed here instead
    calls += [(n, dihedral_permutations(n), 1024) for n in range(3, 65)]
    assert len(calls) > 70  # D3-D64, S2-S6, A3-A6
    for degree, gens, cap in calls:
        table = build_from_permutations(degree, gens, cap).table
        assert table == genexpr_permutation_table(degree, gens, cap), (degree, gens)


@pytest.mark.parametrize("gens", [[], [(0,)], [(0,), (0,)]])
def test_permutation_compose_on_one_point(gens):
    # an itemgetter of one index returns a scalar, so degree 1 composes apart
    assert build_from_permutations(1, gens).table == ((0,),)
    assert genexpr_permutation_table(1, gens) == ((0,),)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.lists(st.permutations(range(n)), max_size=3).map(lambda gens: (n, gens))
))
def test_permutation_compose_matches_genexpr_on_random_permutations(degree_and_gens):
    degree, gens = degree_and_gens
    try:
        table = build_from_permutations(degree, gens, cap=120).table
    except ClosureExceedsCap as exc:
        with pytest.raises(ClosureExceedsCap, match=re.escape(str(exc))):
            genexpr_permutation_table(degree, gens, cap=120)
    else:
        assert table == genexpr_permutation_table(degree, gens, cap=120)


def test_construction_budget_counts_operations(monkeypatch):
    # S4 on 4 points: 24 BFS steps of 2 products, 4 operations each
    monkeypatch.setattr(fingroup, "CONSTRUCTION_BUDGET", 24 * 2 * 4)
    assert build_from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)]).order == 24
    monkeypatch.setattr(fingroup, "CONSTRUCTION_BUDGET", 24 * 2 * 4 - 1)
    with pytest.raises(ClosureExceedsCap, match="spent 184 operations, and the next BFS step "
                       "would spend 8 more, past the construction budget of 191"):
        build_from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)])


def test_construction_budget_refuses_a_determinant_before_it_runs(monkeypatch):
    identity = [[int(i == j) for j in range(256)] for i in range(256)]

    def refuse(matrix):
        raise AssertionError("the determinant ran")

    monkeypatch.setattr(fingroup, "mat_det", refuse)
    with pytest.raises(ClosureExceedsCap, match="spent 0 operations, and the next determinant "
                       "would spend 16777216 more"):
        build_from_matrix_generators(2, 256, [identity])


@pytest.mark.parametrize(
    "kind,gens,order",
    [
        ("perm", [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], 120),
        ("mat", [((1, 1), (0, 1)), ((0, -1), (1, 0))], 120),
    ],
)
def test_closure_cap_same_as_referee(refereed, kind, gens, order):
    def build(cap):
        if kind == "perm":
            return build_from_permutations(5, gens, cap=cap)
        return build_from_matrix_generators(5, 2, gens, cap=cap)

    for cap in (1, order // 2, order - 1):
        with pytest.raises(ClosureExceedsCap):
            build(cap)
    assert build(order).order == order


def nonsingular_matrices(p, d):
    """d x d matrices with entries in -p..2p-1, nonsingular mod p."""
    entries = st.integers(-p, 2 * p - 1)
    square = st.tuples(*[st.tuples(*[entries] * d)] * d)
    return square.filter(lambda m: mat_det([list(row) for row in m]) % p)


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3)).flatmap(
    lambda pd: st.tuples(
        st.just(pd), st.lists(nonsingular_matrices(*pd), min_size=1, max_size=3),
        st.integers(1, 400), st.one_of(st.none(), st.integers(0, 20000)),
    )
))
def test_matrix_closure_matches_tuple_referee(case):
    # the row-id closure gives the tuple route's frames and tables, and stops
    # at the same cap or budget step with the same message
    (p, d), gens, cap, budget = case
    budget = fingroup.CONSTRUCTION_BUDGET if budget is None else budget
    with mock.patch.object(fingroup, "CONSTRUCTION_BUDGET", budget):
        try:
            group = build_from_matrix_generators(p, d, gens, cap=cap)
        except ClosureExceedsCap as exc:
            with pytest.raises(ClosureExceedsCap, match=re.escape(str(exc))):
                tuple_matrix_frame(p, d, gens, cap)
            return
        columns, tree = tuple_matrix_frame(p, d, gens, cap)
    assert (group._right, group._tree) == (columns, tree)
    assert group.table == FiniteGroup("referee", columns=columns, tree=tree).table


def test_cayley_trivial():
    g = build_from_cayley_table([[0]])
    assert g.order == 1


def test_cayley_klein():
    g = build_from_cayley_table(XOR_TABLE, name="V4")
    assert g.order == 4
    assert all(g.table[x][x] == 0 for x in range(4))


def test_cayley_not_latin():
    with pytest.raises(NotAGroup):
        build_from_cayley_table([[0, 1], [1, 1]])


def test_cayley_no_identity():
    with pytest.raises(NotAGroup):
        build_from_cayley_table([[1, 0], [0, 1]])


def nonassociative_loop():
    """Smallest Latin square with identity that fails associativity, found
    by deterministic DFS (order 5; the only order-5 group is C5)."""
    n = 5
    rows = [list(range(n))]

    def extend():
        if len(rows) == n:
            table = [row[:] for row in rows]
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if table[table[a][b]][c] != table[a][table[b][c]]:
                            return table
            return None
        i = len(rows)
        used_cols = [set(r[j] for r in rows) for j in range(n)]

        def fill(row, j):
            if j == n:
                rows.append(row[:])
                found = extend()
                if found is not None:
                    return found
                rows.pop()
                return None
            if j == 0:
                row[0] = i
                return fill(row, 1) if i not in used_cols[0] else None
            for v in range(n):
                if v not in row[:j] and v not in used_cols[j]:
                    row[j] = v
                    found = fill(row, j + 1)
                    if found is not None:
                        return found
            return None

        return fill([None] * n, 0)

    table = extend()
    assert table is not None
    return table


def test_cayley_rejects_nonassociative():
    loop = nonassociative_loop()
    with pytest.raises(NotAGroup, match="associativity"):
        build_from_cayley_table(loop)


def naive_is_group_table(table):
    """Referee for `build_from_cayley_table`: Latin square with 0 as a
    two-sided identity, associativity checked on every triple."""
    n = len(table)
    ids = set(range(n))
    if any(len(row) != n or set(row) != ids for row in table):
        return False
    if any({row[j] for row in table} != ids for j in range(n)):
        return False
    if any(table[0][x] != x or table[x][0] != x for x in range(n)):
        return False
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def relabel(table, perm):
    """The table with element x renamed perm[x]."""
    inv = [0] * len(perm)
    for x, y in enumerate(perm):
        inv[y] = x
    return [[perm[table[inv[a]][inv[b]]] for b in range(len(perm))] for a in range(len(perm))]


def table_product(left, right):
    m = len(right)
    return [
        [left[a1][a2] * m + right[b1][b2] for a2 in range(len(left)) for b2 in range(m)]
        for a1 in range(len(left))
        for b1 in range(m)
    ]


def test_generator_associativity_test_agrees_with_naive():
    loop = nonassociative_loop()
    assert not naive_is_group_table(loop)
    with pytest.raises(NotAGroup, match="associativity fails on triple"):
        _check_associativity(loop, range(len(loop)))
    cyclic6 = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    for table in (XOR_TABLE, cyclic6, table_product(XOR_TABLE, cyclic6)):
        assert naive_is_group_table(table)
        _check_associativity(table, range(len(table)))
    loop_c2 = table_product(loop, [[0, 1], [1, 0]])
    assert not naive_is_group_table(loop_c2)
    with pytest.raises(NotAGroup, match="associativity"):
        _check_associativity(loop_c2, range(len(loop_c2)))


SMALL_TABLES = [g.table for g in build_catalog() if g.order <= 24]
LOOP_TABLES = [
    nonassociative_loop(),
    table_product(nonassociative_loop(), [[0, 1], [1, 0]]),
    table_product([[0, 1, 2], [1, 2, 0], [2, 0, 1]], nonassociative_loop()),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cayley_check_accepts_exactly_what_referee_accepts(data):
    table = data.draw(st.one_of(st.sampled_from(SMALL_TABLES), st.sampled_from(LOOP_TABLES)))
    n = len(table)
    keep_identity = data.draw(st.booleans())
    rest = data.draw(st.permutations(range(1 if keep_identity else 0, n)))
    perm = ([0] if keep_identity else []) + list(rest)
    relabelled = relabel(table, perm)
    try:
        build_from_cayley_table(relabelled)
        accepted = True
    except NotAGroup:
        accepted = False
    assert accepted == naive_is_group_table(relabelled)


def test_matrix_sl25(sl25):
    # |SL(2, p)| = p(p^2 - 1)
    assert sl25.order == 5 * 24


def test_matrix_sl23():
    g = build_from_matrix_generators(
        3, 2, [((1, 1), (0, 1)), ((0, -1), (1, 0))]
    )
    assert g.order == 24


def test_matrix_trivial():
    g = build_from_matrix_generators(2, 1, [((1,),)])
    assert g.order == 1


def test_matrix_errors():
    with pytest.raises(SingularGenerator):
        build_from_matrix_generators(5, 2, [((1, 1), (2, 2))])
    # both have determinant 3: invertible over Q, singular mod 3
    for mat in (((1, 0), (0, 3)), ((2, 1), (1, 2))):
        with pytest.raises(SingularGenerator):
            build_from_matrix_generators(3, 2, [mat])
    with pytest.raises(NotPrime):
        build_from_matrix_generators(4, 2, [((1, 0), (0, 1))])


def test_direct_product_klein(klein):
    assert klein.order == 4
    assert abelian_invariants_finite(klein).factors == (2, 2)


def test_direct_product_coprime_is_cyclic():
    g = direct_product(cyclic_group(3), cyclic_group(5))
    assert g.order == 15
    assert abelian_invariants_finite(g).factors == (15,)
    assert max(g.element_orders()) == 15


def test_direct_product_with_trivial():
    g = cyclic_group(6)
    prod = direct_product(g, cyclic_group(1))
    assert prod.order == 6
    assert prod.table == g.table


def test_direct_product_cap():
    with pytest.raises(ClosureExceedsCap):
        direct_product(cyclic_group(8), cyclic_group(8), cap=32)


def test_products_pass_validator(klein, s3):
    validate_group(direct_product(klein, s3))
    validate_group(quotient(s3, derived_subgroup(s3)))


@pytest.mark.parametrize(
    "left, right",
    [("S 3", "Q8"), ("Q8", "S 3"), ("C 4", "S 3"), ("S 3", "C 5"), ("A 4", "D 4"),
     ("D 5", "C 1"), ("C 1", "SL 3"), ("E 2 2", "A 4")],
)
def test_direct_product_matches_table_product(left, right):
    # the block-copy rows equal the entry-by-entry referee, noncommutative
    # and mixed-order factors on either side
    g, h = group_from_spec(left), group_from_spec(right)
    product = direct_product(g, h)
    assert product.name == f"{g.name}x{h.name}"
    assert product.table == tuple(map(tuple, table_product(g.table, h.table)))
    validate_group(product)


def test_direct_product_inverses_match_the_table(catalog):
    # a product reads (a, b)^-1 off its tree; the table's own scan for the
    # identity in each row is the referee
    for g in catalog:
        for h in catalog:
            if g.order * h.order <= 256:
                product = direct_product(g, h)
                assert product.inverse == group_module._inverse_table(product.table), product.name


def test_finite_group_keeps_the_rows_it_is_given():
    rows = ((0, 1), (1, 0))
    g = FiniteGroup("C2", rows)
    assert g.table is rows
    assert g.row(1) is rows[1]
    assert g.inverse == (0, 1)


# ---------------------------------------------------------------------------
# closures and classes

def test_subgroup_closure_empty_seeds(s3):
    assert subgroup_closure(s3, set()) == frozenset({0})


def test_subgroup_closure_three_cycle(s3):
    cycle = next(x for x in range(6) if s3.element_orders()[x] == 3)
    sub = subgroup_closure(s3, {cycle})
    # orbit of powers
    assert sub == {0, cycle, s3.table[cycle][cycle]}
    assert all(s3.table[a][b] in sub for a in sub for b in sub)


def test_subgroup_closure_everything(s3):
    assert len(subgroup_closure(s3, set(range(6)))) == 6


def test_normal_closure_transposition_generates_s3(s3):
    transposition = next(x for x in range(6) if s3.element_orders()[x] == 2)
    assert len(normal_closure(s3, {transposition})) == 6


def test_normal_closure_abelian_equals_span(klein):
    c12 = cyclic_group(12)
    for group in (klein, c12, direct_product(cyclic_group(2), cyclic_group(4))):
        for seeds in ({1}, {1, 2}, set(range(group.order))):
            assert normal_closure(group, seeds) == subgroup_closure(group, seeds)


def test_normal_closure_simple_group(a5):
    for g in (1, 7, 30):
        assert len(normal_closure(a5, {g})) == 60


def test_normal_closure_contains_subgroup_closure(s3, q8, d4):
    for group in (s3, q8, d4):
        for seed in range(group.order):
            sub = subgroup_closure(group, {seed})
            norm = normal_closure(group, {seed})
            assert sub <= norm


def test_conjugacy_classes_abelian_singletons():
    g = cyclic_group(8)
    assert all(len(c) == 1 for c in conjugacy_classes(g))


def test_conjugacy_classes_s3(s3):
    sizes = sorted(len(c) for c in conjugacy_classes(s3))
    assert sizes == [1, 2, 3]


def test_conjugacy_classes_q8(q8):
    sizes = sorted(len(c) for c in conjugacy_classes(q8))
    assert sizes == [1, 1, 2, 2, 2]


def test_classes_partition(catalog):
    for group in catalog[:40]:
        seen = [x for c in conjugacy_classes(group) for x in c]
        assert sorted(seen) == list(range(group.order))


def referee_conjugacy_classes(group):
    """Each class as the orbit of x under conjugation by every element."""
    seen = set()
    classes = []
    for x in range(group.order):
        if x not in seen:
            orbit = {group.conjugate(g, x) for g in range(group.order)}
            seen |= orbit
            classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def test_conjugacy_classes_match_all_elements_referee(catalog):
    assert max(g.order for g in catalog) <= 128
    for group in catalog:
        assert conjugacy_classes(group) == referee_conjugacy_classes(group), group.name


# ---------------------------------------------------------------------------
# normal subgroup lattice

def brute_normal_subgroups(group):
    out = set()
    for size in range(1, group.order + 1):
        if group.order % size:
            continue
        for sub in combinations(range(1, group.order), size - 1):
            ids = frozenset((0,) + sub)
            if fingroup._is_normal(group, ids):
                out.add(ids)
    return out


def test_normal_subgroups_prime_cyclic():
    g = cyclic_group(7)
    assert [m.bit_count() for m in normal_subgroups(g)] == [1, 7]


def test_normal_subgroups_klein(klein):
    subs = normal_subgroups(klein)
    assert [m.bit_count() for m in subs] == [1, 2, 2, 2, 4]


def test_normal_subgroups_s5(s5):
    subs = normal_subgroups(s5, cap=128)
    assert [m.bit_count() for m in subs] == [1, 60, 120]


@pytest.mark.parametrize(
    "maker",
    [
        lambda: cyclic_group(12),
        lambda: direct_product(cyclic_group(2), cyclic_group(2)),
        lambda: direct_product(cyclic_group(2), cyclic_group(4)),
        lambda: build_from_permutations(3, [(1, 0, 2), (1, 2, 0)], name="S3"),
        lambda: alternating_group(4),
    ],
)
def test_normal_subgroups_match_exhaustive_scan(maker):
    group = maker()
    fast = {members(m) for m in normal_subgroups(group)}
    assert fast == brute_normal_subgroups(group)


def test_normal_subgroups_match_exhaustive_scan_q8_d4_e8(q8, d4, e8):
    for group in (q8, d4, e8):
        fast = {members(m) for m in normal_subgroups(group)}
        assert fast == brute_normal_subgroups(group)


def test_normal_subgroups_are_class_unions(catalog):
    for group in catalog[:40]:
        classes = conjugacy_classes(group)
        for m in normal_subgroups(group):
            for cls in classes:
                inside = set(cls) & members(m)
                assert not inside or set(cls) <= members(m)


def test_normal_subgroups_cap():
    with pytest.raises(OrderCapExceeded):
        normal_subgroups(cyclic_group(20), cap=10)


def test_maximal_normal_subgroups_c6(c6):
    subs = maximal_normal_subgroups(c6)
    assert sorted(m.bit_count() for m in subs) == [2, 3]


def test_maximal_normal_subgroups_klein(klein):
    subs = maximal_normal_subgroups(klein)
    assert [m.bit_count() for m in subs] == [2, 2, 2]


def test_maximal_normal_subgroups_simple(a5):
    subs = maximal_normal_subgroups(a5, cap=128)
    assert subs == (1,)  # {e}


def test_maximal_normal_trivial_group_raises():
    with pytest.raises(TrivialGroup):
        maximal_normal_subgroups(cyclic_group(1))


def test_maximal_equals_maximal_filter_and_simple_quotient(catalog):
    # cross-check the two characterisations: inclusion-maximal among proper
    # normals, and simple quotient
    products = ("prod(E 3 2, E 3 2)", "prod(D 4, Q8)", "prod(A 4, E 2 3)")
    groups = [g for g in catalog if g.order <= 64] + [group_from_spec(s) for s in products]
    for group in groups:
        if group.order == 1:
            continue
        normals = normal_subgroups(group)
        proper = [members(m) for m in normals if m.bit_count() < group.order]
        byhand = [s for s in proper if not any(s < t for t in proper)]
        fast = maximal_normal_subgroups(group)
        assert {members(m) for m in fast} == set(byhand)
        for s in fast:
            q = quotient(group, s)
            assert len(normal_subgroups(q)) == 2  # simple


def whole_class_closure(group, cls):
    """Referee for the lattice's base closures: the subgroup generated by a
    whole conjugacy class, |closure| x |class| products."""
    return frozenset(fingroup._closure_members(group.table, cls))


def test_class_closures_match_whole_class_referee(catalog):
    # the lattice's base closures run on class rows, row a holding the class
    # of rep(a)*x for each element x: {e} closed under a -> the classes that
    # rep(a)C meets gives the classes of the subgroup C generates
    groups = [g for g in catalog if g.order <= 128]
    groups += [group_from_spec(spec) for spec in NONSOLVABLE_LARGE_SPECS]
    for group in groups:
        classes = conjugacy_classes(group)
        class_of = {x: a for a, cls in enumerate(classes) for x in cls}
        rows = [[class_of[y] for y in group.table[cls[0]]] for cls in classes]
        for cls in classes:
            fast = {x for a in fingroup._closure_members(rows, cls) for x in classes[a]}
            assert fast == whole_class_closure(group, cls), (group.name, cls[0])


def referee_normal_subgroup_sets(group):
    """The lattice enumeration without coset caching: each join N.B is built
    one coset yN at a time, |N| products each, for every y of B outside the
    join so far, and the base closures are the whole-class closures."""
    table = group.table
    full = (1 << group.order) - 1
    base = {}
    for cls in conjugacy_classes(group):
        members = whole_class_closure(group, cls)
        base.setdefault(fingroup._mask(members), members)
    found, maximal = set(), set()
    stack = list(base)
    while stack:
        m = stack.pop()
        if m in found:
            continue
        found.add(m)
        s = fingroup._members(m)
        is_maximal = m != full
        for bm, b in base.items():
            if bm & ~m:
                jm = m
                for y in b:
                    if not jm >> y & 1:
                        jm |= fingroup._mask(table[y][x] for x in s)
                if jm != full:
                    is_maximal = False
                if jm not in found:
                    stack.append(jm)
        if is_maximal:
            maximal.add(m)
    by_size_and_mask = sorted(found, key=lambda m: (m.bit_count(), m))
    by_cover_order = sorted(maximal, key=lambda m: (-m.bit_count(), m))
    return tuple(by_size_and_mask), tuple(by_cover_order)


def assert_lattice_matches_referee(group):
    fresh = FiniteGroup(group.name, group.table)  # no lattice from another test's cache
    expected = referee_normal_subgroup_sets(group)
    assert fingroup._normal_subgroup_sets(fresh, fresh.order) == expected, group.name


# the nonsolvable groups of the finite-large benchmark, with its D 95, and
# the products that mix abelian and nonabelian factors, where one class
# mask stands for up to 20 elements and a class coset meets several classes
REFEREE_SPECS = (
    "S 6", "A 6", "SL 7", "prod(S 5, S 3)", "prod(SL 5, E 2 2)", "D 95", "E 2 6",
    "prod(S 5, E 2 2)", "prod(A 5, E 2 3)", "prod(S 5, C 4)", "prod(A 5, C 6)",
    "prod(SL 5, C 4)",
)


def test_lattice_matches_referee(catalog):
    groups = [g for g in catalog if g.order <= 128]
    groups += [group_from_spec(spec, cap=1024) for spec in REFEREE_SPECS + LATTICE_POOL_SPECS]
    for group in groups:
        assert_lattice_matches_referee(group)


def structure_read_off(group):
    """What the plain F-A route reads off a group."""
    n = group.order
    return [
        [group.row(x) for x in range(n)],
        [group.col(s) for s in range(n)],
        group.inverse,
        fingroup._generators(group),
        conjugacy_classes(group),
        derived_subgroup(group),
        maximal_normal_subgroups(group, n) if n > 1 else None,
    ]


def table_built(group):
    """Whether the group's n^2 table is built: a frame leaves its `table`
    slot unset until the table is first read."""
    try:
        object.__getattribute__(group, "table")
    except AttributeError:
        return False
    return True


def assert_frame_matches_table(group):
    """A group built as a frame against the same group given by its table,
    the referee: rows, columns and inverses built along the tree, the
    structure read off them, and G^ab build no table."""
    assert not table_built(group), group.name
    frame_side = [*structure_read_off(group), abelian_invariants_finite(group)]
    assert not table_built(group), group.name
    referee = FiniteGroup(group.name, group.table)
    assert frame_side == [*structure_read_off(referee), abelian_invariants_finite(referee)], group.name


def test_frame_table_holds_the_rows_read_before_it():
    group = group_from_spec("prod(S 4, C 3)")
    early = {x: group.row(x) for x in (71, 5, 40)}
    assert not table_built(group)
    table = group.table
    assert all(table[x] is row for x, row in early.items())
    assert all(group.row(x) is table[x] for x in range(group.order))
    # the frame outlives its table: columns and inverses still come off the tree
    assert group._right is not None
    referee = FiniteGroup(group.name, table)
    assert group.inverse == referee.inverse
    assert [group.col(s) for s in range(group.order)] == [referee.col(s) for s in range(group.order)]


def test_frames_match_tables_on_the_catalog():
    for group in build_catalog():
        if group.order <= 128:
            assert_frame_matches_table(group)


@pytest.mark.parametrize("spec", sorted(set(NONSOLVABLE_LARGE_SPECS + REFEREE_SPECS)))
def test_frames_match_tables_on_large_specs(spec):
    assert_frame_matches_table(group_from_spec(spec, cap=1024))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(
    lambda n: st.lists(st.permutations(range(n)), max_size=3).map(lambda gens: (n, gens))
))
def test_frames_match_tables_on_random_permutations(degree_and_gens):
    try:
        group = build_from_permutations(*degree_and_gens, cap=120)
    except ClosureExceedsCap:
        return
    assert_frame_matches_table(group)


def test_frames_match_tables_over_a_cayley_factor(tmp_path):
    # D5 relabelled so that its BFS tree over its greedy generators reaches
    # elements out of id order; its frame lifts into the product's
    d5 = group_from_spec("D 5")
    perm = [0, 7, 3, 9, 1, 5, 8, 2, 6, 4]
    path = tmp_path / "d5.cayley"
    rows = relabel(d5.table, perm)
    path.write_text("10\n" + "\n".join(" ".join(map(str, row)) for row in rows) + "\n")
    cayley = load_group(path, "cayley")
    for left, right in ((cayley, group_from_spec("S 3")), (group_from_spec("C 2"), cayley)):
        product = direct_product(left, right)
        parent, _, walk = product._tree
        assert any(parent[x] > x for x in walk)
        assert_frame_matches_table(product)
        assert product.table == tuple(map(tuple, table_product(left.table, right.table)))



@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.permutations(range(n)), max_size=3).map(lambda gens: (n, gens))
))
def test_lattice_matches_referee_on_random_permutations(degree_and_gens):
    assert_lattice_matches_referee(build_from_permutations(*degree_and_gens))


def test_lattice_budget_counts_coset_products(monkeypatch):
    # E2^3 is abelian, so its 8 classes are {x} and a class mask is an
    # element mask.  Each of the 16 normal subgroups popped walks the 8
    # class closures {e, x}: 16*8 = 128 visits.  {e} lies in every closure,
    # so its joins are free.  A normal subgroup N of size s = 2 or 4 joins
    # the 8 - s closures outside it, testing their 2 classes each, and
    # builds the classes of its 8/s - 1 cosets outside N once, s products
    # each: 7*(6*2 + 3*2) + 7*(4*2 + 4) = 210.  G joins nothing.
    # 128 + 210 = 338, and the budget is checked after each subgroup, so
    # the last one pops.
    monkeypatch.setattr(fingroup, "LATTICE_BUDGET", 338)
    assert len(normal_subgroups(group_from_spec("E 2 3"))) == 16
    monkeypatch.setattr(fingroup, "LATTICE_BUDGET", 337)
    with pytest.raises(
        SearchBudgetExceeded,
        match="found 16 subgroups and spent 338 closure visits, coset products and class tests",
    ):
        normal_subgroups(group_from_spec("E 2 3"))


def test_abelian_lattice_work_is_bounded(monkeypatch):
    # in an abelian group each class is one element, so the class masks
    # cost no extra steps: E2^6 spends 643 850 exactly and E2^7 at most
    # 13 792 202 (the budget is checked after each subgroup, so a budget
    # that lets the lattice finish bounds its total)
    monkeypatch.setattr(fingroup, "LATTICE_BUDGET", 643_850)
    assert len(normal_subgroups(group_from_spec("E 2 6"))) == 2825
    monkeypatch.setattr(fingroup, "LATTICE_BUDGET", 643_849)
    with pytest.raises(SearchBudgetExceeded, match="found 2825 subgroups and spent 643850 "):
        normal_subgroups(group_from_spec("E 2 6"))
    monkeypatch.setattr(fingroup, "LATTICE_BUDGET", 13_792_202)
    assert len(normal_subgroups(group_from_spec("E 2 7"))) == 29212


def test_lattice_budget_stops_early(monkeypatch):
    # E2^6 spends 463 050 products and class tests and 2825*64 closure
    # visits on its 2825 normal subgroups
    monkeypatch.setattr(fingroup, "LATTICE_BUDGET", 1000)
    with pytest.raises(SearchBudgetExceeded, match="past the budget of 1000") as info:
        normal_subgroups(group_from_spec("E 2 6"))
    message = str(info.value)
    assert message.startswith("normal-subgroup lattice of E2^6 found ")
    found, spent = map(int, re.search(r"found (\d+) .* spent (\d+)", message).groups())
    # a node of size s >= 2 visits the 64 closures {e, x}, joins at most
    # 64 - s of them, testing 2 classes each, and builds at most 64/s - 1
    # cosets of s products: 64 + 3 * (64 - s) <= 250 steps past the budget
    assert found < 100 and 1000 < spent <= 1000 + 250


# ---------------------------------------------------------------------------
# maximal normal subgroups of solvable groups, read off G^ab


def referee_derived_subgroup(group):
    """G' as the closure of all |G|^2 commutators."""
    t, inv, n = group.table, group.inverse, group.order
    comms = {t[t[t[x][y]][inv[x]]][inv[y]] for x in range(n) for y in range(n)}
    return frozenset(fingroup._closure_members(t, sorted(comms)))


def referee_is_solvable(group):
    """Whether the derived series, each term closed from all commutators of
    the one before, reaches {e}."""
    t, inv = group.table, group.inverse
    term = range(group.order)
    while len(term) > 1:
        comms = {t[t[t[x][y]][inv[x]]][inv[y]] for x in term for y in term}
        below = fingroup._closure_members(t, sorted(comms))
        if len(below) == len(term):
            return False
        term = below
    return True


def assert_hyperplanes_match_lattice(group):
    """The solvable route against the lattice's maximal members, and the
    route maximal_normal_subgroups takes against the referee's verdict."""
    solvable = fingroup._is_solvable(group)
    assert solvable == referee_is_solvable(group), group.name
    lattice = fingroup._normal_subgroup_sets(group, group.order)[1]
    if solvable:
        assert fingroup._hyperplane_masks(group) == lattice, group.name
    fresh = FiniteGroup(group.name, group.table)  # nothing cached
    assert maximal_normal_subgroups(fresh, fresh.order) == lattice, group.name


def test_hyperplanes_match_lattice_on_catalog(catalog):
    for group in catalog:
        if 1 < group.order <= 128:
            assert_hyperplanes_match_lattice(group)


@pytest.mark.parametrize("spec", LATTICE_POOL_SPECS + LARGE_SOLVABLE_SPECS)
def test_hyperplanes_match_lattice_on_benchmark_groups(spec):
    assert_hyperplanes_match_lattice(group_from_spec(spec))


SMALL_FACTORS = {  # spec -> order
    "C 1": 1, "C 2": 2, "C 3": 3, "C 4": 4, "C 5": 5, "C 6": 6, "C 8": 8, "C 9": 9,
    "E 2 2": 4, "E 2 3": 8, "E 3 2": 9, "CxC 2 4": 8, "CxC 2 6": 12, "S 3": 6,
    "D 4": 8, "D 5": 10, "D 6": 12, "Q8": 8, "A 4": 12, "SL 3": 24, "S 4": 24, "A 5": 60,
}
SMALL_PAIRS = [
    (a, b) for a in SMALL_FACTORS for b in SMALL_FACTORS
    if 1 < SMALL_FACTORS[a] * SMALL_FACTORS[b] <= 128
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_PAIRS))
def test_hyperplanes_match_lattice_on_products(pair):
    assert_hyperplanes_match_lattice(group_from_spec("prod({}, {})".format(*pair)))


def test_hyperplanes_of_elementary_groups():
    # (p^r - 1)/(p - 1) hyperplanes of index p, each a union of p^(r-1) cosets
    cases = (("E 2 7", 127, 64), ("E 3 3", 13, 9), ("E 5 2", 6, 5), ("C 7", 1, 1))
    for spec, count, size in cases:
        masks = fingroup._hyperplane_masks(group_from_spec(spec))
        assert len(set(masks)) == len(masks) == count
        assert {m.bit_count() for m in masks} == {size}


def test_maximal_normal_subgroups_are_cached():
    group = group_from_spec("prod(E 2 3, S 3)")
    first = maximal_normal_subgroups(group)
    assert group._cache["maximal"] is first
    assert maximal_normal_subgroups(group) is first
    assert "normal_sets" not in group._cache  # the solvable route builds no lattice


def test_maximal_normal_subgroups_cap_on_solvable_group():
    # the normal cap holds on the solvable route too, before and after the
    # cache fills
    group = group_from_spec("E 2 8", cap=256)
    with pytest.raises(OrderCapExceeded, match="256 exceeds normal-subgroup cap 128"):
        maximal_normal_subgroups(group)
    assert len(maximal_normal_subgroups(group, cap=256)) == 255
    with pytest.raises(OrderCapExceeded):
        maximal_normal_subgroups(group, cap=255)


def test_hyperplane_budget(monkeypatch):
    # E2^3: 7 hyperplanes, each 4 cosets of {e} and 4 members: 56 steps
    monkeypatch.setattr(fingroup, "LATTICE_BUDGET", 56)
    assert len(maximal_normal_subgroups(group_from_spec("E 2 3"))) == 7
    monkeypatch.setattr(fingroup, "LATTICE_BUDGET", 55)
    with pytest.raises(SearchBudgetExceeded, match=(
        r"maximal normal subgroups of E2\^3 built 0 hyperplanes .* spent 0 .*"
        r"the 7 of index 2 would spend 56 more, past the budget of 55"
    )):
        maximal_normal_subgroups(group_from_spec("E 2 3"))
    # C6: at p = 2 one coset of C3 and its 3 members, then at p = 3 one
    # coset of C2 and its 2 members
    monkeypatch.setattr(fingroup, "LATTICE_BUDGET", 6)
    with pytest.raises(SearchBudgetExceeded, match="built 1 .* spent 4 .* would spend 3 more"):
        maximal_normal_subgroups(cyclic_group(6))


# ---------------------------------------------------------------------------
# quotients

def test_quotient_by_trivial_is_same_table(s3):
    q = quotient(s3, subgroup_closure(s3, set()))
    assert q.table == s3.table


def test_quotient_by_whole_group(s3):
    q = quotient(s3, subgroup_closure(s3, set(range(6))))
    assert q.order == 1


def test_quotient_s5_a5(s5):
    a5sub = next(m for m in normal_subgroups(s5, cap=128) if m.bit_count() == 60)
    q = quotient(s5, a5sub)
    assert q.order == 2
    assert q.name == f"S5/{hex(a5sub)}"
    # a mask and its member ids give the same quotient
    by_ids = quotient(s5, members(a5sub))
    assert (by_ids.name, by_ids.table) == (q.name, q.table)


def test_quotients_pass_validator(catalog):
    # every quotient of the small catalog groups, and every abelianisation
    for group in catalog:
        if group.order <= 32:
            for nsub in normal_subgroups(group):
                validate_group(quotient(group, nsub))
        validate_group(abelianisation(group))
    for spec in ("S 6", "SL 7", "prod(S 5, S 3)"):
        group = group_from_spec(spec, cap=1024)
        validate_group(abelianisation(group))
        for nsub in maximal_normal_subgroups(group, cap=1024):
            validate_group(quotient(group, nsub))


def test_quotient_not_normal(s3):
    transposition = next(x for x in range(6) if s3.element_orders()[x] == 2)
    sub = subgroup_closure(s3, {transposition})
    with pytest.raises(NotNormal):
        quotient(s3, sub)


# ---------------------------------------------------------------------------
# derived subgroup and abelian invariants

def test_derived_subgroup_abelian():
    assert len(derived_subgroup(cyclic_group(9))) == 1


def test_derived_subgroup_s3(s3):
    derived = derived_subgroup(s3)
    assert len(derived) == 3
    assert fingroup._is_normal(s3, derived)


def test_derived_subgroup_sl25_perfect(sl25):
    assert len(derived_subgroup(sl25)) == 120


def test_derived_subgroup_matches_all_commutators_referee(catalog):
    groups = [g for g in catalog if g.order <= 128]
    groups += [group_from_spec(s) for s in LATTICE_POOL_SPECS]
    for group in groups:
        fresh = FiniteGroup(group.name, group.table)
        assert derived_subgroup(fresh) == referee_derived_subgroup(group), group.name


def test_abelian_invariants_c15():
    inv = abelian_invariants_finite(cyclic_group(15))
    assert (inv.free_rank, inv.factors) == (0, (15,))


def test_abelian_invariants_klein(klein):
    assert abelian_invariants_finite(klein).factors == (2, 2)


def test_abelian_invariants_c2xc4():
    g = direct_product(cyclic_group(2), cyclic_group(4))
    inv = abelian_invariants_finite(g)
    assert inv.factors == (2, 4)
    # exhaustive cross-check: order profile matches C2 x C4 exactly
    from collections import Counter

    assert Counter(g.element_orders()) == Counter({1: 1, 2: 3, 4: 4})


def power_walk_order(group, x):
    """The order of x by multiplying x in until the identity: Σ ord(x) work."""
    k, y = 1, x
    while y:
        k, y = k + 1, group.table[y][x]
    return k


def test_element_orders_match_power_walks(catalog):
    for group in catalog + [symmetric_group(5), cyclic_group(120)]:
        expected = tuple(power_walk_order(group, x) for x in range(group.order))
        assert group.element_orders() == expected, group.name


def test_element_orders_refuse_powers_that_never_reach_the_identity():
    # 2 * 2 = 2: the powers of 2 stay at 2
    table = [[0, 1, 2], [1, 0, 2], [2, 0, 2]]
    loop = build_from_cayley_table(table, "stuck", validate=False)
    with pytest.raises(NotAGroup, match="powers of element 2 never reach the identity"):
        loop.element_orders()


def test_abelian_invariants_refuse_powers_that_never_reach_the_derived_subgroup():
    # 1 * 1 = 1 and G' = {0, 2}: the powers of 1 stay at 1, outside G'
    table = [[0, 1, 2], [1, 1, 0], [2, 2, 0]]
    loop = build_from_cayley_table(table, "stuck", validate=False)
    assert derived_subgroup(loop) == {0, 2}
    with pytest.raises(NotAGroup, match="powers of element 1 never reach G'"):
        abelian_invariants_finite(loop)


def test_abelian_invariants_of_nonabelian_groups(s3, q8, a5):
    assert abelian_invariants_finite(s3).factors == (2,)
    assert abelian_invariants_finite(q8).factors == (2, 2)
    assert abelian_invariants_finite(a5).factors == ()


def commutes_pairwise(group):
    """Whether every pair of elements commutes: |G|^2 / 2 products."""
    t = group.table
    return all(t[a][b] == t[b][a] for a in range(group.order) for b in range(a))


def test_abelian_invariants_match_the_quotient(catalog):
    # the coset route to G^ab against the quotient table G/G', and G' = {e}
    # against the pairwise check
    groups = [*catalog, *(t.group for t in witness_targets(128))]
    groups += [group_from_spec(spec) for spec in NONSOLVABLE_LARGE_SPECS]
    for group in groups:
        fresh = FiniteGroup(group.name, group.table)  # neither G' nor G^ab cached
        assert abelian_invariants_finite(fresh) == abelian_invariants_finite(abelianisation(group))
        assert (len(derived_subgroup(fresh)) == 1) is commutes_pairwise(group), group.name


def test_abelianisation_product_of_factors(catalog):
    # product of invariant factors of G/G' equals |G| / |G'|
    for group in catalog[:40]:
        gab = abelianisation(group)
        inv = abelian_invariants_finite(gab)
        assert inv.free_rank == 0
        assert math.prod(inv.factors) == group.order // len(derived_subgroup(group))


# ---------------------------------------------------------------------------
# weight

def naive_weight(group):
    """Reference weight by scanning all element tuples (tiny groups only)."""
    if group.order == 1:
        return 0
    for k in range(1, group.order):
        for combo in combinations(range(1, group.order), k):
            if len(normal_closure(group, combo)) == group.order:
                return k
    raise AssertionError("unreachable")


def test_weight_trivial():
    assert weight_bruteforce(cyclic_group(1)) == 0


def test_weight_simple(a5):
    assert weight_bruteforce(a5) == 1


def test_weight_klein(klein):
    assert weight_bruteforce(klein) == 2
    assert weight_witness(klein) == (2, (1, 2))


def test_weight_matches_naive_scan(klein, s3, q8, d4, c6, e8):
    for group in (klein, s3, q8, d4, c6, e8, cyclic_group(1), alternating_group(4)):
        assert weight_bruteforce(group) == naive_weight(group)


def closure_weight_witness(group):
    """Reference (weight, witness): the first tuple of ascending class
    representatives, shortest first, whose normal closure is the group."""
    if group.order == 1:
        return 0, ()
    reps = [cls[0] for cls in conjugacy_classes(group)[1:]]
    for k in range(1, len(reps) + 1):
        for combo in combinations(reps, k):
            if len(normal_closure(group, combo)) == group.order:
                return k, combo
    raise AssertionError("unreachable")


@pytest.mark.parametrize(
    "spec",
    ["E 2 2", "Q8", "D 4", "A 4", "E 2 3", "prod(E 3 2, E 2 2)", "prod(C 2, S 4)"],
)
def test_weight_witness_matches_closure_search(spec):
    group = group_from_spec(spec)
    assert weight_witness(group) == closure_weight_witness(group)


def test_weight_cap():
    with pytest.raises(OrderCapExceeded):
        weight_bruteforce(cyclic_group(16), cap=8)
    # a weight kept from an earlier search is still refused past the cap
    c16 = cyclic_group(16)
    assert weight_bruteforce(c16) == 1
    with pytest.raises(OrderCapExceeded):
        weight_bruteforce(c16, cap=8)


def test_weight_search_budget(monkeypatch, klein, e8):
    # E2^3 has 7 representative masks and weight 3: levels 1 and 2 of the
    # intersection search spend 7 + 7 * 7 products and reach 15 intersections
    monkeypatch.setattr(fingroup, "DEFAULT_SEARCH_BUDGET", 62)
    with pytest.raises(SearchBudgetExceeded, match=r"^weight search of E2\^3 reached 15 "
                       r"intersections and spent 56 AND products; 7 more would pass"):
        weight_witness(e8)
    assert weight_witness(klein) == (2, (1, 2))  # 3 + 3 * 3 products and a witness


def referee_weight_witness(group):
    """Referee: the hitting-set scan the intersection search replaced.  Each
    class representative hits the maximal normal subgroups that avoid it;
    dropping representatives that hit nothing or the same subgroups as a
    smaller one, the witness is the first tuple, shortest first, whose hits
    cover every maximal normal subgroup."""
    if group.order == 1:
        return 0, ()
    maximal = maximal_normal_subgroups(group)
    full = (1 << len(maximal)) - 1
    first_rep = {}  # hit mask -> smallest representative with it
    for cls in conjugacy_classes(group):
        hit = sum(1 << i for i, m in enumerate(maximal) if not m >> cls[0] & 1)
        if hit:
            first_rep.setdefault(hit, cls[0])
    for k in range(1, len(first_rep) + 1):
        for combo in combinations(first_rep.items(), k):
            hit = 0
            for m, _ in combo:
                hit |= m
            if hit == full:
                return k, tuple(r for _, r in combo)
    raise AssertionError("unreachable")


def test_weight_witness_matches_hitting_set_referee(catalog):
    groups = [g for g in catalog if g.order <= 64]
    groups += [group_from_spec(spec) for spec in LATTICE_PRODUCT_SPECS]
    for group in groups:
        assert weight_witness(group) == referee_weight_witness(group), group.name


def test_weight_at_least_abelianisation_weight(catalog):
    for group in catalog:
        if group.order > 32:
            continue
        w = weight_bruteforce(group)
        ab = abelian_invariants_finite(abelianisation(group))
        assert w >= len(ab.factors)


# ---------------------------------------------------------------------------
# randomised structure properties

@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6))
def test_cyclic_product_invariants(m, n):
    g = direct_product(cyclic_group(m), cyclic_group(n))
    inv = abelian_invariants_finite(g)
    assert inv.free_rank == 0 and math.prod(inv.factors) == m * n
    assert weight_bruteforce(g) == len(inv.factors)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5))
def test_product_validator_and_identity(m, n):
    g = direct_product(cyclic_group(m), cyclic_group(n))
    validate_group(g)
    assert all(g.table[0][x] == x and g.table[x][0] == x for x in range(g.order))
