"""The structural computations on small finite groups (`group.FiniteGroup`)
that every other module builds on: constructions, closures, conjugacy
classes, the full normal subgroup lattice, maximal normal subgroups (read
off the abelianisation for solvable groups), quotients, abelian invariants
and exact weight.

A group built from generators is a frame: the right-multiplication column
of each generator and a spanning tree, elements numbered in BFS order from
the identity following the given generator order, so constructions are
reproducible.
The plain F-A check reads rows, columns and inverses built from the frame;
only referees and table routes read the n^2 table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from math import gcd, prod
from operator import itemgetter, mul

from .abelian import AbelianInvariants, is_prime, prime_factors
from .config import CONSTRUCTION_BUDGET, DEFAULT_CAPS, DEFAULT_SEARCH_BUDGET, LATTICE_BUDGET
from .errors import (
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
from .group import FiniteGroup
from .snf import mat_det


# ---------------------------------------------------------------------------
# table validation


def _check_associativity(table, gens=None):
    """Light's test: x(gy) = (xg)y for every g in `gens` (default the greedy
    generators) of the table.  The g that pass are closed under products, so
    passing for a generating set means associativity on every triple."""
    table = tuple(map(tuple, table))  # no copy of rows that are tuples already
    for g in _greedy_generators(FiniteGroup("table", table)) if gens is None else gens:
        tg = table[g]
        times_g = itemgetter(*tg)
        for x, tx in enumerate(table):
            txg = table[tx[g]]
            if times_g(tx) != txg:
                y = next(y for y, z in enumerate(txg) if z != tx[tg[y]])
                raise NotAGroup(f"associativity fails on triple ({x},{g},{y})")


def _greedy_generators(group, members=None):
    """Ascending elements of `members` (default: the whole group), each the
    least one not yet reached by multiplying by the earlier ones; together
    they generate the subgroup `members` under products."""
    members = range(group.order) if members is None else sorted(members)
    gens, rows = [], []
    known = {0}
    for x in members:
        if x not in known:
            gens.append(x)
            rows.append(group.row(x))
            known = _generated(rows)
            if len(known) == len(members):
                break
    return gens


def validate_group(group):
    """Re-run the group-axiom check: rows that are permutations, identity,
    Light's test.  An associative finite magma with identity whose rows are
    permutations is a group (each x has a right inverse, and a finite monoid
    with right inverses is a group), so its columns are permutations; they
    are checked only once the identity or Light's test fails, before it is
    raised, so a non-group gets the first error of a column-first check."""
    table = group.table
    n, ids = len(table), set(range(len(table)))
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
        if set(row) != ids:
            raise NotAGroup(f"row {i} is not a permutation of 0..{n - 1}")
    try:
        for x, (right, left) in enumerate(zip(table[0], (row[0] for row in table))):
            if right != x or left != x:
                raise NotAGroup(f"element 0 is not an identity against {x}")
        _check_associativity(table, _generators(group))
    except NotAGroup:
        for j, col in enumerate(zip(*table)):
            if set(col) != ids:
                raise NotAGroup(f"column {j} is not a permutation of 0..{n - 1}") from None
        raise


# ---------------------------------------------------------------------------
# constructions


def build_from_permutations(degree, generators, cap=None, name=None):
    """Close a list of permutations of 0..degree-1 under composition."""
    cap = DEFAULT_CAPS.order if cap is None else cap
    if degree < 1:
        raise InvalidPermutation("degree must be positive")
    gens = []
    for g in generators:
        g = tuple(int(x) for x in g)
        if sorted(g) != list(range(degree)):
            raise InvalidPermutation(f"{g} is not a permutation of 0..{degree - 1}")
        gens.append(g)
    identity = tuple(range(degree))
    # p*q = p read at the points of q, one itemgetter per generator q; an
    # itemgetter of one index returns a scalar, and degree 1 has only e
    getters = [_same if degree == 1 else itemgetter(*q) for q in gens]
    columns, tree = _closure_table(identity, getters, _apply, cap, degree)
    return FiniteGroup(name or f"perm{degree}", columns=columns, tree=tree)


def _same(p):
    return p


def _apply(p, getter):
    return getter(p)


def build_from_cayley_table(table, name="table", validate=True):
    """Group from a raw multiplication table, copied once into tuple rows and,
    unless `validate` is false (a fault-injection aid), checked by
    `validate_group`."""
    group = FiniteGroup(name, tuple(tuple(map(int, row)) for row in table))
    if validate:
        validate_group(group)
    return group


def build_from_matrix_generators(p, d, generators, cap=None, name=None):
    """Close d x d matrices over F_p under multiplication mod p, each the
    tuple of its row ids sum v_k p^(d-1-k); x g maps x's rows through g's
    `_RowMap`, charged d^3, which bounds its d^2 per row met first."""
    cap = DEFAULT_CAPS.order if cap is None else cap
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if d < 1:
        raise SingularGenerator("dimension must be positive")
    gens = []
    spent = 0  # a determinant is charged as one product, d^3
    for mat in generators:
        mat = tuple(tuple(int(x) % p for x in row) for row in mat)
        if len(mat) != d or any(len(row) != d for row in mat):
            raise SingularGenerator(f"matrix is not {d}x{d}")
        spent = _charge(spent, d**3, "determinant")
        if mat_det([list(row) for row in mat]) % p == 0:
            raise SingularGenerator(f"matrix {mat} is singular mod {p}")
        gens.append(mat)
    identity = tuple(p ** (d - 1 - i) for i in range(d))
    row_maps = [_RowMap(p, mat).__getitem__ for mat in gens]
    columns, tree = _closure_table(identity, row_maps, _times_rows, cap, d**3, spent)
    return FiniteGroup(name or f"mat({p},{d})", columns=columns, tree=tree)


class _RowMap(dict):
    """Row id v -> the id of v g, filled on first use: d |G| entries at most."""

    def __init__(self, p, mat):
        self.p, self.mat = p, mat

    def __missing__(self, v):
        p = self.p
        row = [v // p**k % p for k in reversed(range(len(self.mat)))]
        w = 0
        for col in zip(*self.mat):
            w = w * p + sum(map(mul, row, col)) % p
        self[v] = w
        return w


def _times_rows(x, row_map):
    return tuple(map(row_map, x))


def _closure_table(identity, gens, op, cap, cost, spent=0):
    """Frame (columns, tree) of the closure of `gens`, elements numbered in
    BFS order from the identity: the BFS computes x*g = op(x, g) for every
    element x and item g of `gens` (a permutation's itemgetter, or a
    matrix's row map), kept as `right[k][x]`, with each new element's BFS parent
    and generator position (a Schreier vector), so every parent id is
    smaller.  Each call of `op` costs `cost` operations, charged with the
    `spent` ones against CONSTRUCTION_BUDGET; the rows, if a route reads
    them, need no `op`.
    """
    elems = [identity]  # also the BFS queue
    index = {identity: 0}
    parent, via = [0], [0]
    right = [[] for _ in gens]
    step = cost * len(gens)
    for x, elem in enumerate(elems):
        spent = _charge(spent, step, "BFS step")
        for k, g in enumerate(gens):
            y = op(elem, g)
            j = index.get(y)
            if j is None:
                if len(elems) >= cap:
                    raise ClosureExceedsCap(f"closure exceeds cap {cap}")
                j = index[y] = len(elems)
                elems.append(y)
                parent.append(x)
                via.append(k)
            right[k].append(j)
    return right, (parent, via, range(1, len(elems)))


def _charge(spent, cost, what):
    """spent + cost, refused when that passes CONSTRUCTION_BUDGET; `what`
    names the work that would cost it."""
    if spent + cost > CONSTRUCTION_BUDGET:
        raise ClosureExceedsCap(
            f"construction spent {spent} operations, and the next {what} would spend "
            f"{cost} more, past the construction budget of {CONSTRUCTION_BUDGET} (one "
            f"operation per permutation point, matrix multiply-add or table entry)"
        )
    return spent + cost


def direct_product(g, h, cap=None):
    """Componentwise product; id of (a, b) is a*|H| + b.  Its frame lifts
    the factors' frames: the generators (g, e), then (e, h), and a tree
    reaching (a, 0) as G's tree reaches a, then (a, b) from (a, 0) as H's
    reaches b.  The n^2 charge is for the table a route may build."""
    cap = DEFAULT_CAPS.order if cap is None else cap
    n = g.order * h.order
    if n > cap:
        raise ClosureExceedsCap(f"product order {n} exceeds cap {cap}")
    _charge(0, n * n, "product table")
    hn = h.order
    gright, (gparent, gvia, gwalk) = _frame(g)
    hright, (hparent, hvia, hwalk) = _frame(h)
    right = [[y * hn + b for y in c for b in range(hn)] for c in gright]
    right += [[a + y for a in range(0, n, hn) for y in c] for c in hright]
    parent, via, walk = [], [], []
    for a in range(g.order):
        parent += [gparent[a] * hn, *[a * hn + p for p in hparent[1:]]]
        via += [gvia[a], *[len(gright) + k for k in hvia[1:]]]
    for a in chain((0,), gwalk):
        if a:
            walk.append(a * hn)
        walk += [a * hn + b for b in hwalk]
    return FiniteGroup(f"{g.name}x{h.name}", columns=right, tree=(parent, via, walk))


def _frame(group):
    """The group's frame; a table's is the BFS tree over the columns of its
    greedy generators."""
    if group._right is not None:
        return group._right, group._tree
    right = [group.col(x) for x in _generators(group)]
    parent, via, walk = [None] * group.order, [0] * group.order, [0]
    parent[0] = 0
    for x in walk:  # grows while it is walked
        for k, col in enumerate(right):
            y = col[x]
            if parent[y] is None:
                parent[y], via[y] = x, k
                walk.append(y)
    return right, (parent, via, walk[1:])


# ---------------------------------------------------------------------------
# structure


def subgroup_closure(group, seeds):
    """Members of the smallest subgroup containing the seed elements."""
    return frozenset(_generated([group.row(s) for s in seeds]))


def _generated(rows):
    """{0} closed under x -> row[x] for each of the rows: the subgroup
    generated by the elements whose rows they are (a finite group needs no
    inverses)."""
    known = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for row in rows:
            y = row[x]
            if y not in known:
                known.add(y)
                frontier.append(y)
    return known


def _closure_members(table, seeds):
    """{0} closed under x -> table[x][s]: over class rows (row a holding the
    class of rep(a) y for each element y), the classes of the subgroup the
    seeds generate; over a table, that subgroup."""
    seeds = list(seeds)
    known = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        row = table[x]
        for s in seeds:
            y = row[s]
            if y not in known:
                known.add(y)
                frontier.append(y)
    return known


def _generators(group):
    """The group's greedy generators, found once and kept in its cache."""
    gens = group._cache.get("gens")
    if gens is None:
        gens = group._cache["gens"] = _greedy_generators(group)
    return gens


def _normal_closure_members(group, seeds):
    """Members of the smallest normal subgroup containing the seeds.  A
    subgroup grows one generator at a time; the conjugates of each new
    generator by the group's generators join it when they fall outside, so
    the last subgroup is normalised by a generating set of G."""
    conj = _conjugations(group)
    rows, known = [], {0}
    pending = list(seeds)
    while pending:
        x = pending.pop()
        if x not in known:
            rows.append(group.row(x))
            known = _generated(rows)
            pending += [c[r[x]] for r, c in conj]
    return known


def _conjugations(group):
    """(row of g, column of g^-1) for each greedy generator g: x -> g x g^-1
    is the column read at the row."""
    inv = group.inverse
    return [(group.row(g), group.col(inv[g])) for g in _generators(group)]


def conjugacy_classes(group):
    """Partition of element ids into conjugation orbits, each a sorted
    tuple, ordered by smallest member (identity class first).  An orbit closed
    under conjugation by a generating set is closed under the whole group."""
    cached = group._cache.get("classes")
    if cached is not None:
        return cached
    gens = _conjugations(group)
    seen = bytearray(group.order)
    classes = []
    for x in range(group.order):
        if seen[x]:
            continue
        seen[x] = 1
        orbit = [x]
        for y in orbit:  # grows while it is walked
            for row, col in gens:
                z = col[row[y]]
                if not seen[z]:
                    seen[z] = 1
                    orbit.append(z)
        classes.append(tuple(sorted(orbit)))
    result = group._cache["classes"] = tuple(classes)
    return result


def _mask(members):
    m = 0
    for x in members:
        m |= 1 << x
    return m


def _members(m):
    return [x for x, c in enumerate(reversed(bin(m))) if c == "1"]


def _check_normal_cap(group, cap):
    cap = DEFAULT_CAPS.normal if cap is None else cap
    if group.order > cap:
        raise OrderCapExceeded(
            f"|G| = {group.order} exceeds normal-subgroup cap {cap}"
        )


def _normal_subgroup_sets(group, cap=None):
    """(all normal subgroups sorted by (size, mask), the maximal proper ones
    in cover order), as int masks; computed once per group of order <= cap,
    over class masks (bit a set when class a lies in the subgroup).  A join
    N.B is B when N lies in B, else the OR, over the classes a of B outside
    it so far, of the classes rep(a)N meets; each class c met gives the same
    set, so it is built once per N, |N| products, and kept under each c.
    Every product, class of B a join tests and class closure a popped N
    walks over counts against LATTICE_BUDGET."""
    _check_normal_cap(group, cap)
    cached = group._cache.get("normal_sets")
    if cached is not None:
        return cached
    classes = conjugacy_classes(group)
    if len(classes) == group.order:
        rows, masks = group.table, None  # abelian: class a is {a}
    else:
        class_of = [0] * group.order
        for a, cls in enumerate(classes):
            for x in cls:
                class_of[x] = a
        rows = [itemgetter(*group.row(cls[0]))(class_of) for cls in classes]  # rep(a)x's class
        masks = [_mask(cls) for cls in classes]
    bit = [1 << a for a in range(len(classes))]
    full = sum(bit)
    # a normal subgroup is the product of those its classes generate; C
    # generates {e} closed under a -> the classes rep(a)C meets (as gCg^-1 = C)
    base = {}
    for cls in classes:
        closure = _closure_members(rows, cls)
        base.setdefault(_mask(closure), tuple(closure))
    # a proper N is maximal exactly when every strict join N.B with a class
    # closure B is the whole group, and the enumeration forms all of those
    found, maximal, stack, spent = {}, [], list(base), 0  # class mask -> element mask
    while stack:
        m = stack.pop()
        if m in found:
            continue
        elements = found[m] = sum(map(masks.__getitem__, _members(m))) if masks else m
        spent += len(base)
        coset_of = itemgetter(*_members(elements))  # row a to rep(a)N's classes
        coset = [0] * len(classes)
        is_maximal = m != full
        for bm, b in base.items():
            if not bm & ~m:
                continue  # B lies in N
            jm = bm  # N.B = B when N lies in B
            if m & ~bm:
                jm = m
                spent += len(b)
                for a in b:
                    if not jm & bit[a]:
                        c = coset[a]
                        if not c:
                            zs = coset_of(rows[a])
                            for z in zs:
                                c |= bit[z]
                            for z in zs:
                                coset[z] = c
                            spent += len(zs)
                        jm |= c
            if jm != full:
                is_maximal = False
            if jm not in found:
                stack.append(jm)
        if is_maximal:
            maximal.append(elements)
        if spent > LATTICE_BUDGET:
            raise SearchBudgetExceeded(
                f"normal-subgroup lattice of {group.name} found {len(found)} subgroups and spent "
                f"{spent} closure visits, coset products and class tests, past the budget "
                f"of {LATTICE_BUDGET}"
            )
    result = group._cache["normal_sets"] = (
        tuple(sorted(found.values(), key=lambda m: (m.bit_count(), m))),
        tuple(sorted(maximal, key=_cover_order)),
    )
    return result


def _cover_order(m):
    """Size descending, then mask ascending."""
    return -m.bit_count(), m


def normal_subgroups(group, cap=None):
    """Masks of all normal subgroups, {e} and G included, by (size, mask)."""
    return _normal_subgroup_sets(group, cap)[0]


def maximal_normal_subgroups(group, cap=None):
    """Masks of the proper normal subgroups maximal under inclusion (the
    quotient by each is simple) in cover order: size descending, then mask
    ascending.  Found once per group of order <= cap and kept in its cache.

    A solvable group's have prime index and are read off its abelianisation
    (`_hyperplane_masks`).  Any other group's are read from the lattice
    enumeration, which marks a proper N maximal when every join of N with a
    conjugacy-class closure outside it is G."""
    if group.order == 1:
        raise TrivialGroup("the trivial group has no proper normal subgroups")
    _check_normal_cap(group, cap)
    maximal = group._cache.get("maximal")
    if maximal is None:
        if _is_solvable(group):
            maximal = _hyperplane_masks(group)
        else:
            maximal = _normal_subgroup_sets(group, cap)[1]
        group._cache["maximal"] = maximal
    return maximal


def _is_solvable(group):
    """Whether the derived series reaches {e}, kept in the group's cache.
    Each term is the normal closure of the commutators of a generating set
    of the term before (that closure lies in the term's commutator subgroup,
    which is normal in G, and contains it) until a term does not shrink."""
    if "solvable" not in group._cache:
        term, below = range(group.order + 1), derived_subgroup(group)
        while 1 < len(below) < len(term):
            term = below
            gens = _greedy_generators(group, term)
            below = _normal_closure_members(group, _commutators(group, gens))
        group._cache["solvable"] = len(below) == 1
    return group._cache["solvable"]


def _hyperplane_masks(group):
    """Masks of the maximal normal subgroups of a solvable group, as a tuple
    in cover order (size descending, then mask ascending).

    Each has prime index p, so it contains K = G'G^p, and G/K is an F_p
    space; they are its hyperplanes, lifted to G as unions of cosets of K.
    Each hyperplane costs one OR per coset in it and one membership per
    element of it (the masks c(g) of `_maximal_cover`), counted against
    LATTICE_BUDGET before any of a prime's hyperplanes is built."""
    n = group.order
    gens = _generators(group)
    commutators = _commutators(group, gens)
    masks, spent = [], 0
    for p in prime_factors(n // len(derived_subgroup(group))):
        # K is the normal closure of the commutators and p-th powers of the
        # generators: modulo it they commute and have order p
        powers = []
        for g in gens:
            row, y = group.row(g), 0
            for _ in range(p):
                y = row[y]
            powers.append(y)
        cosets = _coset_masks(group, _normal_closure_members(group, commutators + powers), p)
        count = (len(cosets) - 1) // (p - 1)
        cost = count * (len(cosets) // p + n // p)
        if spent + cost > LATTICE_BUDGET:
            raise SearchBudgetExceeded(
                f"maximal normal subgroups of {group.name} built {len(masks)} hyperplanes "
                f"of G/G'G^p and spent {spent} coset unions and memberships; the {count} "
                f"of index {p} would spend {cost} more, past the budget of {LATTICE_BUDGET}"
            )
        spent += cost
        masks += _hyperplanes(cosets, p)
    return tuple(sorted(masks, key=_cover_order))


def _coset_masks(group, kernel, p):
    """Masks of the cosets of a normal subgroup `kernel` for which G/kernel
    is elementary abelian of exponent p.  The basis b_0, b_1, ... is the
    least element outside the span of the ones before, and the coset at
    index sum d_i p^i is kernel.b_0^d_0.b_1^d_1...; as G/kernel is
    abelian, the members of yKx = xyK are those of yK read off x's row."""
    n = group.order
    members = [sorted(kernel)]  # of each coset, by index
    cosets = [_mask(members[0])]
    span = cosets[0]
    for x in range(n):
        if len(cosets) * len(kernel) >= n:
            break
        if span >> x & 1:
            continue
        times_x, block = group.row(x).__getitem__, members[:]
        for _ in range(p - 1):
            block = [list(map(times_x, coset)) for coset in block]
            for coset in block:
                cosets.append(_mask(coset))
                span |= cosets[-1]
            members += block
    return cosets


def _hyperplanes(cosets, p):
    """Masks of the hyperplanes of F_p^r, whose vector sum d_i p^i indexes
    `cosets`: one kernel per functional f with f_j = 1 at its first nonzero
    position j, the union of the p^(r-1) cosets with d_j = -sum_{i>j} f_i d_i."""
    r = 0
    while p**r < len(cosets):
        r += 1
    masks = []
    for j in range(r):
        pj = p**j
        for tail in product(range(p), repeat=r - 1 - j):
            kernel = [(v, 0) for v in range(pj)]  # (index, sum f_i d_i) so far
            for i, fi in enumerate(tail, j + 1):
                step = p**i
                kernel = [(v + d * step, (s + fi * d) % p) for v, s in kernel for d in range(p)]
            m = 0
            for v, s in kernel:
                m |= cosets[v + -s % p * pj]
            masks.append(m)
    return masks


def quotient(group, nset, name=None):
    """Coset group G/N, N a mask or element ids and checked normal; cosets
    numbered ascending by smallest member, so the identity coset is id 0."""
    members = frozenset(_members(nset) if isinstance(nset, int) else nset)
    table = group.table
    if not _is_normal(group, members):
        raise NotNormal(f"subset of size {len(members)} is not normal in {group.name}")
    coset_of, reps = [None] * group.order, []
    for x in range(group.order):
        if coset_of[x] is None:
            for s in members:
                coset_of[table[x][s]] = len(reps)
            reps.append(x)
    qtable = tuple(tuple(coset_of[table[a][b]] for b in reps) for a in reps)
    return FiniteGroup(name or f"{group.name}/{hex(_mask(members))}", qtable)


def _is_normal(group, members):
    """Whether the set `members` holds the identity and is closed under
    products and conjugation; a table that skipped validation may fail."""
    t = group.table
    if 0 not in members or any(t[a][b] not in members for a in members for b in members):
        return False
    return all(group.conjugate(x, s) in members for x in range(group.order) for s in members)


def derived_subgroup(group):
    """Members of the commutator subgroup G': the normal closure of the
    commutators of a generating set; kept in the group's cache."""
    derived = group._cache.get("derived")
    if derived is None:
        commutators = _commutators(group, _generators(group))
        derived = group._cache["derived"] = frozenset(_normal_closure_members(group, commutators))
    return derived


def _commutators(group, gens):
    """a b a^-1 b^-1 for each pair of the given elements."""
    inv, col = group.inverse, group.col
    return [col(inv[b])[col(inv[a])[group.row(a)[b]]] for i, a in enumerate(gens) for b in gens[:i]]


def abelianisation(group):
    """G / G' as a FiniteGroup, the table that referees the coset route of
    `abelian_invariants_finite`."""
    return quotient(group, derived_subgroup(group), name=f"{group.name}^ab")


def abelian_invariants_finite(group):
    """Invariant factors of G^ab = G/G' for any finite group, kept in its
    cache: the exponent partitions of the primary components of G^ab, read
    off the orders of the cosets xG' (the element orders when G' = {e}) and
    merged.  A power walk that takes |G| steps without reaching G' raises
    NotAGroup, as `element_orders` does."""
    inv = group._cache.get("ab")
    if inv is None:
        derived = derived_subgroup(group)
        if len(derived) == 1:
            orders = group.element_orders()
        else:
            t, n = group.table, group.order
            seen = bytearray(n)
            orders = []
            for x in range(n):
                if not seen[x]:
                    for s in derived:
                        seen[t[x][s]] = 1
                    k, y = 1, x
                    while y not in derived:
                        if k >= n:
                            raise NotAGroup(f"powers of element {x} never reach G'")
                        k, y = k + 1, t[y][x]
                    orders.append(k)
        m = len(orders)  # |G/G'|
        per_prime = [(p, _p_component_exponents(orders, p, m)) for p in prime_factors(m)]
        depth = max((len(exps) for _, exps in per_prime), default=0)
        factors = [prod(p ** exps[i] for p, exps in per_prime if i < len(exps)) for i in range(depth)]
        inv = group._cache["ab"] = AbelianInvariants(0, tuple(reversed(factors)))
    return inv


def _p_component_exponents(orders, p, n):
    """Exponent partition (descending) of the p-primary component of the
    abelian group with these element orders, read off the counts of elements
    of order dividing p^j.  Counts that fit no abelian group come only from
    a table that is not a group."""
    target = gcd(n, p ** n.bit_length())  # the p-part of n
    logs = []
    j = 1
    while True:
        pj = p**j
        if pj > n * p:
            raise NotAGroup("order counts of G/G' never fill its p-component")
        c = sum(1 for o in orders if pj % o == 0)
        e = 0
        while p**e < c:
            e += 1
        if p**e != c:
            raise NotAGroup("order counts of G/G' are not p-power sized")
        logs.append(e)
        if c == target:
            break
        j += 1
    deltas = [b - a for a, b in zip([0] + logs, logs)]
    return [sum(1 for d in deltas if d >= i) for i in range(1, deltas[0] + 1)]  # descending


def _maximal_cover(group, cap=None):
    """The maximal normal subgroups in cover order, and for each element g
    its mask c(g): bit i set when the i-th of them contains g."""
    cover = maximal_normal_subgroups(group, cap)
    containing = group._cache.get("containing")
    if containing is None:
        containing = [0] * group.order
        for idx, m in enumerate(cover):
            for x in _members(m):
                containing[x] |= 1 << idx
        group._cache["containing"] = containing
    return cover, containing


@dataclass
class _MeetSearch:
    """Breadth-first search over the ANDs of a list of masks c(g).

    A set of elements lies in some maximal normal subgroup exactly when the
    AND of its masks is nonzero, so the least number of masks whose AND is 0
    is the weight, and n-F-A fails exactly when n masks reach 0.  Each
    reachable AND names the intersection of the maximal normal subgroups in
    it, so there are never more of them than the lattice has normal
    subgroups.  Every AND product, of the search and of the witness
    completions, counts against DEFAULT_SEARCH_BUDGET.
    """

    masks: list
    full: int  # the all-ones mask: the AND of no masks
    what: str  # names the search in a budget error
    spent: int = 0

    def reach(self, k, start=None, first=0):
        """(states, level): every AND of `start` (default all-ones) with at
        most k masks from index `first` on, and the least number of them
        whose AND is 0, or None when k do not reach 0.  The states are
        complete only when level is None."""
        start = self.full if start is None else start
        distinct = list(dict.fromkeys(self.masks[first:]))
        seen = {start}
        frontier = [start]
        for level in range(1, k + 1):
            new = []
            for s in frontier:
                if self.spent + len(distinct) > DEFAULT_SEARCH_BUDGET:
                    raise SearchBudgetExceeded(
                        f"{self.what} reached {len(seen)} intersections and spent "
                        f"{self.spent} AND products; {len(distinct)} more would pass "
                        f"the budget of {DEFAULT_SEARCH_BUDGET}"
                    )
                self.spent += len(distinct)
                for c in distinct:
                    a = s & c
                    if a not in seen:
                        if not a:
                            return seen, level
                        seen.add(a)
                        new.append(a)
            frontier = new
        return seen, None

    def first_zero(self, k):
        """Indices of the first k-combination, in itertools.combinations
        order, whose masks AND to 0 (one must exist): greedily the least
        index that still has a completion reaching 0 within the picks left,
        drawing only on later indices."""
        picks = []
        state = self.full
        nxt = 0
        for left in range(k - 1, -1, -1):
            for i in range(nxt, len(self.masks) - left):
                a = state & self.masks[i]
                if not a or left and self.reach(left, a, i + 1)[1] is not None:
                    break
            picks.append(i)
            state, nxt = a, i + 1
        return tuple(picks)


def weight_bruteforce(group, cap=None):
    """Exact weight: the least k with G the normal closure of k elements.
    Searched once per group and kept in its cache as an int."""
    cap = DEFAULT_CAPS.normal if cap is None else cap
    weight = group._cache.get("weight")
    # past the cap the search raises, as the lattice does, cached or not
    if weight is None or group.order > cap:
        weight = group._cache["weight"] = weight_witness(group, cap)[0]
    return weight


def weight_witness(group, cap=None):
    """(weight, witness tuple); the witness is the lexicographically first
    tuple of conjugacy-class representatives attaining the weight.

    A set normally generates G exactly when no maximal normal subgroup
    contains it, that is when the AND of its masks c(g) is 0.  So the weight
    is the first level of the intersection search that reaches 0, over the
    masks of the class representatives.  Representatives in every maximal
    subgroup, or with the same mask as a smaller one, are never in the first
    witness and are dropped.
    """
    if group.order == 1:
        return 0, ()
    cover, containing = _maximal_cover(group, cap)
    full = (1 << len(cover)) - 1
    first_rep = {}  # mask -> smallest representative with it
    for cls in conjugacy_classes(group):  # ascending representatives
        first_rep.setdefault(containing[cls[0]], cls[0])
    del first_rep[full]  # the identity's, in every maximal subgroup
    masks = list(first_rep)
    search = _MeetSearch(masks, full, f"weight search of {group.name}")
    weight = search.reach(len(masks))[1]
    if weight is None:
        # unreachable for a genuine group: each maximal subgroup misses a class
        raise NotAGroup("class representatives do not normally generate the table")
    return weight, tuple(first_rep[masks[i]] for i in search.first_zero(weight))
