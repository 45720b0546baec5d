"""Named families of small groups used throughout the test suites, plus
ingestion of externally supplied groups.

Each family is one `_FAMILIES` row (parameter count, builder, name format,
closed-form order); `_closed_form` reads a member's order and name off it
unbuilt, for `build_catalog`'s `max_order` skip and the witness targets.

The default catalog covers all cyclic groups up to order 32, products of
two cyclics, elementary p-groups and dihedral groups within the same order
bound, and the named groups S3, S4, S5, A4, A5, Q8, SL(2,3), SL(2,5).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

from .abelian import is_prime
from .config import DEFAULT_CAPS
from .errors import ClosureExceedsCap, ParseError
from .fingroup import (
    FiniteGroup,
    _charge,
    build_from_matrix_generators,
    build_from_permutations,
    direct_product,
    validate_group,
)


def _refuse_over_cap(name: str, order: int, cap: int) -> None:
    """Refuse a family member by its closed-form order, before anything is
    allocated or tested for primality."""
    if order > cap:
        raise ClosureExceedsCap(f"{name} exceeds cap {cap}")


def _product_past(factors, bound: int) -> int:
    """The product of positive `factors`, or the first partial product of
    them that passes `bound`."""
    product = 1
    for k in factors:
        product *= k
        if product > bound:
            break
    return product


def cyclic_group(n: int, cap=None) -> FiniteGroup:
    cap = DEFAULT_CAPS.order if cap is None else cap
    if n < 1:
        raise ValueError("cyclic order must be positive")
    _refuse_over_cap(f"C{n}", n, cap)
    _charge(0, n * n, "cyclic table")  # the table a route may build
    # one generator, 1: x + 1 is x's child in the tree
    tree = ([0, *range(n - 1)], [0] * n, range(1, n))
    return FiniteGroup(f"C{n}", columns=[[*range(1, n), 0]], tree=tree)


def cyclic_product(m: int, n: int, cap=None) -> FiniteGroup:
    return direct_product(cyclic_group(m, cap), cyclic_group(n, cap), cap)


def elementary_group(p: int, k: int, cap=None) -> FiniteGroup:
    """Direct product of k copies of C_p."""
    if k < 1:
        raise ValueError("rank must be positive")
    group = cyclic_group(p, cap)  # the cap bounds p before the primality test
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    for _ in range(k - 1):
        group = direct_product(group, cyclic_group(p, cap), cap)
    group.name = f"E{p}^{k}"
    return group


def dihedral_group(n: int, cap=None) -> FiniteGroup:
    """Symmetries of a regular n-gon (order 2n), n >= 3."""
    cap = DEFAULT_CAPS.order if cap is None else cap
    if n < 3:
        raise ValueError("dihedral groups need n >= 3 here")
    _refuse_over_cap(f"D{n}", 2 * n, cap)
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((n - i) % n for i in range(n))
    return build_from_permutations(n, [rotation, reflection], cap, name=f"D{n}")


def symmetric_group(n: int, cap=None) -> FiniteGroup:
    cap = DEFAULT_CAPS.order if cap is None else cap
    if n < 2:
        raise ValueError("symmetric groups need n >= 2 here")
    _refuse_over_cap(f"S{n}", _product_past(range(2, n + 1), cap), cap)
    transposition = tuple([1, 0] + list(range(2, n)))
    cycle = tuple((i + 1) % n for i in range(n))
    return build_from_permutations(n, [transposition, cycle], cap, name=f"S{n}")


def alternating_group(n: int, cap=None) -> FiniteGroup:
    cap = DEFAULT_CAPS.order if cap is None else cap
    if n < 3:
        raise ValueError("alternating groups need n >= 3 here")
    _refuse_over_cap(f"A{n}", _product_past(range(2, n + 1), 2 * cap) // 2, cap)
    three_cycle = tuple([1, 2, 0] + list(range(3, n)))
    if n % 2 == 1:  # for n = 3 the n-cycle repeats the 3-cycle
        gens = [three_cycle, tuple((i + 1) % n for i in range(n))]
    else:
        # an (n-1)-cycle on the points 1..n-1, fixing 0
        shift = tuple([0] + [1 + (i % (n - 1)) for i in range(1, n)])
        gens = [three_cycle, shift]
    return build_from_permutations(n, gens, cap, name=f"A{n}")


def quaternion_group(cap=None) -> FiniteGroup:
    """Q8 realised inside the 2x2 matrices over F_3."""
    i = ((0, -1), (1, 0))
    j = ((1, 1), (1, -1))
    return build_from_matrix_generators(3, 2, [i, j], cap, name="Q8")


def special_linear_group(p: int, cap=None) -> FiniteGroup:
    """SL(2, p), of order p(p^2 - 1)."""
    cap = DEFAULT_CAPS.order if cap is None else cap
    _refuse_over_cap(f"SL(2,{p})", p * (p * p - 1), cap)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    gens = [((1, 1), (0, 1)), ((0, -1), (1, 0))]
    return build_from_matrix_generators(p, 2, gens, cap, name=f"SL(2,{p})")


@dataclass(frozen=True)
class CatalogSpec:
    """List of (family, params) entries to build, e.g. ("CxC", (2, 4))."""

    entries: tuple[tuple[str, tuple[int, ...]], ...]


# family -> (parameter count, builder, name format, closed-form order); every
# builder takes the order cap.  The order is that of a member, or a partial
# product of it once that passes `bound`, and None for parameters the
# builder refuses, so that it is built and reports them.
_FAMILIES = {
    "C": (1, cyclic_group, "C{}", lambda bound, n: n if n >= 1 else None),
    "CxC": (2, cyclic_product, "C{}xC{}", lambda bound, m, n: m * n if m >= 1 and n >= 1 else None),
    # a prime p has p^j past the bound by j = bound.bit_length() + 1, so no
    # more factors are drawn, and k may pass what itertools can count
    "E": (2, elementary_group, "E{}^{}", lambda bound, p, k: (
        _product_past(repeat(p, min(k, bound.bit_length() + 1)), bound)
        if k >= 1 and is_prime(p) else None
    )),
    "D": (1, dihedral_group, "D{}", lambda bound, n: 2 * n if n >= 3 else None),
    "S": (1, symmetric_group, "S{}",
          lambda bound, n: _product_past(range(2, n + 1), bound) if n >= 2 else None),
    "A": (1, alternating_group, "A{}",
          lambda bound, n: _product_past(range(2, n + 1), 2 * bound) // 2 if n >= 3 else None),
    "Q8": (0, quaternion_group, "Q8", lambda bound: 8),
    "SL": (1, special_linear_group, "SL(2,{})",
           lambda bound, p: p * (p * p - 1) if is_prime(p) else None),
}


def _closed_form(family: str, params, bound: int):
    """(order, name) of a member of `family` by its row, without building
    it; the order as `_FAMILIES` gives it for `bound`."""
    _, _, name, order = _FAMILIES[family]
    return order(bound, *params), name.format(*params)


def default_catalog_spec(order_bound: int = 32) -> CatalogSpec:
    entries: list[tuple[str, tuple[int, ...]]] = []
    for n in range(1, order_bound + 1):
        entries.append(("C", (n,)))
    for m in range(2, order_bound + 1):
        for n in range(m, order_bound + 1):
            if m * n <= order_bound:
                entries.append(("CxC", (m, n)))
    for p in (2, 3, 5):
        k = 2
        while p**k <= order_bound:
            entries.append(("E", (p, k)))
            k += 1
    for n in range(3, order_bound // 2 + 1):
        entries.append(("D", (n,)))
    entries += [
        ("S", (3,)),
        ("S", (4,)),
        ("S", (5,)),
        ("A", (4,)),
        ("A", (5,)),
        ("Q8", ()),
        ("SL", (3,)),
        ("SL", (5,)),
    ]
    return CatalogSpec(tuple(entries))


def _parse_entry(family: str, params, line=None) -> tuple[str, tuple[int, ...]]:
    """Check a `family param...` entry: a known family, integer parameters,
    and as many of them as the family takes.  `line` numbers a catalog file
    line in the error."""
    if family not in _FAMILIES:
        raise ParseError(f"unknown family {family!r}", line)
    try:
        ints = tuple(int(x) for x in params)
    except ValueError:
        text = " ".join(map(str, (family, *params)))
        raise ParseError(f"non-integer parameter in {text!r}", line) from None
    arity = _FAMILIES[family][0]
    if len(ints) != arity:
        raise ParseError(f"family {family} takes {arity} parameters, got {len(ints)}", line)
    return family, ints


def build_entry(family: str, params, cap=None) -> FiniteGroup:
    """One family member; `params` are integers or their decimal strings."""
    family, params = _parse_entry(family, params)
    try:
        return _FAMILIES[family][1](*params, cap=cap)
    except ValueError as exc:
        raise ParseError(f"bad parameters for {family} {params}: {exc}") from None


def build_catalog(
    spec: CatalogSpec | None = None, cap=None, max_order=None
) -> list[FiniteGroup]:
    """Deterministic list of named groups; identical spec gives identical
    tables and names across runs.  A valid entry whose closed-form order
    passes `max_order` is skipped before it is built; an invalid or
    repeated one is refused, past `max_order` or not."""
    spec = default_catalog_spec() if spec is None else spec
    groups, seen = [], set()
    for family, params in spec.entries:
        family, params = _parse_entry(family, params)
        if (family, params) in seen:
            raise ParseError(f"duplicate catalog entry {' '.join(map(str, (family, *params)))!r}")
        seen.add((family, params))
        order = None if max_order is None else _closed_form(family, params, max_order)[0]
        if order is None or order <= max_order:
            groups.append(build_entry(family, params, cap))
    return groups


def parse_catalog_spec(text: str) -> CatalogSpec:
    """Line-oriented ``family param...`` entries; '#' starts a comment."""
    entries = []
    for lineno, line in _content_lines(text):
        family, *params = line.split()
        entries.append(_parse_entry(family, params, lineno))
    return CatalogSpec(tuple(entries))


# ---------------------------------------------------------------------------
# group mini-language: C n | CxC m n | E p k | D n | S n | A n | Q8 | SL p
# | prod(spec, spec)

def group_from_spec(text: str, cap=None) -> FiniteGroup:
    """Parse the whole spec first, so that a malformed spec is a ParseError
    before any group is built, then build it."""
    tree, _ = _parse_spec(text, 0, "")
    return _build_spec(tree, cap)


_SPACE = re.compile(r"\s*")
# a left operand's leaf ends at its comma; a right operand's leaf (or a
# top-level one) runs to the closing parenthesis (or the end), and its
# commas separate parameters
_LEAF = {",": re.compile(r"[^(),]*"), ")": re.compile(r"[^()]*"), "": re.compile(r"[^()]*")}


def _parse_spec(text: str, pos: int, stop: str):
    """One left-to-right descent: the spec at text[pos:] up to the character
    `stop` ("" for the end of the text), as a tree of ("prod", left, right)
    nodes over (family, params) leaves, and the position of `stop`."""
    pos = _SPACE.match(text, pos).end()
    if text.startswith("prod", pos):
        pos = _SPACE.match(text, pos + 4).end()
        if not text.startswith("(", pos):
            raise ParseError(f"malformed prod spec: expected '(' at offset {pos}")
        left, pos = _parse_spec(text, pos + 1, ",")
        right, pos = _parse_spec(text, pos + 1, ")")
        tree = ("prod", left, right)
        pos = _SPACE.match(text, pos + 1).end()
    else:
        end = _LEAF[stop].match(text, pos).end()
        parts = text[pos:end].replace(",", " ").split()
        if not parts:
            raise ParseError("empty group spec")
        tree = _parse_entry(parts[0], parts[1:])
        pos = end
    if text.startswith(stop, pos) if stop else pos == len(text):
        return tree, pos
    expected = f"{stop!r}" if stop else "the end of the spec"
    raise ParseError(f"malformed prod spec: expected {expected} at offset {pos}")


def _build_spec(tree, cap) -> FiniteGroup:
    """The product of the tree's leaves, built left to right.

    A direct product of direct products is the direct product of the
    leaves, with the same element ids (mixed radix) and the same name, and
    a trivial factor changes neither.  So each nontrivial leaf is multiplied
    into the product as soon as it is built: at most log2(cap) products,
    however deep the nesting, and no table for an intermediate node.
    """
    product = None
    names = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node[0] == "prod":
            stack += (node[2], node[1])
            continue
        group = build_entry(*node, cap)
        names.append(group.name)
        if product is None or product.order == 1:
            product = group
        elif group.order > 1:
            product = direct_product(product, group, cap)
    product.name = "x".join(names)  # built by this call, so renamed in place
    return product


# ---------------------------------------------------------------------------
# file ingestion

def load_group(path, fmt: str, cap=None, validate=True) -> FiniteGroup:
    """Load a group from a file; formats: permutations | cayley | matrix.

    ``validate=False`` skips the group-axiom check on Cayley tables so that
    deliberately corrupted tables can reach the verification harness.
    """
    path = Path(path)
    text = path.read_text()
    name = path.stem
    if fmt == "permutations":
        return _load_permutations(text, name, cap)
    if fmt == "cayley":
        return _load_cayley(text, name, validate)
    if fmt == "matrix":
        return _load_matrix(text, name, cap)
    raise ParseError(f"unknown group file format {fmt!r}")


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _load_permutations(text, name, cap):
    """Cycle-notation generators, one per line, as disjoint cycles.  The
    points named are numbered 0, 1, ... in sorted order, so the degree is the
    number of points named, not the largest label; relabelling conjugates
    every generator by the same bijection, which leaves the table unchanged."""
    parsed = []
    for lineno, line in _content_lines(text):
        cycles = []
        seen = set()
        rest = line
        while rest:
            rest = rest.lstrip()
            if not rest:
                break
            if not rest.startswith("("):
                raise ParseError(f"expected '(' in {line!r}", lineno)
            close = rest.find(")")
            if close == -1:
                raise ParseError(f"unclosed cycle in {line!r}", lineno)
            body = rest[1:close].replace(",", " ").split()
            try:
                points = [int(x) for x in body]
            except ValueError:
                raise ParseError(f"non-integer point in {line!r}", lineno) from None
            if len(set(points)) != len(points) or any(p < 0 for p in points):
                raise ParseError(f"bad cycle {rest[: close + 1]!r}", lineno)
            shared = seen.intersection(points)
            if shared:
                raise ParseError(f"point {min(shared)} lies in two cycles of {line!r}", lineno)
            seen.update(points)
            cycles.append(points)
            rest = rest[close + 1 :]
        parsed.append(cycles)
    labels = sorted({p for cycles in parsed for cycle in cycles for p in cycle})
    number = {p: i for i, p in enumerate(labels)}
    degree = max(len(labels), 1)
    gens = []
    for cycles in parsed:
        perm = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                perm[number[a]] = number[b]
        gens.append(tuple(perm))
    return build_from_permutations(degree, gens, cap, name=name)


def _load_cayley(text, name, validate):
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty Cayley table file")
    lineno, header = lines[0]
    try:
        n = int(header)
    except ValueError:
        raise ParseError("first line must be the order n", lineno) from None
    if n < 1:
        raise ParseError(f"the order must be at least 1, got {n}", lineno)
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} table rows, found {len(lines) - 1}")
    rows = []
    for lineno, line in lines[1:]:
        try:
            row = tuple(map(int, line.split()))
        except ValueError:
            raise ParseError(f"non-integer entry in {line!r}", lineno) from None
        if len(row) != n:
            raise ParseError(f"row has {len(row)} entries, expected {n}", lineno)
        rows.append(row)
    group = FiniteGroup(name, tuple(rows))  # parsed once, so not copied again
    if validate:
        validate_group(group)
    return group


def _load_matrix(text, name, cap):
    """Header `p d`, then the generators as blocks of d rows; a blank or
    comment-only line ends a block."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty matrix file")
    (header_no, header), rows = lines[0], lines[1:]
    blocks: list[list[tuple[int, list[int]]]] = []
    prev = header_no
    for lineno, line in rows:
        try:
            row = [int(x) for x in line.split()]
        except ValueError:
            raise ParseError(f"non-integer entry in {line!r}", lineno) from None
        if not blocks or lineno != prev + 1:
            blocks.append([])
        blocks[-1].append((lineno, row))
        prev = lineno
    parts = header.split()
    if len(parts) != 2:
        raise ParseError("header must be 'p d'", header_no)
    try:
        p, d = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("header must be 'p d'", header_no) from None
    if not blocks:
        # without this, the header alone could ask for a huge identity matrix
        raise ParseError("matrix file has no generator block", header_no)
    matrices = []
    for block in blocks:
        if len(block) != d:
            raise ParseError(f"matrix block has {len(block)} rows, expected {d}", block[0][0])
        mat = []
        for lineno, row in block:
            if len(row) != d:
                raise ParseError(f"matrix row has {len(row)} entries, expected {d}", lineno)
            mat.append(tuple(row))
        matrices.append(tuple(mat))
    return build_from_matrix_generators(p, d, matrices, cap, name=name)
