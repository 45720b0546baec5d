"""Named families of small groups used throughout the test suites, plus
ingestion of externally supplied groups.

The default catalog covers all cyclic groups up to order 32, products of
two cyclics, elementary p-groups and dihedral groups within the same order
bound, and the named groups S3, S4, S5, A4, A5, Q8, SL(2,3), SL(2,5).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .abelian import is_prime
from .config import DEFAULT_CAPS
from .errors import ClosureExceedsCap, ParseError
from .fingroup import (
    FiniteGroup,
    build_from_cayley_table,
    build_from_matrix_generators,
    build_from_permutations,
    direct_product,
)


def cyclic_group(n: int, cap=None) -> FiniteGroup:
    cap = DEFAULT_CAPS.order if cap is None else cap
    if n < 1:
        raise ValueError("cyclic order must be positive")
    if n > cap:
        raise ClosureExceedsCap(f"C{n} exceeds cap {cap}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(f"C{n}", table, validate="structure")


def cyclic_product(m: int, n: int, cap=None) -> FiniteGroup:
    return direct_product(cyclic_group(m, cap), cyclic_group(n, cap), cap)


def elementary_group(p: int, k: int, cap=None) -> FiniteGroup:
    """Direct product of k copies of C_p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("rank must be positive")
    group = cyclic_group(p, cap)
    for _ in range(k - 1):
        group = direct_product(group, cyclic_group(p, cap), cap)
    return FiniteGroup(f"E{p}^{k}", group.table, validate="structure")


def dihedral_group(n: int, cap=None) -> FiniteGroup:
    """Symmetries of a regular n-gon (order 2n), n >= 3."""
    if n < 3:
        raise ValueError("dihedral groups need n >= 3 here")
    rotation = tuple((i + 1) % n for i in range(n))
    reflection = tuple((n - i) % n for i in range(n))
    g = build_from_permutations(n, [rotation, reflection], cap, name=f"D{n}")
    return g


def symmetric_group(n: int, cap=None) -> FiniteGroup:
    if n < 2:
        raise ValueError("symmetric groups need n >= 2 here")
    transposition = tuple([1, 0] + list(range(2, n)))
    cycle = tuple((i + 1) % n for i in range(n))
    return build_from_permutations(n, [transposition, cycle], cap, name=f"S{n}")


def alternating_group(n: int, cap=None) -> FiniteGroup:
    if n < 3:
        raise ValueError("alternating groups need n >= 3 here")
    three_cycle = tuple([1, 2, 0] + list(range(3, n)))
    if n == 3:
        gens = [three_cycle]
    elif n % 2 == 1:
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
    gens = [((1, 1), (0, 1)), ((0, -1), (1, 0))]
    return build_from_matrix_generators(p, 2, gens, cap, name=f"SL(2,{p})")


@dataclass(frozen=True)
class CatalogSpec:
    """List of (family, params) entries to build, e.g. ("CxC", (2, 4))."""

    entries: tuple[tuple[str, tuple[int, ...]], ...]


_FAMILY_ARITY = {"C": 1, "CxC": 2, "E": 2, "D": 1, "S": 1, "A": 1, "Q8": 0, "SL": 1}


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


def build_entry(family: str, params: tuple[int, ...], cap=None) -> FiniteGroup:
    if family not in _FAMILY_ARITY:
        raise ParseError(f"unknown family {family!r}")
    if len(params) != _FAMILY_ARITY[family]:
        raise ParseError(
            f"family {family} takes {_FAMILY_ARITY[family]} parameters, got {len(params)}"
        )
    try:
        if family == "C":
            return cyclic_group(params[0], cap)
        if family == "CxC":
            return cyclic_product(*params, cap=cap)
        if family == "E":
            return elementary_group(*params, cap=cap)
        if family == "D":
            return dihedral_group(params[0], cap=cap)
        if family == "S":
            return symmetric_group(params[0], cap=cap)
        if family == "A":
            return alternating_group(params[0], cap=cap)
        if family == "Q8":
            return quaternion_group(cap=cap)
        return special_linear_group(params[0], cap=cap)
    except ValueError as exc:
        raise ParseError(f"bad parameters for {family} {params}: {exc}") from None


def build_catalog(spec: CatalogSpec | None = None, cap=None) -> list[FiniteGroup]:
    """Deterministic list of named groups; identical spec gives identical
    tables and names across runs."""
    spec = default_catalog_spec() if spec is None else spec
    groups = []
    names = set()
    for family, params in spec.entries:
        g = build_entry(family, params, cap)
        if g.name in names:
            raise ParseError(f"duplicate catalog name {g.name}")
        names.add(g.name)
        groups.append(g)
    return groups


def parse_catalog_spec(text: str) -> CatalogSpec:
    """Line-oriented ``family param...`` entries; '#' starts a comment."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        family = parts[0]
        if family not in _FAMILY_ARITY:
            raise ParseError(f"unknown family {family!r}", lineno)
        try:
            params = tuple(int(x) for x in parts[1:])
        except ValueError:
            raise ParseError(f"non-integer parameter in {line!r}", lineno) from None
        if len(params) != _FAMILY_ARITY[family]:
            raise ParseError(
                f"family {family} takes {_FAMILY_ARITY[family]} parameters", lineno
            )
        entries.append((family, params))
    return CatalogSpec(tuple(entries))


# ---------------------------------------------------------------------------
# group mini-language: C n | CxC m n | E p k | D n | S n | A n | Q8 | SL p
# | prod(spec, spec)

def group_from_spec(text: str, cap=None) -> FiniteGroup:
    text = text.strip()
    if text.startswith("prod"):
        inner = text[4:].strip()
        if not (inner.startswith("(") and inner.endswith(")")):
            raise ParseError(f"malformed prod spec {text!r}")
        left, right = _split_top_level(inner[1:-1])
        return direct_product(
            group_from_spec(left, cap), group_from_spec(right, cap), cap
        )
    parts = text.replace(",", " ").split()
    if not parts:
        raise ParseError("empty group spec")
    family = parts[0]
    if family not in _FAMILY_ARITY:
        raise ParseError(f"unknown family {family!r} in spec {text!r}")
    try:
        params = tuple(int(x) for x in parts[1:])
    except ValueError:
        raise ParseError(f"non-integer parameter in spec {text!r}") from None
    return build_entry(family, params, cap)


def _split_top_level(text: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return text[:i], text[i + 1 :]
    raise ParseError(f"expected a top-level comma in {text!r}")


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
    gens = []
    degree = 0
    parsed = []
    for lineno, line in _content_lines(text):
        cycles = []
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
            cycles.append(points)
            if points:
                degree = max(degree, max(points) + 1)
            rest = rest[close + 1 :]
        parsed.append((lineno, cycles))
    degree = max(degree, 1)
    for lineno, cycles in parsed:
        perm = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                perm[a] = b
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
    if len(lines) != n + 1:
        raise ParseError(f"expected {n} table rows, found {len(lines) - 1}")
    table = []
    for lineno, line in lines[1:]:
        try:
            row = [int(x) for x in line.split()]
        except ValueError:
            raise ParseError(f"non-integer entry in {line!r}", lineno) from None
        if len(row) != n:
            raise ParseError(f"row has {len(row)} entries, expected {n}", lineno)
        table.append(row)
    if validate:
        return build_from_cayley_table(table, name=name)
    return FiniteGroup(name, table, validate="none")


def _load_matrix(text, name, cap):
    lines = text.splitlines()
    header = None
    blocks: list[list[tuple[int, list[int]]]] = [[]]
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if blocks[-1]:
                blocks.append([])
            continue
        if header is None:
            header = (lineno, line)
            continue
        try:
            row = [int(x) for x in line.split()]
        except ValueError:
            raise ParseError(f"non-integer entry in {line!r}", lineno) from None
        blocks[-1].append((lineno, row))
    if header is None:
        raise ParseError("empty matrix file")
    parts = header[1].split()
    if len(parts) != 2:
        raise ParseError("header must be 'p d'", header[0])
    try:
        p, d = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("header must be 'p d'", header[0]) from None
    matrices = []
    for block in blocks:
        if not block:
            continue
        if len(block) != d:
            raise ParseError(f"matrix block has {len(block)} rows, expected {d}", block[0][0])
        mat = []
        for lineno, row in block:
            if len(row) != d:
                raise ParseError(f"matrix row has {len(row)} entries, expected {d}", lineno)
            mat.append(tuple(row))
        matrices.append(tuple(mat))
    return build_from_matrix_generators(p, d, matrices, cap, name=name)
