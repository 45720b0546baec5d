import itertools
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from groupcover import (
    build_catalog,
    build_from_permutations,
    cyclic_group,
    default_catalog_spec,
    dihedral_group,
    group_from_spec,
    load_group,
    validate_group,
)
from groupcover.catalog import (
    _FAMILIES,
    CatalogSpec,
    _closed_form,
    build_entry,
    parse_catalog_spec,
)
from groupcover import catalog, fingroup
from groupcover.fingroup import FiniteGroup, _check_associativity
from groupcover.errors import ClosureExceedsCap, NotAGroup, ParseError


def test_default_catalog_size(catalog):
    assert len(catalog) >= 50
    names = [g.name for g in catalog]
    assert len(names) == len(set(names))
    for expected in ("C1", "C32", "C2xC16", "E2^5", "D16", "S5", "A5", "Q8",
                     "SL(2,3)", "SL(2,5)"):
        assert expected in names


def test_default_catalog_orders(catalog):
    by_name = {g.name: g for g in catalog}
    assert by_name["S5"].order == 120
    assert by_name["SL(2,5)"].order == 120
    assert by_name["A5"].order == 60
    assert by_name["SL(2,3)"].order == 24
    assert by_name["Q8"].order == 8
    assert by_name["E3^3"].order == 27
    assert all(
        g.order <= 32 or g.name in ("S5", "SL(2,5)", "A5", "S4", "A4", "SL(2,3)")
        for g in catalog
    )


def test_catalog_reproducible(catalog):
    again = build_catalog()
    assert [g.name for g in again] == [g.name for g in catalog]
    assert all(a.table == b.table for a, b in zip(again, catalog))


def test_catalog_groups_pass_validator(catalog):
    for group in catalog:
        validate_group(group)


def test_catalog_small_spec():
    spec = CatalogSpec((("C", (1,)), ("C", (2,)), ("C", (3,))))
    groups = build_catalog(spec)
    assert [g.name for g in groups] == ["C1", "C2", "C3"]


def test_closed_form_orders_match_the_builds(catalog):
    # the orders and names of the family rows, which build_catalog skips
    # entries by and the witness records read, against the built tables of
    # the default catalog (SL 3 among them), of a few members past it and of
    # one member of each parameter range only the witness targets use; a
    # bound below the order gives a partial product past the bound
    entries = default_catalog_spec().entries + (
        ("S", (6,)), ("A", (6,)), ("SL", (7,)),
        ("E", (7, 2)), ("E", (11, 2)), ("D", (64,)),
    )
    groups = catalog + [build_entry(*entry, cap=1024) for entry in entries[len(catalog):]]
    for (family, params), group in zip(entries, groups):
        assert _closed_form(family, params, group.order) == (group.order, group.name)
        assert _closed_form(family, params, group.order - 1)[0] >= group.order, group.name
    assert _closed_form("E", (2, 10**18), 12)[0] == 16
    assert _closed_form("S", (10**18,), 12)[0] == 24
    # invalid parameters have no order, so that their builder reports them
    for family, params in (("C", (0,)), ("E", (4, 2)), ("E", (2, 0)), ("D", (2,)),
                           ("S", (1,)), ("A", (2,)), ("SL", (8,)), ("CxC", (-2, -3))):
        assert _closed_form(family, params, 1)[0] is None, (family, params)


def test_catalog_skips_entries_past_max_order():
    spec = parse_catalog_spec("C 3\nC 1024\nS 5\nE 2 2\nSL 7\n")
    assert [g.name for g in build_catalog(spec, max_order=4)] == ["C3", "E2^2"]
    assert [g.name for g in build_catalog(spec, cap=1024, max_order=120)] == ["C3", "S5", "E2^2"]
    # a rank past sys.maxsize is skipped by its order, not refused by itertools
    assert build_catalog(parse_catalog_spec("E 2 3317044064679887385961981\n"), max_order=0) == []
    with pytest.raises(ParseError, match="duplicate catalog entry 'C 1024'"):
        build_catalog(parse_catalog_spec("C 1024\nC 1024\n"), max_order=4)


def test_catalog_cap():
    # |SL(2,7)| = 7 * 48 = 336 > 128
    spec = CatalogSpec((("SL", (7,)),))
    with pytest.raises(ClosureExceedsCap):
        build_catalog(spec, cap=128)


def test_cyclic_group_cap():
    with pytest.raises(ClosureExceedsCap):
        cyclic_group(3000, cap=1024)


def dihedral_permutations(n):
    """The rotation and the reflection of the n-gon's vertices 0..n-1."""
    return [tuple((i + 1) % n for i in range(n)), tuple((n - i) % n for i in range(n))]


def dihedral_by_permutations(n, cap=None):
    return build_from_permutations(n, dihedral_permutations(n), cap, name=f"D{n}")


@pytest.mark.parametrize("n", [*range(3, 61), 95, 102])
def test_dihedral_ints_match_permutations(n):
    # the int route is the permutation route up to an isomorphism that
    # fixes the generators, so the BFS numbers, frames and tables agree
    by_ints, by_perms = dihedral_group(n), dihedral_by_permutations(n)
    assert by_ints.name == by_perms.name
    assert fingroup._frame(by_ints) == fingroup._frame(by_perms)
    assert by_ints.table == by_perms.table


def test_dihedral_charges_n_per_product(monkeypatch):
    # D7: 14 BFS steps of 2 products, 7 operations each, as on 7 points
    monkeypatch.setattr(fingroup, "CONSTRUCTION_BUDGET", 14 * 2 * 7)
    assert dihedral_group(7).order == 14
    monkeypatch.setattr(fingroup, "CONSTRUCTION_BUDGET", 14 * 2 * 7 - 1)
    with pytest.raises(ClosureExceedsCap) as by_perms:
        dihedral_by_permutations(7)
    with pytest.raises(ClosureExceedsCap, match="spent 182 operations, and the next BFS "
                       "step would spend 14 more") as by_ints:
        dihedral_group(7)
    assert str(by_ints.value) == str(by_perms.value)


@pytest.mark.parametrize(
    "spec, order", [("S 6", 720), ("A 6", 360), ("D 5", 10), ("SL 5", 120), ("E 3 2", 9)]
)
def test_family_order_cap_boundary(spec, order):
    # a group of order exactly the cap builds; one below it is refused
    assert group_from_spec(spec, cap=order).order == order
    with pytest.raises(ClosureExceedsCap):
        group_from_spec(spec, cap=order - 1)


@pytest.mark.parametrize(
    "spec",
    ["S 6", "A 6", "SL 7", "D 95", "D 102", "prod(S 5, S 3)", "prod(S 5, E 2 2)",
     "prod(A 5, C 3)", "prod(SL 5, C 2)", "E 2 8", "prod(C 2, prod(D 4, C 3))"],
)
def test_large_specs_pass_validator(spec):
    # tables built by closure, product and renaming are trusted; the full
    # check (Latin square, identity, Light's test) is their referee
    validate_group(group_from_spec(spec, cap=1024))


FAMILY_PARAMS = {
    "C": (5,),
    "CxC": (2, 3),
    "E": (2, 2),
    "D": (4,),
    "S": (3,),
    "A": (4,),
    "Q8": (),
    "SL": (3,),
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_family_routes_agree(family):
    params = FAMILY_PARAMS[family]  # a family missing here fails with KeyError
    text = " ".join(map(str, (family, *params)))
    by_spec = group_from_spec(text)
    (by_catalog,) = build_catalog(parse_catalog_spec(text))
    by_entry = build_entry(family, params)
    assert by_spec.name == by_catalog.name == by_entry.name
    assert by_spec.table == by_catalog.table == by_entry.table


@pytest.mark.parametrize(
    "text, message",
    [
        ("X 3", "unknown family 'X'"),
        ("C 2 3", "family C takes 1 parameters, got 2"),
        ("Q8 1", "family Q8 takes 0 parameters, got 1"),
        ("C x", "non-integer parameter in 'C x'"),
    ],
)
def test_family_errors_on_every_route(text, message):
    family, *params = text.split()
    with pytest.raises(ParseError) as err:
        group_from_spec(text)
    assert str(err.value) == message
    with pytest.raises(ParseError) as err:
        build_entry(family, params)
    assert str(err.value) == message
    with pytest.raises(ParseError) as err:
        parse_catalog_spec("C 2\n" + text)
    assert str(err.value) == f"{message} (line 2)"
    assert err.value.line == 2


def test_parse_catalog_spec_text():
    spec = parse_catalog_spec(
        """
        # comment
        C 6
        CxC 2 4   # inline comment
        Q8
        """
    )
    assert spec.entries == (("C", (6,)), ("CxC", (2, 4)), ("Q8", ()))
    with pytest.raises(ParseError):
        parse_catalog_spec("X 3")
    with pytest.raises(ParseError):
        parse_catalog_spec("C two")


def test_group_from_spec():
    assert group_from_spec("C 15").order == 15
    assert group_from_spec("CxC 2 4").order == 8
    assert group_from_spec("E 2 3").order == 8
    assert group_from_spec("D 5").order == 10
    assert group_from_spec("S 4").order == 24
    assert group_from_spec("A 5").order == 60
    assert group_from_spec("Q8").order == 8
    assert group_from_spec("SL 3").order == 24
    assert group_from_spec("prod(C 2, C 2)").order == 4
    assert group_from_spec("prod(prod(C 2, C 2), C 3)").order == 12
    with pytest.raises(ParseError):
        group_from_spec("K 5")
    with pytest.raises(ParseError):
        group_from_spec("prod(C 2)")


# ---------------------------------------------------------------------------
# file ingestion

def test_load_permutations(tmp_path):
    path = tmp_path / "s5.perms"
    path.write_text("# S5 generators\n(0 1)\n(0 1 2 3 4)\n")
    g = load_group(path, "permutations")
    assert g.name == "s5"
    assert g.order == 120


def test_load_permutations_disjoint_cycles(tmp_path):
    path = tmp_path / "klein.perms"
    path.write_text("(0 1)(2 3)\n(0 2)(1 3)\n")
    g = load_group(path, "permutations")
    assert g.order == 4


def test_load_permutations_numbers_named_points(tmp_path):
    sparse = tmp_path / "sparse.perms"
    sparse.write_text("(3 10 20)\n(10 99)\n")
    dense = tmp_path / "dense.perms"
    dense.write_text("(0 1 2)\n(1 3)\n")
    assert load_group(sparse, "permutations").table == load_group(dense, "permutations").table


def test_load_permutations_huge_label(tmp_path):
    # the degree is the number of points named, not the largest label + 1
    path = tmp_path / "far.perms"
    path.write_text("(0 1000000000)\n")
    tracemalloc.start()
    try:
        g = load_group(path, "permutations")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 2
    assert peak < 2**20


def test_load_permutations_malformed(tmp_path):
    path = tmp_path / "bad.perms"
    path.write_text("(0 1\n")
    with pytest.raises(ParseError) as err:
        load_group(path, "permutations")
    assert err.value.line == 1


def test_load_cayley(tmp_path):
    path = tmp_path / "v4.cayley"
    rows = [[i ^ j for j in range(4)] for i in range(4)]
    path.write_text("4\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    g = load_group(path, "cayley")
    assert g.name == "v4"
    assert g.order == 4


def test_load_cayley_rejects_nongroup(tmp_path):
    path = tmp_path / "bad.cayley"
    path.write_text("2\n0 1\n1 1\n")
    with pytest.raises(NotAGroup):
        load_group(path, "cayley")


def test_load_cayley_novalidate_skips_check(tmp_path):
    path = tmp_path / "loop.cayley"
    # Latin square with identity that is not associative
    from tests.test_fingroup import nonassociative_loop

    loop = nonassociative_loop()
    path.write_text("5\n" + "\n".join(" ".join(map(str, r)) for r in loop) + "\n")
    with pytest.raises(NotAGroup):
        load_group(path, "cayley")
    g = load_group(path, "cayley", validate=False)
    assert g.order == 5


def referee_load_cayley(text, name, validate=True):
    """The Cayley loader before the lookup parse and the header cap: every
    token read by `int`, then the rows, columns and identity checked in
    that order before Light's test."""
    lines = list(catalog._content_lines([text]))
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
    group = FiniteGroup(name, tuple(rows))
    if validate:
        referee_validate(group)
    return group


def referee_validate(group):
    """The group-axiom check with a column pass on every table: rows,
    columns, identity, then Light's test."""
    table = group.table
    n = len(table)
    ids = set(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
        if set(row) != ids:
            raise NotAGroup(f"row {i} is not a permutation of 0..{n - 1}")
    for j, col in enumerate(zip(*table)):
        if set(col) != ids:
            raise NotAGroup(f"column {j} is not a permutation of 0..{n - 1}")
    for x, (right, left) in enumerate(zip(table[0], (row[0] for row in table))):
        if right != x or left != x:
            raise NotAGroup(f"element 0 is not an identity against {x}")
    _check_associativity(table, fingroup._generators(group))


def load_cayley_text(text, name, cap, validate):
    """`catalog._load_cayley` on the numbered content lines of a text."""
    return catalog._load_cayley(catalog._content_lines([text]), name, cap, validate)


def outcome(load, *args):
    """The table a loader returns, or its error's type, text and line."""
    try:
        return load(*args).table
    except (ParseError, NotAGroup) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def spell(x, draw):
    """A spelling of the id x: canonical, one `int` reads as x (`0x`, `+x`,
    `-0`, `1_0`), or one it refuses."""
    return draw(st.sampled_from([
        str(x), str(x), str(x), f"0{x}", f"+{x}", "-0" if x == 0 else f"{x}.0",
        "_".join(str(x)) if x >= 10 else f"{x}_", "x",
    ]))


@st.composite
def small_tables(draw):
    """An order-n table text: the cyclic group relabelled at random (its
    identity kept at 0 or not), rows that are random permutations (columns
    usually not), or random entries, some past n; each id sometimes spelled
    non-canonically, and sometimes a wrong header or a row too long."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["group", "rows", "random"]))
    if kind == "group":
        label = draw(st.permutations(range(n)))
        if draw(st.booleans()):
            label[label.index(0)], label[0] = label[0], 0
        back = {x: i for i, x in enumerate(label)}
        table = [[label[(back[a] + back[b]) % n] for b in range(n)] for a in range(n)]
    elif kind == "rows":
        table = [draw(st.permutations(range(n))) for _ in range(n)]
        if draw(st.booleans()):
            table[0] = list(range(n))
    else:
        table = [draw(st.lists(st.integers(0, n + 1), min_size=n, max_size=n)) for _ in range(n)]
    rows = [" ".join(spell(x, draw) if draw(st.integers(0, 5)) == 0 else str(x) for x in row)
            for row in table]
    header = str(n)
    if draw(st.integers(0, 7)) == 0:
        header = draw(st.sampled_from([str(n + 1), f"0{n}", f"+{n}", "x", "0"]))
    if draw(st.integers(0, 7)) == 0:
        rows[-1] += " 0"
    return header + "\n" + "\n".join(rows) + "\n"


@settings(max_examples=300, deadline=None)
@given(small_tables(), st.booleans())
def test_load_cayley_matches_int_per_token_referee(text, validate):
    assert outcome(load_cayley_text, text, "t", None, validate) == outcome(
        referee_load_cayley, text, "t", validate
    ), text


def test_load_cayley_reads_spellings_as_int_does():
    text = "3\n0 01 +2\n1 2 0\n2 -0 1_0\n"
    assert outcome(referee_load_cayley, text, "t", False) == ((0, 1, 2), (1, 2, 0), (2, 0, 10))
    assert outcome(load_cayley_text, text, "t", None, False) == ((0, 1, 2), (1, 2, 0), (2, 0, 10))
    for validate in (True, False):
        bad = "2\n0 1\n1 0.5\n"
        assert outcome(load_cayley_text, bad, "t", None, validate) == (
            "ParseError", "non-integer entry in '1 0.5' (line 3)", 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.permutations(range(n)), min_size=n, max_size=n)))
def test_validate_reports_as_the_column_first_referee(rows):
    # rows that are permutations, columns usually not: the deferred column
    # pass must still report a bad column before the identity or Light's test
    def check(validate):
        group = FiniteGroup("t", tuple(map(tuple, rows)))
        validate(group)
        return group

    assert outcome(check, validate_group) == outcome(check, referee_validate)


def test_load_cayley_refuses_a_header_past_the_cap(tmp_path):
    path = tmp_path / "c12.cayley"
    path.write_text("12\n" + "\n".join(" ".join(str((i + j) % 12) for j in range(12))
                                         for i in range(12)) + "\n")
    with pytest.raises(ClosureExceedsCap, match=r"^Cayley table order 12 exceeds cap 11$"):
        load_group(path, "cayley", cap=11)
    with pytest.raises(ClosureExceedsCap, match="order 12 exceeds cap 11"):
        load_group(path, "cayley", cap=11, validate=False)
    assert load_group(path, "cayley", cap=12).order == 12


@pytest.mark.parametrize("sep", ["\n", "\r", "\r\n", "\x0c", "\u2028", "\x0c\n", "\n\u2028"])
def test_file_lines_number_lines_as_the_whole_text_does(tmp_path, sep):
    # a file is read one line at a time, where its text is split at every
    # line break; each line keeps its number, across the file's read
    # buffer too, in the lines and in a loader's error
    path = tmp_path / "t.cayley"
    rows = ["3", "0 1 2", "1 2 0", "2 0 x"]
    heads = ["#" * pad + sep for pad in range(8186, 8196)] + [sep * 5000, ""]
    for head, end in itertools.product(heads, [sep, ""]):
        path.write_bytes((head + sep.join(rows) + end).encode())
        text = path.read_text()
        with path.open() as file:
            assert list(catalog._content_lines(file)) == list(catalog._content_lines([text]))
        line = text.splitlines().index("2 0 x") + 1
        expected = ("ParseError", f"non-integer entry in '2 0 x' (line {line})", line)
        assert outcome(load_group, path, "cayley") == expected
        assert outcome(load_cayley_text, text, "t", None, True) == expected


def test_load_matrix(tmp_path):
    path = tmp_path / "sl23.mat"
    path.write_text("3 2\n1 1\n0 1\n\n0 -1\n1 0\n")
    g = load_group(path, "matrix")
    assert g.name == "sl23"
    assert g.order == 24


def test_file_groups_pass_validator(tmp_path):
    files = {
        "sl23.mat": ("matrix", "3 2\n1 1\n0 1\n\n0 -1\n1 0\n", 24),
        "gl22.mat": ("matrix", "2 2\n1 1\n0 1\n\n0 1\n1 0\n", 6),
        "d5c3.perm": ("permutations", "(0 1 2 3 4)\n(1 4)(2 3)\n(5 6 7)\n", 30),
    }
    for filename, (fmt, text, order) in files.items():
        path = tmp_path / filename
        path.write_text(text)
        group = load_group(path, fmt)
        assert group.order == order
        validate_group(group)


def test_load_matrix_malformed(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("3 2\n1 1\n")
    with pytest.raises(ParseError):
        load_group(path, "matrix")


def test_load_unknown_format(tmp_path):
    path = tmp_path / "x"
    path.write_text("")
    with pytest.raises(ParseError):
        load_group(path, "gap")
