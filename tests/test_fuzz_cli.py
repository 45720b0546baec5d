"""CLI fuzz gate: random group specs, matrix, permutation and Cayley-table
files, catalog files, config files mixed with `--caps`, scans of and witness
searches over random presentations and analyses of dense ones, valid or
not, with random flags, end in exit 0, 2 or 3 within a few seconds and
never in a traceback; an unvalidated Cayley table in `verify-all` may also
exit 1, failing the group axioms alone.  A `--format json` run that exits 0
prints one JSON document.

The `finite` runs pass `--caps normal=64`.  At the default normal-subgroup
cap of 128 a valid E2^7 takes about 2.2 s to decide (its lattice spends
4.3 * 10^7 coset products), under half the time limit: too little margin on
a loaded machine for slow work on good input, and this gate is about
malformed and huge input.
"""

import contextlib
import io
import json
import math
import re
import signal

import hypothesis.strategies as st
from hypothesis import HealthCheck, example, given, settings

from groupcover.abelian import MILLER_RABIN_EXACT_BELOW
from groupcover.catalog import _FAMILIES
from groupcover.classify import HINTS
from groupcover.cli import main
from groupcover.presentation import parse_presentation
from groupcover.witness import fa_scan

TIME_LIMIT_S = 5
CAPS = ("--caps", "normal=64")


class _TooSlow(Exception):
    pass


def run_cli(argv):
    """(exit code, stdout, stderr) of main(argv), failing past TIME_LIMIT_S."""

    def stop(signum, frame):
        raise _TooSlow(f"{argv!r} ran past {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(TIME_LIMIT_S)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag value
                code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(argv):
    """(exit code, stdout) of a run that ends in exit 0, 2 or 3, and prints
    JSON if it asked for it and exits 0."""
    code, out, err = run_cli(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0 and ("--format", "json") in zip(argv, argv[1:]):
        json.loads(out)
    return code, out


HUGE = st.sampled_from(
    [10**6, 10**9 + 7, 10**18 + 3, 2**61 - 1, MILLER_RABIN_EXACT_BELOW, 10**40]
)
SPACE = st.sampled_from(["", " ", "  ", "\t"])
SMALL = st.integers(1, 8)
PARAM = st.one_of(SMALL, SMALL, SMALL, st.integers(-1, 0), HUGE).map(str)


@st.composite
def leaves(draw):
    """A family entry, usually well formed; sometimes with a wrong family,
    parameter count or parameter."""
    family = draw(st.sampled_from(sorted(_FAMILIES)))
    arity = _FAMILIES[family][0]
    params = draw(st.lists(PARAM, min_size=arity, max_size=arity))
    if draw(st.integers(0, 9)) == 0:
        family = draw(st.sampled_from(["Z", "", "prod", "c"]))
    if draw(st.integers(0, 9)) == 0:
        params = draw(st.lists(PARAM | st.sampled_from(["x", "2.5", "(", ")"]), max_size=3))
    return " ".join([family, *params])


def products(children):
    return st.builds(
        lambda a, left, b, right, c: f"prod{a}({left},{b}{right}{c})",
        SPACE, children, SPACE, children, SPACE,
    )


@st.composite
def deep_nesting(draw):
    spec = draw(leaves())
    left = draw(st.booleans())
    for _ in range(draw(st.integers(0, 4000))):
        spec = f"prod({spec}, C 1)" if left else f"prod(C 1, {spec})"
    return spec


@st.composite
def mangled(draw, texts, alphabet="(),pC "):
    """A text with one character dropped or one from `alphabet` inserted."""
    text = draw(texts)
    i = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:i] + text[i + 1 :]
    return text[:i] + draw(st.sampled_from(alphabet)) + text[i:]


TREES = st.recursive(leaves(), products, max_leaves=5)
SPECS = st.one_of(TREES, deep_nesting(), mangled(TREES))


@st.composite
def finite_flags(draw):
    """An optional `--nfa N`, `--weight`, `--verify` and `--format json`."""
    flags = []
    if draw(st.booleans()):
        flags += ["--nfa", str(draw(st.integers(1, 4)))]
    flags += [flag for flag in ("--weight", "--verify") if draw(st.booleans())]
    if draw(st.booleans()):
        flags += ["--format", "json"]
    return flags


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(SPECS, finite_flags())
@example("A 5", ["--verify", "--format", "json"])
@example("prod(C 1, A 5)", ["--nfa", "2", "--weight", "--verify"])
def test_fuzz_finite_specs(spec, flags):
    # a --verify run that exits 0 has passed every theorem check; A5 is
    # under the normal cap, so its lattice referee is reached
    code, out = assert_clean_exit(["finite", spec, *flags, *CAPS])
    if code == 0 and "--verify" in flags:
        if "json" in flags:
            assert [r["passed"] for r in json.loads(out)["reports"] if "passed" in r] == [True]
        else:
            assert out.endswith("theorem checks: pass\n"), (spec, flags, out)


MATRIX_P = st.one_of(st.sampled_from([2, 3, 5, 7, 1009]), st.integers(-2, 12), HUGE)


@st.composite
def matrix_files(draw):
    """A header `p d` and generator blocks of d rows, usually well formed;
    sometimes with a malformed header, a wrong block shape, a bad entry or
    no block at all."""
    p = draw(MATRIX_P)
    d = draw(st.integers(1, 3))
    header = f"{p} {d}"
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.sampled_from([f"{p}", f"{p} {d} 1", f"{p} x", f"{p} -1", f"{p} 100000"]))
    entry = st.integers(-3, 5).map(str)
    if draw(st.integers(0, 9)) == 0:
        entry = entry | HUGE.map(str) | st.sampled_from(["a", "1.0"])
    lines = [header]
    for _ in range(draw(st.integers(0, 3))):
        rows, cols = d, d
        if draw(st.integers(0, 9)) == 0:
            rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        lines += [" ".join(draw(st.lists(entry, min_size=cols, max_size=cols))) for _ in range(rows)]
        lines.append(draw(st.sampled_from(["", "# block end"])))
    return "\n".join(lines) + "\n"


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(matrix_files())
def test_fuzz_matrix_files(tmp_path, text):
    path = tmp_path / "fuzz.matrix"
    path.write_text(text)
    assert_clean_exit(["finite", str(path), "--from", "matrix", *CAPS])


# point labels: small, relabelled far apart, or huge
LABELS = st.one_of(
    st.just(range(12)),
    st.builds(lambda a, b: range(a, a + 12 * b, b), st.integers(0, 10**6), st.integers(1, 997)),
    st.lists(st.integers(0, 10**40), min_size=12, max_size=12, unique=True),
)


@st.composite
def permutation_files(draw):
    """Up to 3 generators in cycle notation, each disjoint random cycles on
    up to 12 labels (now and then with one more cycle that meets them);
    sometimes one cycle of up to 2 * 10^5 points, which the construction
    budget stops; now and then one character dropped or inserted."""
    labels = list(draw(LABELS))
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        points = draw(st.lists(st.sampled_from(labels), max_size=12, unique=True))
        cuts = sorted(draw(st.lists(st.integers(0, len(points)), max_size=4)))
        cycles = [points[a:b] for a, b in zip([0, *cuts], [*cuts, len(points)]) if a < b]
        if draw(st.integers(0, 9)) == 0:
            cycles.append(draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True)))
        lines.append(" ".join("(" + " ".join(map(str, c)) + ")" for c in cycles))
    if draw(st.integers(0, 9)) == 0:
        lines.append("(" + " ".join(map(str, range(draw(st.integers(2, 2 * 10**5))))) + ")")
    text = "\n".join(lines) + "\n"
    if draw(st.integers(0, 9)) == 0:
        text = draw(mangled(st.just(text), "()-, x#\n0"))
    return text


# spellings of an id x that `int` reads as x: canonical, zero-padded,
# signed, and with an underscore between digits (-0 for 0)
SPELLINGS = (
    str,
    lambda x: f"0{x}",
    lambda x: f"+{x}",
    lambda x: "_".join(str(x)) if x > 9 else f"0_{x}" if x else "-0",
)


@st.composite
def cayley_files(draw):
    """An order-n table, mostly a Latin square: the cyclic group, the cyclic
    Latin square (s i + t j) mod n (a group only when s = t = 1), or a loop
    made from a random row and column shuffle of the cyclic group (usually
    not associative), each relabelled at random, half the time keeping its
    identity at 0; now and then with ids in non-canonical spellings;
    sometimes a wrong header or entry, or one character dropped or
    inserted."""
    n = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["cyclic", "affine", "loop"]))
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    identity = 0
    if kind == "affine":
        s, t = (draw(st.sampled_from([u for u in range(1, n + 1) if math.gcd(u, n) == 1]))
                for _ in range(2))
        table = [[(s * i + t * j) % n for j in range(n)] for i in range(n)]
    elif kind == "loop":
        rows = draw(st.permutations(range(n)))
        cols = draw(st.permutations(range(n)))
        square = [[table[r][c] for c in cols] for r in rows]
        # x.y = square[row starting with x][column headed by y]: a Latin
        # square with identity square[0][0]
        at_row = {square[i][0]: i for i in range(n)}
        at_col = {square[0][j]: j for j in range(n)}
        table = [[square[at_row[x]][at_col[y]] for y in range(n)] for x in range(n)]
        identity = square[0][0]
    label = draw(st.permutations(range(n)))
    if draw(st.booleans()):
        i = label.index(0)
        label[i], label[identity] = label[identity], 0
    back = {x: i for i, x in enumerate(label)}
    spelling, stride = 0, 1
    if draw(st.integers(0, 4)) == 0:
        spelling, stride = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    rows = [
        " ".join(
            SPELLINGS[spelling if (a * n + b) % stride == 0 else 0](label[table[back[a]][back[b]]])
            for b in range(n)
        )
        for a in range(n)
    ]
    header = str(n)
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.sampled_from([str(n + 1), str(n - 1), "x", "", str(10**18)]))
    if draw(st.integers(0, 9)) == 0 and rows:
        rows[-1] += draw(st.sampled_from([" 0", " -1", " a", f" {10**18}"]))
    text = header + "\n" + "\n".join(rows) + "\n"
    if draw(st.integers(0, 9)) == 0:
        text = draw(mangled(st.just(text), " 0123456789-#\n"))
    return text


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(st.one_of(
    st.tuples(st.just("permutations"), permutation_files()),
    st.tuples(st.just("cayley"), cayley_files()),
))
def test_fuzz_group_files(tmp_path, fmt_and_text):
    fmt, text = fmt_and_text
    path = tmp_path / "fuzz.group"
    path.write_text(text)
    assert_clean_exit(["finite", str(path), "--from", fmt, *CAPS])


# A table checked unvalidated is a group, and then passes, or fails the group
# axioms and no other check.  A header past the order cap exits 3 before any
# row is read.  A file that does not read as a table exits 2,
# and so does one no FiniteGroup can hold: an empty table, or a row without
# the identity, which leaves an element with no right inverse.
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(cayley_files())
@example("3\n0 1 2\n1 0 0\n2 2 0\n")
def test_fuzz_verify_all_unvalidated_tables(tmp_path, text):
    path = tmp_path / "f"
    path.write_text(text)
    argv = ["verify-all", "--max-order", "0", "--include", str(path), "--from", "cayley",
            "--no-validate"]
    code, _, err = run_cli(argv)
    assert "Traceback" not in err, (text, err)
    if code == 1:
        assert err == "mismatch: f: group_axioms\n", (text, err)
    elif code == 3:  # a header past the order cap, refused before any row is read
        match = re.fullmatch(r"cap exceeded: Cayley table order (\d+) exceeds cap 1024\n", err)
        assert match and int(match[1]) > 1024, (text, err)
    elif code == 2:
        assert re.fullmatch(
            r"parse error: .*\n|error: (empty table|element \d+ has no right inverse)\n", err
        ), (text, err)
    else:
        assert (code, err) == (0, ""), (text, code, err)


@st.composite
def catalog_files(draw):
    """Up to 5 catalog lines of family entries, comments and blank lines;
    sometimes with one character dropped or inserted."""
    line = leaves() | st.sampled_from(["", "# comment", "C 2 # trailing comment"])
    text = "\n".join(draw(st.lists(line, max_size=5))) + "\n"
    if draw(st.integers(0, 4)) == 0:
        text = draw(mangled(st.just(text), " #\n0-x"))
    return text


# Order at most 12 keeps the harness quick; every entry up to the order cap
# is still built, which the closed-form cap checks keep within the limit.
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(catalog_files(), st.integers(0, 12), st.integers(0, 3), st.sampled_from(["text", "json"]))
def test_fuzz_verify_all_catalog_files(tmp_path, text, max_order, nfa_max, fmt):
    path = tmp_path / "fuzz.catalog"
    path.write_text(text)
    assert_clean_exit(["verify-all", "--catalog", str(path), "--max-order", str(max_order),
                       "--nfa-max", str(nfa_max), "--format", fmt])


CAP_VALUE = st.one_of(
    st.integers(1, 300), st.integers(1, 300), st.integers(-3, 0),
    HUGE, st.integers(-(10**40), -1),
    st.sampled_from(["12", "", True, None, 1.5, math.inf, [64], {"order": 8}]),
)
CAP_KEY = st.sampled_from(["order", "normal", "order", "normal", "depth", ""])
CAPS_ENTRY = st.dictionaries(CAP_KEY, CAP_VALUE, max_size=3)
FORMAT = st.sampled_from(["text", "json", "text", "json", "xml", 1, None, ["json"]])


@st.composite
def config_files(draw):
    """A JSON config of format and caps entries, usually with the right
    types; sometimes with an unknown key, a wrong type, huge or negative
    caps, a top level that is not an object, or one character dropped or
    inserted."""
    conf = {}
    if draw(st.booleans()):
        conf["format"] = draw(FORMAT)
    if draw(st.booleans()):
        conf["caps"] = draw(CAPS_ENTRY | FORMAT) if draw(st.integers(0, 9)) == 0 else draw(CAPS_ENTRY)
    if draw(st.integers(0, 4)) == 0:
        conf[draw(st.sampled_from(["Format", "cap", "order", ""]))] = draw(CAPS_ENTRY | FORMAT)
    if draw(st.integers(0, 9)) == 0:
        conf = draw(st.sampled_from([[conf], "caps", 3, None]))
    text = json.dumps(conf)
    if draw(st.integers(0, 9)) == 0:
        text = draw(mangled(st.just(text), '{}[]":,0-e '))
    return text


CAPS_TOKEN = st.builds(
    lambda key, value: f"{key}={value}",
    CAP_KEY, st.one_of(st.integers(-3, 300), HUGE).map(str) | st.sampled_from(["", "x", "1.5"]),
)
# Small groups only: under a huge order cap a large spec builds its whole
# table, which is slow work on good input, not what this gate is about.
CONFIG_COMMANDS = st.sampled_from([
    ["finite", "C 6", "--nfa", "2"],
    ["finite", "S 4", "--weight"],
    ["verify-all", "--max-order", "4"],
])


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(CONFIG_COMMANDS, config_files(), st.lists(CAPS_TOKEN, max_size=2), st.booleans())
def test_fuzz_config_with_caps(tmp_path, command, text, tokens, with_caps):
    path = tmp_path / "fuzz.json"
    path.write_text(text)
    caps = ["--caps", *tokens] if with_caps else []
    assert_clean_exit([*command, "--config", str(path), *caps])


GENERATORS = tuple("abcdefghijklmn")


@st.composite
def presentations(draw, ngens=st.integers(0, 3)):
    """`ngens` generators, 0-3 by default, and up to 3 short relators of
    powers, commutators and equations; sometimes with one character dropped
    or replaced."""
    gens = GENERATORS[: draw(ngens)]
    power = st.builds(
        lambda g, e: g if e == 1 else f"{g}^{e}",
        st.sampled_from(gens), st.integers(-6, 6).filter(bool),
    )
    word = st.lists(power, min_size=1, max_size=3).map(" ".join)
    relator = st.one_of(
        word,
        st.builds(lambda u, v: f"[{u}, {v}]", word, word),
        st.builds(lambda u, v: f"{u} = {v}", word, word),
        st.builds(lambda u, e: f"({u})^{e}", word, st.integers(-4, 4)),
    )
    relators = draw(st.lists(relator, max_size=3)) if gens else []
    text = f"< {', '.join(gens)} | {', '.join(relators)} >"
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(["", "<", "|", ",", "^", "a"])) + text[i + 1 :]
    return text


# Mostly small lengths; up to 10^4 for one generator, which stays within
# the word budget, and past it for two or three; 10^12 is refused at once,
# or with no generators scans the one empty word.  Bounds stay small: at
# bound 128 a one-generator scan to length 10^4 takes about 0.2 s (in
# process, 2 vCPU), which is slow work on good input, not an unbounded path.
LENGTH = st.one_of(st.integers(0, 6), st.integers(0, 10**4), st.just(10**12))
BOUND = st.one_of(st.integers(1, 12), st.sampled_from([-1, 0, 129, 10**9]))
# no hint, or one of the classes `analyze` and `scan` accept
HINT = st.one_of(st.just([]), st.sampled_from(HINTS).map(lambda hint: ["--hint", hint]))


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(presentations(), LENGTH, BOUND, st.sampled_from(["text", "json"]), HINT)
def test_fuzz_scan(tmp_path, text, length, bound, fmt, hint):
    path = tmp_path / "fuzz.pres"
    path.write_text(text + "\n")
    code, out = assert_clean_exit(["scan", str(path), "--max-length", str(length), "--bound",
                                   str(bound), "--format", fmt, *hint])
    if code == 0 and fmt == "json":
        # the document streamed one length at a time against the collected
        # report's, written in one piece
        report = fa_scan(parse_presentation(text), length, bound, hint[1] if hint else None)
        assert out == "".join(report.json_chunks([(report.texts, report.kills)])) + "\n"


@st.composite
def witness_words(draw, gens):
    """A short word of powers and commutators over the generators, with
    exponents up to 10^6; sometimes with one character dropped or replaced."""
    power = st.builds(
        lambda g, e: f"{g}^{e}",
        st.sampled_from(gens), st.integers(-6, 6) | st.integers(-(10**6), 10**6),
    )
    part = power | st.builds(lambda u, v: f"[{u}, {v}]", power, power)
    text = " ".join(draw(st.lists(part, min_size=1, max_size=4)))
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(["", "[", "^", ",", "z"])) + text[i + 1 :]
    return text


# Presentations on up to all 14 generators, each with a word over its own
# generators (over a when it has none).
WITNESS_CASES = st.integers(0, len(GENERATORS)).flatmap(lambda n: st.tuples(
    presentations(st.just(n)), witness_words(GENERATORS[: max(n, 1)]),
))
# Bounds up to 24, plus a few out of range.  The targets are C_p and A5.
# With k >= 5 generators and at most 3 relators the maps onto C2 form a space
# of dimension at least k - 3 >= 2, so one of them kills the word and the
# search stops at C2, whose 2^k assignments bound the cost.  On 2 vCPU, in
# 2500 examples the slowest took 0.45 s (14 generators, relator i^4), and a
# relator over all 14 generators, read at the last depth, takes 0.25 s; at 16
# generators that case takes 0.9 s.  A search past C2 has at most four
# generators: an exhaustive one to 24 (< a, b, c, d | a = d, b = d, c = d >)
# takes 0.01 s.  All stay under half the time limit.
WITNESS_BOUND = st.one_of(st.integers(1, 24), st.sampled_from([-1, 0, 129, 10**9]))


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(WITNESS_CASES, WITNESS_BOUND, st.sampled_from(["text", "json"]))
def test_fuzz_witness(tmp_path, case, bound, fmt):
    text, word = case
    path = tmp_path / "fuzz.pres"
    path.write_text(text + "\n")
    assert_clean_exit(["witness", str(path), word, "--bound", str(bound), "--format", fmt])


@st.composite
def dense_presentations(draw):
    """1-14 generators and up to 16 relators, each with a single-digit
    exponent on most generators; sometimes with one character dropped or
    replaced."""
    gens = [f"x{i}" for i in range(draw(st.integers(1, 14)))]
    exponent = st.integers(-9, 9) | st.integers(1, 9)
    row = st.lists(exponent, min_size=len(gens), max_size=len(gens))
    count = draw(st.integers(0, 16))
    rows = draw(st.lists(row, min_size=count, max_size=count))
    relators = [" ".join(f"{g}^{e}" for g, e in zip(gens, row) if e) for row in rows]
    text = f"< {', '.join(gens)} | {', '.join(filter(None, relators))} >"
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(["", "<", "|", ",", "^", "x"])) + text[i + 1 :]
    return text


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(dense_presentations(), st.integers(1, 3), HINT)
def test_fuzz_analyze(tmp_path, text, n, hint):
    path = tmp_path / "fuzz.pres"
    path.write_text(text + "\n")
    assert_clean_exit(["analyze", str(path), "--nfa", str(n), *hint])
