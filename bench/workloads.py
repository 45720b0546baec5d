"""Seeded op lists for the four benchmark workloads.

Every op is one ``groupcover`` command line plus the expectation its output
is checked against.  The expectations come from closed forms and from the
construction of the inputs, never from the code under test (see checks.py).

Each workload has a fixed mix of costs: strata of inputs whose costs were
measured to lie in a narrow band, with a fixed count per stratum.  The seed
varies what leaves the cost alone: isomorphic spellings of factors, element
and point labels of group files, generator names, exponent lifts, the
triangle groups, torsion orders and relators drawn per stratum, and the
order in which the inputs run.  Drawing
the groups themselves from wide pools moved the median op time by a third
between seeds, more than any bound allows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0
WORKLOADS = ("finite-lattice", "finite-large", "fp-witness", "fp-scan")

# ---------------------------------------------------------------------------
# Isomorphic spellings of catalog groups.  A seed picks one per factor: the
# element numbering, the tables and the outputs change with the seed while
# the group, and so the cost, stays.
ALIASES = {
    "E 2 2": ("E 2 2", "CxC 2 2", "prod(C 2, C 2)"),
    "E 2 3": ("E 2 3", "prod(C 2, E 2 2)", "prod(CxC 2 2, C 2)"),
    "E 3 2": ("E 3 2", "CxC 3 3", "prod(C 3, C 3)"),
    "C 6": ("C 6", "CxC 2 3", "prod(C 2, C 3)"),
    "CxC 2 4": ("CxC 2 4", "prod(C 2, C 4)"),
    "CxC 2 6": ("CxC 2 6", "prod(C 2, C 6)", "prod(E 2 2, C 3)"),
    "S 3": ("S 3", "D 3", "SL 2"),
}

# finite-lattice: `finite <spec> --verify --weight --nfa 2` per group, in
# three cost bands measured at the seed commit (2 cores, Python 3.11).
LATTICE_HEAVY = (  # 0.22 - 0.35 s each: large lattices and weight searches
    ("E 3 2", "E 3 2"), ("CxC 2 6", "Q8"), ("E 2 5",),
)
LATTICE_MID = (  # 0.065 - 0.125 s each
    ("C 6", "E 3 2"), ("A 4", "E 2 3"), ("D 6", "E 2 2"), ("E 2 3", "S 3"),
    ("C 8", "CxC 2 4"), ("D 4", "D 4"), ("A 4", "E 3 2"), ("CxC 2 2", "CxC 2 6"),
    ("Q8", "Q8"), ("D 4", "Q8"),
)
LATTICE_LIGHT = (  # 0.012 - 0.03 s each
    ("A 4", "S 3"), ("C 6", "E 2 2"), ("C 5", "D 4"), ("C 4", "CxC 2 4"),
    ("C 3", "SL 3"), ("E 2 2", "E 2 2"), ("C 5", "C 8"), ("C 2", "S 4"),
    ("E 3 2", "E 2 2"), ("C 2", "E 2 3"), ("C 4", "Q8"), ("A 4", "E 2 2"),
    ("C 6", "C 6"), ("C 8", "S 3"), ("C 4", "D 4"), ("C 5", "E 3 2"),
    ("E 2 4",), ("C 2", "SL 3"), ("D 4", "E 3 2"), ("A 4", "C 5"),
    ("C 4", "S 4"), ("S 3", "Q8"), ("A 4", "Q8"), ("C 5", "E 2 3"),
    ("E 2 2", "Q8"),
)

# finite-large (F-A only, caps order=1024 normal=1024).  The three groups of
# order 120 differ tenfold in cost, so each is paired twice with each
# partner.
LARGE_FIXED = ("S 6", "A 6", "SL 7")
LARGE_BIG = ("S 5", "A 5", "SL 5")
LARGE_PARTNERS = ("C 2", "C 3", "E 2 2")  # products of order 240, 360, 480

# The cost of a dihedral or abelian group of order 129-256 follows the
# divisors of its order, so these groups are fixed and the seed relabels the
# elements and points of the files.
LARGE_DIHEDRAL = ("D 95", "D 102")
LARGE_FILES = (  # stem, format, family, family at smoke size
    ("g1", "cayley", ("D", 86), ("D", 67)),
    ("g2", "cayley", ("CxC", 6, 32), ("CxC", 3, 45)),
    ("g3", "permutations", ("D", 85), ("D", 67)),
    ("g4", "permutations", ("CxC", 12, 20), ("CxC", 5, 27)),
)

# fp-witness: hyperbolic triangle groups < x, y | x^l, y^m, (x y)^n >.
TRIANGLES = (
    (2, 3, 8), (2, 4, 5), (2, 3, 9), (3, 3, 4), (2, 5, 5), (2, 4, 6),
    (3, 3, 5), (2, 3, 10), (2, 4, 8), (3, 4, 4),
)
WITNESS_BOUND = 120

SCAN_PRIMES = (2, 3, 5, 7, 11, 13)
NAME_POOL = ("a", "b", "c", "s", "t", "u", "x", "y", "z", "g", "h", "k")


@dataclass
class Op:
    """One CLI call.  ``argv`` may name input files as ``{dir}/name``."""

    argv: list[str]
    check: dict


@dataclass
class Workload:
    ops: list[Op] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)
    bounds: tuple[int, ...] = ()


def build(name: str, seed: int, small: bool = False) -> Workload:
    """The op list of one workload for one seed; ``small`` gives the smoke
    size used by the benchmark's own tests."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    work = Workload()
    builder = {
        "finite-lattice": _finite_lattice,
        "finite-large": _finite_large,
        "fp-witness": _fp_witness,
        "fp-scan": _fp_scan,
    }[name]
    # ops on one input stay in order (the first witness op on a presentation
    # pays for its surjection search); the inputs run in a seeded order after
    # any ops the builder put first
    groups = builder(work, rng, small)
    rng.shuffle(groups)
    work.ops += [op for group in groups for op in group]
    return work


def _spec(factors, rng=None) -> str:
    """A spelling of the product of the given catalog groups, drawn from
    ALIASES when an rng is given.  The factor order stays as given: swapping
    it renumbers the elements and moves the cost of the lattice search by up
    to a third."""
    spelled = [rng.choice(ALIASES.get(f, (f,))) if rng else f for f in factors]
    if len(spelled) == 1:
        return spelled[0]
    return f"prod({spelled[0]}, {spelled[1]})"


# ---------------------------------------------------------------------------
# finite-lattice


def _finite_lattice(work, rng, small):
    max_order, nfa_max = (12, 2) if small else (120, 3)
    big = "E 2 3" if small else "E 2 6"
    # The two heaviest ops run first, in a fixed order: the heap fragments
    # that earlier ops leave behind add up to a MiB to their peak RSS.
    work.ops = [
        Op(["verify-all", "--max-order", str(max_order), "--nfa-max", str(nfa_max),
            "--format", "json"],
           {"kind": "verify-all", "max_order": max_order}),
        # E2^6 has 2825 normal subgroups: the maximality-filter case.  Its
        # weight alone takes over 20 s, so only F-A and 2-F-A are asked.
        Op(["finite", big, "--nfa", "2", "--format", "json"],
           {"kind": "finite", "spec": big, "nfa": 2}),
    ]
    groups = []
    pools = (LATTICE_MID[:2], LATTICE_LIGHT[:4]) if small else (
        LATTICE_HEAVY, LATTICE_MID, LATTICE_LIGHT)
    for pool in pools:
        for factors in pool:
            spec = _spec(factors, rng)
            groups.append([
                Op(["finite", spec, "--verify", "--weight", "--nfa", "2",
                    "--format", "json"],
                   {"kind": "finite", "spec": spec, "nfa": 2, "weight": True,
                    "verify": True})
            ])
    return groups


# ---------------------------------------------------------------------------
# finite-large

LARGE_CAPS = ["--caps", "order=1024", "normal=1024", "--format", "json"]


def _finite_large(work, rng, small):
    specs = []
    if not small:
        specs += list(LARGE_FIXED)
        specs += list(LARGE_DIHEDRAL)
        specs.append(_spec(("S 5", "S 3")))
    # no aliases here: at order 240-480 the spelling of a partner moves the
    # cost of its product by a tenth, as much as the ops around the tail differ
    for big in LARGE_BIG:
        for partner in LARGE_PARTNERS[:1] if small else LARGE_PARTNERS:
            for _ in range(1 if small else 2):
                specs.append(_spec((big, partner)))
    groups = [
        [Op(["finite", spec, *LARGE_CAPS], {"kind": "finite", "spec": spec})]
        for spec in specs
    ]

    # group files of order 129-256, written during set-up
    for stem, fmt, full, smoke in LARGE_FILES:
        family = smoke if small else full
        text = _FILE_TEXT[fmt, family[0]](*family[1:], rng)
        groups.append(_file_op(work, stem, fmt, text, family))
    return groups


def _file_op(work, stem, fmt, text, family):
    fname = f"{stem}.txt"
    work.files[fname] = text
    return [Op(["finite", "{dir}/" + fname, "--from", fmt, *LARGE_CAPS],
               {"kind": "finite", "family": list(family)})]


def _dihedral_table(n):
    """D_n as r^i s^a -> a*n + i, with (r^i s^a)(r^k s^b) = r^(i +- k) s^(a+b)."""
    return [
        [((a + b) % 2) * n + (i + (k if a == 0 else -k)) % n
         for b in range(2) for k in range(n)]
        for a in range(2) for i in range(n)
    ]


def _cyclic_product_table(m, k):
    order = m * k
    return [
        [((x // k + y // k) % m) * k + (x + y) % k for y in range(order)]
        for x in range(order)
    ]


def _table_text(table, rng):
    """Cayley-table file with elements relabelled at random, identity kept 0."""
    n = len(table)
    new = list(range(1, n))
    rng.shuffle(new)
    new = [0] + new
    old = [0] * n
    for i, x in enumerate(new):
        old[x] = i
    rows = (
        " ".join(str(new[table[old[a]][old[b]]]) for b in range(n)) for a in range(n)
    )
    return f"{n}\n" + "\n".join(rows) + "\n"


def _cycle_text(cycle):
    return "(" + " ".join(map(str, cycle)) + ")"


def _dihedral_perm_text(n, rng):
    """Rotation and reflection of an n-gon on shuffled point labels."""
    label = rng.sample(range(n), n)
    rotation = _cycle_text(label)
    reflection = " ".join(
        _cycle_text([label[i], label[n - i]]) for i in range(1, (n + 1) // 2)
    )
    return f"{rotation}\n{reflection}\n"


def _cycles_perm_text(m, k, rng):
    """C_m x C_k as an m-cycle and a disjoint k-cycle."""
    label = rng.sample(range(m + k), m + k)
    return f"{_cycle_text(label[:m])}\n{_cycle_text(label[m:])}\n"


_FILE_TEXT = {
    ("cayley", "D"): lambda n, rng: _table_text(_dihedral_table(n), rng),
    ("cayley", "CxC"): lambda m, k, rng: _table_text(_cyclic_product_table(m, k), rng),
    ("permutations", "D"): _dihedral_perm_text,
    ("permutations", "CxC"): _cycles_perm_text,
}


# ---------------------------------------------------------------------------
# fp-witness


def _names(rng, count):
    if count <= len(NAME_POOL):
        return rng.sample(NAME_POOL, count)
    return [f"g{i}" for i in rng.sample(range(100), count)]


def _render(syllables, names):
    return " ".join(f"{names[g]}^{e}" for g, e in syllables) or "1"


def _lift(residue, modulus, rng):
    """An exponent just below 10^6 congruent to residue mod modulus, so that
    letter-by-letter re-verification costs the same for every seed."""
    return residue + modulus * rng.randint(990_000 // modulus, 1_000_000 // modulus - 1)


def _presentation(work, names, relators, text_relators, words):
    """Ops on one presentation file: analyze --nfa 2, then each witness word."""
    fname = f"p{len(work.files) + 1}.txt"
    work.files[fname] = f"< {', '.join(names)} | {', '.join(text_relators)} >\n"
    path = "{dir}/" + fname
    ops = [Op(["analyze", path, "--nfa", "2", "--format", "json"],
              {"kind": "analyze", "ngens": len(names), "relators": relators})]
    for word, expect in words:
        ops.append(Op(
            ["witness", path, word, "--bound", str(WITNESS_BOUND), "--format", "json"],
            {"kind": "witness", "bound": WITNESS_BOUND, "expect": expect,
             "ngens": len(names), "relators": relators},
        ))
    return ops


def _fp_witness(work, rng, small):
    work.bounds = (WITNESS_BOUND,)
    groups = []

    # (2,3,7) is perfect and no catalog group of order <= 120 is a quotient
    names = _names(rng, 2)
    rels = [[(0, 2)], [(1, 3)], [(0, 1), (1, 1)] * 7]
    words = [(_render([(0, 1), (1, _lift(rng.randint(1, 2), 3, rng))], names), "none")
             for _ in range(1 if small else 2)]
    groups.append(_presentation(work, names, rels, _triangle_text(names, 2, 3, 7), words))

    # other triangle groups, asked about words that are trivial in them
    for l, m, n in rng.sample(TRIANGLES, 1 if small else 2):
        names = _names(rng, 2)
        rels = [[(0, l)], [(1, m)], [(0, 1), (1, 1)] * n]
        words = [(_render([(0, _lift(0, l, rng)), (1, _lift(0, m, rng))], names),
                  "ab-trivial") for _ in range(2)]
        groups.append(_presentation(work, names, rels, _triangle_text(names, l, m, n),
                                    words))

    # < a, b | a^p, r > with b's exponent sum in r equal to +-1.  Killing a
    # forces b = 1, so no quotient kills a^(1 + k p) and that search is
    # exhaustive (even p costs about five times odd p, hence two strata).
    # G^ab = C_p, so the other words, chosen to vanish in C_p, have witnesses.
    for pool, count in (((2, 4, 6), 1 if small else 2), ((3, 5, 7), 1 if small else 4)):
        for _ in range(count):
            p = rng.choice(pool)
            names = _names(rng, 2)
            rel = _unit_b_relator(rng)
            sa = sum(e for g, e in rel if g == 0)
            sb = sum(e for g, e in rel if g == 1)
            b_small = rng.choice((1, -1)) * rng.randint(1, 5)
            # a^x b^y a^z dies in C_p iff x + z - sb*sa*y = 0 mod p
            first = _lift(rng.randint(0, p - 1), p, rng)
            last = _lift((sb * sa * b_small - first) % p, p, rng)
            words = [
                (_render([(0, _lift(1, p, rng))], names), "none"),
                (_render([(0, _lift(0, p, rng))], names), "ab-trivial"),
                (_render([(1, 1), (0, _lift(0, p, rng)), (1, -1)], names), "ab-trivial"),
                (_render([(0, first), (1, b_small), (0, last)], names), "ab-trivial"),
            ]
            groups.append(_presentation(
                work, names, [[(0, p)], rel], [f"{names[0]}^{p}", _render(rel, names)],
                words,
            ))

    # abelian-type presentations: analyze only, bound by the SNF
    for _ in range(1 if small else 4):
        k = rng.randint(10, 12) if small else rng.randint(12, 16)
        names = _names(rng, k)
        rels, text = [], []
        for g in range(k):
            if rng.random() < 0.7:
                e = rng.choice((2, 3, 4, 5, 6, 8, 9, 12))
                rels.append([(g, e)])
                text.append(f"{names[g]}^{e}")
        for g in range(k):
            for h in range(g + 1, k):
                rels.append([(g, 1), (h, 1), (g, -1), (h, -1)])
                text.append(f"[{names[g]}, {names[h]}]")
        for _ in range(2):
            word = [(g, e) for g in range(k) if (e := rng.randint(-9, 9))]
            rels.append(word)
            text.append(_render(word, names))
        groups.append(_presentation(work, names, rels, text, []))
    return groups


def _triangle_text(names, l, m, n):
    x, y = names
    return [f"{x}^{l}", f"{y}^{m}", f"({x} {y})^{n}"]


def _unit_b_relator(rng):
    while True:
        rel = [(i % 2, rng.choice((1, -1)) * rng.randint(1, 4)) for i in range(4)]
        if abs(sum(e for g, e in rel if g == 1)) == 1:
            return rel


# ---------------------------------------------------------------------------
# fp-scan


def _fp_scan(work, rng, small):
    # every triple of distinct primes <= 13 twice, so that 10 of the 40 ops
    # lie above the p75 tail: each time the seed permutes which generator
    # carries which order and renames the generators
    triples = _prime_triples()
    length = 3 if small else 5
    groups = []
    for primes in (triples[:2] if small else triples * 2):
        primes = rng.sample(primes, 3)
        names = _names(rng, 3)
        fname = f"s{len(work.files) + 1}.txt"
        rels = ", ".join(f"{n}^{p}" for n, p in zip(names, primes))
        work.files[fname] = f"< {', '.join(names)} | {rels} >\n"
        bound = max(primes)
        groups.append([Op(
            ["scan", "{dir}/" + fname, "--max-length", str(length), "--bound",
             str(bound), "--format", "json"],
            {"kind": "scan", "names": names, "orders": primes,
             "max_length": length, "bound": bound},
        )])
    work.bounds = tuple(sorted({op.check["bound"] for g in groups for op in g}))
    return groups


def _prime_triples():
    ps = SCAN_PRIMES
    return [
        (a, b, c)
        for i, a in enumerate(ps)
        for j, b in enumerate(ps[i + 1:], i + 1)
        for c in ps[j + 1:]
    ]
