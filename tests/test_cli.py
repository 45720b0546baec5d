import itertools
import json
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import groupcover
from groupcover import abelian, covering, fingroup, presentation, witness
from groupcover.cli import build_arg_parser, main
from groupcover.presentation import parse_presentation
from groupcover.words import render_word
from tests.conftest import HIGMAN_TEXT, K235_TEXT
from tests.test_snf import dense_matrix
from tests.test_witness import REFEREE_PRESENTATIONS, referee_entries, referee_fa_scan


@pytest.fixture()
def k235_file(tmp_path):
    path = tmp_path / "k235.pres"
    path.write_text(K235_TEXT + "\n")
    return str(path)


@pytest.fixture()
def higman_file(tmp_path):
    path = tmp_path / "higman.pres"
    path.write_text(HIGMAN_TEXT + "\n")
    return str(path)


@pytest.fixture()
def klein_file(tmp_path):
    path = tmp_path / "klein.pres"
    path.write_text("< a, b | a^2, b^2, [a,b] >\n")
    return str(path)


def run_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# analyze

def test_analyze_klein(capsys, klein_file):
    code, payload = run_json(capsys, "analyze", klein_file)
    assert code == 0
    assert payload["verdict"] == "FA"
    assert payload["easily_fa"] is True
    assert payload["invariants"] == {"free_rank": 0, "factors": [2, 2]}


def test_analyze_k235(capsys, k235_file):
    code, payload = run_json(capsys, "analyze", k235_file)
    assert code == 0
    assert payload["verdict"] == "Unknown"
    assert payload["easily_fa"] is False
    assert payload["invariants"] == {"free_rank": 0, "factors": [30]}


class _TooSlow(Exception):
    pass


@pytest.mark.parametrize(
    "argv", [("analyze", "--nfa", "2"), ("scan", "--bound", "4")], ids=" ".join
)
def test_classification_does_not_factor(capsys, monkeypatch, klein_file, argv):
    # the elementary rank the verdicts need is the abelianisation weight
    def refuse(n):
        raise _TooSlow("classification factored an invariant factor")

    monkeypatch.setattr(abelian, "prime_factors", refuse)
    assert main([argv[0], klein_file, *argv[1:]]) == 0


def test_analyze_huge_cyclic_abelianisation(capsys, tmp_path):
    path = tmp_path / "big.pres"
    path.write_text("< a | a^1000000000000000003 >\n")

    def stop(signum, frame):
        raise _TooSlow("analyze ran past 5 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(5)
    try:
        code, payload = run_json(capsys, "analyze", str(path), "--nfa", "2")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    assert payload["invariants"] == {"free_rank": 0, "factors": [10**18 + 3]}


def dense_presentation(path, seed, relators, generators):
    """A presentation whose exponent matrix is dense_matrix(seed, ...)."""
    names = [f"x{i}" for i in range(generators)]
    rows = dense_matrix(seed, relators, generators)
    text = ", ".join(" ".join(f"{g}^{e}" for g, e in zip(names, row) if e) for row in rows)
    path.write_text(f"< {', '.join(names)} | {text} >\n")
    return str(path)


def test_analyze_dense_presentation(capsys, tmp_path):
    # 13 dense relators over 11 generators: the SNF stays fast only if it
    # runs each row and column to completion against the pivot
    path = dense_presentation(tmp_path / "dense.pres", 13, 13, 11)
    assert run_within(1, ["analyze", path, "--nfa", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["invariants"] == {"free_rank": 0, "factors": [2]}


def test_analyze_snf_budget_exit_3(capsys, tmp_path):
    path = dense_presentation(tmp_path / "dense.pres", 0, 60, 40)
    assert run_within(5, ["analyze", path]) == 3
    err = capsys.readouterr().err
    assert "cap exceeded: Smith normal form of a 60x40 matrix wrote a " in err
    assert "Traceback" not in err


def test_analyze_higman(capsys, higman_file):
    code, payload = run_json(capsys, "analyze", higman_file)
    assert code == 0
    assert payload["verdict"] == "Unknown"
    assert payload["perfect"] is True
    assert payload["rho"]["abelian_A"]["verdict"] == "NotFA"
    assert payload["rho"]["free_A_including_Z"]["verdict"] == "NotFA"


def test_analyze_with_hint(capsys, tmp_path):
    path = tmp_path / "c6.pres"
    path.write_text("< a | a^6 >\n")
    code, payload = run_json(capsys, "analyze", str(path), "--hint", "abelian")
    assert code == 0
    assert payload["verdict"] == "NotFA"


def abelian_type_presentation(path, k):
    """Powers of k generators, every commutator [x_i, x_j] and two mixed
    relators: k(k-1)/2 zero rows among k(k+1)/2 + 2."""
    names = [f"x{i}" for i in range(k)]
    rels = [f"{g}^{2 + i % 5}" for i, g in enumerate(names)]
    rels += [f"[{g}, {h}]" for i, g in enumerate(names) for h in names[i + 1:]]
    rels += [" ".join(f"{g}^{(3 * i + s) % 7 - 3 or 1}" for i, g in enumerate(names))
             for s in (1, 2)]
    path.write_text(f"< {', '.join(names)} | {', '.join(rels)} >\n")
    return str(path)


def snf_rows_of_analyze(monkeypatch, argv):
    """Run `analyze` and return the matrices it handed the SNF engine."""
    calls = []
    smith = presentation.smith_normal_form
    monkeypatch.setattr(
        presentation, "smith_normal_form", lambda rows: calls.append(rows) or smith(rows)
    )
    presentation.abelian_invariants.cache_clear()
    assert main(["analyze", *argv]) == 0
    return calls


def assert_distinct_nonzero(rows, max_rows):
    assert len(set(map(tuple, rows))) == len(rows) <= max_rows
    assert all(any(row) for row in rows)


def test_analyze_computes_snf_once(capsys, monkeypatch, klein_file):
    calls = snf_rows_of_analyze(monkeypatch, [klein_file, "--nfa", "2"])
    assert len(calls) == 1
    assert_distinct_nonzero(calls[0], 2)  # [a, b]'s row is zero


def test_analyze_snf_sees_spanning_rows_only(capsys, monkeypatch, tmp_path):
    # 16 powers, 120 commutators and 2 mixed relators: at most 18 rows
    path = abelian_type_presentation(tmp_path / "ab16.pres", 16)
    calls = snf_rows_of_analyze(monkeypatch, [path])
    assert len(calls) == 1
    assert_distinct_nonzero(calls[0], 18)


def test_analyze_parse_error_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.pres"
    path.write_text("< a | a^ >\n")
    assert main(["analyze", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_analyze_missing_file_exit_4(capsys, tmp_path):
    assert main(["analyze", str(tmp_path / "nope.pres")]) == 4


def test_text_and_json_agree(capsys, k235_file):
    code, payload = run_json(capsys, "analyze", k235_file)
    assert code == 0
    assert main(["analyze", k235_file]) == 0
    text = capsys.readouterr().out
    assert payload["verdict"] in text


# ---------------------------------------------------------------------------
# finite

def test_finite_c15(capsys):
    code, payload = run_json(capsys, "finite", "C 15")
    assert code == 0
    report = payload["reports"][0]
    assert report["verdict"] is False
    assert report["uncovered"] == [1]


def test_finite_q8_verify(capsys):
    code, payload = run_json(capsys, "finite", "Q8", "--verify", "--weight")
    assert code == 0
    kinds = payload["reports"]
    assert kinds[1] == {"group": "Q8", "weight": 2}
    assert kinds[2]["passed"] is True


def test_finite_s5_weight(capsys):
    code, payload = run_json(capsys, "finite", "S 5", "--weight", "--caps", "normal=128")
    assert code == 0
    assert {"group": "S5", "weight": 1} in payload["reports"]


@pytest.mark.parametrize(
    "flags", [("--verify", "--weight"), ("--verify",), ("--weight",)], ids=" ".join
)
def test_finite_searches_the_weight_once(capsys, monkeypatch, flags):
    searched = []
    search = fingroup._weight_search

    def counted(group, cap):
        searched.append(group.name)
        return search(group, cap)

    monkeypatch.setattr(fingroup, "_weight_search", counted)
    code, payload = run_json(capsys, "finite", "Q8", *flags)
    assert code == 0
    # --weight reads G^ab; only the harness searches, as the referee
    assert searched == (["Q8"] if "--verify" in flags else [])
    if "--weight" in flags:
        assert {"group": "Q8", "weight": 2} in payload["reports"]
    if "--verify" in flags:
        assert payload["reports"][-1]["details"]["weight"] == "2"


def test_finite_nfa(capsys):
    code, payload = run_json(capsys, "finite", "E 2 3", "--nfa", "2")
    assert code == 0
    assert payload["reports"][1]["property"] == "2-F-A"
    assert payload["reports"][1]["verdict"] is True


def test_finite_e2_6_weight_and_nfa_5(capsys):
    # n-F-A holds exactly when the weight exceeds n
    code, payload = run_json(capsys, "finite", "E 2 6", "--nfa", "5", "--weight")
    assert code == 0
    _, nfa, weight = payload["reports"]
    assert (nfa["property"], nfa["verdict"]) == ("5-F-A", True)
    assert weight == {"group": "E2^6", "weight": 6}
    code, payload = run_json(capsys, "finite", "E 2 6", "--nfa", "6")
    assert payload["reports"][1]["uncovered"] == [1, 2, 4, 8, 16, 32]


def test_verify_all_nfa_max_within_normal_cap(capsys):
    # n-F-A is decided on subsets of size min(n, |G|), and |G| <= the normal cap
    assert main(["verify-all", "--max-order", "4", "--nfa-max", "8", "--caps", "normal=8"]) == 0
    capsys.readouterr()
    assert main(["verify-all", "--max-order", "4", "--nfa-max", "9", "--caps", "normal=8"]) == 2
    assert capsys.readouterr().err == "parse error: --nfa-max 9 exceeds the normal cap 8\n"


def test_finite_cap_exit_3(capsys):
    assert main(["finite", "C 40", "--caps", "normal=16"]) == 3


def test_finite_weight_budget_exit_3(capsys, monkeypatch):
    # F-A spends 8 AND products, within the budget; the harness's weight
    # search, with a budget of its own, runs out on level 2.  --weight alone
    # reads G^ab and searches nothing
    monkeypatch.setattr(fingroup, "DEFAULT_SEARCH_BUDGET", 20)
    assert main(["finite", "E 2 3", "--weight", "--verify"]) == 3
    assert capsys.readouterr().err == (
        "cap exceeded: weight search of E2^3 reached 11 intersections and spent 14 AND "
        "products; 7 more would pass the budget of 20\n"
    )
    code, payload = run_json(capsys, "finite", "E 2 3", "--weight")
    assert code == 0
    assert payload["reports"][-1] == {"group": "E2^3", "weight": 3}


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(("finite", "E 2 3", "--nfa", "2"),
                     "2-F-A check of E2^3 reached 11 intersections and spent 16 AND products; "
                     "8 more", id="finite E 2 3 --nfa 2"),
        pytest.param(("verify-all", "--max-order", "8", "--nfa-max", "2"),
                     "weight search of E2^3 reached 11 intersections and spent 14 AND products; "
                     "7 more", id="verify-all --max-order 8 --nfa-max 2"),
    ],
)
def test_covering_budget_exit_3(capsys, monkeypatch, argv, message):
    # one budget of AND products bounds the intersection search behind F-A,
    # n-F-A and the weight; verify-all reads its n-F-A verdicts off the
    # weight search, so that is where it stops
    monkeypatch.setattr(fingroup, "DEFAULT_SEARCH_BUDGET", 20)
    assert main(list(argv)) == 3
    err = capsys.readouterr().err
    assert f"cap exceeded: {message} would pass the budget of 20" in err
    assert "Traceback" not in err


def test_covering_budget_keeps_early_answer(capsys):
    # C(120, 5) subsets pass the budget, but an uncovered one comes first
    code, payload = run_json(capsys, "finite", "S 5", "--nfa", "5")
    assert code == 0
    assert payload["reports"][1]["verdict"] is False


@pytest.mark.parametrize(
    "argv, module, budget, message",
    [
        # A5xC2 is not solvable, so `finite` reads it off the lattice, which
        # runs on its 10 classes (A5's 5 times C2's 2) and spends 91 steps:
        # each of its 4 normal subgroups visits the 4 class closures {e},
        # C2, A5 and G (16 visits); C2.A5 tests A5's 5 classes and, for each
        # of the 4 outside C2, builds the classes its coset rep(a)C2 meets
        # (8 products); A5.C2 tests C2's 2 classes and builds the classes of
        # the one coset of A5 (60 products); every other join N.B has N
        # inside B and is free: 16 + 5 + 8 + 2 + 60 = 91.  The budget is
        # checked after each subgroup, so the last one pops
        pytest.param(
            ("finite", "prod(A 5, C 2)"), fingroup, 90,
            "normal-subgroup lattice of A5xC2 found 4 subgroups and spent 91 closure visits, "
            "coset products and class tests, past the budget of 90",
            id="finite prod(A 5, C 2)",
        ),
        # verify-all referees each solvable group's hyperplanes with its
        # kernels onto C_p.  E2^3 walks 8 elements x 3 generators (24 edge
        # checks) and reads its 7 kernels onto C2 off the tree, 8 steps
        # each (56): 80 steps.  Every other group of order <= 8 spends at
        # most 40 (C2xC4, D4, Q8: 8 x 2 + 3 x 8)
        pytest.param(
            ("verify-all", "--max-order", "8"), covering, 79,
            "prime-index kernels of E2^3 spent 24 edge checks and kernel steps; the 7 kernels "
            "of index 2 would spend 56 more, past the budget of 79",
            id="verify-all --max-order 8",
        ),
    ],
)
def test_lattice_budget_exit_3(capsys, monkeypatch, argv, module, budget, message):
    monkeypatch.setattr(module, "LATTICE_BUDGET", budget)
    assert main(list(argv)) == 3
    err = capsys.readouterr().err
    assert err == f"cap exceeded: {message}\n"
    monkeypatch.setattr(module, "LATTICE_BUDGET", budget + 1)
    assert main(list(argv)) == 0


def test_hyperplane_budget_exit_3(capsys, monkeypatch):
    # E2^10 is solvable: 1023 hyperplanes of 512 cosets of {e} and 512
    # members each, refused before any is built
    monkeypatch.setattr(fingroup, "LATTICE_BUDGET", 10**6)
    assert main(["finite", "E 2 10", "--caps", "order=1024", "normal=1024"]) == 3
    err = capsys.readouterr().err
    assert (
        "cap exceeded: maximal normal subgroups of E2^10 built 0 hyperplanes of G/G'G^p and "
        "spent 0 coset unions and memberships; the 1023 of index 2 would spend 1047552 more, "
        "past the budget of 1000000"
    ) in err
    assert "Traceback" not in err


def test_finite_e2_8_past_the_lattice(capsys):
    # the lattice of E2^8 stops at its budget; the hyperplanes of G^ab do not
    code, payload = run_json(
        capsys, "finite", "E 2 8", "--nfa", "2", "--caps", "order=256", "normal=256"
    )
    assert code == 0
    assert [r["verdict"] for r in payload["reports"]] == [True, True]
    assert len(payload["reports"][0]["cover"]) == 255


def test_finite_e2_8_weight_reads_the_abelianisation(capsys):
    # the brute-force weight search of E2^8 passes its budget after about
    # 16 s; G^ab has 8 invariant factors
    code = run_within(2, ["finite", "E 2 8", "--weight", "--format", "json",
                          "--caps", "order=256", "normal=256"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reports"][-1] == {"group": "E2^8", "weight": 8}


def test_finite_trivial_verify(capsys):
    code, payload = run_json(capsys, "finite", "C 1", "--verify", "--weight", "--nfa", "2")
    assert code == 0
    assert payload["reports"][-1]["passed"] is True


# spec -> the group the cap refuses by its closed-form order
CAP_REFUSED = {
    "CxC 2 3000": "C3000",
    "E 3001 2": "C3001",
    "E 3000 2": "C3000",
    "D 1000000": "D1000000",
    "S 1000000": "S1000000",
    "A 3000000": "A3000000",
    "SL 1000000000000000003": "SL(2,1000000000000000003)",
    "E 1000000000000000003 2": "C1000000000000000003",
}


@pytest.mark.parametrize("spec", CAP_REFUSED)
def test_finite_cyclic_factor_cap_exit_3(capsys, spec):
    # the cap refuses the group before a table or permutation is built or
    # a primality test is run
    tracemalloc.start()
    try:
        code = main(["finite", spec])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert f"cap exceeded: {CAP_REFUSED[spec]} exceeds cap 1024" in capsys.readouterr().err
    assert peak < 16 * 2**20


@pytest.fixture(scope="module")
def c1100_cayley(tmp_path_factory):
    """The cyclic group of order 1100 as a Cayley file, 4.8 MB."""
    n = 1100
    path = tmp_path_factory.mktemp("cayley") / "c1100.cayley"
    path.write_text(f"{n}\n" + "".join(
        " ".join(map(str, [*range(i, n), *range(i)])) + "\n" for i in range(n)
    ))
    return path


@pytest.mark.parametrize("command", [
    ["finite", "{}", "--from", "cayley"],
    ["verify-all", "--max-order", "0", "--include", "{}", "--from", "cayley"],
], ids=["finite", "verify-all"])
def test_cayley_header_past_the_cap_exit_3(capsys, c1100_cayley, command):
    # the header alone refuses the table, before the rest of the file is
    # read; reading and splitting the whole file would cost about twice its
    # size, parsing and validating the rows many times more
    argv = [arg.format(c1100_cayley) for arg in command]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert capsys.readouterr().err == "cap exceeded: Cayley table order 1100 exceeds cap 1024\n"
    assert peak < c1100_cayley.stat().st_size / 10


def run_within(seconds, argv):
    """main(argv), failing the test if it runs past `seconds`."""

    def stop(signum, frame):
        raise _TooSlow(f"{' '.join(argv)} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_finite_matrix_file_with_huge_prime_header(capsys, tmp_path):
    # the header's p is tested for primality without trial division; the
    # generator has order p, so the closure passes the order cap
    path = tmp_path / "huge.matrix"
    path.write_text("1000000000000000003 2\n1 1\n0 1\n")
    assert run_within(5, ["finite", str(path), "--from", "matrix"]) == 3
    assert "cap exceeded: closure exceeds cap" in capsys.readouterr().err


def test_finite_matrix_file_past_exact_primality(capsys, tmp_path):
    path = tmp_path / "past.matrix"
    path.write_text(f"{abelian.MILLER_RABIN_EXACT_BELOW} 2\n1 1\n0 1\n")
    assert run_within(5, ["finite", str(path), "--from", "matrix"]) == 3
    assert "cap exceeded: primality of" in capsys.readouterr().err


def test_finite_long_cycle_stops_at_construction_budget(capsys, tmp_path):
    # each product of one 200 000-point cycle costs 200 000 operations, so
    # the budget stops the closure long before the order cap of 1024
    path = tmp_path / "cycle.perm"
    path.write_text("(" + " ".join(map(str, range(200_000))) + ")\n")
    assert run_within(1, ["finite", str(path), "--from", "permutations"]) == 3
    err = capsys.readouterr().err
    assert "cap exceeded: construction spent 4000000 operations" in err
    assert "past the construction budget of 4194304" in err


def test_finite_large_cyclic_table_stops_at_construction_budget(capsys):
    # the order cap admits C 3000, but its table holds 9 * 10^6 entries
    argv = ["finite", "C 3000", "--caps", "order=5000", "normal=1"]
    assert run_within(0.5, argv) == 3
    err = capsys.readouterr().err
    assert "construction spent 0 operations, and the next cyclic table would spend 9000000" in err
    assert "past the construction budget of 4194304" in err


def test_finite_large_product_table_stops_at_construction_budget(capsys):
    argv = ["finite", "CxC 40 60", "--caps", "order=5000", "normal=1"]
    assert run_within(0.5, argv) == 3
    assert "next product table would spend 5760000 more" in capsys.readouterr().err


@pytest.fixture()
def tables_built(monkeypatch):
    """The names of the groups whose n^2 table is built from here on."""
    built = []
    build = fingroup.FiniteGroup.__getattr__

    def spy(group, name):
        if name == "table":
            built.append(group.name)
        return build(group, name)

    monkeypatch.setattr(fingroup.FiniteGroup, "__getattr__", spy)
    return built


def test_plain_finite_builds_no_table(capsys, tables_built, tmp_path):
    # F-A and --weight read G^ab and the maximal normal subgroups off rows
    # and columns built along each group's tree, never off its n^2 table
    path = tmp_path / "d85.perm"
    reflection = "".join(f"({i} {85 - i})" for i in range(1, 43))
    path.write_text("(" + " ".join(map(str, range(85))) + ")\n" + reflection + "\n")
    caps = ["--caps", "order=1024", "normal=1024"]
    for argv in (["S 6"], ["prod(S 5, E 2 2)"], ["D 95"], [str(path), "--from", "permutations"]):
        assert main(["finite", *argv, *caps]) == 0
        assert main(["finite", *argv, *caps, "--weight"]) == 0
    assert tables_built == []
    out = capsys.readouterr().out
    # only the product has a noncyclic abelianisation, C2 x C2 x C2
    assert out.count("F-A: true") == 2
    assert out.count("weight: 1\n") == 3 and out.count("weight: 3\n") == 1


def test_finite_s7_answers_without_its_table(capsys):
    # S7's table would hold 5040^2 entries; its frame holds two columns
    assert run_within(10, ["finite", "S 7", "--caps", "order=6000", "normal=6000"]) == 0
    assert capsys.readouterr().out == "group: S7 (order 5040)\nF-A: false (uncovered: [1])\n"


def test_finite_s7_weight_answers_without_its_table(capsys, tables_built):
    # G^ab = C2 is read off the rows of the two coset representatives of A7
    argv = ["finite", "S 7", "--weight", "--caps", "order=6000", "normal=6000"]
    assert run_within(10, argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "weight: 1"
    assert tables_built == []


@pytest.mark.parametrize(
    "text, message",
    [
        ("(5 7)(5 9)\n", "point 5 lies in two cycles of '(5 7)(5 9)' (line 1)"),
        ("(0 1)\n(1 2)(2 3)\n", "point 2 lies in two cycles of '(1 2)(2 3)' (line 2)"),
    ],
)
def test_finite_permutation_cycles_sharing_a_point_exit_2(capsys, tmp_path, text, message):
    path = tmp_path / "shared.perm"
    path.write_text(text)
    assert main(["finite", str(path), "--from", "permutations"]) == 2
    assert capsys.readouterr().err == f"parse error: {message}\n"


def test_finite_large_matrix_stops_at_construction_budget(capsys, tmp_path):
    # a 100 x 100 permutation matrix over F_2 has order 100, but each
    # product (and the determinant) costs 10^6 multiply-adds
    rows = [" ".join("1" if j == (i + 1) % 100 else "0" for j in range(100)) for i in range(100)]
    path = tmp_path / "cycle.matrix"
    path.write_text("2 100\n" + "\n".join(rows) + "\n")
    assert run_within(1, ["finite", str(path), "--from", "matrix"]) == 3
    err = capsys.readouterr().err
    assert "cap exceeded: construction spent 4000000 operations" in err
    assert "past the construction budget of 4194304" in err


def test_finite_deep_left_nested_prod_is_linear(capsys):
    spec = "C 1"
    for _ in range(3000):
        spec = f"prod({spec}, C 1)"
    assert run_within(0.5, ["finite", spec]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_finite_trivial_factors_cost_nothing(capsys):
    # each level used to rebuild and revalidate the 720 x 720 table of S6
    spec = "S 6"
    for _ in range(600):
        spec = f"prod(C 1, {spec})"
    assert run_within(5, ["finite", spec, "--format", "json"]) == 3
    assert "cap exceeded: |G| = 720 exceeds normal-subgroup cap 128" in capsys.readouterr().err


def test_finite_from_file(capsys, tmp_path):
    path = tmp_path / "v4.cayley"
    rows = [[i ^ j for j in range(4)] for i in range(4)]
    path.write_text("4\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    code, payload = run_json(capsys, "finite", str(path), "--from", "cayley")
    assert code == 0
    assert payload["order"] == 4
    assert payload["reports"][0]["verdict"] is True


# ---------------------------------------------------------------------------
# witness

def test_witness_k235_x(capsys, k235_file):
    code, payload = run_json(capsys, "witness", k235_file, "x", "--bound", "5")
    assert code == 0
    assert payload["witness"]["target"] == {"name": "C3", "order": 3}


def test_witness_higman_none(capsys, higman_file):
    code, payload = run_json(capsys, "witness", higman_file, "a", "--bound", "30")
    assert code == 0
    assert payload["witness"] is None
    assert main(["witness", higman_file, "a", "--bound", "30"]) == 0
    assert "none <= 30" in capsys.readouterr().out


def test_witness_free_group_word(capsys, tmp_path):
    path = tmp_path / "free2.pres"
    path.write_text("< a, b | >\n")
    code, payload = run_json(capsys, "witness", str(path), "a", "--bound", "4")
    assert code == 0
    assert payload["witness"]["target"]["name"] == "C2"
    assert payload["witness"]["images"] == {"a": 0, "b": 1}


# ---------------------------------------------------------------------------
# scan

def test_scan_k235(capsys, k235_file):
    code, payload = run_json(
        capsys, "scan", k235_file, "--max-length", "1", "--bound", "5"
    )
    assert code == 0
    assert len(payload["words"]) == 7
    assert all(w["status"] == "witnessed" for w in payload["words"])


SCAN_JSON_CASES = [
    pytest.param(K235_TEXT, 3, 6, id="k235-3-6"),
    pytest.param(K235_TEXT, 4, 5, id="k235-4-5"),
    pytest.param("< x, y, z | x^7, y^11, z^13 >", 4, 13, id="k7_11_13-4-13"),
    *(
        pytest.param(text, length, bound, id=f"referee{i}-{length}-{bound}")
        for i, text in enumerate(REFEREE_PRESENTATIONS)
        for length, bound in itertools.product((0, 1, 3), (1, 2, 6, 24))
    ),
]


@pytest.mark.parametrize("text, length, bound", SCAN_JSON_CASES)
def test_scan_json_bytes(capsys, tmp_path, text, length, bound):
    # the streamed document, one length at a time, against the referee's
    # whole `as_dict` through `json.dumps`
    path = tmp_path / "g.pres"
    path.write_text(text + "\n")
    argv = ["scan", str(path), "--max-length", str(length), "--bound", str(bound), "--format", "json"]
    assert main(argv) == 0
    report = referee_fa_scan(parse_presentation(text), length, bound)
    assert capsys.readouterr().out == json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"


def test_scan_long_words_do_not_recurse(capsys, tmp_path):
    # 3000 letters deep: a recursive walk of the word tree would pass the
    # recursion limit
    path = tmp_path / "c2.pres"
    path.write_text("< a | a^2 >\n")
    assert main(["scan", str(path), "--max-length", "3000", "--bound", "2", "--format", "json"]) == 0
    report = referee_fa_scan(parse_presentation("< a | a^2 >"), 3000, 2)
    assert capsys.readouterr().out == json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "text, length, bound",
    [("< a | a^6 >", 3, 2), ("< a, b | a^2, b^2, [a, b] >", 2, 1), ("< | >", 10**12, 2)],
)
def test_scan_text_lists_the_unwitnessed_words(capsys, tmp_path, text, length, bound):
    # the counts, then each word that no target kills with its status; with
    # no generators the empty word is the only word at any length
    path = tmp_path / "g.pres"
    path.write_text(text + "\n")
    assert run_within(1, ["scan", str(path), "--max-length", str(length), "--bound", str(bound)]) == 0
    p = parse_presentation(text)
    entries = referee_entries(p, min(length, 3), bound)
    other = [e for e in entries if e.status != "witnessed"]
    assert capsys.readouterr().out.splitlines() == [
        f"scanned {len(entries)} words of length <= {length} against targets of order <= {bound}",
        f"witnessed: {len(entries) - len(other)}, other: {len(other)}",
        *(f"  {render_word(e.word, p.generators)}: {e.status}" for e in other),
    ]


def test_scan_word_budget_exit_3(capsys, tmp_path):
    # 1 + 2 (3^25 - 1) words: refused from the closed-form count before
    # the walk (it used to end in a MemoryError traceback)
    path = tmp_path / "f2.pres"
    path.write_text("< a, b | >\n")
    assert run_within(1, ["scan", str(path), "--max-length", "25", "--bound", "2"]) == 3
    err = capsys.readouterr().err
    assert "cap exceeded: a scan to length 25 passes the budget of " in err
    assert "Traceback" not in err


def test_scan_json_budget_hit_after_a_length_exit_3(capsys, tmp_path, monkeypatch):
    # < w | w^15 > (used by no other test, so no surjection list is cached)
    # maps onto C3, which kills the empty word, and not onto C2 or C4; at a
    # budget of 4 assignments the search onto C5, which the word w first
    # needs, is refused after length 0 is written
    text = "< w | w^15 >"
    full = json.dumps(referee_fa_scan(parse_presentation(text), 2, 5).as_dict(), indent=2,
                      sort_keys=True)
    path = tmp_path / "c15.pres"
    path.write_text(text + "\n")
    monkeypatch.setattr(witness, "DEFAULT_SEARCH_BUDGET", 4)
    argv = ["scan", str(path), "--max-length", "2", "--bound", "5", "--format", "json"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert err == "cap exceeded: assignment space 5^1 exceeds budget 4\n"
    assert out == full[: full.index('"word": "1"') + len('"word": "1')]


# ---------------------------------------------------------------------------
# verify-all

def test_verify_all_small(capsys):
    code, payload = run_json(capsys, "verify-all", "--max-order", "12",
                             "--nfa-max", "2")
    assert code == 0
    assert payload["mismatches"] == []
    assert payload["groups_checked"] > 20


def test_verify_all_trivial_only(capsys):
    code, payload = run_json(capsys, "verify-all", "--max-order", "1")
    assert code == 0
    assert payload["groups_checked"] == 1


def test_verify_all_custom_catalog(capsys, tmp_path):
    spec = tmp_path / "cat.spec"
    spec.write_text("# tiny catalog\nC 6\nCxC 2 2\nQ8\n")
    code, payload = run_json(capsys, "verify-all", "--catalog", str(spec))
    assert code == 0
    assert payload["groups_checked"] == 3


def test_verify_all_skips_catalog_entries_past_max_order_unbuilt(capsys, tmp_path):
    # each entry passes --max-order 12 by its closed-form order, so none of
    # the five tables (1024, 1024, 1024, 1024 and 336 elements) is built
    spec = tmp_path / "big.spec"
    spec.write_text("C 1024\nD 512\nE 2 10\nCxC 32 32\nSL 7\n")
    argv = ["verify-all", "--catalog", str(spec), "--max-order", "12", "--caps", "order=1024"]
    assert run_within(0.1, argv) == 0
    assert capsys.readouterr().out == "0 groups checked, 0 with mismatches\n"


@pytest.mark.parametrize("text, code, message", [
    ("C 4\nC 1024\nC 1024\n", 2, "parse error: duplicate catalog entry 'C 1024'"),
    ("C 4\nE 4 2\n", 2, "parse error: bad parameters for E (4, 2): 4 is not prime"),
    ("SL 8\n", 2, "parse error: bad parameters for SL (8,): 8 is not prime"),
    ("C 12\n", 3, "cap exceeded: |G| = 12 exceeds normal-subgroup cap 8"),
])
def test_verify_all_refuses_skipped_catalog_entries_that_are_invalid(capsys, tmp_path, text,
                                                                    code, message):
    # repeated and invalid entries are refused even past --max-order, and an
    # entry within it still meets the caps
    spec = tmp_path / "bad.spec"
    spec.write_text(text)
    assert main(["verify-all", "--catalog", str(spec), "--max-order", "12",
                 "--caps", "order=1024", "normal=8", "--nfa-max", "2"]) == code
    assert capsys.readouterr().err == message + "\n"


def test_verify_all_cap_hit_exit_3(capsys):
    # a cap hit decides nothing, so it is not a theorem mismatch (exit 1)
    code = main(["verify-all", "--max-order", "12", "--caps", "normal=8"])
    err = capsys.readouterr().err
    assert code == 3
    assert "cap exceeded" in err
    assert "mismatch" not in err
    assert "Traceback" not in err


def test_verify_all_corrupted_table_fails(capsys, tmp_path):
    from tests.test_fingroup import nonassociative_loop

    loop = nonassociative_loop()
    path = tmp_path / "loop.cayley"
    path.write_text("5\n" + "\n".join(" ".join(map(str, r)) for r in loop) + "\n")
    code = main(
        [
            "verify-all",
            "--max-order",
            "4",
            "--include",
            str(path),
            "--from",
            "cayley",
            "--no-validate",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "loop" in captured.err
    assert "group_axioms" in captured.err
    # no theorem is checked on a table that is not a group
    argv = ["verify-all", "--max-order", "0", "--include", str(path), "--from", "cayley",
            "--no-validate"]
    code, payload = run_json(capsys, *argv)
    assert code == 1
    [loop_report] = payload["reports"]
    assert loop_report["checks"] == {"group_axioms": False}
    assert loop_report["details"]["group_axioms"].startswith("NotAGroup('associativity fails")


@pytest.mark.parametrize("text, line", [("#2\n0\n", 2), ("-1\n", 1), ("0\n0\n", 1)])
@pytest.mark.parametrize("validate", [True, False], ids=["validated", "no-validate"])
def test_cayley_header_below_one_exit_2(capsys, tmp_path, text, line, validate):
    path = tmp_path / "empty.cayley"
    path.write_text(text)
    if validate:
        argv = ["finite", str(path), "--from", "cayley"]
    else:
        argv = ["verify-all", "--max-order", "0", "--include", str(path), "--from", "cayley",
                "--no-validate"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    header = text.split("\n")[line - 1]
    assert err == f"parse error: the order must be at least 1, got {header} (line {line})\n"


def test_config_file_provides_format(capsys, tmp_path, k235_file):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"format": "json"}))
    code = main(["analyze", k235_file, "--config", str(conf)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "Unknown"


def test_flag_beats_config_file(capsys, tmp_path, k235_file):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"format": "json"}))
    code = main(["analyze", k235_file, "--config", str(conf), "--format", "text"])
    assert code == 0
    out = capsys.readouterr().out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_caps_from_config_file(capsys, tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"caps": {"normal": 16}}))
    assert main(["finite", "C 20", "--config", str(conf)]) == 3
    # explicit flag overrides the config value
    assert main(["finite", "C 20", "--config", str(conf), "--caps", "normal=64"]) == 0


# ---------------------------------------------------------------------------
# bad input ends in exit 2, never in a traceback

BAD_INPUT_ARGV = [
    ("finite", "C 4", "--config", "{bad_json}"),
    ("finite", "C 4", "--caps", "order=0"),
    ("finite", "C 4", "--config", "{zero_cap}"),
    ("finite", "C 4", "--caps", "weight=64"),
    ("finite", "C 4", "--caps", "normall=8"),
    ("finite", "C 4", "--config", "{weight_cap}"),
    ("finite", "C 4", "--config", "{misspelt_cap}"),
    ("finite", "C 4", "--config", "{float_cap}"),
    ("finite", "C 4", "--config", "{misspelt_key}"),
    ("finite", "C 4", "--config", "{bad_format}"),
    ("finite", "C 4", "--nfa", "0"),
    ("finite", "C 4", "--nfa", "-1"),
    ("analyze", "{klein}", "--nfa", "0"),
    ("finite", "C 0"),
    ("finite", "E 2 0"),
    ("finite", "E 4 2"),
    ("finite", "D 2"),
    ("finite", "S 1"),
    ("finite", "A 2"),
    ("witness", "{klein}", "(a b)^1000000000", "--bound", "4"),
    ("analyze", "{non_utf8}"),
    ("witness", "{non_utf8}", "a", "--bound", "4"),
    ("scan", "{non_utf8}", "--bound", "4"),
    ("finite", "{non_utf8}", "--from", "cayley"),
    ("finite", "{non_utf8}", "--from", "permutations"),
    ("finite", "{non_utf8}", "--from", "matrix"),
    ("verify-all", "--catalog", "{non_utf8}"),
    ("analyze", "{deep_parens}"),
    ("analyze", "{deep_commutators}"),
    ("finite", "{deep_prod}"),
    ("scan", "{klein}", "--max-length", "-1", "--bound", "4"),
    ("verify-all", "--max-order", "-1"),
    ("verify-all", "--nfa-max", "-1"),
    ("verify-all", "--nfa-max", "129"),
    ("verify-all", "--nfa-max", "1000000000"),
    ("finite", "{matrix_no_block}", "--from", "matrix"),
]


@pytest.mark.parametrize("argv", BAD_INPUT_ARGV, ids=" ".join)
def test_bad_input_exit_2(capsys, tmp_path, klein_file, argv):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"format": ')
    zero_cap = tmp_path / "zero_cap.json"
    zero_cap.write_text(json.dumps({"caps": {"normal": 0}}))
    configs = {
        "weight_cap": {"caps": {"weight": 64}},
        "misspelt_cap": {"caps": {"normall": 8}},
        "float_cap": {"caps": {"normal": 8.5}},
        "misspelt_key": {"caps": {"normal": 8}, "formatt": "json"},
        "bad_format": {"format": "yaml"},
    }
    for name, conf in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(conf))
    non_utf8 = tmp_path / "non_utf8.txt"
    non_utf8.write_bytes(b"\xff\xfe< a | a^2 >\n")
    # nesting 3000 deep passes the recursion limit of either parser
    deep_parens = tmp_path / "deep_parens.pres"
    deep_parens.write_text("< a | " + "(" * 3000 + "a" + ")" * 3000 + " >\n")
    deep_commutators = tmp_path / "deep_commutators.pres"
    deep_commutators.write_text("< a, b | " + "[a," * 3000 + "b" + "]" * 3000 + " >\n")
    deep_prod = "C 1"
    for _ in range(3000):
        deep_prod = f"prod(C 1, {deep_prod})"
    matrix_no_block = tmp_path / "no_block.matrix"
    matrix_no_block.write_text("2 100000\n")
    inputs = {
        "matrix_no_block": matrix_no_block,
        "bad_json": bad_json,
        "zero_cap": zero_cap,
        "klein": klein_file,
        "non_utf8": non_utf8,
        "deep_parens": deep_parens,
        "deep_commutators": deep_commutators,
        "deep_prod": deep_prod,
        **{name: tmp_path / f"{name}.json" for name in configs},
    }
    try:
        code = main([arg.format(**inputs) for arg in argv])
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["witness", "{k235}", "x", "--bound", "-3"],
    ["scan", "{k235}", "--bound", "-3"],
])
def test_negative_bound_exit_2(capsys, k235_file, argv):
    # --bound is checked like --max-length, so no "none <= -3" with exit 0
    code, out, err = _in_process(capsys, [arg.format(k235=k235_file) for arg in argv])
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --bound: must be at least 0, got -3\n")


# ---------------------------------------------------------------------------
# one parser per process

def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _fresh_process(argv):
    src = Path(groupcover.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "groupcover", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def test_main_calls_in_a_row_match_fresh_processes(capsys, klein_file):
    # the parser is built once and reused; each call must still see only
    # its own arguments, including after a usage error
    calls = [
        ["finite", "S 3", "--weight", "--format", "json"],
        ["analyze", klein_file, "--nfa", "2"],
        ["finite", "C 6", "--nfa", "0"],  # usage error, exit 2
        ["witness", klein_file, "a", "--bound", "4", "--format", "json"],
        ["finite", "C 6"],
    ]
    in_row = [_in_process(capsys, argv) for argv in calls]
    assert [code for code, _, _ in in_row] == [0, 0, 2, 0, 0]
    assert in_row == [_fresh_process(argv) for argv in calls]
    assert build_arg_parser() is build_arg_parser()
