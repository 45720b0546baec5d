"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  for the per-criterion lines.
"""

import random
import time

from groupcover import (
    abelian_invariants,
    abelian_invariants_finite,
    abelianisation,
    classify_fa,
    derived_subgroup,
    direct_product,
    fa_scan,
    find_annihilator,
    is_fa_finite,
    is_nfa_finite,
    max_elementary_rank,
    normal_subgroups,
    parse_presentation,
    quotient,
    weight_bruteforce,
)
from groupcover.snf import mat_det, smith_diagonal_reference, smith_normal_form
from groupcover.witness import evaluate_word
from groupcover.words import EMPTY_WORD, exponent_vector, reduced_words
from tests.conftest import HIGMAN_TEXT, HNN_TEXT, K235_TEXT
from tests.test_covering import members, referee_fa_witness
from tests.test_snf import determinantal_divisor_diagonal, mat_mul
from tests.test_witness import CROSS_FIXTURES, assert_json_matches


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion}: {detail}"


def ab_factors(group):
    return abelian_invariants_finite(abelianisation(group)).factors


def test_criterion_1_finite_classification_exactness(catalog):
    start = time.monotonic()
    mismatches = [
        g.name
        for g in catalog
        if is_fa_finite(g).verdict != (len(ab_factors(g)) >= 2)
    ]
    elapsed = time.monotonic() - start
    ok = len(catalog) >= 50 and not mismatches and elapsed < 120
    report(
        "1 finite classification exactness",
        ok,
        f"{len(catalog)} groups, {len(mismatches)} mismatches, {elapsed:.1f}s",
    )


def test_criterion_2_rank2_criterion_both_directions(catalog):
    mismatches = []
    subcover_failures = []
    for g in catalog:
        fa = is_fa_finite(g)
        inv = abelian_invariants_finite(abelianisation(g))
        rank2 = max_elementary_rank(inv)[1] >= 2
        if fa.verdict != rank2:
            mismatches.append(g.name)
        if fa.verdict:
            covered = set()
            for m in fa.subcover:
                covered |= members(m)
            if covered != set(range(g.order)):
                subcover_failures.append(g.name)
    ok = not mismatches and not subcover_failures
    report(
        "2 rank-2 elementary quotient criterion",
        ok,
        f"{len(mismatches)} mismatches, {len(subcover_failures)} bad subcovers",
    )


def test_criterion_3_nfa_generalisation(catalog):
    small = [g for g in catalog if g.order <= 32]
    mismatches = []
    monotone_failures = []
    for g in small:
        weight_ab = len(ab_factors(g))
        verdicts = {}
        for n in (1, 2, 3):
            verdicts[n] = is_nfa_finite(g, n).verdict
            if verdicts[n] != (weight_ab >= n + 1):
                mismatches.append((g.name, n))
        if (verdicts[3] and not verdicts[2]) or (verdicts[2] and not verdicts[1]):
            monotone_failures.append(g.name)
    ok = not mismatches and not monotone_failures
    report(
        "3 n-F-A generalisation",
        ok,
        f"{len(small)} groups x n in 1..3, {len(mismatches)} mismatches",
    )


def test_criterion_4_weight_theorem(catalog):
    chosen = [g for g in catalog if g.order <= 24 or g.name == "SL(2,5)"]
    mismatches = []
    for g in chosen:
        w = weight_bruteforce(g)
        wab = len(ab_factors(g))
        if wab >= 2:
            if w != wab:
                mismatches.append(g.name)
        elif w > 1:
            mismatches.append(g.name)
    sl25 = next(g for g in catalog if g.name == "SL(2,5)")
    perfect = len(derived_subgroup(sl25)) == sl25.order
    sl_ok = perfect and weight_bruteforce(sl25) == 1
    ok = not mismatches and sl_ok
    report(
        "4 weight theorem",
        ok,
        f"{len(chosen)} groups, {len(mismatches)} mismatches, SL(2,5) perfect "
        f"weight-1: {sl_ok}",
    )


def test_criterion_5_closure_theorems(catalog):
    fa_flags = {g.name: is_fa_finite(g).verdict for g in catalog}
    product_pairs = []
    for a in catalog:
        if not fa_flags[a.name]:
            continue
        for g in catalog:
            if a.order * g.order <= 64:
                product_pairs.append((a, g))
            if len(product_pairs) == 20:
                break
        if len(product_pairs) == 20:
            break
    assert len(product_pairs) == 20
    product_failures = [
        (a.name, g.name)
        for a, g in product_pairs
        if not is_fa_finite(direct_product(a, g)).verdict
    ]

    quotient_pairs = []
    for g in catalog:
        if g.order > 32:
            continue
        for nsub in normal_subgroups(g):
            q = quotient(g, nsub)
            if q.order > 1 and is_fa_finite(q).verdict:
                quotient_pairs.append((g, nsub))
            if len(quotient_pairs) == 20:
                break
        if len(quotient_pairs) == 20:
            break
    assert len(quotient_pairs) == 20
    quotient_failures = [
        g.name for g, _ in quotient_pairs if not is_fa_finite(g).verdict
    ]
    ok = not product_failures and not quotient_failures
    report(
        "5 closure theorems",
        ok,
        f"20 product pairs ({len(product_failures)} failures), "
        f"20 quotient pairs ({len(quotient_failures)} failures)",
    )


def test_criterion_6_presentation_pipeline_fixtures():
    failures = []

    k235 = parse_presentation(K235_TEXT)
    inv = abelian_invariants(k235)
    verdict = classify_fa(k235)
    if (inv.free_rank, inv.factors) != (0, (30,)):
        failures.append(f"three-primes invariants {inv}")
    if verdict.status != "Unknown" or verdict.easily_fa:
        failures.append(f"three-primes verdict {verdict.status}")

    higman = parse_presentation(HIGMAN_TEXT)
    inv = abelian_invariants(higman)
    if not inv.is_trivial:
        failures.append(f"higman invariants {inv}")
    if find_annihilator(higman, EMPTY_WORD, 30) is not None:
        failures.append("higman has a small quotient")

    hnn = parse_presentation(HNN_TEXT)
    inv = abelian_invariants(hnn)
    if (inv.free_rank, inv.factors) != (1, ()):
        failures.append(f"hnn invariants {inv}")

    coprime = parse_presentation("< x, y | x^2, y^3 >")
    verdict = classify_fa(coprime)
    if verdict.status != "NotFA" or verdict.rule != "coprime-torsion-pair":
        failures.append(f"coprime verdict {verdict.status} [{verdict.rule}]")

    report("6 presentation pipeline fixtures", not failures, "; ".join(failures))


def test_criterion_7_witness_completeness_three_primes():
    k235 = parse_presentation(K235_TEXT)
    scan = fa_scan(k235, 6, 5)
    assert_json_matches(scan)
    expected_total = 1 + sum(6 * 5 ** (k - 1) for k in range(1, 7))
    failures = []
    checked = 0
    for entry in scan.entries:
        ex, ey, ez = exponent_vector(entry.word, 3)
        if ex % 2 == 0:
            expected = "C2"
        elif ey % 3 == 0:
            expected = "C3"
        elif ez % 5 == 0:
            expected = "C5"
        else:
            continue
        checked += 1
        if entry.status != "witnessed" or entry.target_name != expected:
            failures.append((entry.word, entry.status, entry.target_name))
    ok = len(scan.entries) == expected_total and checked > 0 and not failures
    report(
        "7 witness completeness (2,3,5 family)",
        ok,
        f"{checked} congruent words of {len(scan.entries)}, "
        f"{len(failures)} unwitnessed/mistargeted",
    )


def test_criterion_8_snf_oracle_equivalence():
    rng = random.Random(20260810)
    failures = 0
    cases = 0
    for i in range(10_000):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        result = smith_normal_form(a)
        cases += 1
        diag = list(result.diagonal)
        if diag != smith_diagonal_reference(a):
            failures += 1
            continue
        u = [list(r) for r in result.u]
        v = [list(r) for r in result.v]
        if mat_mul(mat_mul(u, a), v) != [list(r) for r in result.d]:
            failures += 1
            continue
        if abs(mat_det(u)) != 1 or abs(mat_det(v)) != 1:
            failures += 1
            continue
        if i < 1500 and diag != determinantal_divisor_diagonal(a):
            failures += 1
    report(
        "8 SNF oracle equivalence",
        failures == 0 and cases == 10_000,
        f"{cases} cases, {failures} failures",
    )


def test_criterion_9_cross_engine_agreement():
    mismatches = []
    for text, maker, images in CROSS_FIXTURES:
        pres = parse_presentation(text)
        group = maker()
        if abelian_invariants(pres) != abelian_invariants_finite(
            abelianisation(group)
        ):
            mismatches.append((text, "invariants"))
        element_words = {}
        for word in reduced_words(pres.ngens, 6):
            g = evaluate_word(group, images, word)
            element_words.setdefault(g, word)
            if len(element_words) == group.order:
                break
        if len(element_words) != group.order:
            mismatches.append((text, "coverage"))
            continue
        for g, word in sorted(element_words.items()):
            finite_side = referee_fa_witness(group, g)
            pres_side = find_annihilator(pres, word, group.order)
            if (finite_side is None) != (pres_side is None):
                mismatches.append((text, g))
    report(
        "9 cross-engine agreement",
        not mismatches,
        f"fixtures: {len(CROSS_FIXTURES)}, mismatches: {len(mismatches)}",
    )
