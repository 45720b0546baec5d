import pytest

from groupcover import (
    classify_fa,
    classify_nfa,
    parse_presentation,
    rho_annihilated_checks,
)
from groupcover.abelian import abelian_weight, max_elementary_rank
from groupcover.classify import (
    _AB_DECIDED_HINTS,
    FA,
    HINTS,
    NOT_FA,
    UNKNOWN,
    Verdict,
    _check_hint,
    _coprime_torsion_pair,
)
from groupcover.errors import InvalidHint
from groupcover.presentation import Presentation, abelian_invariants
from tests.conftest import K235_TEXT


def pres(text):
    return parse_presentation(text)


# ---------------------------------------------------------------------------
# classify_fa

def test_free_abelian_rank_two_is_easily_fa():
    verdict = classify_fa(pres("< a, b | [a,b] >"))
    assert verdict.status == FA
    assert verdict.easily_fa
    assert verdict.rule == "elementary-rank-2"


def test_coprime_pair_not_fa():
    verdict = classify_fa(pres("< x, y | x^2, y^3 >"))
    assert verdict.status == NOT_FA
    assert verdict.rule == "coprime-torsion-pair"


def test_coprime_pair_accepts_negative_exponents():
    assert classify_fa(pres("< x, y | x^-2, y^3 >")).status == NOT_FA


def test_non_coprime_pair_is_easily_fa():
    # gcd(2, 4) != 1, so no coprime rule; but the abelianisation C2 x C4
    # is non-cyclic, which already decides FA
    verdict = classify_fa(pres("< x, y | x^2, y^4 >"))
    assert verdict.status == FA
    assert verdict.easily_fa


def test_extra_relator_defeats_syntactic_coprime_match():
    # trivial abelianisation but three relators: not the syntactic pattern
    assert classify_fa(pres("< x, y | x^2, y^3, (x y)^7 >")).status == UNKNOWN


def test_k235_unknown(k235):
    verdict = classify_fa(k235)
    assert verdict.status == UNKNOWN
    assert not verdict.easily_fa
    assert verdict.rule == "cyclic-abelianisation-inconclusive"


def test_higman_unknown_without_hint(higman):
    assert classify_fa(higman).status == UNKNOWN


def test_trivial_presentation_not_fa():
    assert classify_fa(pres("< | >")).status == NOT_FA
    assert classify_fa(pres("< | >")).rule == "trivial-group"


def test_hints_decide_cyclic_abelianisation():
    cyclic = pres("< a | a^6 >")
    for hint in ("free", "abelian", "solvable", "finite",
                 "finitely-many-finite-simple-quotients"):
        verdict = classify_fa(cyclic, hint)
        assert verdict.status == NOT_FA, hint
    assert classify_fa(cyclic).status == UNKNOWN


def test_simple_hint():
    # a standard two-generator presentation of the order-60 simple group
    verdict = classify_fa(pres("< a, b | a^2, b^3, (a b)^5 >"), "simple")
    assert verdict.status == NOT_FA
    assert verdict.rule == "hint-simple"


def test_two_generator_coprime_hint():
    # not a syntactic match (extra relator), but the caller asserts the class
    p = pres("< x, y | x^2, y^3, (x y)^7 >")
    assert classify_fa(p).status == UNKNOWN
    assert classify_fa(p, "two-generator-coprime-torsion").status == NOT_FA


def test_hint_never_justifies_fa():
    # rank-2 quotient wins even with a (necessarily wrong) hint
    klein = pres("< a, b | a^2, b^2, [a,b] >")
    for hint in HINTS:
        assert classify_fa(klein, hint).status == FA


def test_invalid_hint():
    with pytest.raises(InvalidHint):
        classify_fa(pres("< a | >"), "nilpotent")


def test_fa_never_comes_from_hint_alone():
    # with cyclic abelianisation, no hint can ever produce a positive verdict
    cyclic = pres("< a | a^6 >")
    for hint in HINTS:
        assert classify_fa(cyclic, hint).status != FA
        assert classify_nfa(cyclic, 2, hint).status != FA


# ---------------------------------------------------------------------------
# classify_nfa

def test_nfa_rank_three():
    p = pres("< a, b, c | [a,b], [a,c], [b,c], a^2, b^2, c^2 >")
    assert classify_nfa(p, 2).status == FA


def test_nfa_klein_with_abelian_hint():
    p = pres("< a, b | [a,b], a^2, b^2 >")
    assert classify_nfa(p, 2, "abelian").status == NOT_FA
    assert classify_nfa(p, 2).status == UNKNOWN


def test_nfa_monotone_verdicts():
    fixtures = [
        (pres("< a, b, c | [a,b], [a,c], [b,c], a^2, b^2, c^2 >"), None),
        (pres("< a, b | [a,b] >"), None),
        (pres("< a | a^6 >"), "abelian"),
        (pres("< x, y | x^2, y^3 >"), None),
    ]
    for p, hint in fixtures:
        statuses = [classify_nfa(p, n, hint).status for n in (1, 2, 3, 4)]
        # once FA stops, it never comes back
        seen_non_fa = False
        for status in statuses:
            if status != FA:
                seen_non_fa = True
            else:
                assert not seen_non_fa


def test_nfa_rejects_bad_n(k235):
    with pytest.raises(ValueError):
        classify_nfa(k235, 0)


def test_nfa_coprime_not_nfa_for_all_n():
    p = pres("< x, y | x^2, y^3 >")
    for n in (1, 2, 3):
        assert classify_nfa(p, n).status == NOT_FA


# ---------------------------------------------------------------------------
# rho-annihilation checks

def test_rho_free_abelian_rank2():
    checks = rho_annihilated_checks(pres("< a, b | [a,b] >"))
    assert checks.abelian_annihilated.status == FA
    assert checks.free_annihilated_including_z.status == FA


def test_rho_mixed_rank():
    checks = rho_annihilated_checks(pres("< a, b | [a,b], a^2 >"))
    assert checks.abelian_annihilated.status == FA  # (r=1, [2]) non-cyclic
    assert checks.free_annihilated_including_z.status == NOT_FA  # rank 1


def test_rho_higman_both_negative(higman):
    checks = rho_annihilated_checks(higman)
    assert checks.abelian_annihilated.status == NOT_FA
    assert checks.free_annihilated_including_z.status == NOT_FA


def test_rho_never_unknown(k235, hnn):
    for p in (k235, hnn, pres("< | >"), pres("< a, b | >")):
        checks = rho_annihilated_checks(p)
        assert checks.abelian_annihilated.status in (FA, NOT_FA)
        assert checks.free_annihilated_including_z.status in (FA, NOT_FA)


# ---------------------------------------------------------------------------
# referee: the separate F-A and n-F-A ladders that classify_nfa folds into one
# (n = 1 being F-A), kept as they were to pin every rule and reason string

def referee_classify_fa(pres: Presentation, hint: str | None = None) -> Verdict:
    """Decide finite annihilation where possible; hints only ever justify a
    NotFA verdict, never an FA one."""
    _check_hint(hint)
    inv = abelian_invariants(pres)
    _, rank = max_elementary_rank(inv)
    easily = rank >= 2
    if easily:
        return Verdict(
            FA,
            "elementary-rank-2",
            "the abelianisation surjects onto C_p x C_p, and any finitely "
            "generated group with such a quotient is finitely annihilated",
            easily_fa=True,
        )
    if pres.is_trivial_presentation:
        return Verdict(
            NOT_FA,
            "trivial-group",
            "the trivial group is not finitely annihilated by convention",
        )
    if hint == "simple":
        return Verdict(
            NOT_FA,
            "hint-simple",
            "a nontrivial simple group has no proper nontrivial normal "
            "subgroup, so no element of it is finitely annihilated "
            "(trusted hint)",
        )
    if hint in _AB_DECIDED_HINTS:
        return Verdict(
            NOT_FA,
            f"hint-{hint}",
            f"within the {hint} class, finite annihilation is equivalent to "
            "a non-cyclic abelianisation, and this abelianisation is cyclic "
            "(trusted hint)",
        )
    if _coprime_torsion_pair(pres):
        return Verdict(
            NOT_FA,
            "coprime-torsion-pair",
            "a free product of two cyclic groups of coprime orders is the "
            "normal closure of one element, hence not finitely annihilated",
        )
    if hint == "two-generator-coprime-torsion":
        return Verdict(
            NOT_FA,
            "hint-two-generator-coprime-torsion",
            "a two-generator group whose generators are torsion of coprime "
            "orders is a quotient of a weight-one free product, hence not "
            "finitely annihilated (trusted hint)",
        )
    return Verdict(
        UNKNOWN,
        "cyclic-abelianisation-inconclusive",
        "cyclic abelianisation alone is inconclusive: free products of "
        "three cyclic groups of distinct prime orders are finitely "
        "annihilated yet have cyclic abelianisation",
    )


def referee_classify_nfa(pres: Presentation, n: int, hint: str | None = None) -> Verdict:
    """n-F-A analogue; n = 1 coincides with classify_fa by definition."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n == 1:
        return referee_classify_fa(pres, hint)
    _check_hint(hint)
    inv = abelian_invariants(pres)
    _, rank = max_elementary_rank(inv)
    easily = rank >= 2
    if rank >= n + 1:
        return Verdict(
            FA,
            f"elementary-rank-{n + 1}",
            f"the abelianisation surjects onto a rank-{n + 1} elementary "
            "p-group, which makes any finitely generated group "
            f"{n}-finitely-annihilated",
            easily_fa=easily,
        )
    if pres.is_trivial_presentation:
        return Verdict(
            NOT_FA,
            "trivial-group",
            "the trivial group is not n-finitely-annihilated by convention",
            easily_fa=easily,
        )
    if hint in _AB_DECIDED_HINTS:
        return Verdict(
            NOT_FA,
            f"hint-{hint}",
            f"within the {hint} class, being {n}-finitely-annihilated is "
            f"equivalent to an abelianisation of weight >= {n + 1}, and this "
            f"abelianisation has weight {abelian_weight(inv)} (trusted hint)",
            easily_fa=easily,
        )
    if _coprime_torsion_pair(pres) or hint == "two-generator-coprime-torsion":
        return Verdict(
            NOT_FA,
            "coprime-torsion-not-fa",
            "the group is not finitely annihilated (coprime torsion "
            "generators), so it cannot be n-finitely-annihilated for any n",
            easily_fa=easily,
        )
    return Verdict(
        UNKNOWN,
        "cyclic-abelianisation-inconclusive",
        "the abelianisation criterion is only known to decide this inside "
        "the trusted hint classes",
        easily_fa=easily,
    )


GRID_PRESENTATIONS = (
    "< | >",
    "< a, b | a^2, b^2, [a,b] >",
    "< a, b | [a,b] >",
    "< x, y | x^2, y^3 >",
    "< x, y | x^-2, y^3 >",
    "< x, y | x^2, y^4 >",
    K235_TEXT,
    "< x, y | x^2, y^3, (x y)^7 >",
    "< a | a^6 >",
    "< a | >",
    "< a, b, c | a^2, b^2, c^2, [a,b], [a,c], [b,c] >",
    "< a, b, c | [a,b], [a,c], [b,c] >",
    "< a, b | a^2, b^3, (a b)^5 >",
)


def test_folded_ladder_matches_referee():
    compared = 0
    for text in GRID_PRESENTATIONS:
        p = pres(text)
        for hint in (None, *HINTS):
            assert classify_fa(p, hint) == referee_classify_fa(p, hint), (text, hint)
            # n = 1 is F-A itself
            assert classify_nfa(p, 1, hint) == classify_fa(p, hint), (text, hint)
            compared += 1
            for n in (1, 2, 3, 4):
                expected = referee_classify_nfa(p, n, hint)
                assert classify_nfa(p, n, hint) == expected, (text, hint, n)
                compared += 1
    assert compared == 520
