import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from groupcover import (
    Presentation,
    abelian_invariants,
    exponent_matrix,
    parse_presentation,
    parse_word_text,
)
from groupcover.errors import (
    EmptyGeneratorList,
    PresentationSyntaxError,
    UnknownGenerator,
)
from groupcover import presentation
from groupcover.abelian import invariants_from_diagonal
from groupcover.snf import smith_diagonal_reference
from groupcover.words import commutator_word, free_reduce, invert_word
from tests.conftest import HIGMAN_TEXT, HNN_TEXT, K235_TEXT


# ---------------------------------------------------------------------------
# parsing

def test_parse_commutator_sugar():
    p = parse_presentation("< a, b | a^2, b^2, [a,b] >")
    assert p.generators == ("a", "b")
    assert len(p.relators) == 3
    assert p.relators[2] == ((0, 1), (1, 1), (0, -1), (1, -1))


def test_parse_k235(k235):
    assert k235.generators == ("x", "y", "z")
    assert k235.relators == (((0, 2),), ((1, 3),), ((2, 5),))


def test_parse_higman(higman):
    assert len(higman.generators) == 4
    assert len(higman.relators) == 4
    # a b a^-1 = b^2  becomes  a b a^-1 b^-2
    assert higman.relators[0] == ((0, 1), (1, 1), (0, -1), (1, -2))


def test_parse_equals_sugar():
    p = parse_presentation("< a, b | a b = b a >")
    assert p.relators == (((0, 1), (1, 1), (0, -1), (1, -1)),)


def test_parse_parenthesised_power():
    p = parse_presentation("< a, b | (a b)^3 >")
    assert p.relators == (((0, 1), (1, 1)) * 3,)
    p = parse_presentation("< a, b | (a b)^-2 >")
    assert p.relators == (((1, -1), (0, -1)) * 2,)
    p = parse_presentation("< a | (a)^0 >")
    assert p.relators == ((),)


def test_parse_one_is_empty_word():
    p = parse_presentation("< a | a^2 = 1 >")
    assert p.relators == (((0, 2),),)


def test_parse_trivial_presentation():
    p = parse_presentation("< | >")
    assert p.generators == ()
    assert p.relators == ()
    assert p.is_trivial_presentation


def test_parse_whitespace_insensitive():
    assert parse_presentation("<a,b|[a,b]>") == parse_presentation(
        "  < a , b |  [ a , b ]  > "
    )


def test_parse_relators_freely_reduced():
    p = parse_presentation("< a, b | a b b^-1 a >")
    assert p.relators == (((0, 2),),)


def test_parse_errors_carry_position():
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation("< a | a^ >")
    assert err.value.position == 9
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("< a | a")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("a | a >")
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("< a | a > junk")


def test_parse_bounds_expansion_before_expanding(monkeypatch):
    # a power far past the limit is rejected before anything is expanded
    with pytest.raises(PresentationSyntaxError, match="exceeds 1000000") as err:
        parse_presentation("< a, b | (a b)^-1000000000 >")
    assert err.value.position == 15
    monkeypatch.setattr(presentation, "MAX_WORD_SYLLABLES", 1000)
    assert len(parse_presentation("< a, b | (a b)^500 >").relators[0]) == 1000
    for text, position in (
        ("< a, b | (a b)^501 >", 15),
        ("< a, b | a (a b)^400 (b a)^400 >", 21),
        ("< a, b | [[[[[[[[[[a, b], b], b], b], b], b], b], b], b], b] >", 10),
    ):
        with pytest.raises(PresentationSyntaxError, match="exceeds 1000") as err:
            parse_presentation(text)
        assert err.value.position == position


@pytest.mark.parametrize(
    "text, char, position",
    [
        ("< a | a ? a >", "?", 8),  # mid-text
        ("< a | a >   ;", ";", 12),  # after trailing whitespace
        ("<\ta,\nb\t|\n\ta\t$b >", "$", 12),  # tab- and newline-separated
        ("< a | a - 2 >", "-", 8),  # a sign with no digit after it
    ],
)
def test_parse_unexpected_character(text, char, position):
    with pytest.raises(PresentationSyntaxError) as err:
        parse_presentation(text)
    assert str(err.value) == f"unexpected character {char!r} (at position {position})"
    assert err.value.position == position


# Relator texts with the expansion they denote, written out here rather
# than by the parser: [u, v] is u v u^-1 v^-1, (w)^k is w k times (w^-1
# for negative k) and u = v is u v^-1.
REFEREE_NAMES = ("a", "b", "c")


def _inverse(expansion):
    return [(g, -e) for g, e in reversed(expansion)]


def _power(expansion, k):
    return (expansion if k >= 0 else _inverse(expansion)) * abs(k)


def _letter(g, e):
    # exponent 1 is written both ways
    return [
        (REFEREE_NAMES[g] if e == 1 else f"{REFEREE_NAMES[g]}^{e}", [(g, e)]),
        (f"{REFEREE_NAMES[g]}^{e}", [(g, e)]),
    ]


letters = st.builds(_letter, st.integers(0, 2), st.integers(-4, 4)).flatmap(st.sampled_from)


def _words(terms):
    """A word: '1', or one or more terms side by side."""
    joined = st.lists(terms, min_size=1, max_size=4).map(
        lambda ts: (" ".join(t for t, _ in ts), [s for _, e in ts for s in e])
    )
    return st.one_of(st.just(("1", [])), joined)


def _compound(terms):
    inner = _words(terms)
    commutators = st.tuples(inner, inner).map(
        lambda uv: (f"[{uv[0][0]}, {uv[1][0]}]",
                    uv[0][1] + uv[1][1] + _inverse(uv[0][1]) + _inverse(uv[1][1]))
    )
    powers = st.tuples(inner, st.integers(-3, 3)).map(
        lambda wk: (f"({wk[0][0]})^{wk[1]}", _power(wk[0][1], wk[1]))
    )
    bracketed = inner.map(lambda w: (f"({w[0]})", w[1]))
    return st.one_of(terms, commutators, powers, bracketed)


terms = st.recursive(letters, _compound, max_leaves=8)
referee_words = _words(terms)
referee_relators = st.one_of(
    referee_words,
    st.tuples(referee_words, referee_words).map(
        lambda uv: (f"{uv[0][0]} = {uv[1][0]}", uv[0][1] + _inverse(uv[1][1]))
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(referee_relators, max_size=4))
def test_parse_matches_written_expansion(relators):
    text = f"< {', '.join(REFEREE_NAMES)} | {', '.join(t for t, _ in relators)} >"
    pres = parse_presentation(text)
    assert pres.relators == tuple(free_reduce(e) for _, e in relators)


@settings(max_examples=200, deadline=None)
@given(referee_words)
def test_parse_word_text_matches_written_expansion(word):
    pres = Presentation(REFEREE_NAMES, ())
    assert parse_word_text(word[0], pres) == free_reduce(word[1])


def test_parse_unknown_generator():
    with pytest.raises(UnknownGenerator):
        parse_presentation("< a | b^2 >")


def test_parse_empty_generator_list_with_relators():
    with pytest.raises(EmptyGeneratorList):
        parse_presentation("< | 1 >")


def test_duplicate_generator_rejected():
    with pytest.raises(PresentationSyntaxError):
        parse_presentation("< a, a | >")


def test_render_round_trip_fixtures():
    for text in (
        "< a, b | a^2, b^2, [a,b] >",
        K235_TEXT,
        HIGMAN_TEXT,
        HNN_TEXT,
        "< | >",
        "< a | >",
    ):
        p = parse_presentation(text)
        assert parse_presentation(p.render()) == p


names = st.sampled_from(["a", "b", "c"])
words = st.lists(
    st.tuples(st.integers(0, 2), st.integers(-3, 3).filter(bool)), max_size=6
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.lists(words, max_size=5))
def test_render_round_trip_random(relator_syllables):
    from groupcover.words import free_reduce

    pres = Presentation(
        ("a", "b", "c"), tuple(free_reduce(w) for w in relator_syllables)
    )
    assert parse_presentation(pres.render()) == pres


def test_parse_word_text(k235):
    assert parse_word_text("x y^-1", k235) == ((0, 1), (1, -1))
    assert parse_word_text("[x, y]", k235) == ((0, 1), (1, 1), (0, -1), (1, -1))
    assert parse_word_text("1", k235) == ()
    with pytest.raises(UnknownGenerator):
        parse_word_text("w", k235)
    with pytest.raises(PresentationSyntaxError):
        parse_word_text("x >", k235)


# ---------------------------------------------------------------------------
# exponent matrix and abelian invariants

def test_exponent_matrix_diagonal(k235):
    assert exponent_matrix(k235) == [[2, 0, 0], [0, 3, 0], [0, 0, 5]]


def test_exponent_matrix_higman(higman):
    assert exponent_matrix(higman) == [
        [0, -1, 0, 0],
        [0, 0, -1, 0],
        [0, 0, 0, -1],
        [-1, 0, 0, 0],
    ]


def test_exponent_matrix_commutator():
    p = parse_presentation("< a, b | [a,b] >")
    assert exponent_matrix(p) == [[0, 0]]


def test_abelian_invariants_k235(k235):
    inv = abelian_invariants(k235)
    assert (inv.free_rank, inv.factors) == (0, (30,))


def test_abelian_invariants_higman(higman):
    inv = abelian_invariants(higman)
    assert inv.is_trivial


def test_abelian_invariants_hnn(hnn):
    inv = abelian_invariants(hnn)
    assert (inv.free_rank, inv.factors) == (1, ())


def test_abelian_invariants_free_group():
    p = parse_presentation("< a, b | >")
    inv = abelian_invariants(p)
    assert (inv.free_rank, inv.factors) == (2, ())


def full_matrix_invariants(pres):
    """G^ab from the referee engine on every row of the exponent matrix."""
    diagonal = smith_diagonal_reference(exponent_matrix(pres))
    return invariants_from_diagonal(diagonal, pres.ngens)


@st.composite
def mixed_presentations(draw):
    """Power relators, products of two powers, commutators, '1', relators
    whose exponent sums are zero (a word, then the inverse of a rotation of
    it) and repeats."""
    n = draw(st.integers(1, 5))
    gen = st.integers(0, n - 1)
    word = st.lists(st.tuples(gen, st.integers(-6, 6).filter(bool)), max_size=5).map(tuple)
    power = st.tuples(gen, st.integers(-12, 12)).map(lambda ge: (ge,))
    two_powers = st.tuples(power, power).map(lambda pq: pq[0] + pq[1])
    commutator = st.tuples(gen, gen).map(
        lambda xy: commutator_word(((xy[0], 1),), ((xy[1], 1),))
    )
    empty = st.just(())
    zero_sum = st.tuples(word, st.integers(0, 4)).map(
        lambda wk: wk[0] + invert_word(wk[0][wk[1]:] + wk[0][:wk[1]])
    )
    rels = draw(st.lists(
        st.one_of(power, two_powers, commutator, empty, zero_sum, word), max_size=10
    ))
    repeats = draw(st.lists(st.integers(0, max(len(rels) - 1, 0)), max_size=4)) if rels else []
    rels += [rels[i] for i in repeats]
    return Presentation(tuple(f"x{i}" for i in range(n)), tuple(map(free_reduce, rels)))


@settings(max_examples=500, deadline=None)
@given(mixed_presentations())
def test_abelian_invariants_match_full_matrix_referee(pres):
    # the engine sees the distinct nonzero rows; the referee sees them all
    assert abelian_invariants.__wrapped__(pres) == full_matrix_invariants(pres)


def test_abelian_invariants_reduce_only_spanning_rows(monkeypatch):
    calls = []
    smith = presentation.smith_normal_form
    monkeypatch.setattr(
        presentation, "smith_normal_form", lambda rows: calls.append(rows) or smith(rows)
    )
    p = parse_presentation("< a, b, c | [a, b], a^2, 1, a^2, [b, c], b a b^-1 a^-1, c^3 >")
    assert abelian_invariants.__wrapped__(p) == full_matrix_invariants(p)
    assert calls == [[(2, 0, 0), (0, 0, 3)]]
    calls.clear()
    p = parse_presentation("< a, b | [a, b], 1 >")
    assert abelian_invariants.__wrapped__(p) == full_matrix_invariants(p)
    assert calls == [[]]
