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
