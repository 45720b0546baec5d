import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given

from groupcover.words import (
    commutator_word,
    concat,
    exponent_vector,
    free_reduce,
    invert_word,
    reduced_words,
    render_word,
    word_power,
)

syllables = st.lists(
    st.tuples(st.integers(0, 2), st.integers(-4, 4)), max_size=12
).map(tuple)


def test_free_reduce_fixtures():
    # a a^-1 -> empty
    assert free_reduce(((0, 1), (0, -1))) == ()
    # a^2 a^-3 -> a^-1
    assert free_reduce(((0, 2), (0, -3))) == ((0, -1),)
    # a b b^-1 a -> a^2
    assert free_reduce(((0, 1), (1, 1), (1, -1), (0, 1))) == ((0, 2),)


def test_free_reduce_drops_zero_exponents():
    assert free_reduce(((0, 0), (1, 2), (1, -2), (0, 0))) == ()


@given(syllables)
def test_free_reduce_idempotent(word):
    reduced = free_reduce(word)
    assert free_reduce(reduced) == reduced
    assert all(e != 0 for _, e in reduced)
    assert all(a[0] != b[0] for a, b in zip(reduced, reduced[1:]))


@given(syllables)
def test_inverse_cancels(word):
    w = free_reduce(word)
    assert concat(w, invert_word(w)) == ()
    assert concat(invert_word(w), w) == ()


@given(syllables, syllables)
def test_concat_is_reduction_of_concatenation(u, v):
    assert concat(free_reduce(u), free_reduce(v)) == free_reduce(tuple(u) + tuple(v))


@given(syllables, st.integers(-3, 3))
def test_power_matches_repeated_concat(word, n):
    w = free_reduce(word)
    if n >= 0:
        expected = concat(*([w] * n)) if n else ()
    else:
        expected = concat(*([invert_word(w)] * (-n)))
    assert word_power(w, n) == expected


def test_commutator_expansion():
    a, b = ((0, 1),), ((1, 1),)
    assert commutator_word(a, b) == ((0, 1), (1, 1), (0, -1), (1, -1))


def test_exponent_vector():
    w = ((0, 2), (1, -1), (0, 3))
    assert exponent_vector(w, 3) == (5, -1, 0)


def test_render():
    assert render_word(((0, 2), (1, -1), (2, 1)), ("a", "b", "c")) == "a^2 b^-1 c"
    assert render_word((), ("a",)) == "1"


def test_reduced_words_shortlex_count():
    words = list(reduced_words(2, 3))
    # 1 + 4 + 4*3 + 4*9 freely reduced letter strings
    assert len(words) == 1 + 4 + 12 + 36
    assert words[0] == ()
    assert words[1] == ((0, 1),)
    assert words[2] == ((0, -1),)
    assert words[3] == ((1, 1),)
    lengths = [sum(abs(e) for _, e in w) for w in words]
    assert lengths == sorted(lengths)
    assert len(set(words)) == len(words)


@pytest.mark.parametrize("ngens, max_length", [(0, 3), (1, 6), (2, 4), (3, 3)])
def test_reduced_words_match_letter_strings(ngens, max_length):
    # the letter strings with no letter next to its inverse, lexicographic
    # within each length, each freely reduced
    alphabet = [(g, s) for g in range(ngens) for s in (1, -1)]
    expected = [
        free_reduce(letters)
        for length in range(max_length + 1)
        for letters in itertools.product(alphabet, repeat=length)
        if all(a != (b[0], -b[1]) for a, b in zip(letters, letters[1:]))
    ]
    assert list(reduced_words(ngens, max_length)) == expected
