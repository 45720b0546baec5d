"""Words over a generating set, as tuples of (generator, exponent) syllables.

A word is a tuple of syllables; each syllable is a pair (generator index,
nonzero exponent).  The empty tuple is the empty word.  All functions return
freely reduced words: adjacent syllables have distinct generator indices and
no syllable has exponent zero.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Syllable = tuple[int, int]
Word = tuple[Syllable, ...]

EMPTY_WORD: Word = ()


def free_reduce(word: Iterable[Syllable]) -> Word:
    """Freely reduce a syllable sequence.

    Merges adjacent syllables on the same generator and drops zero
    exponents.  The result is independent of the order cancellations are
    performed in (a single left-to-right stack pass is confluent here).
    """
    stack: list[list[int]] = []
    for gen, exp in word:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((g, e) for g, e in stack)


def invert_word(word: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(word))


def concat(*words: Word) -> Word:
    joined: list[Syllable] = []
    for w in words:
        joined.extend(w)
    return free_reduce(joined)


def word_power(word: Word, n: int) -> Word:
    if n < 0:
        return word_power(invert_word(word), -n)
    return free_reduce([s for _ in range(n) for s in word])


def commutator_word(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1."""
    return concat(u, v, invert_word(u), invert_word(v))


def exponent_vector(word: Word, ngens: int) -> tuple[int, ...]:
    sums = [0] * ngens
    for g, e in word:
        sums[g] += e
    return tuple(sums)


def max_generator(word: Word) -> int:
    """Largest generator index used; -1 for the empty word."""
    return max((g for g, _ in word), default=-1)


def render_word(word: Word, names: Iterable[str]) -> str:
    """Canonical text form, e.g. ``a^2 b^-1 c``; the empty word is ``1``."""
    names = list(names)
    if not word:
        return "1"
    parts = []
    for g, e in word:
        parts.append(names[g] if e == 1 else f"{names[g]}^{e}")
    return " ".join(parts)


def reduced_words(ngens: int, max_length: int) -> Iterator[Word]:
    """All freely reduced words of letter-length <= max_length, in shortlex
    order.

    The letter alphabet is ordered g0, g0^-1, g1, g1^-1, ...; a letter is
    never followed by its own inverse.  Each word extends its prefix one
    letter shorter: by a new syllable, or by growing the last one.
    """
    alphabet = [(g, s) for g in range(ngens) for s in (1, -1)]
    yield EMPTY_WORD
    level: list[Word] = [EMPTY_WORD]
    for _ in range(max_length):
        nxt: list[Word] = []
        for prefix in level:
            last_gen, last_exp = prefix[-1] if prefix else (-1, 0)
            for g, s in alphabet:
                if g != last_gen:
                    nxt.append(prefix + ((g, s),))
                elif (last_exp > 0) == (s > 0):  # never a letter's inverse
                    nxt.append(prefix[:-1] + ((g, last_exp + s),))
        if not nxt:  # no generators: the empty word is the only one
            return
        yield from nxt
        level = nxt
