"""Group presentations: a small grammar, exact abelianisation via Smith
normal form, and the presentation-level combinators.

G^ab is Z^ngens modulo the row lattice of the relators' exponent sums; the
Smith normal form engine sees only the distinct nonzero rows, which span
that lattice (a commutator's row is zero).

Grammar (whitespace insignificant, ``1`` is the empty word)::

    presentation := '<' genlist '|' relist '>'
    genlist      := name (',' name)* | epsilon
    relist       := relator (',' relator)* | epsilon
    relator      := word | word '=' word
    word         := term+ | '1'
    term         := name ('^' int)? | '[' word ',' word ']'
                  | '(' word ')' ('^' int)?
    int          := '-'? digit+

``[u, v]`` expands to u v u^-1 v^-1 and ``u = v`` to u v^-1.  A word or a
power ``(u)^N`` longer than ``MAX_WORD_SYLLABLES`` syllables is a syntax
error; powers are checked before they are expanded.  Text is tokenized in
one regex scan, and every term comes back freely reduced, so a word is
reduced once, when its terms are joined.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .abelian import AbelianInvariants, invariants_from_diagonal
from .errors import (
    EmptyGeneratorList,
    PresentationSyntaxError,
    UnknownGenerator,
)
from .snf import smith_normal_form
from .words import (
    Word,
    commutator_word,
    concat,
    exponent_vector,
    invert_word,
    render_word,
    word_power,
)

NAME_PATTERN = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

MAX_WORD_SYLLABLES = 10**6


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        seen = set()
        for name in self.generators:
            if not NAME_PATTERN.fullmatch(name):
                raise PresentationSyntaxError(f"bad generator name {name!r}", 0)
            if name in seen:
                raise PresentationSyntaxError(f"duplicate generator {name!r}", 0)
            seen.add(name)
        if not self.generators and len(self.relators) > 0:
            raise EmptyGeneratorList("relators given without generators")
        for rel in self.relators:
            for g, _ in rel:
                if not 0 <= g < len(self.generators):
                    raise UnknownGenerator(f"generator index {g} out of range")

    @property
    def ngens(self) -> int:
        return len(self.generators)

    @property
    def is_trivial_presentation(self) -> bool:
        return not self.generators

    def render(self) -> str:
        gens = ", ".join(self.generators)
        rels = ", ".join(render_word(r, self.generators) for r in self.relators)
        return f"< {gens} | {rels} >"

    def __str__(self):
        return self.render()


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<int>-?\d+)|(?P<punct>[<>|,^=()\[\]])"
    r"|(?P<bad>\S))"
)


def _tokenize(text):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value, pos = m.group(kind), m.start(kind)
        if kind == "bad":
            raise PresentationSyntaxError(f"unexpected character {value!r}", pos)
        tokens.append((kind, int(value) if kind == "int" else value, pos))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text, generators=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.gen_index = (
            {name: k for k, name in enumerate(generators)} if generators else {}
        )

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, punct):
        kind, value, pos = self.next()
        if kind != "punct" or value != punct:
            raise PresentationSyntaxError(f"expected {punct!r}", pos)
        return pos

    def fail(self, message):
        raise PresentationSyntaxError(message, self.peek()[2])

    def parse_presentation(self):
        self.expect("<")
        generators = []
        if self.peek()[0] == "name":
            generators.append(self.next()[1])
            while self._at_punct(","):
                self.next()
                kind, value, pos = self.next()
                if kind != "name":
                    raise PresentationSyntaxError("expected generator name", pos)
                generators.append(value)
        self.expect("|")
        self.gen_index = {name: k for k, name in enumerate(generators)}
        relators = []
        if not self._at_punct(">"):
            relators.append(self.parse_relator())
            while self._at_punct(","):
                self.next()
                relators.append(self.parse_relator())
        self.expect(">")
        kind, _, pos = self.peek()
        if kind != "end":
            raise PresentationSyntaxError("trailing input after presentation", pos)
        return Presentation(tuple(generators), tuple(relators))

    def _at_punct(self, *values):
        kind, value, _ = self.peek()
        return kind == "punct" and value in values

    def parse_relator(self) -> Word:
        left = self.parse_word()
        if self._at_punct("="):
            self.next()
            right = self.parse_word()
            return concat(left, invert_word(right))
        return left

    def parse_word(self) -> Word:
        kind, value, pos = self.peek()
        if kind == "int":
            if value != 1:
                raise PresentationSyntaxError("only '1' denotes the empty word", pos)
            self.next()
            return ()
        terms = []
        size = 0
        while True:
            kind, value, pos = self.peek()
            if kind == "name" or (kind == "punct" and value in "(["):
                terms.append(self.parse_term())
                size += len(terms[-1])
                if size > MAX_WORD_SYLLABLES:
                    raise PresentationSyntaxError(
                        f"word exceeds {MAX_WORD_SYLLABLES} syllables", pos
                    )
            else:
                break
        if not terms:
            self.fail("expected a word")
        # each term comes back freely reduced, so a lone term needs no concat
        return terms[0] if len(terms) == 1 else concat(*terms)

    def parse_term(self) -> Word:
        kind, value, pos = self.next()
        if kind == "name":
            if value not in self.gen_index:
                raise UnknownGenerator(f"unknown generator {value!r} at position {pos}")
            exp = self._maybe_exponent()
            return ((self.gen_index[value], exp),) if exp else ()
        if kind == "punct" and value == "[":
            u = self.parse_word()
            self.expect(",")
            v = self.parse_word()
            self.expect("]")
            return commutator_word(u, v)
        if kind == "punct" and value == "(":
            w = self.parse_word()
            self.expect(")")
            n = self._maybe_exponent()
            if len(w) * abs(n) > MAX_WORD_SYLLABLES:
                raise PresentationSyntaxError(
                    f"power of a {len(w)}-syllable word by {n} exceeds "
                    f"{MAX_WORD_SYLLABLES} syllables",
                    self.tokens[self.i - 1][2],
                )
            return word_power(w, n)
        raise PresentationSyntaxError("expected a term", pos)

    def _maybe_exponent(self) -> int:
        if self._at_punct("^"):
            self.next()
            kind, value, pos = self.next()
            if kind != "int":
                raise PresentationSyntaxError("expected an integer exponent", pos)
            return value
        return 1


def parse_presentation(text: str) -> Presentation:
    """Parse presentation text; relators come back freely reduced."""
    return _Parser(text).parse_presentation()


def parse_word_text(text: str, presentation: Presentation) -> Word:
    """Parse a stand-alone word over a presentation's generators."""
    parser = _Parser(text, generators=presentation.generators)
    word = parser.parse_word()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise PresentationSyntaxError("trailing input after word", pos)
    return word


# ---------------------------------------------------------------------------
# abelianisation

def exponent_matrix(pres: Presentation) -> list[list[int]]:
    """One row per relator of generator exponent sums."""
    return [list(exponent_vector(rel, pres.ngens)) for rel in pres.relators]


@lru_cache(maxsize=64)
def abelian_invariants(pres: Presentation) -> AbelianInvariants:
    """Invariants of the presented group's abelianisation, from the Smith
    normal form of the exponent matrix's distinct nonzero rows in
    first-occurrence order (computed once per presentation).  Zero and
    repeated rows add nothing to the row lattice, so the nonzero invariant
    factors and the free rank are those of the full matrix."""
    rows = dict.fromkeys(map(tuple, exponent_matrix(pres)))
    rows.pop((0,) * pres.ngens, None)
    result = smith_normal_form(list(rows))
    return invariants_from_diagonal(result.diagonal, pres.ngens)
