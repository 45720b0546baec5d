"""Annihilation witnesses: explicit surjections from a presented group onto
small finite groups that kill a given word.

The target catalog is a fixed, documented family list (cyclic, elementary
abelian, dihedral, S3, S4, A4, A5, Q8, SL(2,3)); completeness over *all*
groups of a given order is deliberately not claimed, and a "none <= B"
outcome is never evidence that no witness exists beyond the bound.  Each
target is a family member of the group catalog plus its T^ab; its order,
name and builder come from the family's one row there.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from math import gcd
from operator import attrgetter

from .abelian import AbelianInvariants, prime_factors
from .catalog import _closed_form, build_entry
from .classify import FA, classify_fa
from .config import DEFAULT_SEARCH_BUDGET
from .errors import SearchBudgetExceeded
from .fingroup import (
    FiniteGroup,
    conjugacy_classes,
    derived_subgroup,
    subgroup_closure,
)
from .presentation import Presentation, abelian_invariants
from .words import Word, max_generator, reduced_words, render_word

MAX_WITNESS_BOUND = 128
# Most words one scan visits.  At this count `scan` on `< a | >` at bound 128
# (29 999 words) peaks at 66 MiB (ru_maxrss, 17 MiB of it the process with
# the package imported) and takes about 1.1 s on 2 vCPU: each word holds its
# state in all 127 cyclic targets, about 1.4 KiB, and those 127 are the only
# tables the scan builds.  With more generators a word costs about 0.6 KiB.
SCAN_WORD_BUDGET = 3 * 10**4


def evaluate_word(group: FiniteGroup, images, word: Word) -> int:
    """Image of a word under generator images, with each syllable exponent
    reduced modulo the image's order."""
    orders, t = group.element_orders(), group.table
    acc = 0
    for g, e in word:
        x = images[g]
        k = e % orders[x]
        for _ in range(k):
            acc = t[acc][x]
    return acc


def evaluate_word_direct(group: FiniteGroup, images, word: Word) -> int:
    """Evaluation by square-and-multiply on the table and inverse alone (no
    element orders, no modular shortcut); the independent re-verification
    route, logarithmic in each exponent."""
    t, inv = group.table, group.inverse
    acc = 0
    for g, e in word:
        x = images[g] if e > 0 else inv[images[g]]
        k = abs(e)
        while k:
            if k & 1:
                acc = t[acc][x]
            k >>= 1
            if k:
                x = t[x][x]
    return acc


@dataclass(frozen=True, eq=False)
class WitnessTarget:
    """A catalog target by its closed forms: order, name and T^ab.  Its
    table is built by `build` on the first use of `group`, and kept."""

    order: int
    name: str
    abelian: AbelianInvariants
    build: Callable[[], FiniteGroup] = field(repr=False)

    @cached_property
    def group(self) -> FiniteGroup:
        return self.build()


@lru_cache(maxsize=1)
def _catalog() -> tuple[WitnessTarget, ...]:
    """Every target of order <= MAX_WITNESS_BOUND, sorted by (order, name).
    An entry is (family, params, T^ab factors), kept when the order its
    family's catalog row gives is within the bound; the record's name also
    comes from that row, and its table is built by `build_entry`."""
    bound = MAX_WITNESS_BOUND
    entries = [("C", (n,), (n,)) for n in range(2, bound + 1)]
    entries += [("E", (p, k), (p,) * k) for p in (2, 3, 5, 7, 11)
                for k in range(2, bound.bit_length())]
    entries += [("D", (n,), (2, 2) if n % 2 == 0 else (2,)) for n in range(3, bound + 1)]
    entries += [("S", (3,), (2,)), ("S", (4,), (2,)), ("A", (4,), (3,)), ("A", (5,), ()),
                ("Q8", (), (2, 2)), ("SL", (3,), (3,))]
    records = []
    for family, params, factors in entries:
        order, name = _closed_form(family, params, bound)
        if order <= bound:
            records.append(WitnessTarget(
                order, name, AbelianInvariants(0, factors), partial(build_entry, family, params)
            ))
    return tuple(sorted(records, key=attrgetter("order", "name")))


def witness_targets(bound: int) -> tuple[WitnessTarget, ...]:
    """The fixed search catalog, restricted to orders <= bound and sorted by
    (order, name), as records whose tables are built on first use."""
    if bound > MAX_WITNESS_BOUND:
        raise SearchBudgetExceeded(
            f"witness bound {bound} exceeds the catalog maximum {MAX_WITNESS_BOUND}"
        )
    records = _catalog()
    return records[: bisect_right(records, bound, key=attrgetter("order"))]


@dataclass(frozen=True)
class Witness:
    """Proof object: a surjection onto a nontrivial finite group under which
    every relator and the given word map to the identity."""

    presentation: Presentation
    word: Word
    target: FiniteGroup
    images: tuple[int, ...]

    def as_dict(self) -> dict:
        return {
            "target": {"name": self.target.name, "order": self.target.order},
            "images": {
                name: img
                for name, img in zip(self.presentation.generators, self.images)
            },
            "word": render_word(self.word, self.presentation.generators),
            "verified": True,
        }


def verify_witness(witness: Witness) -> bool:
    """Re-check a witness by direct evaluation: relators and word go to the
    identity, the images generate the target, and the target is nontrivial."""
    target = witness.target
    images = witness.images
    if target.order <= 1:
        return False
    if any(
        evaluate_word_direct(target, images, rel) != 0
        for rel in witness.presentation.relators
    ):
        return False
    if len(subgroup_closure(target, set(images))) != target.order:
        return False
    return evaluate_word_direct(target, images, witness.word) == 0


def enumerate_surjections(pres: Presentation, target: FiniteGroup) -> list[tuple[int, ...]]:
    """All generator-image assignments defining a surjection onto the target,
    in lexicographic order, within DEFAULT_SEARCH_BUDGET.  The witness search
    visits one per automorphism orbit and still finds the lexicographically
    first killing surjection; this full list is its referee."""
    _refuse_space(target.order, pres.ngens)
    return _surjection_search(pres, target, None)


def _refuse_space(order: int, ngens: int) -> None:
    """Refuse a search over more than DEFAULT_SEARCH_BUDGET assignments of
    `ngens` images in a target of this order."""
    budget = DEFAULT_SEARCH_BUDGET
    if order**ngens > budget:
        raise SearchBudgetExceeded(f"assignment space {order}^{ngens} exceeds budget {budget}")


@lru_cache(maxsize=4096)
def _surjections_cached(pres, target: WitnessTarget):
    """The surjections onto the target's table whose first non-identity
    image is the least of its orbit (`_orbit_minima`), in lexicographic
    order.  Automorphisms of the target keep relators, surjectivity and
    kills, so the first killing surjection stays.

    A surjection G -> T induces one G^ab -> T^ab, so a target whose T^ab fails
    `_abelian_surjects` has none and is not searched.  The prune waits while
    the search could pass its budget (at most 2 n^k nodes), so a refused
    target never hides the SearchBudgetExceeded the search would raise.
    Both read the record's closed forms, so the table is built only for a
    target that is searched."""
    _refuse_space(target.order, pres.ngens)
    if 2 * target.order**pres.ngens <= DEFAULT_SEARCH_BUDGET:
        source = _source_abelianisation(pres)
        if source is not None and not _abelian_surjects(source, target.abelian):
            return ()
    group = target.group
    return tuple(_surjection_search(pres, group, _orbit_minima(group)))


@lru_cache(maxsize=64)
def _source_abelianisation(pres):
    """G^ab, or None when its Smith normal form passes the bit budget."""
    try:
        return abelian_invariants(pres)
    except SearchBudgetExceeded:
        return None


def _abelian_surjects(source: AbelianInvariants, target: AbelianInvariants) -> bool:
    """Whether Z^r x C_d1 x ... x C_dk (source) maps onto the finite abelian
    target.  A surjection A -> B maps p^(j-1)A onto p^(j-1)B and so onto its
    quotient by p^j B, which for every prime p and j >= 1 bounds the number
    of B's factors divisible by p^j by r plus the number of A's."""
    if not target.factors:
        return True
    top = target.factors[-1]
    for p in prime_factors(top):
        q = p
        while top % q == 0:
            need = sum(1 for e in target.factors if e % q == 0)
            if need > source.free_rank + sum(1 for d in source.factors if d % q == 0):
                return False
            q *= p
    return True


def _orbit_minima(target: FiniteGroup) -> bytes:
    """Per element, 1 if it is the least of its orbit under automorphisms:
    its conjugacy class in a nonabelian target, else the generators of its cyclic
    subgroup.  Costs what `conjugacy_classes` costs in a nonabelian target,
    and the sum of the minima's orders in an abelian one."""
    flags = target._cache.get("orbit_minima")
    if flags is None:
        t, n = target.table, target.order
        flags = bytearray(n)
        if len(derived_subgroup(target)) > 1:
            for cls in conjugacy_classes(target):
                flags[cls[0]] = 1
        else:
            seen = bytearray(n)
            for x in range(n):
                if seen[x]:
                    continue
                seen[x] = flags[x] = 1
                powers = [x]  # the generators x^u of <x>, u prime to its order
                while powers[-1]:
                    powers.append(t[powers[-1]][x])
                for u, y in enumerate(powers, 1):
                    if gcd(u, len(powers)) == 1:
                        seen[y] = 1
        target._cache["orbit_minima"] = flags = bytes(flags)
    return flags


def _surjection_search(pres, target, least):
    """Surjections onto the target in lexicographic order; with flags `least`,
    an image whose earlier images are all the identity must be flagged.
    Pruning: a generator in a one-syllable relator g^m maps only to elements
    of order dividing |m|, so that relator always holds, and each other
    relator is checked once its generators are.
    """
    budget = DEFAULT_SEARCH_BUDGET
    ngens = pres.ngens
    n = target.order
    orders = target.element_orders()
    constraint: dict[int, int] = {}
    for rel in pres.relators:
        if len(rel) == 1:
            g, e = rel[0]
            constraint[g] = gcd(constraint.get(g, 0), abs(e))
    candidates = []
    for g in range(ngens):
        bound = constraint.get(g, 0)
        if bound == 0:
            candidates.append(range(n))
        else:
            candidates.append([x for x in range(n) if bound % orders[x] == 0])
    first = candidates if least is None else [[x for x in c if least[x]] for c in candidates]
    by_depth: list[list[Word]] = [[] for _ in range(ngens)]
    for rel in pres.relators:
        if len(rel) > 1:
            by_depth[max_generator(rel)].append(rel)

    results: list[tuple[int, ...]] = []
    images = [0] * ngens
    nodes = 0

    def dfs(depth, trivial):
        nonlocal nodes
        if depth == ngens:
            if len(subgroup_closure(target, set(images))) == n:
                results.append(tuple(images))
            return
        for x in (first if trivial else candidates)[depth]:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"search exceeded {budget} nodes")
            images[depth] = x
            if all(evaluate_word(target, images, rel) == 0 for rel in by_depth[depth]):
                dfs(depth + 1, trivial and x == 0)

    dfs(0, True)
    del dfs  # dfs holds itself through its closure: free the search now, not at a GC
    return results


def _first_kill(space, word):
    """The first (target, images) in a sequence of (target, surjections) pairs
    under which the word evaluates to the identity, or None.  Over one surjection
    per automorphism orbit this is still the lexicographically first killer."""
    for target, surjections in space:
        for images in surjections:
            if evaluate_word(target, images, word) == 0:
                return target, images
    return None


def find_annihilator(
    pres: Presentation, word: Word, order_bound: int
) -> Witness | None:
    """First witness killing the word, searching targets in (order, name)
    order; None when no catalog target within the bound admits one."""
    # lazy, so a target's surjections are searched only once the search
    # reaches it, and its table is read only when it has some
    space = (
        (t.group, surjections)
        for t in witness_targets(order_bound)
        if (surjections := _surjections_cached(pres, t))
    )
    found = _first_kill(space, word)
    if found is None:
        return None
    witness = Witness(pres, word, *found)
    if not verify_witness(witness):
        raise AssertionError(
            f"internal error: witness onto {witness.target.name} failed re-verification"
        )
    return witness


WITNESSED = "witnessed"
UNWITNESSED = "unwitnessed"
BOUND_TOO_SMALL = "bound too small"


@dataclass(frozen=True)
class ScanEntry:
    word: Word
    status: str
    target_name: str | None = None
    target_order: int | None = None


@dataclass(frozen=True)
class ScanReport:
    """Every freely reduced word up to the length, in shortlex order, as its
    text and the (name, order) of the first target killing it, or None."""

    presentation: Presentation
    max_word_length: int
    order_bound: int
    classify_status: str
    texts: tuple[str, ...]
    kills: tuple[tuple[str, int] | None, ...]

    def status_of(self, kill) -> str:
        """The status of a word with this kill: (name, order), or None."""
        if kill:
            return WITNESSED
        return BOUND_TOO_SMALL if self.classify_status == FA else UNWITNESSED

    @cached_property
    def entries(self) -> tuple[ScanEntry, ...]:
        """The words as `ScanEntry`s, rebuilt from `reduced_words`, which
        yields them in the same shortlex order."""
        words = reduced_words(self.presentation.ngens, self.max_word_length)
        unkilled = self.status_of(None)
        return tuple(
            ScanEntry(word, WITNESSED, kill[0], kill[1]) if kill else ScanEntry(word, unkilled)
            for word, kill in zip(words, self.kills)
        )

    @property
    def witnessed(self) -> tuple[ScanEntry, ...]:
        return tuple(e for e in self.entries if e.status == WITNESSED)

    def as_dict(self) -> dict:
        gens = self.presentation.generators
        return {
            "presentation": self.presentation.render(),
            "max_word_length": self.max_word_length,
            "order_bound": self.order_bound,
            "classify_status": self.classify_status,
            "words": [
                {
                    "word": render_word(e.word, gens),
                    "status": e.status,
                    "target": (
                        {"name": e.target_name, "order": e.target_order}
                        if e.target_name
                        else None
                    ),
                }
                for e in self.entries
            ],
        }

    def as_json(self) -> str:
        """Exactly ``json.dumps(self.as_dict(), indent=2, sort_keys=True)``,
        written from the texts: generator names are ASCII letters, digits and
        underscores, so a text needs no escaping, and the text of an entry
        before its word depends only on its kill, so it is built once per kill."""
        heads = {}
        for kill in set(self.kills):
            if kill:
                target = (
                    "{\n        \"name\": " + json.dumps(kill[0])
                    + ",\n        \"order\": " + json.dumps(kill[1])
                    + "\n      }"
                )
            else:
                target = "null"
            heads[kill] = (
                "    {\n      \"status\": " + json.dumps(self.status_of(kill))
                + ",\n      \"target\": " + target + ",\n      \"word\": \""
            )
        tail = "\"\n    }"
        words = [heads[kill] + text + tail for text, kill in zip(self.texts, self.kills)]
        listing = "[\n" + ",\n".join(words) + "\n  ]" if words else "[]"
        return (
            "{\n  \"classify_status\": " + json.dumps(self.classify_status)
            + ",\n  \"max_word_length\": " + json.dumps(self.max_word_length)
            + ",\n  \"order_bound\": " + json.dumps(self.order_bound)
            + ",\n  \"presentation\": " + json.dumps(self.presentation.render())
            + ",\n  \"words\": " + listing + "\n}"
        )


class _Block:
    """One target's surjections as a finite automaton over the letters
    (letter 2g is generator g, 2g + 1 its inverse).  A state is the tuple of
    a word's images under the surjections in search order, interned as a
    small int; state 0 is the identity's.  A state is killed when some image
    is the identity, and each transition is computed once, on first use."""

    __slots__ = ("kill", "table", "letter_images", "ids", "rows", "killed", "moves")

    def __init__(self, target: FiniteGroup, surjections, ngens: int):
        self.kill = (target.name, target.order)
        self.table = target.table
        self.letter_images = []
        inv = target.inverse
        for g in range(ngens):
            column = [images[g] for images in surjections]
            self.letter_images += [column, [inv[x] for x in column]]
        identity = (0,) * len(surjections)
        self.ids = {identity: 0}
        self.rows = [identity]
        self.killed = [True]
        self.moves = [[None] * (2 * ngens)]

    def step(self, state: int, letter: int) -> int:
        moves = self.moves[state]
        nxt = moves[letter]
        if nxt is None:
            table = self.table
            row = tuple([table[v][x] for v, x in zip(self.rows[state], self.letter_images[letter])])
            nxt = self.ids.get(row)
            if nxt is None:
                nxt = self.ids[row] = len(self.rows)
                self.rows.append(row)
                self.killed.append(0 in row)
                self.moves.append([None] * len(moves))
            moves[letter] = nxt
        return nxt


def _word_count(ngens: int, length: int) -> int:
    """Freely reduced words of length at most `length` >= 0 on `ngens`
    generators: 1 + sum over l = 1..L of 2k (2k - 1)^(l - 1)."""
    if ngens < 2:
        return 1 + 2 * ngens * length
    return 1 + ngens * ((2 * ngens - 1) ** length - 1) // (ngens - 1)


def fa_scan(
    pres: Presentation, max_word_length: int, order_bound: int, hint=None
) -> ScanReport:
    """Run the annihilator search over every freely reduced word up to the
    given length (shortlex order).  Unwitnessed words are candidates only:
    when classification already says the group is F-A they are flagged as
    "bound too small" rather than failures, and otherwise the scan draws no
    conclusion.

    Each target with a surjection is a `_Block` automaton, and a word's
    first kill is the first block whose state is killed.  A word's state is
    the tuple of its states in every block its parent holds, interned as an
    int with its own transition table, so a word costs one lookup once a
    word with its parent's state has been expanded.  Blocks are built only
    when a word needs them: a word that survives every block its parent
    holds first gives the parent (and each ancestor lacking it) the next
    block, and a target's surjections are fetched when the first word
    survives every earlier target.  The words are generated breadth first,
    which is shortlex order, each text from its parent's.
    """
    k = pres.ngens
    # with L cut where the count surely passes the budget
    cut = SCAN_WORD_BUDGET.bit_length() if k > 1 else SCAN_WORD_BUDGET
    length = max(0, min(max_word_length, cut))
    words = _word_count(k, length)
    if words > SCAN_WORD_BUDGET:
        raise SearchBudgetExceeded(
            f"a scan to length {max_word_length} passes the budget of {SCAN_WORD_BUDGET} "
            f"words: it visits {words} to length {length}"
        )
    verdict = classify_fa(pres, hint)
    pending = iter(witness_targets(order_bound))
    blocks: list[_Block] = []
    nletters = 2 * k

    def reach_next_block() -> bool:
        for target in pending:
            surjections = _surjections_cached(pres, target)
            if surjections:
                blocks.append(_Block(target.group, surjections, k))
                return True
        return False

    # word states: tuple of block states -> id, and per id that tuple, the
    # kill and the transition table
    ids: dict[tuple[int, ...], int] = {}
    states: list[tuple[int, ...]] = []
    kills: list[tuple[str, int] | None] = []
    moves: list[list[int | None]] = []

    def intern(row: tuple[int, ...]) -> int:
        state = ids.get(row)
        if state is None:
            state = ids[row] = len(states)
            states.append(row)
            kills.append(next((b.kill for b, s in zip(blocks, row) if b.killed[s]), None))
            moves.append([None] * nletters)
        return state

    # node j is the j-th word in shortlex order: its state, last letter
    # (-1 for the empty word), text, the text before its last syllable and
    # that syllable's letter count
    nodes = [intern((0,) if reach_next_block() else ())]
    lasts = [-1]
    texts = ["1"]
    bases = [""]
    runs = [0]

    def extend(j: int, b: int) -> None:
        # give node j, and each ancestor lacking it, its state in block b;
        # every ancestor holds at least as many blocks as its descendants
        chain = []
        while j and len(states[nodes[j]]) == b:
            chain.append(j)
            # the parent: the empty word has 2k children and every other
            # word 2k - 1, numbered consecutively in shortlex order
            j = 0 if j <= nletters else (j - nletters - 1) // (nletters - 1) + 1
        if len(states[nodes[j]]) == b:  # the empty word: the identity state
            nodes[j] = intern(states[nodes[j]] + (0,))
        state = states[nodes[j]][b]
        for j in reversed(chain):
            state = blocks[b].step(state, lasts[j])
            nodes[j] = intern(states[nodes[j]] + (state,))

    def descend(j: int, letter: int) -> int:
        # the state of node j's child by the letter: every block j holds,
        # and then one more block at a time while none of them kills it
        row = states[nodes[j]]
        own: list[int] = []
        killed = False
        while True:
            i = len(own)
            if i == len(row):
                if killed or not (i < len(blocks) or reach_next_block()):
                    break
                extend(j, i)
                row = states[nodes[j]]
            block = blocks[i]
            nxt = block.step(row[i], letter)
            own.append(nxt)
            killed = killed or block.killed[nxt]
        child = intern(tuple(own))
        moves[nodes[j]][letter] = child
        return child

    names = pres.generators
    # syllables[letter][n]: the text of the letter repeated n >= 1 times
    syllables = [[None, name + sign] for name in names for sign in ("", "^-1")]
    after = {last: [m for m in range(nletters) if m != last ^ 1] for last in range(-1, nletters)}
    for j in range(_word_count(k, max_word_length - 1) if max_word_length > 0 else 0):
        last = lasts[j]
        children = moves[nodes[j]]
        text = texts[j]
        sep = text + " " if j else ""
        for letter in after[last]:
            child = children[letter]
            if child is None:
                child = descend(j, letter)
                children = moves[nodes[j]]
            if letter == last:
                base, n = bases[j], runs[j] + 1
                syllable = syllables[letter]
                if n == len(syllable):
                    syllable.append(f"{names[letter >> 1]}^{'-' if letter & 1 else ''}{n}")
            else:
                base, n = sep, 1
            nodes.append(child)
            lasts.append(letter)
            texts.append(base + syllables[letter][n])
            bases.append(base)
            runs.append(n)
    return ScanReport(
        pres,
        max_word_length,
        order_bound,
        verdict.status,
        tuple(texts),
        tuple([kills[state] for state in nodes]),
    )
