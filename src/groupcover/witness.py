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
from itertools import chain, count
from math import gcd
from operator import attrgetter

from .abelian import AbelianInvariants, prime_factors
from .catalog import _closed_form, build_entry
from .classify import FA, classify_fa
from .config import DEFAULT_SEARCH_BUDGET
from .errors import SearchBudgetExceeded
from .fingroup import FiniteGroup, _generators, conjugacy_classes, subgroup_closure
from .presentation import Presentation, abelian_invariants
from .words import Word, max_generator, reduced_words, render_word

MAX_WITNESS_BOUND = 128
# Most words one scan visits.  At this count `scan` on `< a | >` at bound 128
# (29 999 words) peaks at 64 MiB (ru_maxrss, 17 MiB of it the process with
# the package imported) and takes about 1 s on 2 vCPU; each word holds its
# state in all 127 cyclic targets.  With more generators a word costs about
# 0.4 KiB in JSON (the longest length's texts and chunk) and 0.2 KiB as text.
SCAN_WORD_BUDGET = 3 * 10**4


def evaluate_word(group: FiniteGroup, images, word: Word) -> int:
    """Image of a word under generator images, with each syllable exponent
    reduced modulo the image's order, and stepped by the image's inverse
    when that is fewer steps."""
    orders, t, inv = group.element_orders(), group.table, group.inverse
    acc = 0
    for g, e in word:
        x = images[g]
        o = orders[x]
        k = e % o
        if 2 * k > o:
            x, k = inv[x], o - k
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
    """A catalog target by its closed forms: order, name, T^ab and T^ab's
    `_prime_power_counts`.  Its table is built by `build` on the first use
    of `group`, and kept."""

    order: int
    name: str
    abelian: AbelianInvariants
    prime_powers: tuple[tuple[int, int], ...]
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
                order, name, AbelianInvariants(0, factors), _prime_power_counts(factors),
                partial(build_entry, family, params),
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
        if source is not None and not _abelian_surjects(source, target.prime_powers):
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


def _prime_power_counts(factors) -> tuple[tuple[int, int], ...]:
    """(q, the number of `factors` divisible by q) for each prime power
    q > 1 dividing the last (largest) factor."""
    counts = []
    top = factors[-1] if factors else 1
    for p in prime_factors(top):
        q = p
        while top % q == 0:
            counts.append((q, sum(1 for e in factors if e % q == 0)))
            q *= p
    return tuple(counts)


def _abelian_surjects(source: AbelianInvariants, counts) -> bool:
    """Whether Z^r x C_d1 x ... x C_dk (source) maps onto the finite abelian
    target B whose `_prime_power_counts` are `counts`.  A surjection A -> B
    maps p^(j-1)A onto p^(j-1)B and so onto its quotient by p^j B, which for
    every prime p and j >= 1 bounds the number of B's factors divisible by
    p^j by r plus the number of A's."""
    return all(
        need <= source.free_rank + sum(1 for d in source.factors if d % q == 0)
        for q, need in counts
    )


def _orbit_minima(target: FiniteGroup) -> bytes:
    """Per element, 1 if it is the least of its orbit under automorphisms:
    its conjugacy class in a nonabelian target, else the generators of its cyclic
    subgroup.  The target is abelian when its greedy generators commute
    pairwise.  Costs what `conjugacy_classes` costs in a nonabelian target,
    and the sum of the minima's orders in an abelian one."""
    flags = target._cache.get("orbit_minima")
    if flags is None:
        t, n = target.table, target.order
        flags = bytearray(n)
        gens = _generators(target)
        if any(t[a][b] != t[b][a] for i, a in enumerate(gens) for b in gens[:i]):
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
    relator is checked at the depth of its last generator, over the frame's
    whole candidate list at once.  There each syllable on an earlier
    generator is one element, and a syllable g^e on the frame's generator
    reads the power map y -> y^e, built once per search.  A frame counts its
    candidates as search nodes when it starts.
    """
    budget = DEFAULT_SEARCH_BUDGET
    ngens, n = pres.ngens, target.order
    t, inv, orders = target.table, target.inverse, target.element_orders()
    bounds = [0] * ngens
    by_depth: list[list[Word]] = [[] for _ in range(ngens)]
    for rel in pres.relators:
        if len(rel) == 1:
            g, e = rel[0]
            bounds[g] = gcd(bounds[g], e)
        elif rel:
            by_depth[max_generator(rel)].append(rel)
    candidates = [[x for x in range(n) if m % orders[x] == 0] if m else range(n) for m in bounds]
    first = candidates if least is None else [[x for x in c if least[x]] for c in candidates]
    # y -> y^e for each exponent of a checked relator, by square-and-multiply
    # over whole lists; y^-k = (y^-1)^k
    powers = {}
    for e in {e for rels in by_depth for rel in rels for _, e in rel}:
        p, base, k = None, inv if e < 0 else range(n), abs(e)
        while True:
            if k & 1:
                p = base if p is None else [t[a][b] for a, b in zip(p, base)]
            k >>= 1
            if not k:
                break
            base = [t[b][b] for b in base]
        powers[e] = p
    results = []
    images = [0] * ngens
    nodes = 0

    def dfs(depth, trivial):
        nonlocal nodes
        if depth == ngens:
            if len(subgroup_closure(target, set(images))) == n:
                results.append(tuple(images))
            return
        xs = (first if trivial else candidates)[depth]
        nodes += len(xs)
        if nodes > budget:
            raise SearchBudgetExceeded(f"search exceeded {budget} nodes")
        for rel in by_depth[depth]:
            # keep the xs under which rel, c0 x^e1 c1 ... x^em cm, is the
            # identity: fold the list through it, then compare with cm^-1
            values, c = None, 0
            for g, e in rel:
                p = powers[e]
                if g < depth:
                    c = t[c][p[images[g]]]
                elif values is None:
                    values, c = [t[c][p[x]] for x in xs], 0
                else:
                    values, c = [t[t[v][c]][p[x]] for v, x in zip(values, xs)], 0
            goal = inv[c]
            xs = [x for x, v in zip(xs, values) if v == goal]
        for x in xs:
            images[depth] = x
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
        return WITNESSED if kill else BOUND_TOO_SMALL if self.classify_status == FA else UNWITNESSED

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
            "words": [{
                "word": render_word(e.word, gens),
                "status": e.status,
                "target": {"name": e.target_name, "order": e.target_order}
                if e.target_name else None,
            } for e in self.entries],
        }

    def json_chunks(self, lengths):
        """``json.dumps(self.as_dict(), indent=2, sort_keys=True)`` in pieces,
        with the words of `lengths`, (texts, kills) pairs, in place of the
        report's own: the header, one piece per pair, then the tail.  A text
        needs no escaping (generator names are ASCII letters, digits and
        underscores), and the text between two words depends only on the
        second's kill: it is built once per kill, from `json.dumps` of an
        entry whose word is empty."""
        header = {"classify_status": self.classify_status, "max_word_length": self.max_word_length,
                  "order_bound": self.order_bound, "presentation": self.presentation.render(),
                  "words": []}
        yield json.dumps(header, indent=2, sort_keys=True)[:-3]  # up to the words' "["
        close, seps, opened = "\"\n    },\n", {}, False  # close ends the previous entry
        for texts, kills in lengths:
            for kill in set(kills).difference(seps):
                entry = {"status": self.status_of(kill), "word": "",
                         "target": {"name": kill[0], "order": kill[1]} if kill else None}
                text = json.dumps(entry, indent=2, sort_keys=True).replace("\n", "\n    ")
                seps[kill] = close + "    " + text[: text.rindex('"')]
            chunk = "".join(chain.from_iterable(zip(map(seps.__getitem__, kills), texts)))
            if chunk and not opened:  # the first entry follows the list's "["
                chunk, opened = "\n" + chunk[len(close):], True
            yield chunk
        yield "\"\n    }\n  ]\n}" if opened else "]\n}"


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


def fa_scan(pres: Presentation, max_word_length: int, order_bound: int, hint=None) -> ScanReport:
    """The report of `_scan_lengths`: the annihilator search over every freely
    reduced word up to the given length.  Unwitnessed words are candidates
    only: when classification already says the group is F-A they are flagged
    as "bound too small" rather than failures, and otherwise the scan draws
    no conclusion."""
    lengths = _scan_lengths(pres, max_word_length, order_bound, hint)
    status = next(lengths)
    texts, kills = [], []
    for level_texts, level_kills in lengths:
        texts += level_texts
        kills += level_kills
    return ScanReport(pres, max_word_length, order_bound, status, tuple(texts), tuple(kills))


def _scan_lengths(pres: Presentation, max_word_length: int, order_bound: int, hint=None):
    """The scan as a stream: first the classification status, once the word
    budget has passed, then per length from 0 the texts and kills of its
    words in shortlex order, each as soon as the length is complete.

    Each target with a surjection is a `_Block` automaton, and a word's
    first kill is the first block whose state is killed.  A word's state is
    the tuple of its states in every block its parent holds, interned as an
    int with its own transition table, so a word costs one lookup once a
    word with its parent's state has been expanded.  Blocks are built only
    when a word needs them: a word that survives every block its parent
    holds first gives the parent (and each ancestor lacking it) the next
    block, and a target's surjections are fetched when the first word
    survives every earlier target.  The words are generated breadth first,
    which is shortlex order, each text from its parent's."""
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
    yield classify_fa(pres, hint).status
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

    # node j is the j-th word in shortlex order: its state and last letter
    # (-1 for the empty word); the words of the length being read, nodes
    # `start` on, keep their texts, bases (the text before the last
    # syllable) and runs (that syllable's letter count)
    nodes, lasts = [intern((0,) if reach_next_block() else ())], [-1]
    start, texts, bases, runs = 0, ["1"], [""], [0]

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
    # a word's first kill is final once it is made: later blocks reach only killed words
    for length in count():
        level = texts, [kills[state] for state in nodes[start:]]
        if length >= max_word_length:
            break
        yield level
        parents = zip(count(start), texts, bases, runs)
        start, texts, bases, runs = len(nodes), [], [], []
        for j, text, parent_base, run in parents:
            last = lasts[j]
            children = moves[nodes[j]]
            sep = text + " " if j else ""
            for letter in after[last]:
                child = children[letter]
                if child is None:
                    child = descend(j, letter)
                    children = moves[nodes[j]]
                if letter == last:
                    base, n = parent_base, run + 1
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
        if not texts:  # no words of this length, so none longer
            return
    # the automata are freed before the last length, the longest, is written
    blocks = ids = states = kills = moves = nodes = lasts = None
    yield level
