"""Annihilation witnesses: explicit surjections from a presented group onto
small finite groups that kill a given word.

The target catalog is a fixed, documented family list (cyclic, elementary
abelian, dihedral, S3, S4, A4, A5, Q8, SL(2,3)); completeness over *all*
groups of a given order is deliberately not claimed, and a "none <= B"
outcome is never evidence that no witness exists beyond the bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .catalog import (
    alternating_group,
    cyclic_group,
    dihedral_group,
    elementary_group,
    quaternion_group,
    special_linear_group,
    symmetric_group,
)
from .classify import FA, classify_fa
from .config import DEFAULT_SEARCH_BUDGET
from .errors import SearchBudgetExceeded
from .fingroup import FiniteGroup, conjugacy_classes, subgroup_closure
from .presentation import Presentation
from .words import EMPTY_WORD, Word, max_generator, render_word

MAX_WITNESS_BOUND = 128
# Most words one scan visits.  A scan stays under 1 GiB at this count: a word
# costs about 1 KiB, and one generator adds 14 KiB per letter of path depth.
SCAN_WORD_BUDGET = 3 * 10**4


def evaluate_word(group: FiniteGroup, images, word: Word) -> int:
    """Image of a word under generator images, with each syllable exponent
    reduced modulo the image's order."""
    orders = group.element_orders()
    acc = 0
    for g, e in word:
        x = images[g]
        k = e % orders[x]
        for _ in range(k):
            acc = group.table[acc][x]
    return acc


def evaluate_word_direct(group: FiniteGroup, images, word: Word) -> int:
    """Evaluation by square-and-multiply on the table and inverse alone (no
    element orders, no modular shortcut); the independent re-verification
    route, logarithmic in each exponent."""
    t = group.table
    acc = 0
    for g, e in word:
        x = images[g] if e > 0 else group.inverse[images[g]]
        k = abs(e)
        while k:
            if k & 1:
                acc = t[acc][x]
            k >>= 1
            if k:
                x = t[x][x]
    return acc


@lru_cache(maxsize=8)
def witness_targets(bound: int) -> tuple[FiniteGroup, ...]:
    """The fixed search catalog, restricted to orders <= bound and sorted by
    (order, name)."""
    if bound > MAX_WITNESS_BOUND:
        raise SearchBudgetExceeded(
            f"witness bound {bound} exceeds the catalog maximum {MAX_WITNESS_BOUND}"
        )
    groups = [cyclic_group(n) for n in range(2, bound + 1)]
    for p in (2, 3, 5, 7, 11):
        k = 2
        while p**k <= bound:
            groups.append(elementary_group(p, k))
            k += 1
    groups += [dihedral_group(n) for n in range(3, bound // 2 + 1)]
    for builder, order in (
        (lambda: symmetric_group(3), 6),
        (lambda: symmetric_group(4), 24),
        (lambda: alternating_group(4), 12),
        (lambda: alternating_group(5), 60),
        (quaternion_group, 8),
        (lambda: special_linear_group(3), 24),
    ):
        if order <= bound:
            groups.append(builder())
    return tuple(sorted(groups, key=lambda g: (g.order, g.name)))


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
    return _surjection_search(pres, target, None)


@lru_cache(maxsize=4096)
def _surjections_cached(pres, target):
    """The surjections whose first non-identity image is the least of its orbit
    (`_orbit_minima`), in lexicographic order.  Automorphisms of the target keep
    relators, surjectivity and kills, so the first killing surjection stays."""
    return tuple(_surjection_search(pres, target, _orbit_minima(target)))


def _orbit_minima(target: FiniteGroup) -> bytes:
    """Per element, 1 if it is the least of its orbit under automorphisms:
    its conjugacy class in a nonabelian target, else the generators of its cyclic
    subgroup.  Costs what `conjugacy_classes` costs, plus in an abelian target
    the sum of the minima's orders."""
    flags = target._cache.get("orbit_minima")
    if flags is None:
        t, n = target.table, target.order
        classes = conjugacy_classes(target)
        flags = bytearray(n)
        if len(classes) < n:  # nonabelian
            for cls in classes:
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
    of order dividing |m|, and each relator is checked once its generators are.
    """
    budget = DEFAULT_SEARCH_BUDGET
    ngens = pres.ngens
    n = target.order
    if n**ngens > budget:
        raise SearchBudgetExceeded(f"assignment space {n}^{ngens} exceeds budget {budget}")
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
        mg = max_generator(rel)
        if mg >= 0:
            by_depth[mg].append(rel)

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
    # reaches it
    space = ((t, _surjections_cached(pres, t)) for t in witness_targets(order_bound))
    found = _first_kill(space, word)
    if found is None:
        return None
    witness = Witness(pres, word, *found)
    if not verify_witness(witness):
        raise AssertionError(
            f"internal error: witness onto {witness.target.name} failed re-verification"
        )
    return witness


def nontrivial_quotient_exists(pres: Presentation, order_bound: int) -> Witness | None:
    """First surjection onto any nontrivial catalog group within the bound
    (reported with the empty word); None means none was found *within the
    searched catalog and bound*, not that none exists."""
    return find_annihilator(pres, EMPTY_WORD, order_bound)


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
    presentation: Presentation
    max_word_length: int
    order_bound: int
    classify_status: str
    entries: tuple[ScanEntry, ...]

    @property
    def witnessed(self) -> tuple[ScanEntry, ...]:
        return tuple(e for e in self.entries if e.status == WITNESSED)

    @property
    def unwitnessed(self) -> tuple[ScanEntry, ...]:
        return tuple(e for e in self.entries if e.status != WITNESSED)

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
        written directly: the text of an entry before its word depends only
        on its status and target, so it is built once per distinct pair."""
        gens = self.presentation.generators
        heads: dict[tuple, str] = {}
        words = []
        for e in self.entries:
            key = (e.status, e.target_name, e.target_order)
            head = heads.get(key)
            if head is None:
                if e.target_name:
                    target = (
                        "{\n        \"name\": " + json.dumps(e.target_name)
                        + ",\n        \"order\": " + json.dumps(e.target_order)
                        + "\n      }"
                    )
                else:
                    target = "null"
                head = heads[key] = (
                    "    {\n      \"status\": " + json.dumps(e.status)
                    + ",\n      \"target\": " + target + ",\n      \"word\": "
                )
            words.append(head + json.dumps(render_word(e.word, gens)) + "\n    }")
        listing = "[\n" + ",\n".join(words) + "\n  ]" if words else "[]"
        return (
            "{\n  \"classify_status\": " + json.dumps(self.classify_status)
            + ",\n  \"max_word_length\": " + json.dumps(self.max_word_length)
            + ",\n  \"order_bound\": " + json.dumps(self.order_bound)
            + ",\n  \"presentation\": " + json.dumps(self.presentation.render())
            + ",\n  \"words\": " + listing + "\n}"
        )


def fa_scan(
    pres: Presentation, max_word_length: int, order_bound: int, hint=None
) -> ScanReport:
    """Run the annihilator search over every freely reduced word up to the
    given length (shortlex order).  Unwitnessed words are candidates only:
    when classification already says the group is F-A they are flagged as
    "bound too small" rather than failures, and otherwise the scan draws no
    conclusion.

    The freely reduced words form a tree under appending a letter, walked
    once depth first in alphabet order; within one length that order is
    shortlex.  Each node on the path keeps, per target block, the images of
    its word under every surjection onto that target in search order, so a
    child costs one table lookup per surjection and its first kill is the
    first block holding the identity.  Blocks and node values are built
    only when a word reaches them: a target's surjections are fetched when
    the first word survives every earlier target.
    """
    # 1 + sum over l = 1..L of 2k (2k - 1)^(l - 1) freely reduced words, with L
    # cut where the count surely passes the budget
    k, cut = pres.ngens, SCAN_WORD_BUDGET.bit_length() if pres.ngens > 1 else SCAN_WORD_BUDGET
    length = max(0, min(max_word_length, cut))
    words = 1 + 2 * k * length if k < 2 else 1 + k * ((2 * k - 1) ** length - 1) // (k - 1)
    if words > SCAN_WORD_BUDGET:
        raise SearchBudgetExceeded(
            f"a scan to length {max_word_length} passes the budget of {SCAN_WORD_BUDGET} "
            f"words: it visits {words} to length {length}"
        )
    verdict = classify_fa(pres, hint)
    unkilled = BOUND_TOO_SMALL if verdict.status == FA else UNWITNESSED
    pending = iter(witness_targets(order_bound))
    # per target with at least one surjection: (target, table, per-letter
    # images, identity values); letter 2g is g, letter 2g + 1 its inverse
    blocks = []

    def reach_next_block() -> bool:
        for target in pending:
            surjections = _surjections_cached(pres, target)
            if surjections:
                letter_images = []
                for g in range(pres.ngens):
                    column = [images[g] for images in surjections]
                    letter_images += [column, [target.inverse[x] for x in column]]
                blocks.append((target, target.table, letter_images, [0] * len(surjections)))
                return True
        return False

    # the path from the root: letters[d] is the last letter of the word at
    # depth d, values[d] its value lists for a prefix of the blocks (every
    # ancestor holds at least as many blocks as the node below it)
    letters = [-1]
    words = [EMPTY_WORD]
    values: list[list[list[int]]] = [[]]
    next_letter = [0]

    def extend(depth: int, i: int) -> list[int]:
        # values of block i for the node at `depth` and each ancestor that
        # lacks them, from the deepest ancestor that has them downwards
        k = depth
        while k and len(values[k - 1]) == i:
            k -= 1
        _, table, letter_images, identity = blocks[i]
        if k == 0:
            values[0].append(identity)
            k = 1
        for j in range(k, depth + 1):
            values[j].append(
                [table[v][x] for v, x in zip(values[j - 1][i], letter_images[letters[j]])]
            )
        return values[depth][i]

    def entry(depth: int) -> ScanEntry:
        # the node was just pushed: it holds values for blocks 0..i-1 at
        # the top of each round
        own = values[depth]
        parent = values[depth - 1] if depth else ()
        letter = letters[depth]
        i = 0
        while True:
            if i < len(parent):  # the common case: one step from the parent
                _, table, letter_images, _ = blocks[i]
                row = [table[v][x] for v, x in zip(parent[i], letter_images[letter])]
                own.append(row)
            elif i < len(blocks) or reach_next_block():
                row = extend(depth, i)
            else:
                return ScanEntry(words[depth], unkilled)
            if 0 in row:
                target = blocks[i][0]
                return ScanEntry(words[depth], WITNESSED, target.name, target.order)
            i += 1

    by_length: list[list[ScanEntry]] = [[entry(0)]]
    nletters = 2 * pres.ngens
    depth = 0
    while True:
        letter = next_letter[depth]
        if depth >= max_word_length or letter == nletters:
            if depth == 0:
                break
            for path in (letters, words, values, next_letter):
                path.pop()
            depth -= 1
            continue
        next_letter[depth] = letter + 1
        if letter == letters[depth] ^ 1:  # never follow a letter by its inverse
            continue
        word = words[depth]
        g, sign = letter >> 1, -1 if letter & 1 else 1
        if word and word[-1][0] == g:
            word = word[:-1] + ((g, word[-1][1] + sign),)
        else:
            word += ((g, sign),)
        letters.append(letter)
        words.append(word)
        values.append([])
        next_letter.append(0)
        depth += 1
        if depth == len(by_length):
            by_length.append([])
        by_length[depth].append(entry(depth))
    return ScanReport(
        pres,
        max_word_length,
        order_bound,
        verdict.status,
        tuple(e for level in by_length for e in level),
    )
