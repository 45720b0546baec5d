"""Answer checks for benchmark ops, independent of the code under test.

Finite groups are checked against the closed-form abelianisation of their
spec: F-A iff d(G^ab) >= 2, n-F-A iff d(G^ab) >= n + 1, and weight =
max(1, d(G^ab)) for nontrivial G, where d is the least number of generators.
Presentations are checked against the SNF referee
``smith_diagonal_reference`` applied to exponent sums the benchmark computes
itself, and against facts the inputs were built to have.  Each check returns
None when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
import re

# cyclic factors of G^ab and |G| per catalog family
_FAMILIES = {
    "C": lambda n: ([n] if n > 1 else [], n),
    "CxC": lambda m, n: ([m, n], m * n),
    "E": lambda p, k: ([p] * k, p**k),
    "D": lambda n: ([2] if n % 2 else [2, 2], 2 * n),
    "S": lambda n: ([2], math.factorial(n)),
    "A": lambda n: ([3] if n <= 4 else [], math.factorial(n) // 2),
    "Q8": lambda: ([2, 2], 8),
    "SL": lambda p: ({2: [2], 3: [3]}.get(p, []), p * (p * p - 1)),
}


def spec_abelianisation(spec: str) -> tuple[list[int], int]:
    """Cyclic factors of G^ab and |G| for a group spec such as
    ``prod(A 4, CxC 2 6)``; products multiply."""
    spec = spec.strip()
    if spec.startswith("prod(") and spec.endswith(")"):
        inner = spec[5:-1]
        depth = 0
        for i, ch in enumerate(inner):
            depth += {"(": 1, ")": -1}.get(ch, 0)
            if ch == "," and depth == 0:
                left, lo = spec_abelianisation(inner[:i])
                right, ro = spec_abelianisation(inner[i + 1:])
                return left + right, lo * ro
        raise ValueError(f"no top-level comma in {spec!r}")
    family, *params = spec.split()
    return _FAMILIES[family](*map(int, params))


def generator_rank(factors) -> int:
    """d(A) for A = prod C_f: the largest number of factors one prime divides."""
    primes = {p for f in factors for p in _prime_divisors(f)}
    return max((sum(1 for f in factors if f % p == 0) for p in primes), default=0)


def _prime_divisors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def catalog_count(max_order: int) -> int:
    """Groups of the built-in catalog (order bound 32) of order <= max_order."""
    orders = list(range(1, 33))
    orders += [m * n for m in range(2, 33) for n in range(m, 33) if m * n <= 32]
    orders += [p**k for p in (2, 3, 5) for k in range(2, 6) if p**k <= 32]
    orders += [2 * n for n in range(3, 17)]
    orders += [6, 24, 120, 12, 60, 8, 24, 120]  # S3 S4 S5 A4 A5 Q8 SL(2,3) SL(2,5)
    return sum(1 for o in orders if o <= max_order)


def reduced_word_count(ngens: int, max_length: int) -> int:
    """Freely reduced words of length <= max_length in a free group."""
    letters = 2 * ngens
    return 1 + sum(letters * (letters - 1) ** (k - 1) for k in range(1, max_length + 1))


def referee_invariants(rows, ngens):
    """(free_rank, torsion factors) from the SNF referee."""
    from groupcover.snf import smith_diagonal_reference

    diagonal = smith_diagonal_reference(rows) if rows else []
    nonzero = [d for d in diagonal if d != 0]
    return ngens - len(nonzero), [d for d in nonzero if d != 1]


def exponent_rows(relators, ngens):
    rows = []
    for rel in relators:
        row = [0] * ngens
        for g, e in rel:
            row[g] += e
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# per-kind checks on the parsed JSON output


def check(op_check: dict, stdout: str) -> str | None:
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    return _CHECKS[op_check["kind"]](op_check, payload)


def _check_finite(spec, out):
    if "spec" in spec:
        factors, order = spec_abelianisation(spec["spec"])
    else:
        family, *params = spec["family"]
        factors, order = _FAMILIES[family](*params)
    d = generator_rank(factors)
    if out["order"] != order:
        return f"order {out['order']} != {order}"
    reports = list(out["reports"])
    fa = reports.pop(0)
    if fa["property"] != "F-A" or fa["verdict"] != (d >= 2):
        return f"F-A verdict {fa['verdict']} but d(G^ab) = {d}"
    if "nfa" in spec:
        n = spec["nfa"]
        nfa = reports.pop(0)
        if nfa["property"] != f"{n}-F-A" or nfa["verdict"] != (d >= n + 1):
            return f"{n}-F-A verdict {nfa['verdict']} but d(G^ab) = {d}"
    if spec.get("weight"):
        weight = reports.pop(0)["weight"]
        if weight != max(1, d):
            return f"weight {weight} != max(1, {d})"
    if spec.get("verify"):
        if reports.pop(0)["passed"] is not True:
            return "theorem verification did not pass"
    if reports:
        return f"{len(reports)} unexpected reports"
    return None


def _check_verify_all(spec, out):
    expected = catalog_count(spec["max_order"])
    if out["groups_checked"] != expected:
        return f"{out['groups_checked']} groups checked, expected {expected}"
    if out["mismatches"] or not all(r["passed"] for r in out["reports"]):
        return "theorem mismatches reported"
    return None


def _check_analyze(spec, out):
    ngens = spec["ngens"]
    free_rank, factors = referee_invariants(exponent_rows(spec["relators"], ngens), ngens)
    got = out["invariants"]
    if got["free_rank"] != free_rank or got["factors"] != factors:
        return f"invariants {got} != referee ({free_rank}, {factors})"
    rank = free_rank + generator_rank(factors)  # largest k with G ->> C_p^k
    if (out["verdict"] == "FA") != (rank >= 2):
        return f"F-A verdict {out['verdict']} with elementary rank {rank}"
    if (out["nfa"]["verdict"] == "FA") != (rank >= 3):
        return f"2-F-A verdict {out['nfa']['verdict']} with elementary rank {rank}"
    return None


def _check_witness(spec, out):
    """expect "none": the input was built so that no finite quotient kills
    the word.  expect "ab-trivial": the word dies in G^ab, so whenever the
    referee finds G^ab nontrivial some C_p quotient is a witness."""
    witness = out["witness"]
    if witness is None:
        if spec["expect"] == "ab-trivial":
            ngens = spec["ngens"]
            free_rank, factors = referee_invariants(
                exponent_rows(spec["relators"], ngens), ngens
            )
            if free_rank or factors:
                return "no witness for a word that dies in a nontrivial G^ab"
        return None
    if spec["expect"] == "none":
        return f"witness onto {witness['target']['name']} where none can exist"
    if witness.get("verified") is not True:
        return "witness not verified"
    if not 1 < witness["target"]["order"] <= spec["bound"]:
        return f"target order {witness['target']['order']} outside (1, {spec['bound']}]"
    return None


_SYLLABLE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def _exponent_sums(text, names):
    sums = dict.fromkeys(names, 0)
    if text == "1":
        return sums
    for token in text.split():
        m = _SYLLABLE.match(token)
        sums[m.group(1)] += int(m.group(2) or 1)
    return sums


def _check_scan(spec, out):
    words = out["words"]
    expected = reduced_word_count(len(spec["names"]), spec["max_length"])
    if len(words) != expected:
        return f"{len(words)} words scanned, expected {expected}"
    # C_p * C_q * C_r has cyclic abelianisation C_pqr: inconclusive without hint
    if out["classify_status"] != "Unknown":
        return f"classify status {out['classify_status']}"
    orders = dict(zip(spec["names"], spec["orders"]))
    for entry in words:
        sums = _exponent_sums(entry["word"], spec["names"])
        congruent = any(sums[n] % orders[n] == 0 for n in spec["names"])
        if entry["status"] == "witnessed":
            if not 1 < entry["target"]["order"] <= spec["bound"]:
                return f"word {entry['word']}: target order outside the bound"
        elif congruent:
            return f"word {entry['word']} dies in a cyclic quotient but is {entry['status']}"
        elif entry["status"] != "unwitnessed":
            return f"word {entry['word']} has status {entry['status']}"
    return None


_CHECKS = {
    "finite": _check_finite,
    "verify-all": _check_verify_all,
    "analyze": _check_analyze,
    "witness": _check_witness,
    "scan": _check_scan,
}
