"""Exact integer Smith normal form with unimodular transform tracking.

Matrices are lists of rows of Python ints, so all arithmetic is arbitrary
precision.  ``smith_normal_form`` returns U, V with U*A*V = D, D diagonal
with a nonnegative divisibility chain and trailing zeros.  Entries of A, U
and V can still grow on dense inputs past about 20 columns, so an entry
longer than SNF_BIT_BUDGET bits raises SearchBudgetExceeded.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .config import SNF_BIT_BUDGET
from .errors import SearchBudgetExceeded

IntMatrix = list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_det(a: IntMatrix) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SnfResult:
    """U*A*V = D with U, V unimodular and D in Smith form."""

    d: tuple[tuple[int, ...], ...]
    u: tuple[tuple[int, ...], ...]
    v: tuple[tuple[int, ...], ...]

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0)))


def _pivot(a: IntMatrix, t: int) -> tuple[int, int] | None:
    """Smallest nonzero |entry| in the submatrix a[t:, t:], ties row-major."""
    best = None
    best_val = None
    for i in range(t, len(a)):
        row = a[i]
        for j in range(t, len(row)):
            x = row[j]
            if x != 0 and (best_val is None or abs(x) < best_val):
                best, best_val = (i, j), abs(x)
                if best_val == 1:
                    return best
    return best


def smith_normal_form(rows: list[list[int]]) -> SnfResult:
    m = len(rows)
    n = len(rows[0]) if rows else 0
    for row in rows:
        if len(row) != n:
            raise ValueError("ragged matrix")
    a = [list(map(int, row)) for row in rows]
    u = identity_matrix(m)
    v = identity_matrix(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def check_bits(*lines):
        # the entries a row or column operation just wrote
        bits = max(max(map(abs, line)) for line in lines).bit_length()
        if bits > SNF_BIT_BUDGET:
            raise SearchBudgetExceeded(
                f"Smith normal form of a {m}x{n} matrix wrote a {bits}-bit entry, "
                f"past the budget of {SNF_BIT_BUDGET} bits"
            )

    def add_row(src, dst, q):
        # row dst += q * row src
        arow, asrc = a[dst], a[src]
        for k in range(n):
            arow[k] += q * asrc[k]
        urow, usrc = u[dst], u[src]
        for k in range(m):
            urow[k] += q * usrc[k]
        check_bits(arow, urow)

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]
        check_bits([row[dst] for row in a], [row[dst] for row in v])

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(m, n)
    while t < limit:
        loc = _pivot(a, t)
        if loc is None:
            break
        swap_rows(t, loc[0])
        swap_cols(t, loc[1])
        if a[t][t] < 0:
            negate_row(t)
        while True:
            # Euclid runs each row, then each column, against the pivot until
            # its entry is zero, clearing column t below and row t right of
            # the pivot; each remainder swap strictly shrinks the pivot.
            for i in range(t + 1, m):
                while a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
            for j in range(t + 1, n):
                while a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
            # a column swap may refill column t below the pivot
            if any(a[i][t] != 0 for i in range(t + 1, m)):
                continue
            # Divisibility: fold in any non-multiple so d_t | d_{t+1} | ...
            d = a[t][t]
            offender = None
            for i in range(t + 1, m):
                row = a[i]
                for j in range(t + 1, n):
                    if row[j] % d != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        t += 1

    frozen = SnfResult(
        d=tuple(tuple(row) for row in a),
        u=tuple(tuple(row) for row in u),
        v=tuple(tuple(row) for row in v),
    )
    return frozen


def smith_diagonal_reference(rows: list[list[int]]) -> list[int]:
    """Transform-free reduction used as a cross-check oracle.

    Deliberately structured differently from ``smith_normal_form``: it
    recurses on submatrices, accumulates gcds by repeated subtraction, and
    repairs the divisibility chain with a final gcd/lcm sweep.
    """
    a = [list(map(int, row)) for row in rows]
    diag: list[int] = []
    while a and a[0]:
        if all(x == 0 for row in a for x in row):
            diag.extend(0 for _ in range(min(len(a), len(a[0]))))
            break
        # move a smallest nonzero entry to (0, 0)
        i0, j0 = min(
            ((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x != 0),
            key=lambda ij: abs(a[ij[0]][ij[1]]),
        )
        a[0], a[i0] = a[i0], a[0]
        for row in a:
            row[0], row[j0] = row[j0], row[0]
        while True:
            if a[0][0] < 0:
                a[0] = [-x for x in a[0]]
            done = True
            for i in range(1, len(a)):
                while a[i][0] != 0:
                    q = a[i][0] // a[0][0]
                    if q == 0:
                        a[0], a[i] = a[i], a[0]
                        if a[0][0] < 0:
                            a[0] = [-x for x in a[0]]
                        done = False
                        continue
                    a[i] = [x - q * y for x, y in zip(a[i], a[0])]
            for j in range(1, len(a[0])):
                while a[0][j] != 0:
                    q = a[0][j] // a[0][0]
                    if q == 0:
                        for row in a:
                            row[0], row[j] = row[j], row[0]
                        done = False
                        continue
                    for row in a:
                        row[j] -= q * row[0]
            if done and all(row[0] == 0 for row in a[1:]) and all(
                x == 0 for x in a[0][1:]
            ):
                break
        diag.append(abs(a[0][0]))
        a = [row[1:] for row in a[1:]]
    # repair divisibility: replace (x, y) by (gcd, lcm) until chained
    changed = True
    while changed:
        changed = False
        for k in range(len(diag) - 1):
            x, y = diag[k], diag[k + 1]
            if x == 0 and y != 0:
                diag[k], diag[k + 1] = y, 0
                changed = True
            elif x != 0 and y % x != 0:
                g = gcd(x, y)
                diag[k], diag[k + 1] = g, x * y // g
                changed = True
    return diag
