"""Exact linear algebra: the determinant, the square solve and the echelon.

Determinants work on plain Python ints (arbitrary precision); rational input
is first brought to ints by one common denominator.  `bareiss_det`,
`adjugate` and `independent_rows` hold the package's only pivot searches.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def scale_to_ints(points) -> tuple[list[tuple[int, ...]], int]:
    """Clear denominators with one common scale for the whole point set.

    Coordinates are ints or Fractions; both carry `numerator` and
    `denominator`, so the scaling is integer arithmetic only.
    """
    den = lcm(*{c.denominator for p in points for c in p})
    return [tuple(c.numerator * (den // c.denominator) for c in p) for p in points], den


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix, fraction-free Bareiss scheme."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
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
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def solve(a, b) -> list[Fraction]:
    """Exact solution x of the nonsingular square system a x = b (Cramer's rule).

    Entries may be ints or Fractions; [a | b] is scaled to ints by one common
    denominator, which leaves the solution unchanged.
    """
    rows, _ = scale_to_ints([tuple(row) + (rhs,) for row, rhs in zip(a, b)])
    det = bareiss_det([r[:-1] for r in rows])
    if det == 0:
        raise ArithmeticError("singular system")
    return [Fraction(bareiss_det([r[:j] + r[-1:] + r[j + 1 : -1] for r in rows]), det) for j in range(len(rows))]


def independent_rows(rows, limit: int | None = None) -> tuple[list[int], list[int]]:
    """Greedy exact row echelon: the rows independent of the rows before them.

    Rows (int or Fraction entries, any iterable) are reduced one at a time
    against the rows kept so far, and the scan stops once `limit` rows are
    kept, so a long iterable is only read as far as needed.  Returns the
    indices of the kept rows and their pivot columns.  The kept rows
    restricted to the pivot columns form a nonsingular triangular matrix, so
    projecting the row span onto the pivot columns is injective.

    The elimination is fraction-free: each row is scaled to ints by its own
    denominators, a pivot is eliminated by integer cross-multiplication and
    the row is divided by its gcd.  Every step keeps the row a nonzero
    multiple of its rational reduction, so the zero pattern, and with it the
    choice of rows and pivots, is that of rational elimination.
    """
    kept: list[list[int]] = []
    pivots: list[int] = []
    chosen: list[int] = []
    for i, row in enumerate(rows):
        if len(chosen) == limit:
            break
        den = lcm(*(x.denominator for x in row))
        r = [x.numerator * (den // x.denominator) for x in row]
        for p, k in zip(pivots, kept):
            a = r[p]
            if a:
                b = k[p]
                r = [b * x - a * y for x, y in zip(r, k)]
                g = gcd(*r)
                if g > 1:
                    r = [x // g for x in r]
        p = next((j for j, x in enumerate(r) if x), None)
        if p is not None:
            kept.append(r)
            pivots.append(p)
            chosen.append(i)
    return chosen, pivots


def adjugate(rows) -> tuple[int, list[list[int]]]:
    """Determinant and adjugate of a nonsingular square integer matrix.

    Fraction-free Gauss-Jordan elimination (Bareiss) of [M | I]: every
    division by the previous pivot is exact (Sylvester's identity), and the
    elimination ends at [d I | d M^-1] with d = ±det M, the sign of the row
    swaps.  Raises ArithmeticError when M is singular.
    """
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign = 1
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                raise ArithmeticError("singular matrix")
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        row_k = m[k]
        pivot = row_k[k]
        for i, row_i in enumerate(m):
            if i != k:
                mik = row_i[k]
                m[i] = [(pivot * x - mik * y) // prev for x, y in zip(row_i, row_k)]
        prev = pivot
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def simplex_det(points: list[tuple[int, ...]], idxs: tuple[int, ...]) -> int:
    """Signed n!-scaled volume of the simplex on n+1 point indices."""
    base = points[idxs[0]]
    n = len(base)
    rows = [[points[i][j] - base[j] for j in range(n)] for i in idxs[1:]]
    return bareiss_det(rows)
