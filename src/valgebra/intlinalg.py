"""Exact integer linear algebra used by the hull engine.

Everything here works on plain Python ints (arbitrary precision), which is
what the hull engine uses internally after clearing denominators.
"""

from __future__ import annotations

from fractions import Fraction


def bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, fraction-free Bareiss scheme."""
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
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


def independent_rows(rows, limit: int | None = None) -> tuple[list[int], list[int]]:
    """Greedy exact row echelon: the rows independent of the rows before them.

    Rows (int or Fraction entries, any iterable) are reduced one at a time
    against the rows kept so far, and the scan stops once `limit` rows are
    kept, so a long iterable is only read as far as needed.  Returns the
    indices of the kept rows and their pivot columns.  The kept rows
    restricted to the pivot columns form a nonsingular triangular matrix, so
    projecting the row span onto the pivot columns is injective.
    """
    kept: list[list[Fraction]] = []
    pivots: list[int] = []
    chosen: list[int] = []
    for i, row in enumerate(rows):
        if len(chosen) == limit:
            break
        r = [Fraction(x) for x in row]
        for p, k in zip(pivots, kept):
            if r[p]:
                f = r[p]
                r = [a - f * b for a, b in zip(r, k)]
        p = next((j for j, x in enumerate(r) if x), None)
        if p is not None:
            piv = r[p]
            kept.append([x / piv for x in r])
            pivots.append(p)
            chosen.append(i)
    return chosen, pivots


def hyperplane_through(points: list[tuple[int, ...]], idxs: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Integer normal and offset of the hyperplane through n points in dim n.

    Returns (normal, c) with normal . x == c on the hyperplane.  The normal is
    the zero vector when the points are affinely dependent.
    """
    base = points[idxs[0]]
    n = len(base)
    edges = [[points[i][j] - base[j] for j in range(n)] for i in idxs[1:]]
    normal = []
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in edges]
        d = bareiss_det(minor)
        normal.append(-d if j % 2 else d)
    c = sum(normal[j] * base[j] for j in range(n))
    return tuple(normal), c


def simplex_det(points: list[tuple[int, ...]], idxs: tuple[int, ...]) -> int:
    """Signed n!-scaled volume of the simplex on n+1 point indices."""
    base = points[idxs[0]]
    n = len(base)
    rows = [[points[i][j] - base[j] for j in range(n)] for i in idxs[1:]]
    return bareiss_det(rows)
