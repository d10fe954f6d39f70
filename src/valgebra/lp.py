"""Exact membership of a point in the convex hull of a finite point set.

The points are projected to the pivot coordinates of their affine hull, on
which that hull projects injectively.  A query off the affine hull is
outside; any other query is checked against the facets of the projected,
full-dimensional hull.
"""

from __future__ import annotations

from .hull import hull_data
from .intlinalg import independent_rows


def point_in_hull(point: tuple, points: list[tuple]) -> bool:
    """True iff `point` is a convex combination of `points` (exact)."""
    if not points:
        return False
    base = points[0]
    diffs = [tuple(c - b for c, b in zip(p, base)) for p in points[1:]]
    diffs.append(tuple(c - b for c, b in zip(point, base)))
    kept, cols = independent_rows(diffs)
    if kept and kept[-1] == len(diffs) - 1:
        return False  # the query leaves the affine hull
    if not cols:
        return True  # every point, the query included, equals base
    data = hull_data([tuple(p[c] for c in cols) for p in points], len(cols))
    return data.contains(tuple(point[c] for c in cols))
