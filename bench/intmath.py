"""Small exact integer routines the benchmark uses on its own.

They generate inputs and check outputs independently of polycanon, so a
defect in the program's kernel cannot hide itself in its own checks.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v, strict=True))


def transpose(M: Sequence[Sequence[int]]) -> tuple:
    return tuple(zip(*M))


def det(M: Sequence[Sequence[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    n = len(M)
    A = [list(r) for r in M]
    if any(len(r) != n for r in A):
        raise ValueError("determinant needs a square matrix")
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1] if n else 1


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals by fraction-free integer elimination."""
    A = [list(r) for r in rows if any(r)]
    if not A:
        return 0
    r = 0
    for c in range(len(A[0])):
        piv = next((i for i in range(r, len(A)) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        for i in range(r + 1, len(A)):
            if A[i][c]:
                a, b = A[r][c], A[i][c]
                A[i] = [a * x - b * y for x, y in zip(A[i], A[r])]
        r += 1
        if r == len(A):
            break
    return r


def affine_rank(points: Sequence[Sequence[int]]) -> int:
    """Dimension of the affine hull of a nonempty point set."""
    p0 = points[0]
    return rank([[a - b for a, b in zip(p, p0)] for p in points[1:]])


def strictly_inside_simplex(simplex: Sequence[Sequence[int]],
                            x: Sequence[int]) -> bool:
    """Is ``x`` in the open full-dimensional simplex on ``simplex``?

    By Cramer's rule on the lifted vertices: every barycentric coordinate
    ``det_i / det`` must be positive.
    """
    lifted = [tuple(v) + (1,) for v in simplex]
    D = det(transpose(lifted))
    if D == 0:
        return False
    target = tuple(x) + (1,)
    for i in range(len(lifted)):
        cols = list(lifted)
        cols[i] = target
        if det(transpose(cols)) * D <= 0:
            return False
    return True


def witness_interior_point(points: Sequence[Sequence[int]]) -> Optional[tuple]:
    """A lattice point interior to the hull of full-dimensional ``points``,
    found as the rounded centroid strictly inside some candidate simplex;
    ``None`` when that search finds nothing."""
    n, d = len(points), len(points[0])
    x = tuple((sum(c) * 2 + n) // (2 * n) for c in zip(*points))
    for simplex in itertools.combinations(points, d + 1):
        if strictly_inside_simplex(simplex, x):
            return x
    return None


def simplex_volume(simplex: Sequence[Sequence[int]]) -> int:
    """Normalized volume of a full-dimensional lattice simplex."""
    base = simplex[0]
    return abs(det([[a - b for a, b in zip(p, base)] for p in simplex[1:]]))


def lattice_points_of_simplex(simplex: Sequence[Sequence[int]]) -> int:
    """Number of lattice points in a closed full-dimensional simplex, by
    testing every point of its bounding box."""
    lifted = [tuple(v) + (1,) for v in simplex]
    D = det(transpose(lifted))
    lo = [min(c) for c in zip(*simplex)]
    hi = [max(c) for c in zip(*simplex)]
    count = 0
    for x in itertools.product(*[range(a, b + 1) for a, b in zip(lo, hi)]):
        target = tuple(x) + (1,)
        ok = True
        for i in range(len(lifted)):
            cols = list(lifted)
            cols[i] = target
            if det(transpose(cols)) * D < 0:
                ok = False
                break
        count += ok
    return count
