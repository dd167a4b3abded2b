"""Simplex-specific machinery: barycentric coordinates, emptiness and
unimodularity tests, normalized volume, and half-open fundamental domains
with the interior cone slices read off them.

Every half-open box comes from one enumerator, :func:`half_open_boxes`,
which takes a whole stack of lifted simplices at once from one batched
adjugate; :func:`square_lift` first puts a point set that is not square
onto a chart of its own points.  The unimodularity test alone takes a
Smith form."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .cone import GradedPoint, ReductionWitness
from .exactmath import (
    _INT64_GUARD,
    _cofactor_stack,
    _minors,
    as_matrix,
    build_chart,
    det_bareiss,
    det_stack,
    smith_normal_form,
    solve_rational,
    transpose,
    vsub,
)
from .polytope import Polytope


@dataclass(frozen=True)
class BarycentricCoords:
    """Coefficients of a graded point over the lifted simplex vertices,
    listed in the simplex's sorted vertex order.  The coefficients of a
    point of degree ``k`` sum to ``k``."""

    coefficients: tuple


def _require_simplex(P: Polytope) -> None:
    if not P.is_simplex():
        raise ValueError("this operation needs a simplex")


def barycentric(P: Polytope, y: GradedPoint) -> BarycentricCoords:
    """Solve ``y = sum(coeff_i * (v_i, 1))`` exactly; unique for simplices.

    Raises ``ValueError`` when ``y`` is outside the linear span of the
    lifted vertices.
    """
    _require_simplex(P)
    lifted = [v + (1,) for v in P.vertices]
    sol = solve_rational(transpose(lifted), y.lifted)
    if sol is None:
        raise ValueError(f"{y} is not in the span of the lifted simplex")
    return BarycentricCoords(sol)


def unit_box_decomposition(P: Polytope, y: GradedPoint) -> ReductionWitness:
    """Split an interior graded point over a simplex into an interior part
    with all barycentric coefficients in ``(0, 1]`` plus lifted vertices.

    The interior part has degree at most ``dim + 1``, which is what caps
    the reduced degree of every interior point.
    """
    coeffs = barycentric(P, y).coefficients
    if not all(c > 0 for c in coeffs):
        raise ValueError(f"{y} is not in the interior of the simplex cone")
    lifted = [v + (1,) for v in P.vertices]
    counts = [math.ceil(c) - 1 for c in coeffs]
    z = list(y.lifted)
    parts = []
    for v, c in zip(lifted, counts, strict=True):
        for j in range(len(z)):
            z[j] -= c * v[j]
        parts.extend([GradedPoint(v[:-1], 1)] * c)
    parts.sort(key=lambda p: p.position)
    return ReductionWitness(GradedPoint.from_lifted(z), tuple(parts))


def is_empty_simplex(P: Polytope) -> bool:
    """A simplex whose only lattice points are its vertices."""
    return P.is_simplex() and len(P.lattice_points(1)) == len(P.vertices)


def is_unimodular(P: Polytope) -> bool:
    """A simplex of normalized volume one in the lattice of its hull."""
    if not P.is_simplex():
        return False
    lifted = [v + (1,) for v in P.vertices]
    S, _, _ = smith_normal_form(lifted)
    return all(S[i][i] == 1 for i in range(len(lifted)))


def normalized_volume(P: Polytope) -> int:
    """Normalized volume of a simplex: the index of the lattice spanned by
    its edge vectors inside the lattice of its affine hull."""
    _require_simplex(P)
    if P.dim == 0:
        return 1
    q0 = P._fd_vertices[0]
    edges = [vsub(q, q0) for q in P._fd_vertices[1:]]
    return abs(det_bareiss(edges))


def _compositions(total: int, parts: int) -> Iterator[tuple]:
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def square_lift(points: Sequence) -> list:
    """The lifted rows ``(x, 1)`` of points, square.

    Points with one more of them than coordinates are lifted as they are.
    Any others (off a hull's chart, or a lower-dimensional face) are
    lifted on a chart of their own affine hull (:func:`build_chart`),
    which maps the hull's lattice points onto ``Z^dim``; the lattice their
    lifts span, and every half-open box in it, is the same up to the
    chart.  Points that are still not square there are affinely dependent
    and raise ``ValueError``; square points may be too, with determinant
    zero.
    """
    pts = as_matrix(points)
    if not pts:
        raise ValueError("need at least one point")
    if len(pts) != len(pts[0]) + 1:
        chart = build_chart(pts)
        if len(pts) != chart.dim + 1:
            raise ValueError("points are not affinely independent")
        pts = [chart.to_chart(p) for p in pts]
    return [p + (1,) for p in pts]


def half_open_boxes(M: np.ndarray, dets: Sequence[int],
                    rows: Optional[np.ndarray] = None) -> tuple:
    """The half-open boxes of a stack of lifted simplices, from one
    batched integer adjugate.

    ``M`` is a stack of square lifted matrices (one point and a one per
    row, as :func:`square_lift` gives them) and ``dets`` their nonzero
    determinants.  The box of ``M`` holds the lattice points ``t M`` with
    every ``t_i`` in ``[0, 1)``, one per coset of ``Z^n / Z^n M``, a group
    of order ``D = |det M|``, so it has as many points as the simplex has
    normalized volume.  As ``M``'s last column is ones, that group is
    ``Z^(n-1)`` modulo the lattice of the edges ``x_j - x_0``, and its
    cosets are the mixed-radix box ``0 <= y_i < h_i`` (and ``0`` in the
    last coordinate), the ``h_i`` the diagonal of an upper-triangular
    Hermite basis of the edge lattice: ``h_1 ... h_k`` is the index of the
    lattice spanned by the edges' first ``k`` coordinates, the gcd of
    their ``k x k`` minors.  A coset ``y`` has ``D t = y adj(M) mod D``,
    as ``adj(M) = det M^-1`` (for a negative ``det`` that is the coset of
    ``-y``, so the cosets are the same), and the box point ``(D t) M / D``,
    each division checked exact.  Every minor comes from the one minors
    kernel, :func:`_minors`: the edges' ``k x k`` minors directly, the
    adjugate's through :func:`_cofactor_stack`, and the adjugate's give
    the gcd for ``k = n - 2`` too.  The box
    points are read off ``rows`` instead of ``M`` when given: the lifted
    points that :func:`square_lift` put on charts of their own.

    The arrays are int64 while ``n`` times the largest squared Hadamard
    bound times the largest squared entry, which bounds every value
    formed, stays under ``_INT64_GUARD``, and Python ints (``object``)
    past it, with the same statements.  Returns ``(owner, coefficients,
    points)``: the box points matrix by matrix, with the index of each
    one's matrix, its ``D t`` and its lattice point.
    """
    rows = M if rows is None else rows
    s, n = len(M), M.shape[-1]
    big = max(int(np.abs(M).max(initial=0)),
              int(np.abs(rows).max(initial=0)), 1)
    wide = n * big * big >= _INT64_GUARD or n * big * big * max(
        (math.prod(r) for r in (M * M).sum(axis=2).tolist()),
        default=1) >= _INT64_GUARD
    dtype = object if wide else np.int64
    M, rows = M.astype(dtype), rows.astype(dtype)
    dets = np.array(dets, dtype=dtype).reshape(s)
    D = np.abs(dets)

    # adj(M) = cof(M)^T; its row i belongs to coordinate i
    adj = _cofactor_stack(M).astype(dtype).transpose(0, 2, 1)
    A = adj[:, :-1] % D[:, None, None]
    # G[:, k] = h_1 ... h_k: 1, the gcd of the edges' k x k minors for
    # 0 < k < n - 2, that of M's minors without column n - 2 (the same up
    # to sign) for k = n - 2, and D; its last n columns are kept, as for
    # n <= 2 the columns before them repeat G_0
    E = M[:, 1:, :-1] - M[:, :1, :-1]
    G = [np.ones((s, 1), dtype=dtype)]
    for k in range(1, n - 2):
        r = np.array(list(itertools.combinations(range(n - 1), k)),
                     dtype=np.intp)
        G.append(np.gcd.reduce(_minors(E, r, np.arange(k)[None]), axis=1,
                               keepdims=True))
    G += [np.gcd.reduce(adj[:, n - 2:n - 1], axis=2), D[:, None]]
    G = np.concatenate(G, axis=1)[:, -n:]
    h = G[:, 1:] // G[:, :-1]
    counts = D.astype(np.int64)
    owner = np.repeat(np.arange(s), counts)
    q = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    coefficients = np.zeros((len(owner), n), dtype=dtype)
    for i in range(n - 1):  # digit i of each point's index in the radices h
        coefficients += (q % h[owner, i])[:, None] * A[owner, i]
        q = q // h[owner, i]
    Dp = D[owner, None]
    coefficients %= Dp
    Y = np.einsum("pi,pij->pj", coefficients, rows[owner])
    if (Y % Dp).any():
        raise AssertionError("fundamental-domain point not integral")
    return owner, coefficients, Y // Dp


def face_box_points(lifted: np.ndarray, first: np.ndarray,
                    support: np.ndarray, points: np.ndarray,
                    box: np.ndarray, on: np.ndarray) -> tuple:
    """The ``(0, 1]`` boxes ``{sum t_i * w_i : 0 < t_i <= 1}`` of many
    faces at once, read off their cells' boxes.

    Box ``b`` has the lifted generator rows ``lifted[b]`` (one per
    simplex vertex) and the box points ``points[first[b]:first[b + 1]]``
    (:func:`half_open_boxes`), with ``support`` their nonzero coefficients
    as booleans.  Face ``f`` lies in box ``box[f]`` at the vertex positions
    where ``on[f]`` is true.  The lattice of the face's span is the cell's
    lattice cut down to it, so the face's ``[0, 1)`` box is the cell's box
    points with no support off the face; raising each one's zero
    coefficients on the face to one maps them onto its ``(0, 1]`` box.
    Every face meets every point of its box in one ragged expansion.

    Returns ``(face, reps)``: the faces' box points as int64 rows, degree
    last, face by face in face order, and the index of each one's face.
    """
    count = first[box + 1] - first[box]
    face = np.repeat(np.arange(len(box)), count)
    p = np.arange(len(face)) + np.repeat(first[box] - np.cumsum(count)
                                         + count, count)
    keep = ~(support[p] & ~on[face]).any(axis=1)
    face, p = face[keep], p[keep]
    raised = (on[face] & ~support[p]).astype(np.int64)
    return face, points[p] + np.einsum("pi,pij->pj", raised,
                                       lifted[box[face]])


class SimplexConeSlicer:
    """Enumerates interior lattice points of a simplicial cone by degree.

    Every lattice point of the open cone over the lifted points is uniquely
    a point of the half-open box ``{sum t_i * w_i : 0 < t_i <= 1}`` plus a
    nonnegative integer combination of the generators, so each degree
    slice is enumerated in time proportional to its size.  The box comes
    from :func:`half_open_boxes` on the points' :func:`square_lift`.  The
    covering check does not use it: it is the point-by-point route that
    the tests hold the covering's counts against.
    """

    def __init__(self, points: Sequence) -> None:
        pts = as_matrix(points)
        M = np.array([square_lift(pts)], dtype=object)
        dets = det_stack(M)
        if not dets[0]:
            raise ValueError("points are not affinely independent")
        self.lifted = tuple(p + (1,) for p in pts)
        rows = np.array([self.lifted], dtype=object)
        _, coefficients, box = half_open_boxes(M, dets, rows)
        # raising each zero coefficient to one maps the box onto (0, 1]
        reps = box + (coefficients == 0).astype(np.int64) @ rows[0]
        self._reps = sorted((y[-1], tuple(y)) for y in reps.tolist())

    def interior_points(self, degree: int) -> list:
        """Lifted interior cone points of the given degree, sorted."""
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        out = []
        n = len(self.lifted)
        for h, base in self._reps:
            extra = degree - h
            if extra < 0:
                continue
            for comb in _compositions(extra, n):
                y = list(base)
                for c, w in zip(comb, self.lifted):
                    if c:
                        for j, wj in enumerate(w):
                            y[j] += c * wj
                out.append(tuple(y))
        out.sort()
        return out
