"""Simplex-specific machinery: barycentric coordinates, emptiness and
unimodularity tests, normalized volume, and half-open fundamental domains
with the interior cone slices read off them."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .cone import GradedPoint, ReductionWitness
from .exactmath import (
    _INT64_GUARD,
    as_matrix,
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

    def all_positive(self) -> bool:
        return all(c > 0 for c in self.coefficients)


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


class HalfOpenBox:
    """The half-open fundamental parallelepiped of a simplicial cone.

    Given affinely independent lattice points, the cone over them placed at
    height one has the lifted points ``w_i`` as generators.  The box holds
    the lattice points ``sum t_i * w_i`` of their span with every ``t_i``
    in ``[0, 1)``, one per coset of the sublattice the ``w_i`` generate, so
    it has as many points as the simplex has normalized volume.  They come
    from one Smith form: ``t = frac(mu U)`` with ``mu_i = r_i / d_i`` over
    the residues ``r_i`` modulo the invariant factors ``d_i``.  A cell of
    full ambient dimension whose lifted points have determinant +-1 is
    unimodular, so its box is the origin; a Bareiss determinant proves it
    and no Smith form is taken.  The covering check takes its boxes from
    :func:`cyclic_boxes`, one batched adjugate for all cells, and builds
    this box for a cell that route declines or that is not square; the
    cell-emptiness check builds it itself, so it is also the batch route's
    exact twin.  Both work on chart coordinates
    (``Polytope._chart``), where every full-dimensional cell of an embedded
    hull is square too; chart coordinates are a lattice isomorphism of the
    hull, so the box points are the same up to the chart.

    ``coefficients`` holds each point's ``t`` as the integers ``D * t`` in
    ``[0, D)``, where ``D`` is the largest invariant factor (every ``d_i``
    divides it); ``points`` holds the lattice points, in the same order.
    When ``D`` is 1 the box is the origin alone and nothing is enumerated.
    The box of any face is read off this one (:meth:`face_reps`), so a
    cell's box serves all of its faces.
    """

    def __init__(self, points: Sequence) -> None:
        pts = as_matrix(points)
        if not pts:
            raise ValueError("need at least one point")
        self.lifted = tuple(p + (1,) for p in pts)
        n, width = len(self.lifted), len(self.lifted[0])
        if n == width and abs(det_bareiss(self.lifted)) == 1:
            D = 1  # unimodular: the generators span the whole lattice
        else:
            S, U, _ = smith_normal_form(self.lifted)
            diag = [S[i][i] for i in range(n)] if len(S[0]) >= n else [0]
            if any(d == 0 for d in diag):
                raise ValueError("points are not affinely independent")
            D = diag[-1]
        if D == 1:
            self.coefficients = [(0,) * n]
            self.points = [(0,) * width]
            return
        # a row with d == 1 takes residue 0 only
        steps = [(d, [(D // d) * u for u in row])
                 for d, row in zip(diag, U) if d > 1]
        cols = list(zip(*self.lifted))
        self.coefficients, self.points = [], []
        for residues in itertools.product(*[range(d) for d, _ in steps]):
            t = [0] * n
            for r, (_, row) in zip(residues, steps):
                t = [a + r * b for a, b in zip(t, row)]
            t = tuple(a % D for a in t)
            y = [sum(map(operator.mul, t, c)) for c in cols]
            if any(c % D for c in y):
                raise AssertionError("fundamental-domain point not integral")
            self.coefficients.append(t)
            self.points.append(tuple(c // D for c in y))

    def face_reps(self, positions: Sequence[int]) -> list:
        """The box ``{sum t_i * w_i : 0 < t_i <= 1}`` of the face spanned by
        the lifted points at ``positions`` (increasing), as sorted
        ``(degree, point)`` pairs.

        The lattice of the face's span is the cell's lattice cut down to
        that span, so the face's ``[0, 1)`` box is the set of box points
        supported on the face; raising each zero coefficient on the face to
        one maps it bijectively onto the ``(0, 1]`` box.
        """
        inside = set(positions)
        off = [i not in inside for i in range(len(self.lifted))]
        reps = []
        for t, y in zip(self.coefficients, self.points):
            if any(c and o for c, o in zip(t, off)):
                continue
            for i in positions:
                if not t[i]:
                    y = tuple(map(operator.add, y, self.lifted[i]))
            reps.append((y[-1], y))
        reps.sort()
        return reps


def cyclic_boxes(M: np.ndarray, dets: Sequence[int]) -> tuple:
    """The half-open boxes of a stack of lifted simplices, from one batched
    integer adjugate, for every simplex whose box is a cyclic group.

    ``M`` is an int64 stack of square lifted matrices (one point and a
    one per row) and ``dets`` their nonzero determinants.  ``Z^n / Z^n M``
    has order ``D = |det M|``, and ``y -> D * y M^-1 mod D`` embeds it in
    ``(Z/D)^n``, carrying the unit vectors to the rows of ``sign(det) *
    adj(M) mod D``.  Those rows generate it, so a row with ``gcd(D, row) ==
    1``, of order ``D``, generates it alone: the coefficients ``D * t`` of
    the box are ``c * row mod D`` for ``c = 0..D-1`` and its points are
    ``(D * t) @ M / D``, each division checked exact.  The adjugate's
    entries are cofactors, all taken in one :func:`det_stack` call.

    Returns ``(take, owner, coefficients, points)``: ``take`` is false for
    a matrix with no single generating row and for one whose values could
    reach ``_INT64_GUARD`` (``n`` times its squared Hadamard bound bounds
    them all), which keep :class:`HalfOpenBox`; the other arrays hold the
    box points of the taken matrices, matrix by matrix, with the index of
    each point's matrix and its ``D * t`` and lattice point as int64 rows,
    as :class:`HalfOpenBox` gives them up to order.
    """
    s, n = len(M), M.shape[-1]
    take = np.zeros(s, dtype=bool)
    if s and int(np.abs(M).max()) ** 2 * n < _INT64_GUARD:
        take[:] = [n * math.prod(r) < _INT64_GUARD
                   for r in (M * M).sum(axis=2).tolist()]
    idx = np.flatnonzero(take)
    A = M[idx]
    # cofactor (i, j) is (-1)^(i+j) times the minor without row i, column j
    rest = np.array([[j for j in range(n) if j != i] for i in range(n)],
                    dtype=np.int64).reshape(n, n - 1)
    minors = A[:, rest[:, None, :, None], rest[None, :, None, :]]
    cof = np.array(det_stack(minors.reshape(-1, n - 1, n - 1)),
                   dtype=np.int64).reshape(len(idx), n, n)
    taken = np.array([dets[i] for i in idx], dtype=np.int64)
    sign, D = np.sign(taken), np.abs(taken)
    checker = 1 - 2 * (np.add.outer(range(n), range(n)) % 2)
    rows = (cof * checker).transpose(0, 2, 1) * sign[:, None, None]
    rows %= D[:, None, None]
    unit = np.gcd(np.gcd.reduce(rows, axis=2), D[:, None]) == 1
    cyclic = unit.any(axis=1)
    take[idx[~cyclic]] = False
    gen = rows[cyclic, unit[cyclic].argmax(axis=1)]
    idx, A, D = idx[cyclic], A[cyclic], D[cyclic]
    local = np.repeat(np.arange(len(idx)), D)
    c = np.arange(len(local)) - np.repeat(np.cumsum(D) - D, D)
    Dp = D[local, None]
    coefficients = c[:, None] * gen[local] % Dp
    Y = np.einsum("pi,pij->pj", coefficients, A[local])
    if (Y % Dp).any():
        raise AssertionError("fundamental-domain point not integral")
    return take, idx[local], coefficients, Y // Dp


def face_box_points(lifted: np.ndarray, first: np.ndarray,
                    support: np.ndarray, points: np.ndarray,
                    box: np.ndarray, on: np.ndarray) -> tuple:
    """:meth:`HalfOpenBox.face_reps` for many faces at once.

    Box ``b`` has the lifted generator rows ``lifted[b]`` (one per
    simplex vertex) and the box points ``points[first[b]:first[b + 1]]``,
    with ``support`` their nonzero coefficients as booleans.  Face ``f``
    lies in box ``box[f]`` at the vertex positions where ``on[f]`` is
    true.  Its ``(0, 1]`` box is the box points with no support off the
    face, each raised by the generators on the face where its
    coefficient is zero.  Every face meets every point of its box in one
    ragged expansion.

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
    from a Smith form of its own (:class:`HalfOpenBox`).  The covering
    check does not use it: it is the point-by-point route that the tests
    hold the covering's counts against.
    """

    def __init__(self, points: Sequence) -> None:
        box = HalfOpenBox(points)
        self.lifted = box.lifted
        self._reps = box.face_reps(range(len(box.lifted)))

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
