"""Exact triangulations of lattice polytopes.

Triangulations are stored combinatorially: a lex-sorted tuple of ambient
lattice points plus maximal cells as sorted index tuples.  The placing and
fine triangulations are one placing pass over lex-sorted points (cone each
new point over the boundary facets it sees strictly;
``polytope._placing``, the routine the polytope's facets are read off),
which uses every point.  The fine triangulation keeps the boundary
simplices of its pass, and the interior-respecting triangulation cones
them over one interior point and stellar-inserts the others
(``_stellar_insert``): one integer table of every cell's facet forms, read
off one batched cofactor table, one product per inserted point to find
the cells that contain it, and each new piece's forms from the pencil of
two forms of its cell, so neither pass takes a determinant per new plane.
All arithmetic is exact and in integers.

A face lies in the boundary of the polytope iff the AND of its points'
tight-facet bitmasks is nonzero.  The covering check gives each interior
face one owning cell, the first cell containing it.  Its set-up works on
index arrays: the faces of one size come from one sort of every cell's
index combinations, every point is lifted into chart coordinates in one
product, and every owning cell's determinant is taken in one batched call.
A face of a unimodular cell has one box point, the sum of its lifted
vertices; the faces of every other cell are read off that cell's
half-open box, all boxes from one call of the batched enumerator
``simplex.half_open_boxes`` and no Smith form.  It counts each degree on
the chart box of the dilate: the points of all faces of one size from box
points of one degree are one integer product, and their ``bincount`` must
equal the dilate's interior mask, which the facet-form scan builds, so the
two routes stay independent.  A degree that does not match is named from the
same points, face by face.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence

import numpy as np

from .exactmath import (
    _cofactor_stack,
    _int_array,
    build_chart,
    det_stack,
    dot,
    transpose,
    unimodular_inverse,
)
from .polytope import (
    _INT64_GUARD,
    Polytope,
    _placing,
    _tight_form_masks,
)
from .simplex import (
    _compositions,
    face_box_points,
    half_open_boxes,
    square_lift,
)


@dataclass(frozen=True)
class Triangulation:
    """Simplicial complex on a fixed lex-sorted lattice point list."""

    points: tuple          # ambient lattice points, sorted
    cells: tuple           # sorted tuple of sorted index tuples

    @property
    def dim(self) -> int:
        return len(self.cells[0]) - 1 if self.cells else -1

    def cell_points(self, cell: Sequence[int]) -> tuple:
        return tuple(self.points[i] for i in cell)


@dataclass(frozen=True)
class DecompositionResult:
    """Outcome of checking the disjoint interior-cone covering."""

    ok: bool
    degree: Optional[int] = None
    point: Optional[tuple] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _chart_coords(chart, points) -> list:
    return [chart.to_chart(p) for p in points]


def _cell_table(coords: Sequence[tuple], cells: Sequence[tuple]
                ) -> np.ndarray:
    """The facet forms of full-dimensional simplex cells in chart
    coordinates, cells x (d+1) x (d+1): row ``j`` of a cell is ``(n, -o)``
    with ``n . x == o`` on the facet opposite its vertex ``j`` and
    ``n . x > o`` at that vertex, so a point is in the cell iff every form
    is >= 0.  With ``L`` the cell's lifted points as rows ``(x, 1)``,
    ``L cof(L)^T = det(L) I``, so the rows are the cofactor matrix
    (:func:`_cofactor_stack`) times the sign of ``det(L)``.  Raises
    ``ValueError`` for an affinely dependent cell."""
    n = len(coords[0]) + 1
    L = _int_array([[coords[i] + (1,) for i in c]
                    for c in cells]).reshape(len(cells), n, n)
    dets = det_stack(L)
    if 0 in dets:
        raise ValueError("degenerate cell")
    sign = np.array([1 if v > 0 else -1 for v in dets], dtype=np.int64)
    return _cofactor_stack(L) * sign[:, None, None]


def _stellar_insert(coords, cells, xs: Sequence[int]) -> list:
    """Stellar-insert the points ``xs`` (indices into ``coords``), one after
    another, into every cell containing them; returns the sorted cells.

    One integer table holds the forms ``(n, o)`` of every cell as rows
    ``(n, -o)`` (:func:`_cell_table`): ``A`` is cells x (d+1) x (d+1), row
    ``j`` tight on the facet opposite vertex ``j``.  A point ``x`` takes
    one product, ``V = A @ (x, 1)``, and hits the cells where every
    ``V_j >= 0``.  Each hit cell ``c`` and each ``j`` with ``V_j > 0``
    gives the piece ``c`` with ``c_j`` replaced by ``x`` in place.  Its row
    opposite ``x`` is row ``j`` of ``c``; its row opposite ``c_t`` is the
    pencil ``V_j * A_t - V_t * A_j``, which vanishes on the ridge the two
    rows share and at ``x`` and is positive at ``c_t``, divided by its gcd.
    A cell's indices stay in the order of its rows until the end, where
    each is sorted once.  The table is int64 while a bound from the
    largest coordinate of the point and the largest table entry keeps
    ``V`` and the pencil products under ``_INT64_GUARD``, and Python ints
    (``object``) from the first point where it does not.
    """
    d = len(coords[0])
    A = _cell_table(coords, cells)
    F = int(np.abs(A).max(initial=0))
    C = np.array(cells, dtype=np.int64).reshape(len(cells), d + 1)
    for x in xs:
        # |V| <= F * (d * X + 1) for X the largest |coordinate| of x, and a
        # pencil entry is at most 2 |V| F
        X = max(map(abs, coords[x]))
        if 2 * F * F * (d * X + 1) >= _INT64_GUARD:
            A = A.astype(object, copy=False)
        V = A @ np.array(coords[x] + (1,), dtype=A.dtype)
        keep = (V < 0).any(1)
        hit = np.flatnonzero(~keep)
        if not len(hit):
            raise ValueError(
                "point to insert is outside the triangulated region")
        hc, j = np.nonzero(V[hit] > 0)
        hc = hit[hc]
        k = np.arange(len(hc))
        Vc, Ac = V[hc], A[hc]
        Vj, Aj = Vc[k, j], Ac[k, j]
        Ap = Vj[:, None, None] * Ac - Vc[:, :, None] * Aj[:, None, :]
        Ap[k, j] = Aj
        Ap //= np.gcd.reduce(Ap, axis=2)[:, :, None]
        Cp = C[hc]
        Cp[k, j] = x
        C = np.concatenate([C[keep], Cp])
        A = np.concatenate([A[keep], Ap])
        F = max(F, int(np.abs(Ap).max()))
    C.sort(axis=1)
    return sorted(map(tuple, C.tolist()))


def placing_triangulation(P: Polytope) -> Triangulation:
    """Triangulation of ``P`` whose vertex set is the polytope's vertices."""
    if P.dim < 1:
        raise ValueError("triangulation needs dimension >= 1")
    pts = P.vertices  # already lex-sorted
    return Triangulation(points=pts, cells=_placing(pts)[0])


def full_lattice_triangulation(P: Polytope) -> Triangulation:
    """Triangulation of ``P`` using every lattice point of ``P`` as a vertex."""
    if P.dim < 1:
        raise ValueError("triangulation needs dimension >= 1")
    return _fine(P)[0]


def _fine(P: Polytope) -> tuple:
    """``(T, boundary)``: the fine triangulation of ``P`` and the sorted
    simplices of its boundary, both from one placing pass over the
    lex-sorted lattice points.  Cached on ``P``."""
    def build():
        pts = P.lattice_points(1)
        cells, boundary = _placing(pts)
        return Triangulation(points=pts, cells=cells), sorted(boundary)
    return P._memo("full_triangulation", build)


def interior_respecting_triangulation(P: Polytope) -> Triangulation:
    """Full triangulation in which every maximal cell has a vertex interior
    to ``P``: cone the triangulated boundary over one interior lattice point
    and stellar-insert the remaining interior points.

    Needs ``dim >= 2`` and at least one interior lattice point.
    """
    if P.dim < 2:
        raise ValueError("needs dimension >= 2")
    interior = P.interior_lattice_points(1)
    if not interior:
        raise ValueError("needs an interior lattice point")
    return P._memo("interior_respecting_triangulation",
                   lambda: _interior_respecting(P, interior))


def _interior_respecting(P: Polytope, interior: tuple) -> Triangulation:
    # by its public name, which bench/spans.py times as its own call
    pts = full_lattice_triangulation(P).points
    apex = interior[0]  # lex-least interior point
    apex_i = pts.index(apex)
    cells = sorted(tuple(sorted(f + (apex_i,))) for f in _fine(P)[1])
    if len(interior) > 1:
        index = {p: i for i, p in enumerate(pts)}
        cells = _stellar_insert(_chart_coords(P._chart, pts), cells,
                                [index[x] for x in interior[1:]])
    return Triangulation(points=pts, cells=tuple(sorted(cells)))


def _tight_masks(T: Triangulation, P: Polytope) -> list:
    """Per point of ``T``, the bitmask of the facets of ``P`` it is tight on.
    Cached on ``P`` per point list."""
    return P._memo(("tight_masks", T.points),
                   lambda: _tight_form_masks(T.points, P.facets))


def interior_faces(T: Triangulation, P: Polytope) -> tuple:
    """Faces of ``T`` not contained in the boundary of ``P``, sorted by
    (size, indices).  The open cones over exactly these faces partition the
    interior of the cone over ``P``."""
    return _interior_faces(T, P)[0]


def _interior_faces(T: Triangulation, P: Polytope) -> tuple:
    """``(faces, groups)``: :func:`interior_faces` and, per face size in
    increasing order, ``(F, owner)``: those faces as the rows of an int64
    array, in the same order, and for each the index in ``T.cells`` of the
    first cell containing it.  Cached on ``P`` per triangulation.

    Raises ``ValueError`` when a point of ``T`` has another length than
    the ambient dimension of ``P``, or a cell another length than the
    first cell."""
    def build():
        for p in T.points:
            if len(p) != P.ambient_dim:
                raise ValueError(
                    f"triangulation point {p} has length {len(p)}, but the"
                    f" polytope's ambient dimension is {P.ambient_dim}")
        for c in T.cells:
            if len(c) != len(T.cells[0]):
                raise ValueError(
                    f"triangulation cell {c} has {len(c)} points, but its"
                    f" first cell {T.cells[0]} has {len(T.cells[0])}")
        return _face_groups(T, _tight_masks(T, P))
    return P._memo(("interior_faces", T), build)


def _face_groups(T: Triangulation, masks: Sequence[int]) -> tuple:
    """:func:`_interior_faces` from the points' tight-facet bitmasks.

    The faces of one size are every cell's index combinations, in cell
    order, as the rows of one array.  A stable sort on one packed key per
    row (the row's digits in base ``len(T.points)``, on int64 while the key
    stays below ``_INT64_GUARD`` and on Python ints past it) sorts them and
    puts each face's first cell first.  A face is interior iff the AND of
    its points' masks, held as 64-bit words, is zero."""
    C = np.array(T.cells, dtype=np.int64).reshape(len(T.cells), -1)
    n = C.shape[1]
    words = max(1, -(-max(masks, default=0).bit_length() // 64))
    M = np.array([[(a >> (64 * w)) & (2**64 - 1) for w in range(words)]
                  for a in masks], dtype=np.uint64).reshape(-1, words)
    faces, groups = [], []
    for r in range(1, n + 1):
        combos = list(itertools.combinations(range(n), r))
        F = C[:, combos].reshape(-1, r)
        dtype = np.int64 if len(T.points) ** r < _INT64_GUARD else object
        digits = np.array([len(T.points) ** i for i in range(r)][::-1],
                          dtype=dtype)
        order = np.argsort(F.astype(dtype, copy=False) @ digits,
                           kind="stable")
        F = F[order]
        first = np.ones(len(F), dtype=bool)
        first[1:] = (F[1:] != F[:-1]).any(axis=1)
        F, order = F[first], order[first]
        inside = ~np.bitwise_and.reduce(M[F], axis=1).any(axis=1)
        F = F[inside]
        groups.append((F, order[inside] // len(combos)))
        faces += map(tuple, F.tolist())
    return tuple(faces), groups


def total_normalized_volume(T: Triangulation) -> int:
    """Sum of normalized cell volumes in the lattice of the hull.

    A cell's normalized volume is ``|det|`` of its points' chart
    coordinates and a column of ones; every cell's is taken in one
    :func:`det_stack` call.  Cells of ``ambient_dim + 1`` points span the
    whole space, whose chart is the identity, so only cells of fewer
    points need a chart."""
    coords = T.points
    if not T.points or T.dim != len(T.points[0]):
        coords = _chart_coords(build_chart(list(T.points)), T.points)
    rows = _int_array([c + (1,) for c in coords])
    cells = np.array(T.cells, dtype=np.intp).reshape(len(T.cells), T.dim + 1)
    return sum(map(abs, det_stack(rows[cells])))


def verify_decomposition(T: Triangulation, P: Polytope,
                         kmax: int) -> DecompositionResult:
    """Check degree by degree that the interior cone points of ``P`` are
    covered exactly once by the open cones over the interior faces.

    The faces' box points and generators (:func:`_cover_arrays`) are
    counted on the chart box of each degree (:func:`_cover_degree`), which
    names the first bad point of a degree that does not match.  An owning
    cell whose points are affinely dependent gives ``"degenerate face"``
    before any degree is counted."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    P._box(kmax)  # refuse an oversized top degree before any scan
    _interior_faces(T, P)  # refuse points of another length
    try:
        cover = _cover_arrays(T, P)
    except ValueError:  # only an affinely dependent owning cell raises
        return DecompositionResult(ok=False, reason="degenerate face")
    for k in range(1, kmax + 1):
        res = _cover_degree(cover, P, k)
        if not res:
            return res
    return DecompositionResult(ok=True)


def _cover_arrays(T: Triangulation, P: Polytope) -> tuple:
    """``(bound, groups)``: the box points of all interior faces in lifted
    chart coordinates, grouped by ``(n, h)`` (face size, point degree), and
    a bound on the absolute entries of them and of their generators.

    Lifted chart coordinates of ``(x, h)`` are the chart coordinates of
    ``x`` at scale ``h`` followed by its coordinates across the affine hull,
    which are zero iff ``x`` lies on the hull of the ``h``-th dilate.  The
    map is linear, so it carries sums of lifted points to sums.  Each group
    is ``(R, G, I)`` with ``R[p]`` its ``p``-th point, ``G[p]`` that point's
    face's ``n`` lifted generators and ``I[p]`` that face's index in
    :func:`interior_faces`.  The arrays are int64 while a bound from the
    points and the chart keeps every entry under ``_INT64_GUARD``, and
    Python ints (``object``) past it, with the same statements.

    Every triangulation point is lifted in one product.  A cell's rows are
    its points' chart coordinates and a one, with the coordinates across
    the hull too when a point lies off it, so that its box is the box of
    its ambient points.  Cells that are then not square (points off the
    hull, or cells of another size) each go onto a chart of their own
    points (:func:`square_lift`).  Every owning cell's determinant is
    taken in one :func:`det_stack` call.  A face owned by a unimodular
    cell has one box point, the sum of its lifted vertices, at degree
    ``n``.  The boxes of all other owning cells come from one
    :func:`half_open_boxes` call, and every face of those cells is read
    off its owner's box in one ragged expansion per face size
    (:func:`face_box_points`), with no loop over faces.

    Raises ``ValueError`` when the points of an owning cell are affinely
    dependent.
    """
    chart = P._chart
    d, m = chart.dim, chart.ambient_dim
    face_groups = _interior_faces(T, P)[1]
    cols = [(*c, -dot(chart.origin, c))
            for c in (*chart.proj_cols, *chart.comp_cols)]
    gain = max((abs(a) for c in cols for a in c), default=0) * (m + 1)
    big = max((abs(a) for p in T.points for a in p), default=0) + 1
    dtype = object if big * gain * (d + 1) >= _INT64_GUARD else np.int64
    lift = np.array(cols, dtype=dtype).T
    W = np.array([p + (1,) for p in T.points],
                 dtype=dtype).reshape(len(T.points), m + 1) @ lift
    w = m if (W[:, d:] != 0).any() else d
    rows = np.ones((len(W), w + 1), dtype=dtype)
    rows[:, :w] = W[:, :w]
    C = np.array(T.cells, dtype=np.int64).reshape(len(T.cells), -1)
    owned = np.flatnonzero(np.bincount(
        np.concatenate([o for _, o in face_groups]), minlength=len(C)))
    cells = square = rows[C[owned]]
    if C.shape[1] != w + 1:  # each cell on a chart of its own points
        square = np.array([square_lift(c[:, :w].tolist()) for c in cells],
                          dtype=object).reshape(len(cells), *C.shape[1:] * 2)
    dets = det_stack(square)
    if 0 in dets:
        raise ValueError("degenerate face")
    odd = [abs(v) != 1 for v in dets]
    boxed = owned[odd]
    box_of = np.full(len(C), -1)
    box_of[boxed] = np.arange(len(boxed))
    if len(boxed):
        lifted = cells[odd]
        at, coefficients, points = half_open_boxes(
            square[odd], [v for v in dets if abs(v) != 1], lifted)
        first = np.searchsorted(at, np.arange(len(boxed) + 1))
        support = coefficients != 0
    parts: Dict[tuple, list] = {}
    base = 0
    for F, owner in face_groups:
        n, b = F.shape[1], box_of[owner]
        I = base + np.arange(len(F))
        base += len(F)
        # a unimodular cell's box is the origin: a face's one box point is
        # the sum of its lifted vertices
        G = W[F[b < 0]]
        if len(G):
            parts.setdefault((n, n), []).append((G.sum(axis=1), G, I[b < 0]))
        F, I, b = F[b >= 0], I[b >= 0], b[b >= 0]
        if not len(F):
            continue
        on = (C[boxed[b]][:, :, None] == F[:, None, :]).any(axis=2)
        face, reps = face_box_points(lifted, first, support, points, b, on)
        R = np.zeros((len(reps), m), dtype=dtype)
        R[:, :w] = reps[:, :w]
        h = reps[:, w].astype(np.int64)
        for k in np.flatnonzero(np.bincount(h)).tolist():
            f = face[h == k]
            parts.setdefault((n, k), []).append((R[h == k], W[F[f]], I[f]))
    groups = {key: tuple(map(np.concatenate, zip(*v)))
              for key, v in parts.items()}
    bound = max([int(np.abs(W).max(initial=0))]
                + [int(np.abs(R).max(initial=0))
                   for R, _, _ in groups.values()])
    return bound, groups


@functools.lru_cache(maxsize=128)
def _composition_array(total: int, parts: int) -> np.ndarray:
    """``_compositions(total, parts)`` as rows of a read-only int64 array."""
    a = np.array(list(_compositions(total, parts)),
                 dtype=np.int64).reshape(-1, parts)
    a.setflags(write=False)
    return a


def _degree_points(groups: dict, k: int, dtype) -> Iterator[tuple]:
    """Per group of :func:`_cover_arrays` with ``h <= k``, ``(pts, I)``:
    its faces' degree-``k`` points as one integer product (box points plus
    compositions of ``k - h`` times the generators), shaped faces x
    compositions x coordinates, and the faces' indices."""
    for (n, h), (R, G, I) in groups.items():
        if h <= k:
            pts = _composition_array(k - h, n) @ G.astype(dtype, copy=False)
            pts += R[:, None, :].astype(dtype, copy=False)
            yield pts, I


def _cover_degree(cover: tuple, P: Polytope, k: int) -> DecompositionResult:
    """Whether the degree-``k`` points of the faces' open cones, given as
    their :func:`_cover_arrays`, hit every interior point of the ``k``-th
    dilate exactly once.  Every point is shifted into the chart box of
    ``k * P``; one ``bincount`` counts them all, and the counts must equal
    the interior mask.  Int64 while the points stay under
    ``_INT64_GUARD``, Python ints past it.  A degree that does not match
    is named by :func:`_first_bad_point`."""
    bound, groups = cover
    lo, mask = P._slice(k, True)
    shape = mask.shape
    wide = bound * (k + 1) + max(map(abs, lo), default=0) >= _INT64_GUARD
    dtype = object if wide else np.int64
    d = len(shape)
    lo_ = np.array(lo, dtype=dtype)
    dims = np.array(shape, dtype=np.int64)
    strides = np.array([math.prod(shape[i + 1:]) for i in range(d)],
                       dtype=np.int64)
    flat = [np.zeros(0, dtype=np.int64)]
    for pts, _ in _degree_points(groups, k, dtype):
        pts = pts.reshape(-1, pts.shape[-1])
        q = pts[:, :d] - lo_
        if (pts[:, d:] != 0).any() or (q < 0).any() or (q >= dims).any():
            return _first_bad_point(groups, P, k)
        flat.append(q @ strides)
    counts = np.bincount(np.concatenate(flat).astype(np.int64, copy=False),
                         minlength=mask.size)
    if np.array_equal(counts, mask.reshape(-1)):
        return DecompositionResult(ok=True)
    return _first_bad_point(groups, P, k)


def _first_bad_point(groups: dict, P: Polytope,
                     k: int) -> DecompositionResult:
    """The failure of degree ``k``, named as a walk over the faces in
    order, each face's points in lex order, names it: the first point
    outside the interior or already hit, else the least interior point
    that no face hits.  The points are Python ints, taken back to ambient
    coordinates through one exact inverse of the lift."""
    chart = P._chart
    back = np.array(unimodular_inverse(transpose(
        (*chart.proj_cols, *chart.comp_cols))), dtype=object)
    walk = []
    for pts, I in _degree_points(groups, k, object):
        x = pts.reshape(-1, len(back)) @ back
        x += np.array(chart.origin, dtype=object) * k
        walk += zip(np.repeat(I, pts.shape[1]).tolist(),
                    map(tuple, x.tolist()))
    target, seen = set(P.interior_lattice_points(k)), set()
    for _, x in sorted(walk):
        if x not in target:
            return DecompositionResult(False, k, x + (k,),
                                       "point outside the interior")
        if x in seen:
            return DecompositionResult(False, k, x + (k,), "covered twice")
        seen.add(x)
    return DecompositionResult(False, k, min(target - seen) + (k,),
                               "point not covered")
