"""Exact triangulations of lattice polytopes.

Triangulations are stored combinatorially: a lex-sorted tuple of ambient
lattice points plus maximal cells as sorted index tuples.  The placing and
fine triangulations are one placing pass over lex-sorted points (cone each
new point over the boundary facets it sees strictly;
``polytope._placing``, the routine the polytope's facets are read off),
which uses every point.  The interior-respecting triangulation cones the
boundary over one interior point and stellar-inserts the others
(``_stellar_insert``): one integer table of every cell's facet forms, one
product per inserted point to find the cells that contain it, and each
new piece's forms from the pencil of two forms of its cell, so neither
pass takes a determinant per new plane.  All arithmetic is exact and in
integers.

A face lies in the boundary of the polytope iff the AND of its points'
tight-facet bitmasks is nonzero.  The covering check gives each interior
face one owning cell, the first cell containing it.  Its set-up works on
index arrays: the faces of one size come from one sort of every cell's
index combinations, every point is lifted into chart coordinates in one
product, and every owning cell's determinant is taken in one batched call.
A face of a unimodular cell has one box point, the sum of its lifted
vertices; the faces of every other cell are read off that cell's
half-open box on chart coordinates, all boxes from one batched adjugate
and a Smith form only for a cell that route declines.  It counts each
degree on the chart box of the dilate: the points of all faces of one size
from box points of one degree are one integer product, and their
``bincount`` must equal the dilate's interior mask, which the facet-form
scan builds, so the two routes stay independent.  A degree that does not
match is walked point by point by per-face slicers, built only then, which
names the failing point.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .exactmath import build_chart, det_bareiss, det_stack, dot, vsub
from .polytope import (
    _INT64_GUARD,
    Polytope,
    _facet_form,
    _free_facets,
    _placing,
    _tight_form_masks,
)
from .simplex import (
    HalfOpenBox,
    SimplexConeSlicer,
    _compositions,
    cyclic_boxes,
    face_box_points,
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


def _cell_forms(coords: Sequence[tuple], cell: Sequence[int],
                planes: Dict[tuple, tuple]) -> tuple:
    """Inequalities of a full-dimensional simplex cell in chart coordinates.

    Form ``j`` is tight on the facet opposite ``cell[j]`` and positive on
    the cell's interior; a point is in the cell iff every form is >= 0.
    ``planes`` maps each facet to one ``(n, o)`` with ``n . x == o`` on it,
    shared by the cells on both sides; a cell orients it by the sign at its
    vertex opposite the facet.
    """
    out = []
    for j, v in enumerate(cell):
        f = cell[:j] + cell[j + 1:]
        if f not in planes:
            planes[f] = _facet_form(coords, f, v)
        n, o = planes[f]
        s = dot(n, coords[v]) - o
        if s == 0:
            raise ValueError("degenerate cell")
        out.append((n, o) if s > 0 else (tuple(-a for a in n), -o))
    return tuple(out)


def _boundary_count(cells) -> Counter:
    cnt = Counter()
    for c in cells:
        for f in itertools.combinations(c, len(c) - 1):
            cnt[f] += 1
    return cnt


def _stellar_insert(coords, cells, xs: Sequence[int],
                    planes: Optional[Dict[tuple, tuple]] = None) -> list:
    """Stellar-insert the points ``xs`` (indices into ``coords``), one after
    another, into every cell containing them; returns the sorted cells.
    ``planes`` may hold the forms of some facets already (see
    :func:`_cell_forms`); it is filled in.

    One integer table holds the forms ``(n, o)`` of every cell
    (:func:`_cell_forms`) as rows ``(n, -o)``: ``A`` is cells x (d+1) x
    (d+1), row ``j`` tight on the facet opposite vertex ``j``.  A point
    ``x`` takes one product, ``V = A @ (x, 1)``, and hits the cells where
    every ``V_j >= 0``.  Each hit cell ``c`` and each ``j`` with ``V_j > 0``
    gives the piece ``c`` with ``c_j`` replaced by ``x``.  Its row opposite
    ``x`` is row ``j`` of ``c``; its row opposite ``c_t`` is the pencil
    ``V_j * A_t - V_t * A_j``, which vanishes on the ridge the two rows
    share and at ``x`` and is positive at ``c_t``, divided by its gcd.  The
    table is int64 while a bound from the largest coordinate of ``xs`` and
    the largest table entry keeps ``V`` and the pencil products under
    ``_INT64_GUARD``, and Python ints (``object``) from the first point
    where it does not.
    """
    d = len(coords[0])
    planes = {} if planes is None else planes
    rows = [[(*n, -o) for n, o in _cell_forms(coords, c, planes)]
            for c in cells]
    X = max((abs(a) for i in xs for a in coords[i]), default=0)
    F = max((abs(a) for r in rows for f in r for a in f), default=0)
    C = np.array(cells, dtype=np.int64).reshape(len(cells), d + 1)
    A = np.array(rows, dtype=object).reshape(len(cells), d + 1, d + 1)
    for x in xs:
        # |V| <= F * (d * X + 1), and a pencil entry is at most 2 |V| F
        wide = 2 * F * F * (d * X + 1) >= _INT64_GUARD
        dtype = object if wide else np.int64
        A = A.astype(dtype, copy=False)
        V = A @ np.array(coords[x] + (1,), dtype=dtype)
        hit = (V >= 0).all(1)
        if not hit.any():
            raise ValueError(
                "point to insert is outside the triangulated region")
        hc, j = np.nonzero((V > 0) & hit[:, None])
        k = np.arange(len(hc))
        Vc, Ac = V[hc], A[hc]
        Vj, Aj = Vc[k, j], Ac[k, j]
        Ap = Vj[:, None, None] * Ac - Vc[:, :, None] * Aj[:, None, :]
        Ap[k, j] = Aj
        Ap //= np.gcd.reduce(Ap, axis=2)[:, :, None]
        Cp = C[hc]
        Cp[k, j] = x
        order = k[:, None], np.argsort(Cp, axis=1)
        C = np.concatenate([C[~hit], Cp[order]])
        A = np.concatenate([A[~hit], Ap[order]])
        F = max(F, int(np.abs(Ap).max()))
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
    pts = P.lattice_points(1)  # lex-sorted
    return P._memo("full_triangulation",
                   lambda: Triangulation(points=pts, cells=_placing(pts)[0]))


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
    full = full_lattice_triangulation(P)
    pts = full.points
    boundary_cells = _boundary_restriction(full, P)
    apex = interior[0]  # lex-least interior point
    apex_i = pts.index(apex)
    cells = sorted(tuple(sorted(f + (apex_i,))) for f in boundary_cells)
    if len(interior) > 1:
        index = {p: i for i, p in enumerate(pts)}
        coords = _chart_coords(P._chart, pts)
        # a coned cell's facet opposite the apex is its boundary face, which
        # spans the one facet of P tight on all of its points
        masks = _tight_form_masks(coords, P._fd_facets)
        planes = {}
        for f in boundary_cells:
            j = functools.reduce(operator.and_, (masks[i] for i in f))
            form = P._fd_facets[j.bit_length() - 1]
            planes[f] = form.normal, form.offset
        cells = _stellar_insert(coords, cells,
                                [index[x] for x in interior[1:]], planes)
    return Triangulation(points=pts, cells=tuple(sorted(cells)))


def _boundary_restriction(T: Triangulation, P: Polytope) -> list:
    """Maximal boundary faces: cell facets lying in a single cell and
    contained in a facet of ``P``."""
    masks = _tight_masks(T, P)
    out = sorted(_free_facets(T.cells))
    for f in out:
        if not _face_in_boundary(masks, f):
            raise AssertionError("free cell facet not on the boundary")
    return out


def _tight_masks(T: Triangulation, P: Polytope) -> list:
    """Per point of ``T``, the bitmask of the facets of ``P`` it is tight on.
    Cached on ``P`` per point list."""
    return P._memo(("tight_masks", T.points),
                   lambda: _tight_form_masks(T.points, P.facets))


def _face_in_boundary(masks: Sequence[int], face) -> bool:
    """A face lies in the boundary iff some facet is tight on all of its
    points, i.e. iff the AND of their tight-facet masks is nonzero."""
    return functools.reduce(operator.and_, (masks[i] for i in face)) != 0


def interior_faces(T: Triangulation, P: Polytope) -> tuple:
    """Faces of ``T`` not contained in the boundary of ``P``, sorted by
    (size, indices).  The open cones over exactly these faces partition the
    interior of the cone over ``P``."""
    return _interior_faces(T, P)[0]


def _interior_faces(T: Triangulation, P: Polytope) -> tuple:
    """``(faces, groups)``: :func:`interior_faces` and, per face size in
    increasing order, ``(F, owner)``: those faces as the rows of an int64
    array, in the same order, and for each the index in ``T.cells`` of the
    first cell containing it.  Cached on ``P`` per triangulation."""
    return P._memo(("interior_faces", T),
                   lambda: _face_groups(T, _tight_masks(T, P)))


def _face_groups(T: Triangulation, masks: Sequence[int]) -> tuple:
    """:func:`_interior_faces` from the points' tight-facet bitmasks.

    The faces of one size are every cell's index combinations, in cell
    order, as the rows of one array.  A stable sort on one packed int64
    key per row (the row's digits in base ``len(T.points)``, or the rows
    themselves when that key could reach ``_INT64_GUARD``) sorts them and
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
        if len(T.points) ** r < _INT64_GUARD:
            order = np.argsort(F @ len(T.points) ** np.arange(r)[::-1],
                               kind="stable")
        else:
            order = np.lexsort(F.T[::-1])
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
    """Sum of normalized cell volumes in the lattice of the hull."""
    chart = build_chart(list(T.points))
    coords = _chart_coords(chart, T.points)
    total = 0
    for c in T.cells:
        base = coords[c[0]]
        edges = [vsub(coords[i], base) for i in c[1:]]
        total += abs(det_bareiss(edges))
    return total


def verify_decomposition(T: Triangulation, P: Polytope,
                         kmax: int) -> DecompositionResult:
    """Check degree by degree that the interior cone points of ``P`` are
    covered exactly once by the open cones over the interior faces.

    Each degree is counted on its chart box (:func:`_covered_by_counts`);
    a degree whose counts do not match, or that the count route cannot
    hold in int64, is walked point by point (:func:`_cover_by_points`),
    which names the first bad point.  The slicers of that walk are built
    only then, or up front when :func:`_cover_arrays` declines the input,
    which also finds degenerate faces."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    P._box(kmax)  # refuse an oversized top degree before any scan
    cover = _cover_arrays(T, P)
    slicers = None
    if cover is None:
        slicers = _face_slicers(T, P)
        if slicers is None:
            return DecompositionResult(ok=False, reason="degenerate face")
    for k in range(1, kmax + 1):
        if not _covered_by_counts(cover, P, k):
            if slicers is None:
                slicers = _face_slicers(T, P)
            res = _cover_by_points(slicers, P, k)
            if not res:
                return res
    return DecompositionResult(ok=True)


def _face_slicers(T: Triangulation, P: Polytope) -> Optional[list]:
    """One slicer per interior face, in face order, or ``None`` when an
    owning cell is degenerate.  One box per owning cell; each face's box is
    read off its owner's."""
    boxes: Dict[int, HalfOpenBox] = {}
    slicers = []
    for F, owner in _interior_faces(T, P)[1]:
        for f, o in zip(F.tolist(), owner.tolist()):
            cell = T.cells[o]
            if o not in boxes:
                try:
                    boxes[o] = HalfOpenBox(T.cell_points(cell))
                except ValueError:
                    return None
            slicers.append(SimplexConeSlicer.from_box(
                boxes[o], [cell.index(i) for i in f]))
    return slicers


def _cover_arrays(T: Triangulation, P: Polytope) -> Optional[tuple]:
    """``(bound, groups)``: the box points of all interior faces in lifted
    chart coordinates, grouped by ``(n, h)`` (face size, point degree), and
    a bound on the absolute entries of them and of their generators.

    Lifted chart coordinates of ``(x, h)`` are the chart coordinates of
    ``x`` at scale ``h`` followed by its coordinates across the affine hull,
    which are zero iff ``x`` lies on the hull of the ``h``-th dilate.  The
    map is linear, so it carries sums of lifted points to sums.  Each group
    is ``(R, G)`` with ``R[p]`` its ``p``-th point and ``G[p]`` that point's
    face's ``n`` lifted generators, as int64 arrays.

    Every triangulation point is lifted in one product, and every owning
    cell's ``|det|`` over its chart coordinates and a column of ones is
    taken in one :func:`det_stack` call.  A face owned by a unimodular cell
    has one box point, the sum of its lifted vertices, at degree ``n``.
    The boxes of all other owning cells come from one batched adjugate
    (:func:`cyclic_boxes`); a cell it declines (no single generating row,
    or values past ``_INT64_GUARD``) builds its :class:`HalfOpenBox`.
    Every face of those cells is read off its owner's box in one ragged
    expansion per face size (:func:`face_box_points`), with no loop over
    faces.

    ``None`` when a point has another ambient dimension or lies off the
    hull, an owning cell is not a full-dimensional simplex, or an entry
    could overflow int64; :func:`_face_slicers` takes those inputs.
    """
    chart = P._chart
    d, m = chart.dim, chart.ambient_dim
    face_groups = _interior_faces(T, P)[1]
    if (any(len(p) != m for p in T.points)
            or any(len(c) != d + 1 for c in T.cells)):
        return None
    cols = [(*c, -dot(chart.origin, c))
            for c in (*chart.proj_cols, *chart.comp_cols)]
    gain = max((abs(a) for c in cols for a in c), default=0) * (m + 1)
    big = max((abs(a) for p in T.points for a in p), default=0) + 1
    if big * gain * (d + 1) >= _INT64_GUARD:
        return None
    lift = np.array(cols, dtype=np.int64).T
    W = np.array([p + (1,) for p in T.points],
                 dtype=np.int64).reshape(len(T.points), m + 1) @ lift
    if W[:, d:].any():
        return None
    charted = np.ones((len(W), d + 1), dtype=np.int64)
    charted[:, :d] = W[:, :d]  # chart coordinates and a column of ones
    C = np.array(T.cells, dtype=np.int64).reshape(len(T.cells), d + 1)
    owned = np.flatnonzero(np.bincount(
        np.concatenate([o for _, o in face_groups]), minlength=len(C)))
    dets = det_stack(charted[C[owned]])
    if 0 in dets:
        return None
    boxed = owned[[abs(v) != 1 for v in dets]]
    box_of = np.full(len(C), -1)
    box_of[boxed] = np.arange(len(boxed))
    if len(boxed):
        lifted = charted[C[boxed]]
        first, support, points = _cell_boxes(
            lifted, [v for v in dets if abs(v) != 1])
    parts: Dict[tuple, list] = {}
    for F, owner in face_groups:
        n, b = F.shape[1], box_of[owner]
        # a unimodular cell's box is the origin: a face's one box point is
        # the sum of its lifted vertices
        G = W[F[b < 0]]
        if len(G):
            parts.setdefault((n, n), []).append((G.sum(axis=1), G))
        F, b = F[b >= 0], b[b >= 0]
        if not len(F):
            continue
        on = (C[boxed[b]][:, :, None] == F[:, None, :]).any(axis=2)
        face, reps = face_box_points(lifted, first, support, points, b, on)
        R = np.zeros((len(reps), m), dtype=np.int64)
        R[:, :d] = reps[:, :d]
        h = reps[:, d]
        for k in np.flatnonzero(np.bincount(h)).tolist():
            G = W[F[face[h == k]]]
            parts.setdefault((n, k), []).append((R[h == k], G))
    groups = {key: tuple(map(np.concatenate, zip(*v)))
              for key, v in parts.items()}
    bound = max([int(np.abs(W).max(initial=0))]
                + [int(np.abs(R).max(initial=0)) for R, _ in groups.values()])
    return bound, groups


def _cell_boxes(lifted: np.ndarray, dets: list) -> tuple:
    """``(first, support, points)``: the half-open boxes of the cells with
    lifted chart rows ``lifted`` and determinants ``dets``, box ``b``
    holding rows ``first[b]:first[b + 1]`` of ``support`` (nonzero
    coefficients) and ``points``.  From :func:`cyclic_boxes`, and from a
    :class:`HalfOpenBox` for each cell it declines."""
    d = lifted.shape[-1] - 1
    take, at, coeffs, points = cyclic_boxes(lifted, dets)
    at, support, points = [at], [coeffs != 0], [points]
    for b in np.flatnonzero(~take):
        box = HalfOpenBox(lifted[b, :, :d].tolist())
        at.append(np.full(len(box.points), b))
        support.append(np.array(box.coefficients, dtype=object) != 0)
        points.append(np.array(box.points, dtype=np.int64))
    at = np.concatenate(at)
    order = np.argsort(at, kind="stable")
    first = np.searchsorted(at[order], np.arange(len(lifted) + 1))
    return (first, np.concatenate(support)[order],
            np.concatenate(points)[order])


@functools.lru_cache(maxsize=128)
def _composition_array(total: int, parts: int) -> np.ndarray:
    """``_compositions(total, parts)`` as rows of a read-only int64 array."""
    a = np.array(list(_compositions(total, parts)),
                 dtype=np.int64).reshape(-1, parts)
    a.setflags(write=False)
    return a


def _covered_by_counts(cover: Optional[tuple], P: Polytope,
                       k: int) -> bool:
    """Whether the degree-``k`` points of the faces' open cones, given as
    their :func:`_cover_arrays`, hit every interior point of the ``k``-th
    dilate exactly once.  Each group's points are one integer product (box
    points plus compositions of ``k - h`` times the generators), shifted
    into the chart box of ``k * P``; one ``bincount`` counts them all, and
    the counts must equal the interior mask.

    False on any mismatch, and when the points could overflow int64."""
    if cover is None:
        return False
    bound, groups = cover
    lo, mask = P._slice(k, True)
    shape = mask.shape
    if bound * (k + 1) + max(map(abs, lo), default=0) >= _INT64_GUARD:
        return False
    d = len(shape)
    lo_ = np.array(lo, dtype=np.int64)
    dims = np.array(shape, dtype=np.int64)
    strides = np.array([math.prod(shape[i + 1:]) for i in range(d)],
                       dtype=np.int64)
    flat = [np.zeros(0, dtype=np.int64)]
    for (n, h), (R, G) in groups.items():
        if h > k:
            continue
        pts = _composition_array(k - h, n) @ G  # (faces, compositions, w)
        pts += R[:, None, :]
        pts = pts.reshape(-1, pts.shape[-1])
        q = pts[:, :d] - lo_
        if pts[:, d:].any() or (q < 0).any() or (q >= dims).any():
            return False
        flat.append(q @ strides)
    counts = np.bincount(np.concatenate(flat), minlength=mask.size)
    return np.array_equal(counts, mask.reshape(-1))


def _cover_by_points(slicers, P: Polytope, k: int) -> DecompositionResult:
    """The degree-``k`` covering walked point by point, in face order, so
    that a failure names the first point covered twice, the first point
    outside the interior, or the least point not covered."""
    target = {p + (k,) for p in P.interior_lattice_points(k)}
    seen = set()
    for sl in slicers:
        for y in sl.interior_points(k):
            if y in seen:
                return DecompositionResult(
                    ok=False, degree=k, point=y, reason="covered twice")
            if y not in target:
                return DecompositionResult(
                    ok=False, degree=k, point=y,
                    reason="point outside the interior")
            seen.add(y)
    if len(seen) != len(target):
        missing = min(target - seen)
        return DecompositionResult(
            ok=False, degree=k, point=missing, reason="point not covered")
    return DecompositionResult(ok=True)


def stellar_subdivide(T: Triangulation, x) -> Triangulation:
    """Insert ``x`` as a new vertex, splitting every cell containing it."""
    x = tuple(x)
    if x in T.points:
        raise ValueError(f"{x} is already a vertex")
    chart = build_chart(list(T.points))
    if not chart.in_affine_hull(x):
        raise ValueError("point to insert is outside the triangulated region")
    new_points = tuple(sorted(T.points + (x,)))
    remap = {p: i for i, p in enumerate(new_points)}
    old_to_new = [remap[p] for p in T.points]
    cells = sorted(tuple(sorted(old_to_new[i] for i in c)) for c in T.cells)
    cells = _stellar_insert(_chart_coords(chart, new_points), cells,
                            [remap[x]])
    return Triangulation(points=new_points, cells=tuple(sorted(cells)))
