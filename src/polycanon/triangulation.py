"""Exact triangulations of lattice polytopes.

Triangulations are stored combinatorially: a lex-sorted tuple of ambient
lattice points plus maximal cells as sorted index tuples.  The placing and
fine triangulations are one placing pass over lex-sorted points (cone each
new point over the boundary facets it sees strictly;
``polytope._placing``, the routine the polytope's facets are read off),
which uses every point.  The fine triangulation keeps the boundary
simplices of its pass.  The interior-respecting triangulation cones the
boundary simplices over one interior point: those of the fine pass when
it is cached, else those of one placing pass over the boundary points
alone.  A placing triangulation is regular, so it restricts to each face
as the placing triangulation of the face's own points (De Loera-Rambau-
Santos, *Triangulations*, 4.3), and both passes give the same boundary.
It then stellar-inserts the other interior points (``_stellar_insert``):
one integer table of every cell's facet forms, read off one batched
cofactor table; rounds of insertions whose hit cells are disjoint, which
commute, each round's hits from one product with many points; and each
new piece's forms from the pencil of two forms of its cell, so neither
pass takes a determinant per new plane.  All arithmetic is exact and in
integers.

A face lies in the boundary of the polytope iff the AND of its points'
tight-facet bitmasks is nonzero.  The covering check gives each interior
face one owning cell, the first cell containing it.  Its set-up has no loop
over face sizes.  Every subset of every cell's vertex positions is one row
of one sort on a packed key, which orders the faces and puts each face's
owner first, and the interior faces are one index array padded with a
point past the last.  Every point is lifted into chart coordinates in one
product, with a zero row for the padding, and every owning cell's
determinant is taken in one batched call.  A face of a unimodular cell has
one box point, the sum of its lifted vertices; the faces of every other
cell are read off that cell's half-open box, all boxes from one call of the
batched enumerator ``simplex.half_open_boxes`` and no Smith form, all faces
from one call of ``simplex.face_box_points``.  One sort splits the box
points into groups of one face size and one degree.  It counts each degree
on the chart box of the dilate: each group's points are one integer
product, written in place into chunks of many groups, and each chunk is
bounds-checked, flattened and scattered onto one boolean box.  That box
must be the dilate's interior mask, which the facet-form scan builds, so
the two routes stay independent, and the points as many as its cells.  A
degree that does not match is named from the same points, face by face.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .exactmath import (
    _cofactor_stack,
    _expansion_operands,
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

# A round of stellar insertion takes as many pending points as keep its
# points x cells x (d+1) hit values under this, and at least one: 1 MiB of
# int64 values.  A limit 8 times larger raised the peak memory of the
# interior-respecting triangulation of [0,8]^3 from 36 to 49 MB.
_ROUND_ENTRIES = 2**17

# The covering counts a degree's points in chunks of as many (n, h) groups
# as keep a chunk under this many coordinates, and at least one group: 1 MiB
# of int64 values.  One buffer per degree instead raised the peak memory of
# `triangulate --kmax 10` on example2 d=5 from 161 to 198 MB.
_COUNT_ENTRIES = 2**17


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
    (:func:`_cofactor_stack`) times the sign of ``det(L)``, and ``det(L)``
    is the first row of ``L`` against the first row of the cofactor matrix
    (Laplace expansion), in the dtype of :func:`_expansion_operands`.
    Raises ``ValueError`` for an affinely dependent cell."""
    n = len(coords[0]) + 1
    L = _int_array([[coords[i] + (1,) for i in c]
                    for c in cells]).reshape(len(cells), n, n)
    cof = _cofactor_stack(L)
    dets = (_expansion_operands(L)[:, 0] * cof[:, 0]).sum(axis=1)
    if (dets == 0).any():
        raise ValueError("degenerate cell")
    return cof * np.where(dets > 0, 1, -1)[:, None, None]


def _stellar_insert(coords, cells, xs: Sequence[int]) -> list:
    """Stellar-insert the points ``xs`` (indices into ``coords``), one after
    another, into every cell containing them; returns the sorted cells.

    One integer table holds the forms ``(n, o)`` of every cell as rows
    ``(n, -o)`` (:func:`_cell_table`): ``A`` is cells x (d+1) x (d+1), row
    ``j`` tight on the facet opposite vertex ``j``.  A point ``x`` gives
    ``V = A @ (x, 1)`` and hits the cells where every ``V_j >= 0``.  Each
    hit cell ``c`` and each ``j`` with ``V_j > 0`` gives the piece ``c``
    with ``c_j`` replaced by ``x`` in place.  Its row opposite ``x`` is row
    ``j`` of ``c``; its row opposite ``c_t`` is the pencil
    ``V_j * A_t - V_t * A_j``, which vanishes on the ridge the two rows
    share and at ``x`` and is positive at ``c_t``, divided by its gcd.  A
    cell's indices stay in the order of its rows until the end, where each
    is sorted once.

    The points go in rounds.  A round takes a prefix of the pending points,
    as many as keep the points x cells x (d+1) products under
    ``_ROUND_ENTRIES`` (at least one), and finds every hit in one product.
    A point is inserted in the round iff no cell it hits is hit by an
    earlier pending point (one cumulative OR of the hit rows); the others
    wait, in order, for the next round.  Two insertions whose hit cells are
    disjoint commute: every piece lies inside its hit cell, so neither
    point's hit cells change under the other's insertion, in this
    triangulation or in any refinement of it.  So each point inserted in a
    round could be moved in front of every earlier point that waits, and
    the cells are those of the one-by-one order.  The table is int64 while
    a bound from the largest coordinate of the round's points and the
    largest table entry keeps ``V`` and the pencil products under
    ``_INT64_GUARD``, checked once per round, and Python ints (``object``)
    from the first round where it does not.
    """
    d = len(coords[0])
    A = _cell_table(coords, cells)
    F = int(np.abs(A).max(initial=0))
    C = np.array(cells, dtype=np.int64).reshape(len(cells), d + 1)
    pending = list(xs)
    while pending:
        take = max(1, _ROUND_ENTRIES // (len(C) * (d + 1)))
        batch, pending = pending[:take], pending[take:]
        # |V| <= F * (d * X + 1) for X the largest |coordinate| of a point,
        # and a pencil entry is at most 2 |V| F
        X = max(abs(a) for x in batch for a in coords[x])
        if 2 * F * F * (d * X + 1) >= _INT64_GUARD:
            A = A.astype(object, copy=False)
        Y = np.array([coords[x] + (1,) for x in batch], dtype=A.dtype)
        V = (A.reshape(-1, d + 1) @ Y.T).reshape(len(C), d + 1, len(batch))
        hits = (V >= 0).all(axis=1).T  # points x cells
        if not hits.any(axis=1).all():
            raise ValueError(
                "point to insert is outside the triangulated region")
        clash = np.zeros(len(batch), dtype=bool)
        clash[1:] = (hits[1:] & np.logical_or.accumulate(hits[:-1])).any(1)
        go = np.flatnonzero(~clash)
        inserted = hits[go]
        pt, hc = np.nonzero(inserted)
        Vc = V[hc, :, go[pt]]  # hits x (d+1): the split indices go first
        r, j = np.nonzero(Vc > 0)
        hc, pt = hc[r], go[pt[r]]
        k = np.arange(len(r))
        Vc, Ac = Vc[r], A[hc]
        Vj, Aj = Vc[k, j], Ac[k, j]
        Ap = Vj[:, None, None] * Ac - Vc[:, :, None] * Aj[:, None, :]
        Ap[k, j] = Aj
        Ap //= np.gcd.reduce(Ap, axis=2)[:, :, None]
        Cp = C[hc]
        Cp[k, j] = np.array(batch, dtype=np.int64)[pt]
        keep = ~inserted.any(axis=0)
        C = np.concatenate([C[keep], Cp])
        A = np.concatenate([A[keep], Ap])
        F = max(F, int(np.abs(Ap).max()))
        pending = [x for x, c in zip(batch, clash) if c] + pending
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
    to ``P``: cone the triangulated boundary over the lex-least interior
    lattice point and stellar-insert the remaining interior points.  The
    boundary is that of the fine triangulation, read off its cache or
    placed from the boundary points alone (:func:`_boundary_simplices`).

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
    pts = P.lattice_points(1)
    fine = P._cache.get("full_triangulation")
    boundary = fine[1] if fine else _boundary_simplices(pts, interior)
    apex_i = pts.index(interior[0])  # the lex-least interior point
    cells = sorted(tuple(sorted(f + (apex_i,))) for f in boundary)
    if len(interior) > 1:
        index = {p: i for i, p in enumerate(pts)}
        cells = _stellar_insert(_chart_coords(P._chart, pts), cells,
                                [index[x] for x in interior[1:]])
    return Triangulation(points=pts, cells=tuple(sorted(cells)))


def _boundary_simplices(pts: tuple, interior: tuple) -> list:
    """The sorted boundary simplices of the fine triangulation on the
    lattice points ``pts``, as index tuples into ``pts``, from one placing
    pass over the lex-sorted boundary points alone (``interior`` holds the
    others).  A placing triangulation is regular, so its restriction to a
    face is the placing triangulation of the face's own points in the same
    order (De Loera-Rambau-Santos, *Triangulations*, 4.3): the points
    inside do not change the boundary."""
    inside = set(interior)
    at = [i for i, p in enumerate(pts) if p not in inside]
    boundary = _placing([pts[i] for i in at])[1]
    # at is increasing, so the index tuples stay sorted, and in order
    return [tuple(at[i] for i in f) for f in sorted(boundary)]


def _tight_masks(T: Triangulation, P: Polytope) -> list:
    """Per point of ``T``, the bitmask of the facets of ``P`` it is tight on.
    Cached on ``P`` per point list."""
    return P._memo(("tight_masks", T.points),
                   lambda: _tight_form_masks(T.points, P.facets))


def interior_faces(T: Triangulation, P: Polytope) -> tuple:
    """Faces of ``T`` not contained in the boundary of ``P``, sorted by
    (size, indices).  The open cones over exactly these faces partition the
    interior of the cone over ``P``."""
    arrays = _interior_faces(T, P)
    ends = np.searchsorted(arrays.size, np.arange(arrays.F.shape[1] + 1),
                           side="right").tolist()
    faces = []
    for n, (a, b) in enumerate(zip(ends, ends[1:]), 1):
        faces += map(tuple, arrays.F[a:b, :n].tolist())
    return tuple(faces)


class _Faces(NamedTuple):
    """The interior faces of a triangulation as index arrays, in the order
    of :func:`interior_faces`."""

    cells: np.ndarray    # T.cells as rows, cells x n
    F: np.ndarray        # faces x n point indices, padded with len(T.points)
    owner: np.ndarray    # per face, the index of the first cell holding it
    subset: np.ndarray   # per face, its row of the owner's _subset_table
    size: np.ndarray     # per face, its number of points


def _interior_faces(T: Triangulation, P: Polytope) -> _Faces:
    """The interior faces of ``T`` as a :class:`_Faces`, each with the first
    cell containing it.  Cached on ``P`` per triangulation.

    Raises ``ValueError`` when a point of ``T`` has another length than
    the ambient dimension of ``P``, when ``T`` has no cells, or when a cell
    has another length than the first cell or an index that names no point
    of ``T``."""
    def build():
        # each check reads all points or cells at once and looks for the
        # one to name only when it fails
        N, d = len(T.points), P.ambient_dim
        if set(map(len, T.points)) - {d}:
            p = next(p for p in T.points if len(p) != d)
            raise ValueError(
                f"triangulation point {p} has length {len(p)}, but the"
                f" polytope's ambient dimension is {d}")
        if not T.cells:
            raise ValueError("triangulation has no cells")
        n = len(T.cells[0])
        if set(map(len, T.cells)) - {n}:
            c = next(c for c in T.cells if len(c) != n)
            raise ValueError(
                f"triangulation cell {c} has {len(c)} points, but its"
                f" first cell {T.cells[0]} has {n}")
        C = _int_array(T.cells).reshape(len(T.cells), n)
        if n and (C.min() < 0 or C.max() >= N):
            c = next(c for c in T.cells if min(c) < 0 or max(c) >= N)
            raise ValueError(
                f"triangulation cell {c} has an index outside 0..{N - 1},"
                f" the indices of its {N} points")
        return _face_groups(C.astype(np.int64, copy=False), N,
                            _tight_masks(T, P))
    return P._memo(("interior_faces", T), build)


@functools.lru_cache(maxsize=None)
def _subset_table(n: int) -> tuple:
    """``(at, on, rank, size)`` over the nonempty subsets of ``range(n)``,
    by size and then in lex order, one row each: the subset's positions
    padded with ``n``, its membership as booleans, each member's rank in
    it (``n`` off it) and its size.  Read-only."""
    subsets = [s for r in range(1, n + 1)
               for s in itertools.combinations(range(n), r)]
    at = np.full((len(subsets), n), n, dtype=np.intp)
    rank = np.full((len(subsets), n), n, dtype=np.intp)
    for i, s in enumerate(subsets):
        at[i, :len(s)] = s
        rank[i, list(s)] = range(len(s))
    table = at, rank < n, rank, (rank < n).sum(axis=1)
    for a in table:
        a.setflags(write=False)
    return table


def _face_groups(C: np.ndarray, N: int, masks: Sequence[int]) -> _Faces:
    """The interior faces of the cells ``C`` (rows of indices into ``N``
    points) from the points' tight-facet bitmasks.

    Every cell's every subset of positions (:func:`_subset_table`) is one
    row, cell by cell, and gets one packed key: its size, then its indices,
    as digits in base ``N``, from one product of the cells with a table of
    digit weights.  The key is int64 while it stays below ``_INT64_GUARD``
    and Python ints past it.  One stable sort of the keys orders the faces
    by size and indices and puts each face's first cell first.  The faces
    are rows of indices padded with ``N``, and a face is interior iff the
    AND of its points' masks, held as 64-bit words with an all-ones row for
    the padding, is zero."""
    s, n = C.shape
    at, _, rank, size = _subset_table(n)
    dtype = np.int64 if (n + 1) * N ** n < _INT64_GUARD else object
    # the p-th index of a face weighs N^(n-1-p), an index off it nothing
    weight = np.array([N ** (n - 1 - p) for p in range(n)] + [0],
                      dtype=dtype)
    key = C.astype(dtype, copy=False) @ weight[rank].T
    key += size * np.array(N ** n, dtype=dtype)
    key = key.reshape(-1)
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    owner, subset = np.divmod(order[first], len(at))
    F = np.concatenate([C, np.full((s, 1), N, dtype=np.int64)], axis=1)
    F = np.take(F, owner[:, None] * (n + 1) + at[subset])
    words = max(1, -(-max(masks, default=0).bit_length() // 64))
    M = np.array([[(a >> (64 * w)) & (2**64 - 1) for w in range(words)]
                  for a in (*masks, -1)], dtype=np.uint64).reshape(-1, words)
    # one position at a time: numpy reduces along a short axis slowly
    tight = np.take(M, F[:, 0], axis=0)
    for j in range(1, n):
        tight &= np.take(M, F[:, j], axis=0)
    inside = ~tight.any(axis=1)
    subset = subset[inside]
    return _Faces(C, F[inside], owner[inside], subset, size[subset])


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
    _interior_faces(T, P)  # refuse malformed points and cells
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

    Every triangulation point is lifted in one product, with one zero row
    more for the padding of the face rows (:func:`_face_groups`).  A cell's
    rows are its points' chart coordinates and a one, with the coordinates
    across the hull too when a point lies off it, so that its box is the
    box of its ambient points.  Cells that are then not square (points off
    the hull, or cells of another size) each go onto a chart of their own
    points (:func:`square_lift`).  Every owning cell's determinant is taken
    in one :func:`det_stack` call.  The faces owned by unimodular cells
    have one box point each, at degree ``n``: the sum of their lifted
    vertices, all in one padded sum.  The boxes of all other owning cells
    come from one :func:`half_open_boxes` call, and all their faces are
    read off them in one :func:`face_box_points` call, each face's vertex
    positions its row of :func:`_subset_table`.  One stable sort on
    ``(n, h)`` splits the rows into groups, and each group's generators
    are one gather of the lifted points.

    Raises ``ValueError`` when the points of an owning cell are affinely
    dependent.
    """
    chart = P._chart
    d, m = chart.dim, chart.ambient_dim
    C, F, owner, subset, size = _interior_faces(T, P)
    cols = [(*c, -dot(chart.origin, c))
            for c in (*chart.proj_cols, *chart.comp_cols)]
    gain = max((abs(a) for c in cols for a in c), default=0) * (m + 1)
    X = _int_array(T.points).reshape(len(T.points), m)
    big = max(int(X.max(initial=0)), -int(X.min(initial=0))) + 1
    dtype = object if big * gain * (d + 1) >= _INT64_GUARD else np.int64
    lift = np.array(cols, dtype=dtype).T
    # one zero row more, for the padding of the faces' index rows
    W = np.zeros((len(T.points) + 1, m), dtype=dtype)
    W[:-1] = X.astype(dtype, copy=False) @ lift[:m] + lift[m]
    w = m if (W[:, d:] != 0).any() else d
    rows = np.ones((len(W) - 1, w + 1), dtype=dtype)
    rows[:, :w] = W[:-1, :w]
    owned = np.flatnonzero(np.bincount(owner, minlength=len(C)))
    cells = square = np.take(rows, C[owned], axis=0)
    if C.shape[1] != w + 1:  # each cell on a chart of its own points
        square = np.array([square_lift(c[:, :w].tolist()) for c in cells],
                          dtype=object).reshape(len(cells), *C.shape[1:] * 2)
    dets = _int_array(det_stack(square))
    if (dets == 0).any():
        raise ValueError("degenerate face")
    odd = (dets != 1) & (dets != -1)
    boxed_cells = owned[odd]
    box_of = np.full(len(C), -1)
    box_of[boxed_cells] = np.arange(len(boxed_cells))
    b = box_of[owner]
    # a unimodular cell's box is the origin: a face's one box point is the
    # sum of its lifted vertices, at the degree of its size
    one = np.flatnonzero(b < 0)
    R, h, I = [np.take(W, F[one].T, axis=0).sum(axis=0)], [size[one]], [one]
    # every other face is read off its owner's box
    boxed = np.flatnonzero(b >= 0)
    if len(boxed):
        at, coefficients, points = half_open_boxes(square[odd], dets[odd],
                                                   cells[odd])
        face, reps = face_box_points(
            cells[odd], np.searchsorted(at, np.arange(len(boxed_cells) + 1)),
            coefficients != 0, points, b[boxed],
            _subset_table(C.shape[1])[1][subset[boxed]])
        R.append(np.zeros((len(reps), m), dtype=dtype))
        R[-1][:, :w] = reps[:, :w]
        h.append(reps[:, w].astype(np.int64))
        I.append(boxed[face])
    R, h, I = map(np.concatenate, (R, h, I))
    # one sort splits the rows into (n, h) groups
    key = size[I] * (C.shape[1] + 1) + h
    order = np.argsort(key, kind="stable")
    R, I, key = R[order], I[order], key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    groups = {}
    for a, e in zip(starts, starts[1:] + [len(I)]):
        n, h = divmod(int(key[a]), C.shape[1] + 1)
        groups[n, h] = (R[a:e], np.take(W, F[I[a:e], :n], axis=0), I[a:e])
    bound = max(int(np.abs(W).max(initial=0)),
                int(np.abs(R).max(initial=0)))
    return bound, groups


@functools.lru_cache(maxsize=128)
def _composition_array(total: int, parts: int) -> np.ndarray:
    """``_compositions(total, parts)`` as rows of a read-only int64 array."""
    a = np.array(list(_compositions(total, parts)),
                 dtype=np.int64).reshape(-1, parts)
    a.setflags(write=False)
    return a


def _degree_chunks(groups: dict, k: int, dtype) -> Iterator[tuple]:
    """The degree-``k`` points of the groups of :func:`_cover_arrays` with
    ``h <= k``: box points plus compositions of ``k - h`` times the
    generators.  They come in chunks of as many groups as keep a chunk
    under ``_COUNT_ENTRIES`` coordinates, and at least one.  Yields
    ``(pts, parts)``: the chunk's points as the rows of one array, each
    group's written in place by one product, face by face and within a
    face composition by composition, and the chunk's groups as
    ``(compositions, R, G, I)``."""
    parts = [(_composition_array(k - h, n), R, G, I)
             for (n, h), (R, G, I) in groups.items() if h <= k]
    chunk, rows = [], 0
    for i, (c, R, G, I) in enumerate(parts):
        chunk.append((c, R, G, I))
        rows += len(c) * len(R)
        m = R.shape[1]
        if i + 1 < len(parts) and (
                rows + len(parts[i + 1][0]) * len(parts[i + 1][1])
        ) * m <= _COUNT_ENTRIES:
            continue
        pts = np.empty((rows, m), dtype=dtype)
        at = 0
        for c, R, G, _ in chunk:
            out = pts[at:at + len(c) * len(R)].reshape(len(R), len(c), m)
            np.matmul(c, G.astype(dtype, copy=False), out=out)
            out += R[:, None, :].astype(dtype, copy=False)
            at += len(c) * len(R)
        yield pts, chunk
        chunk, rows = [], 0


def _cover_degree(cover: tuple, P: Polytope, k: int) -> DecompositionResult:
    """Whether the degree-``k`` points of the faces' open cones, given as
    their :func:`_cover_arrays`, hit every interior point of the ``k``-th
    dilate exactly once.  The points come in chunks of many groups
    (:func:`_degree_chunks`), and each chunk is bounds-checked against the
    chart box of ``k * P``, flattened to box indices at once and scattered
    onto one boolean box.  The covering holds at degree ``k`` iff that box
    is the interior mask and the points are as many as its interior cells,
    none hit twice.  Int64 while the points stay under ``_INT64_GUARD``,
    Python ints past it.  A degree that does not match is named by
    :func:`_first_bad_point`."""
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
    hit = np.zeros(mask.size, dtype=bool)
    points = 0
    for pts, _ in _degree_chunks(groups, k, dtype):
        q = pts[:, :d]
        q -= lo_  # in place: the chunk is not read again
        if (pts[:, d:] != 0).any() or (q < 0).any() or (q >= dims).any():
            return _first_bad_point(groups, P, k)
        hit[(q @ strides).astype(np.int64, copy=False)] = True
        points += len(pts)
    # the hit cells are the interior ones, and as many as the points, so
    # no point is hit twice
    if points == np.count_nonzero(mask) and (hit == mask.reshape(-1)).all():
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
    for pts, parts in _degree_chunks(groups, k, object):
        x = pts @ back
        x += np.array(chart.origin, dtype=object) * k
        faces = np.concatenate([np.repeat(I, len(c)) for c, _, _, I in parts])
        walk += zip(faces.tolist(), map(tuple, x.tolist()))
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
