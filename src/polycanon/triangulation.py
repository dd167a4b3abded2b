"""Exact triangulations of lattice polytopes.

Triangulations are stored combinatorially: a lex-sorted tuple of ambient
lattice points plus maximal cells as sorted index tuples.  The placing and
fine triangulations are one placing pass over lex-sorted points (cone each
new point over the boundary facets it sees strictly;
``polytope._placing``, the routine the polytope's facets are read off),
which uses every point.  The interior-respecting triangulation cones the
boundary over one interior point and stellar-inserts the others
(``_split_at``).  All arithmetic is exact and in integers.

A face lies in the boundary of the polytope iff the AND of its points'
tight-facet bitmasks is nonzero.  The covering check gives each interior
face one owning cell, computes that cell's half-open box from one Smith
form, and reads the face's box off it.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from .exactmath import build_chart, det_bareiss, dot, vsub
from .polytope import Polytope, _facet_form, _free_facets, _placing
from .simplex import HalfOpenBox, SimplexConeSlicer


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


def _split_at(coords, cells, forms: Dict[tuple, tuple],
              planes: Dict[tuple, tuple], x_index: int) -> list:
    """Stellar-insert point ``x_index`` into every cell containing it.

    ``forms`` (cell -> its forms) and ``planes`` (facet -> its plane, see
    :func:`_cell_forms`) are kept across the calls of one build."""
    x = coords[x_index]
    hit = []
    for c in cells:
        fs = forms.get(c)
        if fs is None:
            fs = forms[c] = _cell_forms(coords, c, planes)
        if all(dot(n, x) - o >= 0 for n, o in fs):
            hit.append(c)
    if not hit:
        raise ValueError("point to insert is outside the triangulated region")
    out = [c for c in cells if c not in hit]
    for c in hit:
        fs = forms.pop(c)
        for j, (n, o) in enumerate(fs):
            if dot(n, x) - o > 0:
                piece = tuple(sorted(
                    [v for k, v in enumerate(c) if k != j] + [x_index]))
                out.append(piece)
    return sorted(out)


def placing_triangulation(P: Polytope) -> Triangulation:
    """Triangulation of ``P`` whose vertex set is the polytope's vertices."""
    if P.dim < 1:
        raise ValueError("triangulation needs dimension >= 1")
    pts = P.vertices  # already lex-sorted
    return Triangulation(points=pts, cells=_placing(pts))


def full_lattice_triangulation(P: Polytope) -> Triangulation:
    """Triangulation of ``P`` using every lattice point of ``P`` as a vertex."""
    if P.dim < 1:
        raise ValueError("triangulation needs dimension >= 1")
    pts = P.lattice_points(1)  # lex-sorted
    return P._memo("full_triangulation",
                   lambda: Triangulation(points=pts, cells=_placing(pts)))


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
    coords = _chart_coords(P._chart, pts)
    forms: Dict[tuple, tuple] = {}
    planes: Dict[tuple, tuple] = {}
    for x in interior:
        if x == apex:
            continue
        cells = _split_at(coords, cells, forms, planes, pts.index(x))
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
    """Per point of ``T``, the bitmask of the facets of ``P`` it is tight on."""
    return [sum(1 << j for j, ff in enumerate(P.facets) if ff.slack(p) == 0)
            for p in T.points]


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
    """``(faces, owner)``: :func:`interior_faces` and, for each of them, the
    first cell of ``T`` containing it.  Cached on ``P`` per triangulation."""
    def build():
        masks = _tight_masks(T, P)
        owner: Dict[tuple, Optional[tuple]] = {}
        for cell in T.cells:
            for r in range(1, len(cell) + 1):
                for f in itertools.combinations(cell, r):
                    if f not in owner:
                        owner[f] = None if _face_in_boundary(masks, f) \
                            else cell
        owner = {f: c for f, c in owner.items() if c is not None}
        return tuple(sorted(owner, key=lambda f: (len(f), f))), owner
    return P._memo(("interior_faces", T), build)


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
    covered exactly once by the open cones over the interior faces."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    P._box(kmax)  # refuse an oversized top degree before any scan
    faces = interior_faces(T, P)
    owner = _interior_faces(T, P)[1]  # cached by the call above
    # One box per owning cell; each face's box is read off its owner's.
    boxes: Dict[tuple, HalfOpenBox] = {}
    slicers = []
    for f in faces:
        cell = owner[f]
        if cell not in boxes:
            try:
                boxes[cell] = HalfOpenBox(T.cell_points(cell))
            except ValueError:
                return DecompositionResult(ok=False, reason="degenerate face")
        slicers.append(SimplexConeSlicer.from_box(
            boxes[cell], [cell.index(i) for i in f]))
    for k in range(1, kmax + 1):
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
    coords = _chart_coords(chart, new_points)
    cells = _split_at(coords, cells, {}, {}, remap[x])
    return Triangulation(points=new_points, cells=tuple(sorted(cells)))
