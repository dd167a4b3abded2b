"""Lattice polytopes with exact vertex and facet representations.

A polytope lives in ``Z^m`` but may have smaller dimension ``d``; all facet
data is stored both in ambient coordinates and in an exact chart on the
affine hull, so every enumeration runs in a full-dimensional picture.

Facets are the planes of the final boundary of a placing pass
(``_placing``, the one hull routine, shared with the triangulation layer,
which also keeps the boundary simplices themselves), whose planes come
oriented and gcd-reduced: a dimension jump takes one determinant, for the
base of the pyramid it makes, and every other plane comes from the pencil
of two known ones.  The vertices are the points whose sets of tight facets
are maximal (``_tight_form_masks``).  ``from_inequalities`` runs one
search, on the homogenized cone ``{(x, e) : n . x <= o e, e >= 0}``: its
extreme rays are the cofactor rays, from the one minors kernel of
``exactmath`` (``_cross_stack``), of ``m``-subsets of the rows ``(n, -o)``
and ``(0, ..., 0, -1)``, each tested in integers by one product with
those rows; a ray with ``e = 0`` is a recession ray, and every other is a
vertex ``num / e``.  The ``facet_duality`` check rebuilds every polytope
through it.  A full-dimensional polytope's chart is the identity and costs
no arithmetic.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .exactmath import (
    _INT64_GUARD,
    _cross_stack,
    _int_array,
    AffineChart,
    as_matrix,
    as_vector,
    build_chart,
    dot,
    gcd_vector,
    generalized_cross,
    primitive_vector,
    rank,
    vec_mat,
    vsub,
)

BOX_POINT_CAP = 40_000_000
# Input budgets, checked before any work starts.  SUBSET_CAP bounds the
# C(#forms, m) inequality subsets that give the vertices and the
# C(#forms, m - 1) cofactor rays that test for recession, which the one
# search of the inequality route streams together as C(#forms + 1, m);
# tests and benchmark reach C(14, 6) = 3003 (example2 d=6).
SUBSET_CAP = 1_000_000
# PLACING_CAP bounds n * UBT(n, d): the placing pass scans its boundary once
# per point, and by the upper bound theorem the boundary of a d-polytope on
# n vertices has at most UBT(n, d) facets (see _check_placing).  The
# 216-point cube [0,5]^3 reads 92448 and example2(6) 5193804; a 6^4 grid,
# 1085871744, is refused.
PLACING_CAP = 10_000_000
# The inequality route takes the cofactor rays of this many subsets at a
# time, so no array grows with C(#forms + 1, m) past one chunk.
_CHUNK = 2048


class BudgetError(ValueError):
    """An input refused, before the work starts, for asking more work than
    a cap allows."""


@dataclass(frozen=True, order=True)
class FacetForm:
    """One inequality ``normal . x <= offset`` with primitive integer normal."""

    normal: tuple
    offset: int

    def slack(self, x) -> int:
        return self.offset - dot(self.normal, x)


class Polytope:
    """Immutable lattice polytope; construct via the classmethods."""

    def __init__(self, *, ambient_dim, vertices, dim, facets, chart,
                 fd_vertices, fd_facets, name=None):
        self.ambient_dim = ambient_dim
        self.vertices = vertices      # lex-sorted ambient lattice points
        self.dim = dim
        self.facets = facets          # ambient FacetForms, sorted
        self.name = name
        self._chart: AffineChart = chart
        self._fd_vertices = fd_vertices  # vertices in chart coordinates
        self._fd_facets = fd_facets      # FacetForms in chart coordinates
        self._cache: dict = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_vertices(cls, points, name: Optional[str] = None) -> "Polytope":
        pts = sorted(set(as_matrix(points)))
        if not pts:
            raise ValueError("a polytope needs at least one point")
        m = len(pts[0])
        chart = build_chart(pts)
        d = chart.dim
        fd_pts = [chart.to_chart(p) for p in pts]

        fd_facets = _facets_from_points(fd_pts, d)

        # Extreme-point filter: every vertex is a candidate, and a vertex is
        # the only point of P on all of its tight facets, so no other
        # candidate's tight set contains its own.  Any other candidate lies
        # inside a face of dimension >= 1, whose vertices are tight on more
        # facets.  So the vertices are the candidates with maximal tight
        # sets.  d + 1 points spanning dimension d are all vertices.
        verts_fd = fd_pts
        if len(fd_pts) > d + 1:
            masks = _tight_form_masks(fd_pts, fd_facets)
            distinct = set(masks)
            maximal = {a for a in distinct
                       if not any(b != a and b & a == a for b in distinct)}
            verts_fd = [q for q, a in zip(fd_pts, masks) if a in maximal]
        vertices = tuple(sorted(chart.from_chart(q) for q in verts_fd))

        facets = tuple(sorted(
            _pull_back_facet(f, chart) for f in fd_facets
        ))
        fd_facets = tuple(sorted(fd_facets, key=lambda f: (f.normal, f.offset)))
        return cls(ambient_dim=m, vertices=vertices, dim=d, facets=facets,
                   chart=chart, fd_vertices=tuple(sorted(verts_fd)),
                   fd_facets=fd_facets, name=name)

    @classmethod
    def from_inequalities(cls, forms, ambient_dim: int,
                          name: Optional[str] = None) -> "Polytope":
        """Build from ``normal . x <= offset`` constraints.

        Raises ``ValueError`` for a normal whose length is not
        ``ambient_dim`` or an ``ambient_dim`` below 1, for unbounded or
        empty regions and for regions whose vertices are not all lattice
        points, and ``BudgetError`` before any work when ``C(#forms, m)``
        or ``C(#forms, m - 1)`` is over ``SUBSET_CAP``.  After the rank
        check comes one search (:func:`_cone_points`) over the rows
        ``(n, -o)`` of the forms, with the row ``(0, ..., 0, -1)`` first.
        """
        m = ambient_dim
        if m < 1:
            raise ValueError("ambient_dim must be a positive integer")
        pairs = [(f.normal, f.offset) if isinstance(f, FacetForm) else tuple(f)
                 for f in forms]
        for n, o in pairs:
            if len(n) != m:
                raise ValueError(f"normal {n!r} must be a list of"
                                 f" {m} integers")
            if isinstance(o, bool) or not isinstance(o, int):
                raise ValueError(f"offset {o!r} must be an integer")
        forms = tuple(FacetForm(as_vector(n), o) for n, o in pairs)
        n = len(forms)
        _check_subsets(n, m,
                       "the vertex search would try {} inequality subsets")
        _check_subsets(n, m - 1,
                       "the recession search would take {} cofactor rays")
        if rank([f.normal for f in forms]) < m:
            raise ValueError("unbounded polyhedron (normals do not span)")
        points = _cone_points(_int_array(
            [(0,) * m + (-1,)] + [f.normal + (-f.offset,) for f in forms]))
        if not points:
            raise ValueError("infeasible system (no vertices)")
        bad = [tuple(Fraction(a, row[-1]) for a in row[:-1])
               for row in points if row[-1] != 1]
        if bad:
            raise ValueError(f"vertex {tuple(str(c) for c in min(bad))}"
                             " is not a lattice point")
        return cls.from_vertices([row[:-1] for row in points], name=name)

    # -- enumeration -------------------------------------------------------

    def lattice_points(self, scale: int = 1) -> tuple:
        """All lattice points of the ``scale``-th dilate, lex-sorted."""
        return self._scan(scale, interior=False)

    def interior_lattice_points(self, scale: int = 1) -> tuple:
        """Lattice points strictly inside every facet of the dilate.

        For a point polytope the single point counts as interior (the
        relative interior of a point is the point).
        """
        return self._scan(scale, interior=True)

    def _memo(self, key, build: Callable[[], object]):
        """The value cached under ``key``, built by ``build()`` if absent."""
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cache[key] = build()
        return hit

    def _scan(self, scale: int, interior: bool) -> tuple:
        def build():
            return self._points(scale, *self._slice(scale, interior))
        return self._memo(("scan", scale, interior), build)

    def _box(self, scale: int) -> tuple:
        """``(lo, shape)`` of the chart box ``scale * B``, where ``B`` is the
        bounding box of the chart vertices; ``lo`` is its lowest corner.

        Raises ``BudgetError`` before anything is allocated when the box
        holds more than ``BOX_POINT_CAP`` lattice points.
        """
        if scale < 0:
            raise ValueError("dilation factor must be nonnegative")
        cols = list(zip(*self._fd_vertices))
        lo = tuple(min(c) * scale for c in cols)
        shape = tuple((max(c) - min(c)) * scale + 1 for c in cols)
        total = math.prod(shape)
        if total > BOX_POINT_CAP:
            raise BudgetError(
                f"the box around dilate {scale} holds {total} lattice points,"
                f" over the cap of {BOX_POINT_CAP}")
        return lo, shape

    def _slice(self, scale: int, interior: bool) -> tuple:
        """``(lo, mask)``: the lattice points of the ``scale``-th dilate, or
        of its relative interior, as a boolean mask over the chart box
        ``scale * B`` with lowest corner ``lo`` (see :meth:`_box`).

        Every slice of one polytope lies on these boxes, so the sum of a
        degree-``j`` and a degree-``l`` slice lands exactly on box ``j + l``.
        The 0-th dilate is the origin, which is its own relative interior.
        Each line of the box along the last chart axis meets the slice in
        one interval (see :meth:`_build_slice`).  The mask is cached and
        shared, so it is read-only.
        """
        def build():
            lo, shape = self._box(scale)
            mask = self._build_slice(scale, interior, lo, shape)
            mask.setflags(write=False)
            return lo, mask
        return self._memo(("slice", scale, interior), build)

    def _build_slice(self, scale: int, interior: bool, lo: tuple,
                     shape: tuple) -> np.ndarray:
        """The lattice points of the ``scale``-th dilate, or of its relative
        interior, as a mask over the chart box ``(lo, shape)``: the
        dilate's box (:meth:`_slice`) or any window of it.

        A convex set meets each line along the last chart axis in an
        interval, so each facet is evaluated once on the ``(d - 1)``-dim
        base of the box, not on every cell: it moves the line's upper or
        lower end, or, parallel to the axis, empties the line.  One
        box-sized compare then fills the mask.  The statements run on int64
        while every value they form stays below ``_INT64_GUARD``, and on
        Python ints (``object``) past it.
        """
        if scale == 0 or self.dim == 0:
            return np.ones(shape, dtype=bool)
        big = max((max(abs(l), abs(l + n - 1)) for l, n in zip(lo, shape)),
                  default=0)
        coeff = max((max(abs(a) for a in f.normal) + abs(f.offset)
                     for f in self._fd_facets), default=0)
        wide = (big + 1) * coeff * (self.dim + 1) * scale >= _INT64_GUARD
        dtype = object if wide else np.int64
        # Per facet, the slack r = o * scale - least - n' . q' of the first
        # d - 1 axes, taken on the base by broadcasting, bounds the last
        # coordinate t of each line by c * t <= r, c = n_last: t <= r // c
        # for c > 0 and -t <= r // -c for c < 0, so both bounds are minima.
        d = self.dim
        base = [np.arange(l, l + n, dtype=dtype)
                .reshape((n,) + (1,) * (d - 2 - i))
                for i, (l, n) in enumerate(zip(lo[:-1], shape[:-1]))]
        t = np.arange(lo[-1], lo[-1] + shape[-1], dtype=dtype)
        least = 1 if interior else 0
        t_hi = np.full(shape[:-1], t[-1], dtype=dtype)
        t_lo_neg = np.full(shape[:-1], -t[0], dtype=dtype)
        for f in self._fd_facets:
            r = f.offset * scale - least
            for a, ax in zip(f.normal, base):
                if a:
                    r = r - a * ax
            c = f.normal[-1]
            if c:
                bound = t_hi if c > 0 else t_lo_neg
                np.minimum(bound, r // abs(c), out=bound)
            else:  # the line is empty where r < 0
                np.copyto(t_hi, t[0] - 1, where=r < 0)
        mask = np.less_equal(-t, t_lo_neg[..., None])
        mask &= np.less_equal(t, t_hi[..., None])
        return mask

    def _points(self, scale: int, lo: tuple, mask) -> tuple:
        """The ambient lattice points at the true entries of ``mask``, a
        mask over the box of the ``scale``-th dilate with corner ``lo``,
        lex-sorted: the columns of :meth:`_rows` zipped into points.  For
        an identity chart C order of the cells is lex order of the
        points; any other chart sorts them."""
        rows = self._rows(scale, lo, mask)
        if not rows.shape[1]:  # Z^0 has no columns to zip
            return ((),) * len(rows)
        points = tuple(zip(*rows.T.tolist()))
        return points if self._chart.identity else tuple(sorted(points))

    def _rows(self, scale: int, lo: tuple, mask) -> np.ndarray:
        """The ambient lattice points at the true entries of ``mask``, a
        mask over the box of the ``scale``-th dilate with corner ``lo``, as
        the rows of one integer array in C order of the cells.  The indices
        come from one flat scan of the mask (:func:`_true_cells`), and one
        statement adds ``lo`` and maps them through the chart,
        ``(idx + lo) @ basis + scale * origin``, which an identity chart
        skips.  It runs on int64 while every value stays below
        ``_INT64_GUARD`` and on Python ints (``object``) past it."""
        idx = _true_cells(mask)
        chart = self._chart
        reach = max((abs(l) + n for l, n in zip(lo, mask.shape)), default=0)
        if not chart.identity:
            coeff = max(map(abs, itertools.chain(*chart.basis)), default=0)
            reach = (reach * self.dim * coeff
                     + scale * max(map(abs, chart.origin)))
        dtype = object if reach >= _INT64_GUARD else np.int64
        rows = idx.astype(dtype, copy=False)
        rows += np.array(lo, dtype=dtype)
        if chart.identity:
            return rows
        basis = np.array(chart.basis, dtype=dtype).reshape(
            self.dim, self.ambient_dim)
        return rows @ basis + np.array([scale * a for a in chart.origin],
                                       dtype=dtype)

    # -- queries -----------------------------------------------------------

    def classify_point(self, x, scale: int = 1) -> str:
        """Classify ``x`` against the ``scale``-th dilate:
        ``"interior"`` (relative), ``"boundary"`` or ``"outside"``."""
        x = as_vector(x)
        if len(x) != self.ambient_dim:
            raise ValueError("wrong ambient dimension")
        if scale < 0:
            raise ValueError("dilation factor must be nonnegative")
        if scale == 0:
            return "interior" if not any(x) else "outside"
        if not self._chart.in_affine_hull(x, scale=scale):
            return "outside"
        if self.dim == 0:
            return "interior"
        q = self._chart.to_chart(x, scale=scale)
        min_slack = None
        for f in self._fd_facets:
            s = f.offset * scale - dot(f.normal, q)
            if s < 0:
                return "outside"
            min_slack = s if min_slack is None else min(min_slack, s)
        return "boundary" if min_slack == 0 else "interior"

    def is_simplex(self) -> bool:
        return len(self.vertices) == self.dim + 1

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {
            "ambient_dim": self.ambient_dim,
            "vertices": [list(v) for v in self.vertices],
        }
        if self.name is not None:
            out["name"] = self.name
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "Polytope":
        if not isinstance(data, dict):
            raise ValueError("polytope JSON must be an object")
        extra = set(data) - {"ambient_dim", "vertices", "inequalities", "name"}
        if extra:
            raise ValueError(f"unknown keys {sorted(extra)}")
        if "ambient_dim" not in data:
            raise ValueError("missing ambient_dim")
        m = data["ambient_dim"]
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise ValueError("ambient_dim must be a positive integer")
        name = data.get("name")
        if name is not None and not isinstance(name, str):
            raise ValueError("name must be a string")
        has_v = "vertices" in data
        has_i = "inequalities" in data
        if has_v == has_i:
            raise ValueError(
                "provide exactly one of vertices or inequalities")
        if has_v:
            verts = data["vertices"]
            if not isinstance(verts, list) or not verts:
                raise ValueError("vertices must be a nonempty list")
            rows = []
            for v in verts:
                if not isinstance(v, list) or len(v) != m:
                    raise ValueError(f"vertex {v!r} must be a list of"
                                     f" {m} integers")
                rows.append(as_vector(v))
            return cls.from_vertices(rows, name=name)
        ineqs = data["inequalities"]
        if not isinstance(ineqs, list) or not ineqs:
            raise ValueError("inequalities must be a nonempty list")
        forms = []
        for item in ineqs:
            if (not isinstance(item, dict)
                    or set(item) != {"normal", "offset"}):
                raise ValueError(
                    "each inequality needs exactly normal and offset")
            n = item["normal"]
            if not isinstance(n, list) or len(n) != m:
                raise ValueError(f"normal {n!r} must be a list of"
                                 f" {m} integers")
            o = item["offset"]
            if isinstance(o, bool) or not isinstance(o, int):
                raise ValueError("offset must be an integer")
            forms.append(FacetForm(as_vector(n), o))
        return cls.from_inequalities(forms, ambient_dim=m, name=name)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polytope)
                and self.ambient_dim == other.ambient_dim
                and self.vertices == other.vertices)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self) -> str:
        label = self.name or f"{len(self.vertices)} vertices"
        return f"Polytope(dim={self.dim}, ambient={self.ambient_dim}, {label})"


def _true_cells(mask) -> np.ndarray:
    """The indices of the true cells of ``mask``, one row per cell in C
    order, as ``np.argwhere`` gives them, from one flat scan: the flat
    positions, then one ``unravel_index``, whose columns are transposed
    into rows.  A 0-d mask gives shape ``(n, 0)``."""
    flat = np.flatnonzero(mask)
    if mask.ndim == 0:
        return np.empty((len(flat), 0), dtype=np.intp)
    return np.transpose(np.unravel_index(flat, mask.shape))


def _facets_from_points(fd_pts: Sequence[tuple], d: int) -> list:
    """Facet inequalities of the convex hull of full-dimensional points:
    one primitive form per simplex of the final boundary of a placing pass,
    so coplanar simplices merge into one facet."""
    if d == 0:
        return []
    _check_placing(len(fd_pts), d)
    facets = set()
    for n, o in _placing(fd_pts)[1].values():  # n . x >= o on the hull
        g = gcd_vector(n)
        facets.add(FacetForm(tuple(-a // g for a in n), -o // g))
    return list(facets)


def _tight_form_masks(points: Sequence[tuple], forms: Sequence[FacetForm]
                      ) -> list:
    """Per point, the bitmask of the forms it is tight on (bit ``j`` for
    ``forms[j]``), from one integer product of the points with the normals:
    int64 while every value it forms stays below ``_INT64_GUARD``, else the
    same statements on Python ints (``object``)."""
    if not forms:
        return [0] * len(points)
    big = max((abs(a) for p in points for a in p), default=0)
    coeff = max(abs(a) for f in forms for a in f.normal)
    top = max(abs(f.offset) for f in forms)
    wide = len(forms[0].normal) * big * coeff + top >= _INT64_GUARD
    dtype = object if wide else np.int64
    N = np.array([f.normal for f in forms], dtype=dtype)
    o = np.array([f.offset for f in forms], dtype=dtype)
    tight = np.array(points, dtype=dtype) @ N.T == o
    packed = np.packbits(tight, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _facet_form(coords: Sequence[tuple], facet: Sequence[int],
                inside: int) -> tuple:
    """``(n, o)`` with ``n . x == o`` on the points of ``facet`` (affine
    coordinates on the hull, as many points as its dimension) and
    ``n . x > o`` at point ``inside``."""
    base = coords[facet[0]]
    n = generalized_cross([vsub(coords[j], base) for j in facet[1:]],
                          len(base))
    o = dot(n, base)
    s = dot(n, coords[inside]) - o
    if s == 0:
        raise ValueError("degenerate cell")
    return (n, o) if s > 0 else (tuple(-a for a in n), -o)


def _placing(pts: Sequence[tuple]) -> tuple:
    """Triangulate the convex hull of ``pts`` by placing them in order.

    ``pts`` are distinct and lex-sorted, or the image of such a sequence
    under an injective affine map.  Returns ``(cells, boundary)``: the
    cells as a sorted tuple of sorted index tuples, with every point a
    vertex of some cell, and the final boundary (below).  The
    lex-greatest point placed so far maximizes ``(1, e, e^2, ...)`` for
    small ``e > 0``, so it is a vertex of the hull placed so far and lies
    strictly beyond some boundary facet (De Loera-Rambau-Santos,
    *Triangulations*, 4.3).  A point that sees no facet raises
    ``AssertionError``.

    The directions spanned so far are integer echelon rows; a point whose
    direction does not reduce to zero is a dimension jump and adds a row;
    once the rows span ``Z^m`` no point is reduced.  Points are read in
    their pivot columns, which map the affine hull bijectively onto its
    image (no lattice chart is needed).

    The boundary of the hull placed so far is kept between insertions as
    ``facet -> (n, o)`` with ``n . x >= o`` on the hull (beneath-beyond),
    next to ``ridge -> its two boundary facets``.  A new point ``p`` is
    coned over the facets it sees strictly, found by one dot product per
    boundary facet; those leave the boundary, and each horizon ridge ``g``
    (in exactly one seen facet ``f``, read off one map from each ridge of
    the seen facets to the seen facet through it) joined to ``p`` enters
    it.  The new plane lies in the pencil of the planes of
    ``f`` and of the unseen facet ``f2`` through ``g``: with
    ``F = n . x - o``, it is ``F2(p) * F + (-F(p)) * F2``, which vanishes
    on ``g`` and at ``p``, is positive on the hull placed so far away from
    ``g``, and is divided by the gcd of its entries.  A dimension jump
    appends the new coordinate last and makes the hull a pyramid over the
    old one; :func:`_pyramid` carries the boundary across it with one
    determinant, for the base plane, and one pencil per old facet.  The
    ridge index is rebuilt at the first point placed after a jump, so a
    pass that ends on jumps (a simplex) never builds it.

    ``boundary`` maps each simplex of the final boundary, a sorted index
    tuple, to its plane ``(n, o)``, with ``n`` moved from pivot-column
    order back to the coordinates of ``pts`` (zero off the pivot columns),
    so ``n . x >= o`` on the hull.  A plane taken from a pencil is
    gcd-reduced.  A single point has no boundary, and ``boundary`` is
    empty.
    """
    rows: list = []    # echelon rows, each zero at the earlier pivots
    pivots: list = []
    cells = [(0,)]
    coords = [()]      # no pivots yet: point 0 is the origin of Z^0
    boundary: Dict[tuple, tuple] = {}
    ridges: Optional[Dict[tuple, list]] = {}
    for i in range(1, len(pts)):
        if len(rows) < len(pts[0]):  # rows spanning Z^m leave no jump
            y = vsub(pts[i], pts[0])
            for row, c in zip(rows, pivots):
                a, b = row[c], y[c]
                if b:
                    y = tuple(a * u - b * v for u, v in zip(y, row))
            if any(y):
                rows.append(primitive_vector(y))
                pivots.append(next(c for c, u in enumerate(y) if u))
                coords = [tuple(map(p.__getitem__, pivots))
                          for p in pts[: i + 1]]
                boundary = _pyramid(coords, cells, boundary, i)
                cells = [c + (i,) for c in cells]
                ridges = None
                continue
        p = tuple(map(pts[i].__getitem__, pivots))
        coords.append(p)
        if ridges is None:  # the first point placed since a jump
            ridges = {}
            for f in boundary:
                for j in range(len(f)):
                    ridges.setdefault(f[:j] + f[j + 1:], []).append(f)
        # facet -> -F(p) > 0 over the facets p sees
        seen = {f: t for f, (n, o) in boundary.items()
                if (t := o - sum(map(operator.mul, n, p))) > 0}
        if not seen:
            raise AssertionError(f"point {i} sees no facet while placing")
        # ridge -> the seen facet through it, None for a ridge of two
        horizon: Dict[tuple, Optional[tuple]] = {}
        for f in seen:
            for j in range(len(f)):
                g = f[:j] + f[j + 1:]
                horizon[g] = None if g in horizon else f
        for g, f in horizon.items():
            if f is None:
                continue
            pair = ridges.get(g, ())
            if len(pair) != 2:
                raise AssertionError(
                    f"ridge {g} lies in {len(pair)} boundary facets")
            f2 = pair[pair[0] == f]
            (n1, o1), (n2, o2) = boundary[f], boundary[f2]
            s, t = sum(map(operator.mul, n2, p)) - o2, seen[f]
            n = [s * a + t * b for a, b in zip(n1, n2)]
            o = s * o1 + t * o2
            c = math.gcd(*n, o)
            h = g + (i,)
            boundary[h] = (tuple(a // c for a in n), o // c)
            ridges[g] = [f2, h]
            for j in range(len(g)):
                ridges.setdefault(g[:j] + g[j + 1:] + (i,), []).append(h)
        # a ridge of two seen facets is inside the hull from now on: no
        # later horizon reaches it, so its entry in ridges is left as is
        for f in seen:
            del boundary[f]
            cells.append(f + (i,))
    for f, (n, o) in boundary.items():
        full = [0] * len(pts[0])
        for c, a in zip(pivots, n):
            full[c] = a
        boundary[f] = (tuple(full), o)
    return tuple(sorted(cells)), boundary


def _pyramid(coords: Sequence[tuple], cells: Sequence[tuple],
             boundary: Dict[tuple, tuple], i: int) -> dict:
    """The boundary, as in :func:`_placing`, of the pyramid with apex ``i``
    over the hull of ``cells``, whose own boundary is ``boundary`` in
    ``coords`` without their last entry, the one the apex adds.

    Only the base plane ``B`` takes a determinant; it holds every old
    point, so each old cell is a base facet.  Each old facet ``f``, with
    ``F = n . x - o`` extended by a zero, gives ``f + (i,)`` on the pencil
    plane ``B(p) * F - F(p) * B``, divided by the gcd of its entries: it
    vanishes on ``f`` and at the apex ``p`` and equals ``B(p) * F >= 0`` on
    the old hull.  A point has no facets; over it the pyramid is a segment
    whose ends are the point and the apex."""
    n, o = _facet_form(coords, cells[0], i)
    p = coords[i]
    if not boundary:
        return {cells[0]: (n, o), (i,): (tuple(-a for a in n), -dot(n, p))}
    b = dot(n, p) - o
    out = dict.fromkeys(cells, (n, o))
    q = p[:-1]
    for f, (nf, of) in boundary.items():
        t = dot(nf, q) - of
        g = [b * a - t * c for a, c in zip(nf, n)]
        g.append(-t * n[-1])
        h = b * of - t * o
        k = math.gcd(*g, h)
        out[f + (i,)] = (tuple(a // k for a in g), h // k)
    return out


def _check_placing(n: int, d: int) -> None:
    """Refuse, before any work, a placing pass over ``n`` points spanning
    dimension ``d`` whose boundary scans could visit more than
    ``PLACING_CAP`` facets: ``n`` times the upper bound theorem's
    ``C(n - ceil(d/2), floor(d/2)) + C(n - floor(d/2) - 1, ceil(d/2) - 1)``
    facets of a simplicial ``(d-1)``-sphere on ``n`` vertices (McMullen
    1970; Stanley 1975)."""
    lo, hi = d // 2, (d + 1) // 2
    count = n * (math.comb(n - hi, lo) + math.comb(n - lo - 1, hi - 1))
    if count > PLACING_CAP:
        raise BudgetError(
            f"placing {n} points in dimension {d} could scan n * UBT(n, d)"
            f" = {count} boundary facets, over the cap of {PLACING_CAP}")


def _check_subsets(n: int, r: int, what: str) -> None:
    """Refuse an input, before any work on it, when ``C(n, r)`` is over
    ``SUBSET_CAP``; ``what`` says what the count bounds, with ``{}``
    where the count goes."""
    count = math.comb(n, r)
    if count > SUBSET_CAP:
        raise BudgetError(what.format(f"C({n}, {r}) = {count}")
                          + f", over the cap of {SUBSET_CAP}")


def _cone_points(L: np.ndarray) -> set:
    """The vertices ``num + (e,)``, in lowest terms with ``e > 0``, of the
    polyhedron given by the rows ``(n, -o)`` of ``L`` below its first row
    ``(0, ..., 0, -1)``.

    These rows cut out the homogenized cone ``{y : L y <= 0}`` of the
    forms ``n . x <= o``, ``y = (x, e)``, which is pointed when the normals
    span.  Its extreme rays with ``e > 0`` are the vertices ``num / e`` of
    the polyhedron, and it has one with ``e = 0`` iff the polyhedron is
    unbounded (Ziegler, *Lectures on Polytopes*, Lecture 1).  Each extreme
    ray is the cross ``c`` of ``m`` rows of ``L`` (:func:`_cross_stack`),
    taken as ``c`` when every ``L c <= 0`` and as ``-c`` when every
    ``L c >= 0``, from one product with ``L``, on int64 while
    ``(m + 1) * |L| * |c|`` stays below ``_INT64_GUARD``.  The subsets
    holding the first row come first: their rays are ``(r, 0)`` for the
    cross ``r`` of ``m - 1`` normals, up to sign, so the first ray with
    ``e = 0``, raised as a ``ValueError``, is the first recession ray of
    those normals in ``itertools.combinations`` order."""
    n, m = L.shape[0], L.shape[1] - 1
    big = int(np.abs(L).max())
    points = set()
    for S in _subset_chunks(n, m):
        c = _cross_stack(L[S])
        if (m + 1) * big * int(np.abs(c).max()) >= _INT64_GUARD:
            c = c.astype(object)
        prod = c @ L.T
        up = (prod >= 0).all(axis=1)
        c[up] *= -1
        rays = c[(up | (prod <= 0).all(axis=1)) & c.any(axis=1)]
        flat = np.flatnonzero(rays[:, -1] == 0)
        if flat.size:
            raise ValueError("unbounded polyhedron (recession ray"
                             f" {tuple(rays[flat[0], :-1].tolist())})")
        for row in rays.tolist():
            g = math.gcd(*row)
            points.add(tuple(a // g for a in row))
    return points


def _subset_chunks(n: int, r: int):
    """The ``r``-subsets of ``range(n)`` in ``itertools.combinations``
    order, as ``(k, r)`` index arrays of at most ``_CHUNK`` rows."""
    subsets = itertools.combinations(range(n), r)
    while chunk := list(itertools.islice(subsets, _CHUNK)):
        yield np.fromiter(itertools.chain.from_iterable(chunk), np.intp,
                          len(chunk) * r).reshape(len(chunk), r)


def _pull_back_facet(f: FacetForm, chart: AffineChart) -> FacetForm:
    """Transport a chart-coordinate facet inequality to ambient space."""
    if chart.identity:
        return f
    # chart coordinate i of x is dot(x - origin, proj_cols[i]), so the chart
    # form n . c <= o becomes a . x <= o + a . origin with a as below.
    n_amb = vec_mat(f.normal, chart.proj_cols)
    o_amb = f.offset + dot(n_amb, chart.origin)
    g = gcd_vector(n_amb)
    if g > 1 and o_amb % g == 0:
        n_amb = tuple(a // g for a in n_amb)
        o_amb //= g
    return FacetForm(n_amb, o_amb)
