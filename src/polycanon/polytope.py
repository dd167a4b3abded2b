"""Lattice polytopes with exact vertex and facet representations.

A polytope lives in ``Z^m`` but may have smaller dimension ``d``; all facet
data is stored both in ambient coordinates and in an exact chart on the
affine hull, so every enumeration runs in a full-dimensional picture.

Facets are read off the boundary of a placing triangulation (``_placing``,
the one hull routine, shared with the triangulation layer); the
``facet_duality`` check rebuilds them through ``from_inequalities``.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .exactmath import (
    AffineChart,
    as_matrix,
    as_vector,
    build_chart,
    dot,
    gcd_vector,
    generalized_cross,
    primitive_vector,
    rank,
    solve_rational,
    vec_mat,
    vscale,
    vsub,
)

_INT64_GUARD = 2**60
BOX_POINT_CAP = 40_000_000
# Input budgets, checked before any work starts.  SUBSET_CAP bounds the
# C(#forms, m) inequality subsets of the vertex search; tests and benchmark
# reach C(11, 5) = 462 (example2 d=5).
SUBSET_CAP = 1_000_000
# PLACING_CAP bounds n * UBT(n, d): the placing pass scans its boundary once
# per point, and by the upper bound theorem the boundary of a d-polytope on
# n vertices has at most UBT(n, d) facets (see _check_placing).  The
# 216-point cube [0,5]^3 reads 92448 and example2(6) 5193804; a 6^4 grid,
# 1085871744, is refused.
PLACING_CAP = 10_000_000


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

        # Extreme-point filter: a vertex is a point where the tight facet
        # normals span the full chart space.
        verts_fd = []
        for q in fd_pts:
            tight = [f.normal for f in fd_facets if f.slack(q) == 0]
            if d == 0 or rank(tight) == d:
                verts_fd.append(q)
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

        Raises ``ValueError`` for unbounded or empty regions and for regions
        whose vertices are not all lattice points.
        """
        pairs = [(f.normal, f.offset) if isinstance(f, FacetForm) else tuple(f)
                 for f in forms]
        for _, o in pairs:
            if isinstance(o, bool) or not isinstance(o, int):
                raise ValueError(f"offset {o!r} must be an integer")
        forms = tuple(FacetForm(as_vector(n), o) for n, o in pairs)
        m = ambient_dim
        _check_subsets(len(forms), m,
                       "the vertex search would try {} inequality subsets")
        normals = [f.normal for f in forms]
        if rank(normals) < m:
            raise ValueError("unbounded polyhedron (normals do not span)")
        for rows in itertools.combinations(normals, m - 1):
            if m == 1 or rank(rows) == m - 1:
                ray = generalized_cross(rows, m) if m > 1 else (1,)
                for v in (ray, vscale(ray, -1)):
                    if all(dot(n, v) <= 0 for n in normals):
                        raise ValueError("unbounded polyhedron (recession ray"
                                         f" {tuple(v)})")
        candidates = set()
        for subset in itertools.combinations(range(len(forms)), m):
            A = [forms[i].normal for i in subset]
            b = [forms[i].offset for i in subset]
            try:
                x = solve_rational(A, b)
            except ValueError:
                continue
            if x is None:
                continue
            if all(ff.offset - dot(ff.normal, x) >= 0 for ff in forms):
                candidates.add(x)
        if not candidates:
            raise ValueError("infeasible system (no vertices)")
        bad = next((x for x in sorted(candidates)
                    if any(c.denominator != 1 for c in x)), None)
        if bad is not None:
            raise ValueError(
                f"vertex {tuple(str(c) for c in bad)} is not a lattice point")
        pts = [tuple(int(c) for c in x) for x in candidates]
        return cls.from_vertices(pts, name=name)

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

        Raises ``ValueError`` before anything is allocated when the box
        holds more than ``BOX_POINT_CAP`` lattice points.
        """
        if scale < 0:
            raise ValueError("dilation factor must be nonnegative")
        cols = list(zip(*self._fd_vertices))
        lo = tuple(min(c) * scale for c in cols)
        shape = tuple((max(c) - min(c)) * scale + 1 for c in cols)
        total = math.prod(shape)
        if total > BOX_POINT_CAP:
            raise ValueError(
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
        The mask is cached and shared, so it is read-only.
        """
        def build():
            lo, mask = self._build_slice(scale, interior)
            mask.setflags(write=False)
            return lo, mask
        return self._memo(("slice", scale, interior), build)

    def _build_slice(self, scale: int, interior: bool) -> tuple:
        lo, shape = self._box(scale)
        if scale == 0:
            return lo, np.ones(shape, dtype=bool)
        big = max((max(abs(l), abs(l + n - 1)) for l, n in zip(lo, shape)),
                  default=0)
        coeff = max((max(abs(a) for a in f.normal) + abs(f.offset)
                     for f in self._fd_facets), default=0)
        if (big + 1) * coeff * (self.dim + 1) * scale >= _INT64_GUARD:
            return lo, self._fd_scan_python(lo, shape, scale, interior)
        # n . q - o * scale per facet, summed axis by axis over broadcast
        # aranges, so that only the last sum is box-shaped.
        d = self.dim
        axes = [np.arange(l, l + n, dtype=np.int64)
                .reshape((n,) + (1,) * (d - 1 - i))
                for i, (l, n) in enumerate(zip(lo, shape))]
        mask = np.ones(shape, dtype=bool)
        vals = np.empty(shape, dtype=np.int64)
        for f in self._fd_facets:
            part = np.int64(-f.offset * scale)
            for a, ax in zip(f.normal[:-1], axes[:-1]):
                if a:
                    part = part + a * ax
            np.add(part, f.normal[-1] * axes[-1], out=vals)
            mask &= (vals < 0) if interior else (vals <= 0)
        return lo, mask

    def _fd_scan_python(self, lo, shape, scale, interior):
        """The slice mask in exact integers (the bignum route)."""
        least = 1 if interior else 0
        mask = np.zeros(shape, dtype=bool)
        for idx in itertools.product(*map(range, shape)):
            q = tuple(map(operator.add, lo, idx))
            mask[idx] = all(f.offset * scale - dot(f.normal, q) >= least
                            for f in self._fd_facets)
        return mask

    def _points(self, scale: int, lo: tuple, mask) -> tuple:
        """The ambient lattice points at the true entries of ``mask``, a
        mask over the box of the ``scale``-th dilate with corner ``lo``,
        lex-sorted."""
        idx = np.argwhere(mask)
        identity = self.dim == self.ambient_dim
        if identity and all(abs(l) + n < _INT64_GUARD
                            for l, n in zip(lo, mask.shape)):
            # C order of the indices is lex order of the points.
            idx += np.array(lo, dtype=np.int64)
            return tuple(map(tuple, idx.tolist()))
        pts = [tuple(map(operator.add, lo, row)) for row in idx.tolist()]
        if identity:
            return tuple(pts)
        return tuple(sorted(self._chart.from_chart(c, scale=scale)
                            for c in pts))

    def _locate(self, x, scale: int) -> Optional[tuple]:
        """Index of the ambient point ``x`` in the box of the ``scale``-th
        dilate, or ``None`` when ``x`` is off the affine hull or the box."""
        if (len(x) != self.ambient_dim
                or not self._chart.in_affine_hull(x, scale=scale)):
            return None
        lo, shape = self._box(scale)
        c = self._chart.to_chart(x, scale=scale)
        idx = tuple(map(operator.sub, c, lo))
        if all(0 <= i < n for i, n in zip(idx, shape)):
            return idx
        return None

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

    def contains(self, x, scale: int = 1) -> bool:
        return self.classify_point(x, scale=scale) != "outside"

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


def _facets_from_points(fd_pts: Sequence[tuple], d: int) -> list:
    """Facet inequalities of the convex hull of full-dimensional points:
    one primitive form per boundary simplex of a placing triangulation, so
    coplanar simplices merge into one facet."""
    if d == 0:
        return []
    _check_placing(len(fd_pts), d)
    cells = _placing(fd_pts)
    facets = set()
    for f, v in _free_facets(cells).items():
        n, o = _facet_form(fd_pts, f, v)  # n . x >= o on the hull
        g = gcd_vector(n)
        facets.add(FacetForm(tuple(-a // g for a in n), -o // g))
    return list(facets)


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


def _free_facets(simplices) -> dict:
    """Facets lying in exactly one of ``simplices`` (sorted index tuples),
    each mapped to the vertex of its simplex opposite it."""
    opposite = {}
    for c in simplices:
        for j, v in enumerate(c):
            f = c[:j] + c[j + 1:]
            opposite[f] = None if f in opposite else v
    return {f: v for f, v in opposite.items() if v is not None}


def _placing(pts: Sequence[tuple]) -> tuple:
    """Triangulate the convex hull of ``pts`` by placing them in order.

    ``pts`` are distinct and lex-sorted, or the image of such a sequence
    under an injective affine map.  Returns the cells as a sorted tuple of
    sorted index tuples, with every point a vertex of some cell: the
    lex-greatest point placed so far maximizes ``(1, e, e^2, ...)`` for small
    ``e > 0``, so it is a vertex of the hull placed so far and lies strictly
    beyond some boundary facet (De Loera-Rambau-Santos, *Triangulations*,
    4.3).  A point that sees no facet raises ``AssertionError``.

    The directions spanned so far are integer echelon rows; a point whose
    direction does not reduce to zero is a dimension jump and adds a row.
    Points are read in their pivot columns, which map the affine hull
    bijectively onto its image (no lattice chart is needed).

    The boundary of the hull placed so far is kept between insertions as
    ``facet -> (n, o)`` with ``n . x >= o`` on the hull (beneath-beyond).
    A new point is coned over the facets it sees strictly; those leave the
    boundary, and each horizon ridge (in exactly one seen facet) joined to
    the point enters it.  A dimension jump drops the boundary; the next
    point placed without a jump rebuilds it from the free facets.
    """
    rows: list = []    # echelon rows, each zero at the earlier pivots
    pivots: list = []
    cells = [(0,)]
    coords = [()]      # no pivots yet: point 0 is the origin of Z^0
    boundary: Optional[Dict[tuple, tuple]] = {}
    for i in range(1, len(pts)):
        y = vsub(pts[i], pts[0])
        for row, c in zip(rows, pivots):
            a, b = row[c], y[c]
            if b:
                y = tuple(a * u - b * v for u, v in zip(y, row))
        if any(y):
            rows.append(primitive_vector(y))
            pivots.append(next(c for c, u in enumerate(y) if u))
            coords = [tuple(p[c] for c in pivots) for p in pts[: i + 1]]
            cells = [c + (i,) for c in cells]
            boundary = None
            continue
        coords.append(tuple(pts[i][c] for c in pivots))
        p = coords[i]
        if boundary is None:
            boundary = {f: _facet_form(coords, f, v)
                        for f, v in _free_facets(cells).items()}
        seen = [f for f, (n, o) in boundary.items() if dot(n, p) < o]
        if not seen:
            raise AssertionError(f"point {i} sees no facet while placing")
        for f in seen:
            del boundary[f]
            cells.append(f + (i,))
        for g, v in _free_facets(seen).items():
            boundary[g + (i,)] = _facet_form(coords, g + (i,), v)
    return tuple(sorted(cells))


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
        raise ValueError(
            f"placing {n} points in dimension {d} could scan n * UBT(n, d)"
            f" = {count} boundary facets, over the cap of {PLACING_CAP}")


def _check_subsets(n: int, r: int, what: str) -> None:
    """Refuse an input, before any work on it, when ``C(n, r)`` is over
    ``SUBSET_CAP``; ``what`` says what the count bounds, with ``{}``
    where the count goes."""
    count = math.comb(n, r)
    if count > SUBSET_CAP:
        raise ValueError(what.format(f"C({n}, {r}) = {count}")
                         + f", over the cap of {SUBSET_CAP}")


def _pull_back_facet(f: FacetForm, chart: AffineChart) -> FacetForm:
    """Transport a chart-coordinate facet inequality to ambient space."""
    # chart coordinate i of x is dot(x - origin, proj_cols[i]), so the chart
    # form n . c <= o becomes a . x <= o + a . origin with a as below.
    n_amb = vec_mat(f.normal, chart.proj_cols)
    o_amb = f.offset + dot(n_amb, chart.origin)
    g = gcd_vector(n_amb)
    if g > 1 and o_amb % g == 0:
        n_amb = tuple(a // g for a in n_amb)
        o_amb //= g
    return FacetForm(n_amb, o_amb)
