"""Tests for placing/full/interior-respecting triangulations, stellar
subdivision, and the disjoint interior-cone covering checker."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from polycanon import families
from polycanon.checks import _is_empty_cell
from polycanon.exactmath import build_chart, dot, generalized_cross, vsub
from polycanon.polytope import Polytope
from polycanon.simplex import HalfOpenBox, SimplexConeSlicer, is_empty_simplex
from polycanon.triangulation import (
    Triangulation,
    _interior_faces,
    _placing,
    full_lattice_triangulation,
    interior_faces,
    interior_respecting_triangulation,
    placing_triangulation,
    stellar_subdivide,
    total_normalized_volume,
    verify_decomposition,
)


@pytest.fixture(scope="module")
def capped_box():
    """The truncated square: 0 <= x,y <= 2 with x + y <= 3."""
    return families.example2(2)


# ------------------------------------------------------------ frozen shapes

def test_unit_square_triangulation(unit_square):
    T = full_lattice_triangulation(unit_square)
    assert T.points == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert T.cells == ((0, 1, 2), (1, 2, 3))
    assert T.dim == 2
    assert total_normalized_volume(T) == 2
    assert interior_faces(T, unit_square) == ((1, 2), (0, 1, 2), (1, 2, 3))
    assert verify_decomposition(T, unit_square, 3).ok


def test_capped_box_triangulation(capped_box):
    T = full_lattice_triangulation(capped_box)
    assert len(T.points) == 8          # 7 boundary points and 1 interior
    assert len(T.cells) == 7           # fine: the normalized area is 7
    assert total_normalized_volume(T) == 7
    assert verify_decomposition(T, capped_box, 3).ok


def test_segment_triangulation(segment):
    T = full_lattice_triangulation(segment)
    assert T.points == ((0,), (1,), (2,))
    assert T.cells == ((0, 1), (1, 2))
    assert total_normalized_volume(T) == 2


def test_placing_uses_vertices_only(capped_box):
    T = placing_triangulation(capped_box)
    assert set(T.points) == set(capped_box.vertices)
    assert total_normalized_volume(T) == 7


def test_triangulation_needs_positive_dimension(point_polytope):
    with pytest.raises(ValueError, match="dimension"):
        placing_triangulation(point_polytope)
    with pytest.raises(ValueError, match="dimension"):
        full_lattice_triangulation(point_polytope)


# -------------------------------------------------------- structural checks

def test_full_triangulation_uses_every_lattice_point():
    for P in (families.example1(3), families.reeve_simplex(3),
              families.unit_cube(2)):
        T = full_lattice_triangulation(P)
        assert T.points == P.lattice_points(1)
        assert total_normalized_volume(T) == \
            total_normalized_volume(placing_triangulation(P))


def test_flat_polytope_triangulates(flat_triangle):
    T = full_lattice_triangulation(flat_triangle)
    assert T.cells == ((0, 1, 2),)
    assert total_normalized_volume(T) == 1
    assert verify_decomposition(T, flat_triangle, 4).ok


# ------------------------------------------------- interior-respecting form

def test_interior_respecting_cells_touch_the_interior(capped_box):
    S = interior_respecting_triangulation(capped_box)
    inside = set(capped_box.interior_lattice_points(1))
    for cell in S.cells:
        assert any(p in inside for p in S.cell_points(cell))
    assert total_normalized_volume(S) == 7
    assert verify_decomposition(S, capped_box, 3).ok


def test_interior_respecting_on_reeve_like_volume():
    P = families.example2(3)
    S = interior_respecting_triangulation(P)
    T = full_lattice_triangulation(P)
    assert total_normalized_volume(S) == total_normalized_volume(T) == 47
    inside = set(P.interior_lattice_points(1))
    for cell in S.cells:
        assert any(p in inside for p in S.cell_points(cell))


def test_interior_respecting_requires_interior_point(unit_square,
                                                     unit_triangle):
    with pytest.raises(ValueError, match="interior"):
        interior_respecting_triangulation(unit_square)
    with pytest.raises(ValueError, match="interior"):
        interior_respecting_triangulation(unit_triangle)
    with pytest.raises(ValueError, match="dimension"):
        interior_respecting_triangulation(
            Polytope.from_vertices([(0,), (3,)]))


# --------------------------------------------------------- stellar insertion

def test_stellar_rejects_existing_vertex(unit_square):
    T = placing_triangulation(unit_square)
    with pytest.raises(ValueError, match="already a vertex"):
        stellar_subdivide(T, (1, 1))


def test_stellar_rejects_outside_points(unit_square):
    T = placing_triangulation(unit_square)
    with pytest.raises(ValueError, match="outside"):
        stellar_subdivide(T, (5, 5))
    # off the affine hull of a flat complex
    flat = Triangulation(points=((0, 0, 0), (1, 0, 1), (0, 1, 1)),
                         cells=((0, 1, 2),))
    with pytest.raises(ValueError, match="outside"):
        stellar_subdivide(flat, (0, 0, 1))


def test_stellar_on_edge_splits_both_neighbours():
    P = families.unit_cube(2)
    T = Triangulation(points=tuple(P.lattice_points(1)),
                      cells=((0, 1, 2), (1, 2, 3)))
    # no lattice point lies on the shared diagonal, so split a cell interior
    # of the doubled lattice instead: use the midpoint of a boundary edge of
    # the doubled square
    T2 = Triangulation(points=((0, 0), (0, 2), (2, 0), (2, 2)),
                       cells=((0, 1, 2), (1, 2, 3)))
    S = stellar_subdivide(T2, (1, 1))   # centre of the shared diagonal
    assert len(S.cells) == 4
    assert total_normalized_volume(S) == total_normalized_volume(T2)
    S2 = stellar_subdivide(T2, (1, 0))  # midpoint of one boundary edge
    assert len(S2.cells) == 3
    assert total_normalized_volume(S2) == total_normalized_volume(T2)


# ------------------------------------------------------- covering verdicts

def test_verify_decomposition_detects_missing_region(unit_square):
    # drop one of the two cells: beyond the shared diagonal the dilated
    # interior goes uncovered from degree three on
    broken = Triangulation(points=((0, 0), (0, 1), (1, 0), (1, 1)),
                           cells=((0, 1, 2),))
    assert verify_decomposition(broken, unit_square, 2).ok
    res = verify_decomposition(broken, unit_square, 3)
    assert not res.ok
    assert res.reason == "point not covered"
    assert res.degree == 3 and res.point == (2, 2, 3)


def test_verify_decomposition_detects_double_cover(unit_square):
    # two overlapping cells cover the diagonal twice
    broken = Triangulation(points=((0, 0), (0, 1), (1, 0), (1, 1)),
                           cells=((0, 1, 2), (0, 1, 3), (1, 2, 3)))
    res = verify_decomposition(broken, unit_square, 2)
    assert not res.ok
    assert res.reason == "covered twice"


def test_verify_decomposition_rejects_degenerate_faces(unit_square):
    # a collinear "cell" crossing the interior cannot be sliced
    broken = Triangulation(points=((0, 0), (1, 1), (2, 2)),
                           cells=((0, 1, 2),))
    res = verify_decomposition(broken, unit_square, 1)
    assert not res.ok and res.reason == "degenerate face"


def test_verify_decomposition_validates_kmax(unit_square):
    T = full_lattice_triangulation(unit_square)
    with pytest.raises(ValueError):
        verify_decomposition(T, unit_square, 0)


def _never(*args, **kwargs):
    raise AssertionError("a scan started")


def test_verify_decomposition_refuses_an_oversized_top_degree(monkeypatch):
    P = Polytope.from_vertices([(0, 0), (4, 0), (0, 4)])
    T = full_lattice_triangulation(P)
    monkeypatch.setattr(Polytope, "_scan", _never)
    monkeypatch.setattr(Polytope, "_slice", _never)
    with pytest.raises(ValueError, match="cap of 40000000"):
        verify_decomposition(T, P, 100000)


# ----------------------------------------- fast paths against slow twins

@st.composite
def hulls(draw):
    """Hulls of 2 to 6 points in [-2, 2]^m, m <= 4, sometimes lifted onto
    the lattice hyperplane ``x_{m+1} = c . x + t`` of Z^(m+1)."""
    m = draw(st.integers(1, 4))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * m),
                        min_size=2, max_size=6))
    if draw(st.booleans()):
        c = draw(st.tuples(*[st.integers(-2, 2)] * m))
        t = draw(st.integers(-3, 3))
        pts = [p + (sum(a * b for a, b in zip(c, p)) + t,) for p in pts]
    return Polytope.from_vertices(pts)


def _placing_by_recount(pts):
    """Placing from scratch at every point: recount the free facets of all
    cells and cone the point over those it sees strictly.  Returns the cells
    and the points that saw no facet."""
    cells, skipped = [(0,)], []
    for i in range(1, len(pts)):
        chart = build_chart(pts[:i])
        if not chart.in_affine_hull(pts[i]):
            cells = [c + (i,) for c in cells]
            continue
        q = [chart.to_chart(p) for p in pts[:i + 1]]
        facets = [(f, c) for c in cells
                  for f in itertools.combinations(c, len(c) - 1)]
        count = Counter(f for f, _ in facets)
        new = []
        for f, c in facets:
            if count[f] != 1:
                continue
            (v,) = set(c) - set(f)
            n = generalized_cross([vsub(q[j], q[f[0]]) for j in f[1:]],
                                  chart.dim)
            if dot(n, vsub(q[i], q[f[0]])) * dot(n, vsub(q[v], q[f[0]])) < 0:
                new.append(f + (i,))
        if new:
            cells += new
        else:
            skipped.append(i)
    return tuple(sorted(cells)), tuple(skipped)


def _interior_faces_by_slack(T, P):
    """Faces of ``T`` on which no facet of ``P`` is tight at every point."""
    faces = {f for c in T.cells for r in range(1, len(c) + 1)
             for f in itertools.combinations(c, r)}
    return tuple(sorted(
        (f for f in faces
         if not any(all(ff.slack(T.points[i]) == 0 for i in f)
                    for ff in P.facets)),
        key=lambda f: (len(f), f)))


def _empty_by_scan(points):
    return is_empty_simplex(Polytope.from_vertices(points))


@given(hulls(), st.randoms(use_true_random=False))
@example(families.reeve_simplex(3), random.Random(0))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_triangulation_layer_matches_its_twins(P, rnd):
    assume(P.dim >= 1)
    pts = list(P.lattice_points(1))
    # in lex order every point is a vertex of the hull placed so far
    cells, skipped = _placing_by_recount(pts)
    assert skipped == () and _placing(pts) == cells
    shuffled = rnd.sample(pts, len(pts))
    cells, skipped = _placing_by_recount(shuffled)
    if skipped:
        with pytest.raises(AssertionError, match="sees no facet"):
            _placing(shuffled)
    else:
        assert _placing(shuffled) == cells
    # placing cells span only vertices, so some of them are not empty
    placing = placing_triangulation(P)
    for cell in placing.cells:
        cp = placing.cell_points(cell)
        assert _is_empty_cell(cp) == _empty_by_scan(cp)
    tris = [full_lattice_triangulation(P)]
    if P.dim >= 2 and P.interior_lattice_points(1):
        tris.append(interior_respecting_triangulation(P))
    for T in tris:
        faces = interior_faces(T, P)
        assert faces == _interior_faces_by_slack(T, P)
        assert set(_interior_faces(T, P)[1]) == set(faces)
        reps = {f: SimplexConeSlicer(T.cell_points(f))._reps for f in faces}
        for cell in T.cells:
            cp = T.cell_points(cell)
            assert _is_empty_cell(cp) == _empty_by_scan(cp)
            box = HalfOpenBox(cp)
            for r in range(1, len(cell) + 1):
                for f in itertools.combinations(cell, r):
                    if f in reps:
                        got = SimplexConeSlicer.from_box(
                            box, [cell.index(i) for i in f])
                        assert got._reps == reps[f], (cell, f)


def test_dependent_cell_is_not_empty():
    assert not _is_empty_cell([(0, 0), (1, 1), (2, 2)])
    assert not _is_empty_cell([(0, 0), (0, 0)])
