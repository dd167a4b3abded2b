"""Tests for simplex-specific tools: barycentric coordinates, box
decompositions, emptiness/unimodularity, and interior slice enumeration."""

from fractions import Fraction

import pytest

import polycanon.simplex as smod
from polycanon import families
from polycanon.cone import GradedPoint
from polycanon.polytope import Polytope
from polycanon.simplex import (
    HalfOpenBox,
    SimplexConeSlicer,
    barycentric,
    cone_interior_slice,
    is_empty_simplex,
    is_unimodular,
    normalized_volume,
    unit_box_decomposition,
)
from polycanon.triangulation import (
    full_lattice_triangulation,
    placing_triangulation,
)


@pytest.fixture(scope="module")
def long_edge_triangle():
    """conv{0, 2e1, e2}: a simplex with one extra lattice point."""
    return families.example1(2)


# ------------------------------------------------------------- barycentric

def test_barycentric_frozen_example(long_edge_triangle):
    # coefficients follow the lex order of the vertices (0,0),(0,1),(2,0)
    c = barycentric(long_edge_triangle, GradedPoint((3, 1), 3))
    assert c.coefficients == (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    assert c.all_positive()
    # the coefficients recombine to the lifted point
    lift = [Fraction(0)] * 3
    for coef, v in zip(c.coefficients, long_edge_triangle.vertices):
        for j, a in enumerate(tuple(v) + (1,)):
            lift[j] += coef * a
    assert tuple(lift) == (3, 1, 3)


def test_barycentric_off_span_raises(flat_triangle):
    with pytest.raises(ValueError, match="span"):
        barycentric(flat_triangle, GradedPoint((0, 0, 1), 1))


def test_barycentric_requires_simplex(unit_square):
    with pytest.raises(ValueError, match="simplex"):
        barycentric(unit_square, GradedPoint((1, 1), 2))


# ----------------------------------------------------- unit box decomposition

def test_unit_box_decomposition_frozen(long_edge_triangle):
    w = unit_box_decomposition(long_edge_triangle, GradedPoint((3, 1), 3))
    assert w.interior_part == GradedPoint((1, 1), 2)
    assert w.parts == (GradedPoint((2, 0), 1),)
    assert w.total() == GradedPoint((3, 1), 3)
    # the interior part really is interior
    assert long_edge_triangle.classify_point((1, 1), scale=2) == "interior"


def test_unit_box_decomposition_needs_interior_point(long_edge_triangle):
    with pytest.raises(ValueError, match="interior"):
        unit_box_decomposition(long_edge_triangle, GradedPoint((1, 0), 1))


def test_unit_box_decomposition_drops_degree(unit_triangle):
    # (2,2) at degree 5 peels down to the unique interior generator
    w = unit_box_decomposition(unit_triangle, GradedPoint((2, 2), 7))
    assert w.interior_part.degree <= 3
    assert w.total() == GradedPoint((2, 2), 7)


# --------------------------------------------------- emptiness / unimodular

def test_emptiness_and_unimodularity():
    for d in (1, 2, 3, 4):
        U = families.unit_simplex(d)
        assert is_empty_simplex(U) and is_unimodular(U)
        assert normalized_volume(U) == 1
    for q in (1, 2, 5):
        R = families.reeve_simplex(q)
        assert is_empty_simplex(R)
        assert is_unimodular(R) == (q == 1)
        assert normalized_volume(R) == q


def test_non_empty_and_non_simplex_cases(long_edge_triangle, unit_square):
    assert not is_empty_simplex(long_edge_triangle)   # midpoint of an edge
    assert not is_unimodular(long_edge_triangle)
    assert normalized_volume(long_edge_triangle) == 2
    assert not is_empty_simplex(unit_square)          # not a simplex at all
    with pytest.raises(ValueError, match="simplex"):
        normalized_volume(unit_square)


def test_point_simplex_volume(point_polytope):
    assert normalized_volume(point_polytope) == 1
    assert is_empty_simplex(point_polytope)


# --------------------------------------------------------- slice enumeration

def test_slicer_matches_scans_on_simplices():
    fixtures = [
        families.unit_simplex(2),
        families.unit_simplex(3),
        families.example1(2),
        families.example1(3),
        families.reeve_simplex(2),
        families.reeve_simplex(4),
        # invariant factors 1, 2, 6: box points scaled by the largest one
        Polytope.from_vertices([(0, 0), (2, 0), (0, 6)]),
        # flat in Z^3, invariant factors 1, 2, 2
        Polytope.from_vertices([(0, 0, 0), (2, 0, 2), (0, 2, 2)]),
    ]
    for P in fixtures:
        slicer = SimplexConeSlicer(P.vertices)
        for k in range(0, 5):
            lifted = slicer.interior_points(k)
            assert all(p[-1] == k for p in lifted)
            got = sorted(p[:-1] for p in lifted)
            want = [] if k == 0 else list(P.interior_lattice_points(k))
            assert got == want, (P.name, k)


def test_slicer_on_lower_dimensional_faces():
    # a 1-dimensional cone slice: the open segment between two vertices
    pts = [(0, 0, 0), (1, 0, 1)]
    slicer = SimplexConeSlicer(pts)
    assert slicer.interior_points(2) == [(1, 0, 1, 2)]
    assert cone_interior_slice(pts, 3) == [(1, 0, 1, 3), (2, 0, 2, 3)]


def test_slicer_rejects_dependent_points():
    with pytest.raises(ValueError, match="independent"):
        SimplexConeSlicer([(0,), (1,), (2,)])
    with pytest.raises(ValueError, match="nonnegative"):
        SimplexConeSlicer([(2,)]).interior_points(-1)


def test_slicer_apex_only_cases():
    slicer = SimplexConeSlicer([(2,)])
    assert slicer.interior_points(0) == []
    assert slicer.interior_points(3) == [(6, 3)]


def _never(*args):
    raise AssertionError("a Smith form was taken")


def test_unimodular_boxes_match_the_smith_form_route(monkeypatch):
    cells = []
    for P in (families.example2(3), families.unit_cube(3),
              families.reeve_simplex(3), families.example1(3)):
        for T in (full_lattice_triangulation(P), placing_triangulation(P)):
            cells += [T.cell_points(c) for c in T.cells]
    cells.append(((0, 0, 1), (1, 0, 2), (0, 1, 3)))  # flat: not square
    square = [c for c in cells if len(c) == len(c[0]) + 1]
    unimodular = [c for c in square
                  if is_unimodular(Polytope.from_vertices(c))]
    assert 0 < len(unimodular) < len(square)
    boxes = [HalfOpenBox(c) for c in cells]
    with monkeypatch.context() as mp:
        mp.setattr(smod, "det_bareiss", lambda M: 0)  # force the Smith form
        for c, box in zip(cells, boxes):
            ref = HalfOpenBox(c)
            assert (box.coefficients, box.points) == (
                ref.coefficients, ref.points), c
    with monkeypatch.context() as mp:
        mp.setattr(smod, "smith_normal_form", _never)
        for c in unimodular:
            assert HalfOpenBox(c).points == [(0,) * (len(c[0]) + 1)]
