"""Tests for simplex-specific tools: barycentric coordinates, box
decompositions, emptiness/unimodularity, and interior slice enumeration."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import polycanon.simplex as smod
from polycanon import families
from polycanon.cone import GradedPoint
from polycanon.exactmath import det_bareiss
from polycanon.polytope import Polytope
from polycanon.simplex import (
    SimplexConeSlicer,
    barycentric,
    face_box_points,
    half_open_boxes,
    is_empty_simplex,
    is_unimodular,
    normalized_volume,
    unit_box_decomposition,
)
from smith_boxes import HalfOpenBox


@pytest.fixture(scope="module")
def long_edge_triangle():
    """conv{0, 2e1, e2}: a simplex with one extra lattice point."""
    return families.example1(2)


# ------------------------------------------------------------- barycentric

def test_barycentric_frozen_example(long_edge_triangle):
    # coefficients follow the lex order of the vertices (0,0),(0,1),(2,0)
    c = barycentric(long_edge_triangle, GradedPoint((3, 1), 3))
    assert c.coefficients == (Fraction(1, 2), Fraction(1), Fraction(3, 2))
    assert all(a > 0 for a in c.coefficients)
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
    assert slicer.interior_points(3) == [(1, 0, 1, 3), (2, 0, 2, 3)]


def test_slicer_rejects_dependent_points():
    with pytest.raises(ValueError, match="independent"):
        SimplexConeSlicer([(0,), (1,), (2,)])
    with pytest.raises(ValueError, match="nonnegative"):
        SimplexConeSlicer([(2,)]).interior_points(-1)


def test_slicer_apex_only_cases():
    slicer = SimplexConeSlicer([(2,)])
    assert slicer.interior_points(0) == []
    assert slicer.interior_points(3) == [(6, 3)]


# ------------------------------------------- batched boxes against the twin

def _batch_matches_the_boxes(cells):
    """Check :func:`half_open_boxes` and :func:`face_box_points` against
    the Smith-form :class:`HalfOpenBox` on full-dimensional simplices of
    one dimension: every box has the same points, and every face of it
    the same ``(0, 1]`` box.  Returns the dtype of the batch's points."""
    M = np.array([[p + (1,) for p in c] for c in cells], dtype=object)
    at, coeffs, points = half_open_boxes(
        M, [det_bareiss(m) for m in M.tolist()])
    n = M.shape[1]
    subsets = [s for r in range(1, n + 1)
               for s in itertools.combinations(range(n), r)]
    first = np.searchsorted(at, np.arange(len(cells) + 1))
    box = np.repeat(np.arange(len(cells)), len(subsets))
    on = np.tile([[i in s for i in range(n)] for s in subsets],
                 (len(cells), 1))
    face, reps = face_box_points(M, first, coeffs != 0, points, box, on)
    for b, c in enumerate(cells):
        ref = HalfOpenBox(c)
        assert sorted(map(tuple, points[at == b].tolist())) == \
            sorted(ref.points), c
        for k, s in enumerate(subsets):
            ys = reps[face == b * len(subsets) + k].tolist()
            assert sorted((y[-1], tuple(y)) for y in ys) == \
                ref.face_reps(s), (c, s)
    return points.dtype


@st.composite
def simplex_stacks(draw):
    """One to four full-dimensional simplices of one dimension in 1..4,
    coordinates in [-3, 3]."""
    d = draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(-3, 3)] * d)
    cells = draw(st.lists(st.lists(point, min_size=d + 1, max_size=d + 1),
                          min_size=1, max_size=4))
    return [c for c in cells if det_bareiss([p + (1,) for p in c])]


K = 2**20


@given(simplex_stacks())
# Z/2 x Z/2: two invariant factors above one
@example([((0, 0, 0), (0, 0, 1), (0, 2, 0), (2, 0, 0))])
# Z/6, yet every unit vector maps to an element of order 2 or 3
@example([((0, 0), (0, 3), (2, 0)), ((0, 0), (0, 3), (1, 0))])
@example([families.reeve_simplex(13).vertices,
          families.reeve_simplex(50).vertices])
# Z/2 x Z/2 and a unimodular cell under a shear with entries near 2^20:
# small boxes whose Hadamard bound is far past the int64 guard
@example([[(x, y + K * x, z + K * y) for x, y, z in c] for c in (
    ((0, 0, 0), (0, 0, 1), (0, 2, 0), (2, 0, 0)),
    ((0, 0, 0), (0, 0, 1), (0, 1, 0), (3, 1, 1)))])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_half_open_boxes_match_the_smith_form_boxes(cells):
    assume(cells)
    big = max(abs(a) for c in cells for p in c for a in p)
    assert (_batch_matches_the_boxes(cells) == object) == (big >= K)
    # past the int64 guard the same statements run on Python ints
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smod, "_INT64_GUARD", 0)
        assert _batch_matches_the_boxes(cells) == object
