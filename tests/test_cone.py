"""Tests for the graded cone over a polytope and its point classification."""

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import polycanon.cone as cmod
from polycanon.cone import (
    GradedCone,
    GradedPoint,
    ReductionWitness,
    cone_over,
    cone_slice,
)
from polycanon.polytope import Polytope


def test_graded_point_lifting():
    y = GradedPoint((2, -1), 3)
    assert y.lifted == (2, -1, 3)
    assert GradedPoint.from_lifted((2, -1, 3)) == y


def test_reduction_witness_totals():
    w = ReductionWitness(
        interior_part=GradedPoint((1, 1), 2),
        parts=(GradedPoint((0, 1), 1), GradedPoint((1, 0), 1)),
    )
    assert w.total() == GradedPoint((2, 2), 4)


def test_membership_full_dimensional(unit_square):
    C = cone_over(unit_square)
    cases = [
        (GradedPoint((1, 1), 2), "interior"),
        (GradedPoint((0, 1), 2), "boundary"),
        (GradedPoint((0, 0), 0), "boundary"),     # the apex
        (GradedPoint((1, 0), 0), "outside"),
        (GradedPoint((3, 1), 2), "outside"),
        (GradedPoint((1, 1), -1), "outside"),
        (GradedPoint((1, 1), 1), "boundary"),     # degree-one slice is flat
    ]
    for y, want in cases:
        assert C.membership(y) == want, y
    assert C.membership(GradedPoint((0, 1), 2)) != "outside"
    assert C.membership(GradedPoint((3, 1), 2)) == "outside"


def test_membership_uses_span_for_flat_bases(flat_triangle):
    C = cone_over(flat_triangle)
    assert C.span_equations        # a flat base forces span constraints
    assert C.membership(GradedPoint((1, 1, 2), 3)) == "interior"
    assert C.membership(GradedPoint((1, 1, 3), 3)) == "outside"
    assert C.membership(GradedPoint((0, 0, 0), 1)) == "boundary"


def test_membership_point_base(point_polytope):
    C = cone_over(point_polytope)
    assert C.membership(GradedPoint((4, -2), 2)) == "interior"
    assert C.membership(GradedPoint((4, -1), 2)) == "outside"


def test_cone_slices_match_dilation_scans(unit_square):
    C = cone_over(unit_square)
    for k in (1, 2, 3):
        closed = cone_slice(C, k)
        assert tuple(y.position for y in closed) == \
            unit_square.lattice_points(k)
        assert all(y.degree == k for y in closed)


def test_cone_slice_degree_zero(unit_square):
    C = cone_over(unit_square)
    assert cone_slice(C, 0) == (GradedPoint((0, 0), 0),)


def test_cone_is_cached_per_polytope(unit_square):
    assert cone_over(unit_square) is cone_over(unit_square)


def test_support_forms_reject_scaled_duplicates():
    P = Polytope.from_vertices([(0, 0), (2, 0), (0, 2)])
    C = cone_over(P)
    # one support form per facet of the base
    assert len(C.support_forms) == len(P.facets)


# ------------------------------------- batched classification and its twin

@st.composite
def hulls_and_points(draw):
    """A hull of 1 to 8 points in [-2, 2]^m, m <= 4 (so of dimension 0 to
    4), half of them lifted onto the lattice hyperplane
    ``x_{m+1} = c . x + t`` of Z^(m+1); and up to 12 random points of its
    ambient space, which for a lifted hull are mostly off the span."""
    m = draw(st.integers(1, 4))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * m),
                        min_size=1, max_size=8))
    if draw(st.booleans()):
        c = draw(st.tuples(*[st.integers(-2, 2)] * m))
        t = draw(st.integers(-3, 3))
        pts = [p + (sum(a * b for a, b in zip(c, p)) + t,) for p in pts]
    P = Polytope.from_vertices(pts)
    n = P.ambient_dim
    extra = draw(st.lists(st.tuples(*[st.integers(-9, 9)] * n),
                          max_size=12))
    return P, extra


# a dim-4 hull lifted into Z^5 whose chart box at dilate 2 held 7.1e10
# points before the chart basis was reduced
_LIFTED = [(0, -2, 2, 2, 2), (-2, 2, -1, 2, 7), (0, -1, 1, -1, 2),
           (2, -2, -2, -1, -6), (2, 1, 0, -1, -1), (2, -2, 2, -2, -2)]


@given(hulls_and_points())
@example((Polytope.from_vertices(_LIFTED), []))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_classify_matches_membership_on_both_routes(case):
    P, extra = case
    C = cone_over(P)
    zero = (0,) * P.ambient_dim
    batches = [((), 1), ([zero], 0), (extra + [zero], 0),
               (extra, -1), (P.lattice_points(1), -2)]
    for k in range(1, 4):
        batches += [(P.lattice_points(k), k), (extra, k),
                    (list(P.lattice_points(k)) + extra + [zero], k)]
    for positions, k in batches:
        want = tuple(C.membership(GradedPoint(p, k)) for p in positions)
        # neither the int64 route nor the Python-int one calls membership
        with mock.patch.object(GradedCone, "membership",
                               side_effect=AssertionError):
            assert C.classify(positions, k) == want
            with mock.patch.object(cmod, "_INT64_GUARD", 0):
                assert C.classify(positions, k) == want


def test_classify_past_the_int64_guard(unit_square, flat_triangle):
    big = 2**70
    C = cone_over(unit_square)
    assert C.classify([(1, 1), (big, 1), (0, 1)], 2) == (
        "interior", "outside", "boundary")
    P = Polytope.from_vertices([(0, 0), (big, 0), (0, big)])
    C = cone_over(P)
    positions = [(1, 1), (big, 0), (big, 1), (-1, 0)]
    want = tuple(C.membership(GradedPoint(p, 1)) for p in positions)
    assert want == ("interior", "boundary", "outside", "outside")
    with mock.patch.object(GradedCone, "membership",
                           side_effect=AssertionError):
        assert C.classify(positions, 1) == want
