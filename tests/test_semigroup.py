"""Tests for reduced degrees, irreducible generators (under the degree-one
action and under the full graded semigroup), degree bounds, and the
degree-one splitting check."""

import contextlib
import itertools
import math
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from polycanon import families, semigroup
from polycanon.cone import GradedPoint, ReductionWitness
from polycanon.exactmath import vadd, vsub
from polycanon.polytope import BudgetError, Polytope
from polycanon.semigroup import (
    _check_work,
    _runs,
    _sumset,
    _sumset_work,
    degree_bound,
    degree_one_points,
    full_generators,
    ideal_contains,
    idp_check,
    irreducible_generators,
    reduced_degree,
    reduced_degree_oracle,
    semigroup_contains,
)


def G(P):
    return irreducible_generators(P).generators


def is_irreducible(P, y):
    """Per-point twin of the degree-one generators: no degree-one point
    splits off ``y`` and leaves it in the ideal.  Peeling a single point is
    exact: in a splitting ``y = z + u_1 + ... + u_j`` every partial sum over
    ``z`` is still interior, so some single ``u`` already witnesses
    reducibility."""
    semigroup._require_ideal(P, y)
    k = y.degree
    if k == 1:
        return True
    interior = semigroup._interior_set(P, k - 1)
    return not any(vsub(y.position, u) in interior
                   for u in P.lattice_points(1))


def is_irreducible_full(P, y):
    """Per-point twin of the full-action generators: no lattice point of
    the cone of degree ``1 .. y.degree - 1`` splits off ``y`` and leaves an
    interior remainder."""
    semigroup._require_ideal(P, y)
    k = y.degree
    for low in range(1, k):
        lattice = semigroup._lattice_set(P, k - low)
        for z in P.interior_lattice_points(low):
            if vsub(y.position, z) in lattice:
                return False
    return True


# ------------------------------------------------------------- membership

def test_semigroup_membership(unit_square):
    assert semigroup_contains(unit_square, GradedPoint((0, 0), 0))
    assert not semigroup_contains(unit_square, GradedPoint((1, 0), 0))
    assert semigroup_contains(unit_square, GradedPoint((2, 1), 2))
    assert not semigroup_contains(unit_square, GradedPoint((3, 1), 2))
    assert not semigroup_contains(unit_square, GradedPoint((1, 1), -1))
    assert ideal_contains(unit_square, GradedPoint((1, 1), 2))
    assert not ideal_contains(unit_square, GradedPoint((0, 1), 2))


def test_degree_one_points_are_the_polytope_points(unit_triangle):
    pts = degree_one_points(unit_triangle)
    assert tuple(y.position for y in pts) == unit_triangle.lattice_points(1)
    assert all(y.degree == 1 for y in pts)


# -------------------------------------------------------- reduced degrees

def test_reduced_degree_frozen_square(unit_square):
    value, wit = reduced_degree(unit_square, GradedPoint((2, 2), 4))
    assert value == 2
    assert wit.interior_part == GradedPoint((1, 1), 2)
    assert wit.total() == GradedPoint((2, 2), 4)
    assert all(p.degree == 1 for p in wit.parts)


def test_reduced_degree_on_long_edge_simplex():
    P = families.example1(2)
    value, wit = reduced_degree(P, GradedPoint((2, 2), 4))
    assert value == 2
    assert wit.interior_part == GradedPoint((1, 1), 2)
    assert sorted(p.position for p in wit.parts) == [(0, 1), (1, 0)]
    # an irreducible point reduces to itself with no parts
    value, wit = reduced_degree(P, GradedPoint((1, 1), 2))
    assert value == 2 and wit.parts == ()


def test_reduced_degree_requires_interior_point(unit_square):
    with pytest.raises(ValueError, match="not interior"):
        reduced_degree(unit_square, GradedPoint((0, 1), 2))
    with pytest.raises(ValueError, match="not interior"):
        reduced_degree(unit_square, GradedPoint((9, 9), 1))
    with pytest.raises(ValueError, match="not interior"):
        is_irreducible(unit_square, GradedPoint((5, 5), 2))


def test_reduced_degree_agrees_with_exhaustive_search():
    for P in (families.example1(2), families.example2(2),
              families.unit_cube(2), families.reeve_simplex(3)):
        d = P.dim
        for k in range(1, d + 4):
            for pos in P.interior_lattice_points(k)[:6]:
                y = GradedPoint(pos, k)
                assert reduced_degree(P, y)[0] == \
                    reduced_degree_oracle(P, y), (P.name, y)


def test_reduction_witness_takes_the_least_parent_at_each_step():
    # y - z splits into three degree-one points in more than one way; the
    # path back up from z always moves to the lex-least point above
    P = Polytope.from_vertices([(-3, -1), (-3, 0), (1, 3), (3, 3)])
    value, wit = reduced_degree(P, GradedPoint((-5, 3), 4))
    assert value == 1
    assert wit.interior_part == GradedPoint((-2, 0), 1)
    assert [p.position for p in wit.parts] == [(-3, -1), (-1, 1), (1, 3)]


def test_reduction_witness_stays_interior_along_the_way(unit_square):
    # peeling one degree-one part at a time never leaves the ideal
    value, wit = reduced_degree(unit_square, GradedPoint((3, 2), 5))
    y = wit.interior_part
    assert ideal_contains(unit_square, y)
    for part in wit.parts:
        y = GradedPoint(tuple(a + b for a, b in
                              zip(y.position, part.position)),
                        y.degree + 1)
        assert ideal_contains(unit_square, y)


# -------------------------------------------------- generators (degree-one)

def test_long_edge_family_generators():
    for d in (2, 3, 4):
        P = families.example1(d)
        assert G(P) == (GradedPoint((1,) * d, d),)
        assert irreducible_generators(P).max_degree == d
        assert irreducible_generators(P).degrees() == (d,)


def test_capped_box_family_generators():
    for d, want in [
        (2, ((1, 1),)),
        (3, ((1, 1, 1), (1, 1, 5))),
        (4, ((1, 1, 1, 1), (1, 1, 1, 6), (1, 1, 1, 11))),
    ]:
        P = families.example2(d)
        assert tuple(g.position for g in G(P)) == want
        assert tuple(g.degree for g in G(P)) == tuple(range(1, d))
        assert irreducible_generators(P).degrees() == tuple(range(1, d))


def test_unit_simplex_generators():
    for d in (1, 2, 3, 4):
        P = families.unit_simplex(d)
        assert G(P) == (GradedPoint((1,) * d, d + 1),)


def test_cube_generators(unit_square, unit_cube):
    assert G(unit_square) == (GradedPoint((1, 1), 2),)
    assert G(unit_cube) == (GradedPoint((1, 1, 1), 2),)


def test_reeve_generators_skip_the_dimension_degree():
    for q in (2, 3, 5):
        P = families.reeve_simplex(q)
        degrees = irreducible_generators(P).degrees()
        assert 4 in degrees
        assert 3 not in degrees
        hist = dict(irreducible_generators(P).degree_histogram)
        assert hist[2] == q - 1 and hist[4] == 1


def test_point_and_segment_generators(point_polytope, segment):
    assert G(point_polytope) == (GradedPoint((2, -1), 1),)
    assert G(segment) == (GradedPoint((1,), 1),)


# ------------------------------------------------------------ degree bounds

def test_degree_bound_classes(unit_square, unit_triangle):
    assert degree_bound(unit_triangle).bound == 3
    assert degree_bound(unit_triangle).reason == "empty simplex"
    assert degree_bound(families.reeve_simplex(2)).bound == 4
    assert degree_bound(families.reeve_simplex(2)).reason == "empty simplex"
    b = degree_bound(families.example2(3))
    assert b.bound == 2 and "interior" in b.reason
    assert degree_bound(unit_square).bound == 2
    assert degree_bound(families.example1(2)).bound == 2


def test_bounds_hold_on_fixtures():
    fixtures = [families.example1(2), families.example1(3),
                families.example2(2), families.example2(3),
                families.unit_simplex(3), families.reeve_simplex(4),
                families.unit_cube(3)]
    for P in fixtures:
        rep = irreducible_generators(P)
        assert rep.max_degree <= rep.bound.bound


# ------------------------------------------- full-semigroup irreducibility

def test_full_action_reduces_more_points():
    R = families.reeve_simplex(2)
    y = GradedPoint((2, 2, 2), 4)
    # under degree-one peeling the point is stuck ...
    assert is_irreducible(R, y)
    # ... but subtracting the degree-two interior point frees it
    assert not is_irreducible_full(R, y)


def test_full_action_spot_values():
    P = families.example2(3)
    assert is_irreducible_full(P, GradedPoint((1, 1, 5), 2))
    U = families.unit_simplex(2)
    assert is_irreducible_full(U, GradedPoint((1, 1), 3))
    with pytest.raises(ValueError, match="not interior"):
        is_irreducible_full(U, GradedPoint((0, 0), 1))


def test_full_generators_unit_simplices():
    for d in (2, 3, 4, 5):
        P = families.unit_simplex(d)
        rep = full_generators(P)
        assert rep.generators == (GradedPoint((1,) * d, d + 1),)
        assert rep.degree_histogram == ((d + 1, 1),)


def test_full_generators_reeve():
    for q in (2, 3, 4, 5):
        P = families.reeve_simplex(q)
        rep = full_generators(P)
        assert all(g.degree <= 2 for g in rep.generators)
        assert rep.degree_histogram == ((2, q - 1),)
        assert set(rep.generators) <= set(G(P))


def test_full_generators_equal_when_degree_one_generates():
    for P in (families.example2(2), families.example2(3),
              families.unit_cube(2), families.unit_cube(3)):
        ok, _ = idp_check(P)
        assert ok
        assert full_generators(P) == irreducible_generators(P)


# ------------------------------------------------------ degree-one splitting

def test_idp_check_verdicts():
    ok, witness = idp_check(families.example2(3), kmax=4)
    assert ok and witness is None
    ok, witness = idp_check(families.reeve_simplex(2), kmax=3)
    assert not ok
    assert witness == GradedPoint((1, 1, 1), 2)
    # conclusive default scan gives the same verdict
    ok2, witness2 = idp_check(families.reeve_simplex(2))
    assert (ok2, witness2) == (ok, witness)


def test_idp_check_validates_kmax(unit_square):
    with pytest.raises(ValueError, match="at least 2"):
        idp_check(unit_square, kmax=1)


def test_idp_holds_for_low_dimensions(segment):
    ok, _ = idp_check(segment)
    assert ok
    for P in (families.example1(2), families.example1(3),
              families.unit_simplex(3)):
        ok, _ = idp_check(P)
        assert ok


def test_idp_fails_for_tall_reeve_simplices():
    for q in (2, 4):
        ok, witness = idp_check(families.reeve_simplex(q))
        assert not ok
        assert witness.degree == 2
        # the witness really is a semigroup point that cannot split
        P = families.reeve_simplex(q)
        assert semigroup_contains(P, witness)
        ones = [u.position for u in degree_one_points(P)]
        lower = set(P.lattice_points(1))
        assert not any(
            tuple(a - b for a, b in zip(witness.position, u)) in lower
            for u in ones)


# ------------------------------------- mask kernel against per-point twins

@st.composite
def small_hulls(draw):
    """Hulls of 2 to 6 points in [-2, 2]^m, m <= 3, sometimes lifted onto
    the lattice hyperplane ``x_{m+1} = c . x + t`` of Z^(m+1)."""
    m = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * m),
                        min_size=2, max_size=6))
    if draw(st.booleans()):
        c = draw(st.tuples(*[st.integers(-2, 2)] * m))
        t = draw(st.integers(-3, 3))
        pts = [p + (sum(a * b for a, b in zip(c, p)) + t,) for p in pts]
    return Polytope.from_vertices(pts)


def _idp_loop(P, kmax):
    ones = P.lattice_points(1)
    for k in range(2, kmax + 1):
        lower = set(P.lattice_points(k - 1))
        for p in P.lattice_points(k):
            if not any(vsub(p, u) in lower for u in ones):
                return False, GradedPoint(p, k)
    return True, None


def _rdeg_loop(P, y):
    """Reduced degree and witness by breadth-first search over point sets:
    the parent of a remainder is the least point of the level above."""
    k = y.degree
    ones = P.lattice_points(1)
    levels = [{y.position: None}]
    while len(levels) < k:
        interior = set(P.interior_lattice_points(k - len(levels)))
        nxt = {}
        for s in sorted(levels[-1]):
            for u in ones:
                t = vsub(s, u)
                if t in interior and t not in nxt:
                    nxt[t] = (s, u)
        if not nxt:
            break
        levels.append(nxt)
    z = cur = min(levels[-1])
    parts = []
    for level in reversed(levels[1:]):
        cur, u = level[cur]
        parts.append(GradedPoint(u, 1))
    value = k - len(levels) + 1
    return value, ReductionWitness(
        GradedPoint(z, value),
        tuple(sorted(parts, key=lambda p: p.position)))


def _full_generators_by_pairs(P):
    """The full-action generators by the pairwise route: at degree ``k``
    the interior points outside every ``interior_low + lattice_{k-low}``,
    ``1 <= low < k``."""
    gens = []
    for k in range(1, P.dim + 2):
        lo, inner = P._slice(k, True)
        reducible = np.zeros_like(inner)
        for low in range(1, k):
            reducible |= _sumset(P._slice(low, True),
                                 P._slice(k - low, False))[1]
        gens.extend(GradedPoint(p, k)
                    for p in P._points(k, lo, inner & ~reducible))
    return tuple(gens)


BIG = 2 ** 40


@given(small_hulls())
@example(Polytope.from_vertices(
    [(BIG, 0), (BIG + 1, 0), (BIG, 1), (BIG + 1, 1)]))
@example(families.reeve_simplex(2))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mask_kernel_matches_its_twins(P):
    assume(P.dim >= 1)
    interior = [GradedPoint(p, k) for k in range(1, P.dim + 2)
                for p in P.interior_lattice_points(k)]
    assert irreducible_generators(P).generators == tuple(
        y for y in interior if is_irreducible(P, y))
    assert full_generators(P).generators == tuple(
        y for y in interior if is_irreducible_full(P, y))
    assert idp_check(P) == _idp_loop(P, max(P.dim, 2))
    queries = interior + [GradedPoint(p, P.dim + 2)
                          for p in P.interior_lattice_points(P.dim + 2)]
    for y in queries[::max(1, len(queries) // 8)]:
        value, wit = reduced_degree(P, y)
        assert value == reduced_degree_oracle(P, y)
        assert wit.total() == y
        assert (value, wit) == _rdeg_loop(P, y)


FLAT_CUBE = Polytope.from_vertices(  # {0,2}^3 under x -> (x, x1 + 2 x2 - x3)
    [(a, b, c, a + 2 * b - c) for a in (0, 2) for b in (0, 2) for c in (0, 2)])

REEVE_4D = Polytope.from_vertices(  # an empty simplex, not IDP
    [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 7)])


def _rdeg_by_full_slices(P, y):
    """Reduced degree and witness by the breadth-first search on whole
    dilates, the twin of the window route: level ``j`` is the interior
    slice of degree ``k - j`` on its full box, ANDed with the sumset of the
    level above and ``-P``, and the witness walk finds each ``cur + u`` in
    the full box of its degree."""
    semigroup._require_ideal(P, y)
    k = y.degree
    lo1, ones = P._slice(1, False)
    minus_ones = (tuple(-(l + n - 1) for l, n in zip(lo1, ones.shape)),
                  np.flip(ones))

    def locate(x, scale):
        lo, shape = P._box(scale)
        idx = tuple(map(operator.sub, P._chart.to_chart(x, scale), lo))
        return idx if all(0 <= i < n for i, n in zip(idx, shape)) else None

    lo, shape = P._box(k)
    start = np.zeros(shape, dtype=bool)
    start[locate(y.position, k)] = True
    levels = [(lo, start)]
    while len(levels) < k:
        lo_in, inner = P._slice(k - len(levels), True)
        lo_r, reach = _sumset(levels[-1], minus_ones)
        crop = tuple(slice(a - b, a - b + n)
                     for a, b, n in zip(lo_in, lo_r, inner.shape))
        nxt = inner & reach[crop]
        if not nxt.any():
            break
        levels.append((lo_in, nxt))
    depth = len(levels) - 1
    value = k - depth
    z_pos = P._points(value, *levels[-1])[0]
    parts = []
    cur = z_pos
    for j in range(depth, 0, -1):
        _, above = levels[j - 1]
        for u in P.lattice_points(1):
            idx = locate(vadd(cur, u), k - j + 1)
            if idx is not None and above[idx]:
                break
        parts.append(GradedPoint(u, 1))
        cur = vadd(cur, u)
    parts.sort(key=lambda p: p.position)
    return value, ReductionWitness(GradedPoint(z_pos, value), tuple(parts))


@st.composite
def rdeg_queries(draw):
    """``(P, y)``: a hull of 2 to 6 points in [-2, 2]^m, m <= 3, taken as
    it is, lifted onto a lattice hyperplane of Z^(m+1), or put flat into
    Z^(m+2) by ``x -> (2 x_1 - x_m, x, 1)``; and the interior point of one
    dilate of degree at most ``dim + 3`` nearest (in chart coordinates) to
    a corner of its box."""
    m = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * m),
                        min_size=2, max_size=6))
    kind = draw(st.sampled_from(["plain", "lifted", "flat"]))
    if kind == "lifted":
        c = draw(st.tuples(*[st.integers(-2, 2)] * m))
        t = draw(st.integers(-3, 3))
        pts = [p + (sum(a * b for a, b in zip(c, p)) + t,) for p in pts]
    elif kind == "flat":
        pts = [(2 * p[0] - p[-1],) + p + (1,) for p in pts]
    P = Polytope.from_vertices(pts)
    assume(P.dim >= 1)
    k = draw(st.integers(1, P.dim + 3))
    lo, shape = P._box(k)
    corner = [l + (n - 1) * draw(st.booleans()) for l, n in zip(lo, shape)]
    inner = P.interior_lattice_points(k)
    assume(inner)
    pos = min(inner, key=lambda x: (sum(
        abs(a - b) for a, b in zip(P._chart.to_chart(x, k), corner)), x))
    return P, GradedPoint(pos, k)


@given(rdeg_queries())
@example((families.reeve_simplex(5), GradedPoint((1, 1, 3), 4)))
@example((FLAT_CUBE, GradedPoint((1, 2, 5, 0), 4)))
@example((Polytope.from_vertices(  # past the int64 guard: the bignum route
    [(BIG, 0), (BIG + 1, 0), (BIG, 2), (BIG + 1, 2)]),
    GradedPoint((3 * BIG + 1, 5), 3)))
@example((families.example2(3), GradedPoint((1, 1, 1), 1)))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_reduced_degree_windows_match_the_full_slice_search(query):
    P, y = query
    Q = Polytope.from_vertices(P.vertices)  # cold caches
    checked, spent = [], []

    def check(work):
        checked.append(work)
        _check_work(work)

    def spy(a, b):
        spent.append(_sumset_work(a, b))
        return _sumset(a, b)

    with mock.patch.object(semigroup, "_check_work", check), \
            mock.patch.object(semigroup, "_sumset", spy):
        got = reduced_degree(Q, y)
    assert got == _rdeg_by_full_slices(P, y)
    assert got[0] == reduced_degree_oracle(P, y)
    # one check before the first sumset bounds every sumset taken
    assert len(checked) == 1 and sum(spent) <= checked[0]
    assert not [key for key in Q._cache if key[:1] == ("slice",)
                and key[2]]


def test_reduced_degree_caches_no_interior_slice():
    P = families.example2(5)
    value, wit = reduced_degree(P, GradedPoint((1, 1, 1, 1, 19), 4))
    assert value == 4 and wit.parts == ()
    value, wit = reduced_degree(P, GradedPoint((1, 1, 1, 1, 24), 5))
    assert value == 4 and wit.parts == (GradedPoint((0, 0, 0, 0, 5), 1),)
    slices = [key for key in P._cache if key[0] == "slice"]
    assert slices == [("slice", 1, False)]


@given(rdeg_queries())
@example((families.example2(4), GradedPoint((1, 1, 1, 11), 3)))
@example((families.example2(4), GradedPoint((3, 3, 2, 15), 5)))
@example((FLAT_CUBE, GradedPoint((1, 2, 5, 0), 4)))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_reduced_degree_reads_cached_interior_slices(query):
    # a polytope whose slices are built already (as the check suite's
    # are) answers from them, and as a fresh one does
    P, y = query
    fresh = Polytope.from_vertices(P.vertices)
    warm = Polytope.from_vertices(P.vertices)
    warm._slice(1, False)
    for j in range(1, y.degree):
        warm._slice(j, True)
    with mock.patch.object(Polytope, "_build_slice",
                           side_effect=AssertionError("a slice was built")):
        got = reduced_degree(warm, y)
    assert got == reduced_degree(fresh, y)


def test_reduced_degree_refuses_oversized_sumsets(monkeypatch):
    def never(*args):
        raise AssertionError("a sumset started")

    monkeypatch.setattr("polycanon.semigroup._sumset", never)
    P = Polytope.from_vertices([(0, 0, 0), (60, 0, 0), (0, 60, 0),
                                (0, 0, 60)])
    y = GradedPoint((60, 60, 60), 4)
    checked = []

    class Admitted(Exception):
        pass

    def admitted(work):
        checked.append(work)
        raise Admitted  # the bound is taken, no sumset is run

    with mock.patch.object(semigroup, "_check_work", admitted), \
            pytest.raises(Admitted):
        reduced_degree(P, y)
    assert 0 < checked[0] <= semigroup.SUMSET_CAP
    monkeypatch.setattr("polycanon.semigroup.SUMSET_CAP", checked[0] - 1)
    with pytest.raises(ValueError, match=f"the sumsets would OR"
                       f" {checked[0]} mask cells, over the cap of"):
        reduced_degree(P, y)


def test_oracle_refuses_oversized_searches_before_any_multiset():
    # [0, 2]^3 has 27 lattice points: degree 8 needs C(34, 7) - 1 =
    # 5 379 615 multisets of sizes 1..7, over the cap
    P = families.unit_cube(3)
    P = Polytope.from_vertices([tuple(2 * a for a in v) for v in P.vertices])
    y = GradedPoint((8, 8, 8), 8)
    with mock.patch.object(itertools, "combinations_with_replacement",
                           side_effect=AssertionError) as spy, \
            pytest.raises(BudgetError, match="the oracle would try 5379615"
                          " multisets of degree-one points, over the cap"):
        reduced_degree_oracle(P, y)
    assert not spy.called
    # degree 5 needs C(31, 4) - 1 = 31 464 multisets, under the cap
    assert reduced_degree_oracle(P, GradedPoint((5, 5, 5), 5)) == 1


@given(small_hulls())
@example(families.reeve_simplex(2))
@example(families.reeve_simplex(5))
@example(families.reeve_simplex(13))
@example(REEVE_4D)
@example(FLAT_CUBE)
@example(Polytope.from_vertices([(0,), (3,)]))
@example(Polytope.from_vertices([(2, -1)]))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_full_generators_match_the_pairwise_route(P):
    assert full_generators(P).generators == _full_generators_by_pairs(P)


@given(small_hulls())
@example(families.reeve_simplex(13))
@example(families.reeve_simplex(50))
@example(REEVE_4D)
@example(FLAT_CUBE)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_lattice_points_of_degree_dim_split_off_a_degree_one_point(P):
    # (c + 1)P = cP + P on lattice points for c = dim - 1, so the Hilbert
    # basis of the graded semigroup lies in degrees <= dim - 1
    assume(P.dim >= 2)
    lo, mask = P._slice(P.dim, False)
    ref_lo, ref = _sumset_by_points(P._slice(P.dim - 1, False),
                                    P._slice(1, False))
    assert ref_lo == lo and (ref == mask).all()


@given(small_hulls())
@example(families.reeve_simplex(5))
@example(REEVE_4D)
@example(FLAT_CUBE)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_sumsets_stay_within_the_checked_budget(P):
    # every sumset run, counted as _sumset_work counts it, fits under the
    # cumulative total of the last checkpoint before it
    checked, spent = [], []

    def check(work):
        assert not checked or work >= checked[-1]
        checked.append(work)
        _check_work(work)

    def spy(a, b):
        spent.append(_sumset_work(a, b))
        assert checked and sum(spent) <= checked[-1]
        # the scatter route's pairs of points are within the same budget
        assert np.count_nonzero(a[1]) * np.count_nonzero(b[1]) <= spent[-1]
        return _sumset(a, b)

    for report in (irreducible_generators, full_generators):
        checked.clear()
        spent.clear()
        with mock.patch.object(semigroup, "_check_work", check), \
                mock.patch.object(semigroup, "_sumset", spy), _index_spy():
            report(Polytope.from_vertices(P.vertices))
        assert len(checked) == (2 if report is full_generators else 1)


@contextlib.contextmanager
def _index_spy():
    """Assert that each scattered sumset keeps its index arrays within
    ``max(size // 8, _SCATTER_FLOOR)`` entries, ``size`` the cells of the
    result: the cell rows of both operands with the flat indices of both,
    and the flat indices with one block of sums."""
    built = []
    true_cells, scatter = semigroup._true_cells, semigroup._scatter

    def cells(mask):
        rows = true_cells(mask)
        built.append(rows.size)
        return rows

    def scatter_spy(flat, fa, fb, rows):
        limit = max(flat.size // 8, semigroup._SCATTER_FLOOR)
        # the scatter route's two flat scans come right before it
        assert sum(built[-2:]) + len(fa) + len(fb) <= limit
        assert len(fa) + len(fb) + min(rows, len(fa)) * len(fb) <= limit
        built.clear()
        scatter(flat, fa, fb, rows)

    with mock.patch.object(semigroup, "_true_cells", cells), \
            mock.patch.object(semigroup, "_scatter", scatter_spy):
        yield


def _sumset_by_points(a, b):
    """The sumset kernel's twin: the mask with more points ORed in once,
    shifted, per point of the other."""
    if np.count_nonzero(a[1]) > np.count_nonzero(b[1]):
        a, b = b, a
    (lo_a, small), (lo_b, big) = a, b
    out = np.zeros(tuple(s + t - 1 for s, t in zip(small.shape, big.shape)),
                   dtype=bool)
    for idx in np.argwhere(small).tolist():
        out[tuple(slice(i, i + n) for i, n in zip(idx, big.shape))] |= big
    return tuple(map(operator.add, lo_a, lo_b)), out


# the ratio each route is forced with: -1 takes the run route even for an
# empty operand, and the one-row route scatters one row at a time
_RATIOS = {"rule": semigroup._SCATTER_RATIO, "runs": -1,
           "scatter": 10**18, "one-row": 10**18}


def _scatters(a, b, ratio):
    """Does ``_sumset`` scatter ``a + b`` under ``ratio``: a sparser
    operand that is not a single point, at most that many pairs of points
    per cell of the result, and the index arrays within the limit?"""
    na, nb = np.count_nonzero(a[1]), np.count_nonzero(b[1])
    size = math.prod(s + t - 1 for s, t in zip(a[1].shape, b[1].shape))
    limit = max(size // 8, semigroup._SCATTER_FLOOR)
    return (min(na, nb) != 1 and na * nb <= ratio * size
            and (na + nb) * (a[1].ndim + 1) <= limit)


def _check_sumset(a, b, route="rule"):
    """Check ``_sumset`` against its twin on the route ``route``; return
    whether it scattered."""
    ratio = _RATIOS[route]
    blocks = []
    scatter = semigroup._scatter

    def spy(flat, fa, fb, rows):
        blocks.append(rows)
        scatter(flat, fa, fb, 1 if route == "one-row" else rows)

    with mock.patch.object(semigroup, "_SCATTER_RATIO", ratio), \
            mock.patch.object(semigroup, "_scatter", spy):
        lo, mask = _sumset(a, b)
    assert bool(blocks) == _scatters(a, b, ratio)
    ref_lo, ref = _sumset_by_points(a, b)
    assert lo == ref_lo and mask.shape == ref.shape and (mask == ref).all()
    # the kernel's shifted ORs (one per run, one per widening) stay within
    # one per point of the walked operand, so the work budget still holds
    points = min(np.count_nonzero(a[1]), np.count_nonzero(b[1]))
    runs = _runs(a[1] if np.count_nonzero(a[1]) == points else b[1])
    assert sum(n for _, n in runs) == points
    longest = max((n for _, n in runs), default=1)
    assert len(runs) + longest - 1 <= points
    assert len(runs) + longest - 1 <= _sumset_work(a, b)
    return bool(blocks)


@st.composite
def mask_pairs(draw):
    """Two slices of one rank from 0 to 4, each mask random, all true or
    all false."""
    r = draw(st.integers(0, 4))

    def one():
        shape = draw(st.tuples(*[st.integers(1, 4)] * r))
        size = int(np.prod(shape))
        kind = draw(st.sampled_from(["random", "all", "none"]))
        cells = (draw(st.lists(st.booleans(), min_size=size, max_size=size))
                 if kind == "random" else [kind == "all"] * size)
        lo = draw(st.tuples(*[st.integers(-3, 3)] * r))
        return lo, np.array(cells, dtype=bool).reshape(shape)
    return one(), one()


_ROW_END = np.array([[0, 0, 1], [1, 1, 0]], dtype=bool)  # flat run, 2 rows
# 30 and 24 points on a 9 x 10 result: 720 pairs, exactly 8 per cell
_ALL_BUT_ONE = np.ones((5, 5), dtype=bool)
_ALL_BUT_ONE[2, 3] = False
_AT_RULE = (((0, 0), np.ones((5, 6), dtype=bool)), ((1, 2), _ALL_BUT_ONE))
_PAST_RULE = (((0, 0), np.ones((5, 6), dtype=bool)),
              ((1, 2), np.ones((5, 5), dtype=bool)))
# 140 000 pairs on 70 001 cells, but 2 * 70 002 indices, over the 2**17
# floor of the index limit
_OVER_LIMIT = (((0,), np.ones(70_000, dtype=bool)),
               ((5,), np.ones(2, dtype=bool)))
ROUTES = list(_RATIOS)


@pytest.mark.parametrize("route", ROUTES)
@given(mask_pairs())
@example((((0, 0), _ROW_END), ((1, -1), np.ones((2, 2), dtype=bool))))
@example((((0, 0), np.ones((3, 3), dtype=bool)), ((0, 0), _ROW_END)))
@example((((), np.array(True)), ((), np.array(True))))
@example((((), np.array(False)), ((), np.array(True))))
@example((((2,), np.array([1, 1, 0, 1, 1, 1], dtype=bool)),
          ((0,), np.array([1, 0, 1, 1, 1, 1, 1, 1], dtype=bool))))
@example((((0, 0, 0), np.zeros((2, 1, 3), dtype=bool)),
          ((0, 0, 0), np.ones((1, 2, 2), dtype=bool))))
@example((((0, 0), np.ones((1, 4), dtype=bool)),  # a single row
          ((0, 0), np.array([[1, 1, 1, 0, 1, 1, 1]], dtype=bool))))
@example(_AT_RULE)
@example(_PAST_RULE)
@example(_OVER_LIMIT)
@example((((-1, -2), np.flip(_ROW_END)),  # a flipped view, as -P is
          ((0, 0), np.ones((2, 2), dtype=bool))))
@settings(max_examples=200, deadline=None)
def test_sumset_matches_the_point_loop_on_masks(route, pair):
    _check_sumset(*pair, route=route)


@pytest.mark.parametrize("route", ROUTES)
@given(small_hulls(), st.integers(0, 2**32 - 1))
@example(families.reeve_simplex(2), 0)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_sumset_matches_the_point_loop_on_slices(route, P, seed):
    for k in range(2, 4):
        for low in range(1, k):
            _check_sumset(P._slice(low, True), P._slice(k - low, False),
                          route)
    # a reduced_degree level: sparse interior points of dilate 3 minus P
    lo1, ones = P._slice(1, False)
    minus_ones = (tuple(-(l + n - 1) for l, n in zip(lo1, ones.shape)),
                  np.flip(ones))
    lo, inner = P._slice(3, True)
    sparse = inner & (np.random.default_rng(seed).random(inner.shape) < 0.2)
    _check_sumset((lo, sparse), minus_ones, route)


def test_sumset_rule_scatters_only_small_sumsets():
    P = families.example2(3)
    # its one interior point takes the runs; the 27 of degree 2 scatter
    assert not _check_sumset(P._slice(1, True), P._slice(1, False))
    assert _check_sumset(P._slice(2, True), P._slice(1, False))
    assert _check_sumset(*_AT_RULE)
    assert not _check_sumset(*_PAST_RULE)
    assert not _check_sumset(*_OVER_LIMIT)
    # the degree-6 generator sumset of example2 d=5: 59 510 interior
    # points of degree 5 and 243 of P on 885 391 cells, 16.3 pairs each
    Q = families.example2(5)
    a, b = Q._slice(5, True), Q._slice(1, False)
    pairs = np.count_nonzero(a[1]) * np.count_nonzero(b[1])
    size = math.prod(s + t - 1 for s, t in zip(a[1].shape, b[1].shape))
    assert 16 < pairs / size < 17
    assert not _check_sumset(a, b)


def test_single_point_sumsets_take_one_or():
    # a single point against -P, as the first level of every reduced_degree
    # search is, takes the run route's one OR on every route, never a scatter
    P = families.example2(3)
    point = ((0, 0, 0), np.zeros((2, 1, 3), dtype=bool))
    point[1][1, 0, 2] = True
    for route in ROUTES:
        assert not _check_sumset(point, P._slice(1, False), route)
        assert not _check_sumset(P._slice(2, True), point, route)
    routes = []
    sumset, scatter = semigroup._sumset, semigroup._scatter

    def sumset_spy(a, b):
        sparse = min(np.count_nonzero(a[1]), np.count_nonzero(b[1]))
        routes.append([int(sparse), "runs"])
        return sumset(a, b)

    def scatter_spy(*args):
        routes[-1][1] = "scatter"
        scatter(*args)
    with mock.patch.object(semigroup, "_sumset", sumset_spy), \
            mock.patch.object(semigroup, "_scatter", scatter_spy):
        reduced_degree(P, GradedPoint((2, 2, 6), 5))
    assert routes == [[1, "runs"], [15, "scatter"], [24, "scatter"],
                      [16, "scatter"]]


_SPREAD = np.arange(400) % 40 == 0  # 10 points, 40 apart


@given(mask_pairs())
@example(_AT_RULE)
@example(_OVER_LIMIT)
# 100 pairs on 799 cells: 20 flat indices leave 79 of the limit of 99 to
# the blocks, 7 rows of 10 sums at a time
@example((((0,), _SPREAD), ((3,), _SPREAD)))
@settings(max_examples=100, deadline=None)
def test_scatter_route_holds_at_most_its_index_limit(pair):
    # with no floor the limit is an eighth of the result's cells, so
    # small pairs fall back to the runs and the blocks get short
    with mock.patch.object(semigroup, "_SCATTER_FLOOR", 0), _index_spy():
        _check_sumset(*pair, route="scatter")


def test_idp_check_refuses_an_oversized_top_degree():
    with pytest.raises(ValueError, match="cap of 40000000"):
        idp_check(families.unit_cube(4), kmax=200)


def test_idp_check_refuses_oversized_sumsets(monkeypatch):
    def never(*args):
        raise AssertionError("a sumset started")

    monkeypatch.setattr("polycanon.semigroup._sumset", never)
    P = Polytope.from_vertices([(0, 0, 0), (60, 0, 0), (0, 60, 0),
                                (0, 0, 60)])
    with pytest.raises(ValueError, match="cap of 100000000000"):
        idp_check(P, kmax=4)  # every box is under the box cap
