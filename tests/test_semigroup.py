"""Tests for reduced degrees, irreducible generators (under the degree-one
action and under the full graded semigroup), degree bounds, and the
degree-one splitting check."""

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from polycanon import families
from polycanon.cone import GradedPoint, ReductionWitness
from polycanon.exactmath import vsub
from polycanon.polytope import Polytope
from polycanon.semigroup import (
    degree_bound,
    degree_one_points,
    full_generators,
    ideal_contains,
    idp_check,
    irreducible_generators,
    is_irreducible,
    is_irreducible_full,
    max_reduced_degree,
    reduced_degree,
    reduced_degree_oracle,
    reduced_degree_values,
    semigroup_contains,
)


def G(P):
    return irreducible_generators(P).generators


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
        assert max_reduced_degree(P) == d
        assert reduced_degree_values(P) == (d,)


def test_capped_box_family_generators():
    for d, want in [
        (2, ((1, 1),)),
        (3, ((1, 1, 1), (1, 1, 5))),
        (4, ((1, 1, 1, 1), (1, 1, 1, 6), (1, 1, 1, 11))),
    ]:
        P = families.example2(d)
        assert tuple(g.position for g in G(P)) == want
        assert tuple(g.degree for g in G(P)) == tuple(range(1, d))
        assert reduced_degree_values(P) == tuple(range(1, d))


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
