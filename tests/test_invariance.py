"""Invariants that must not change when a polytope is moved by a lattice
translation, here by vectors far past the int64 guard."""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from polycanon import families
from polycanon.cone import GradedPoint
from polycanon.exactmath import dot, vadd
from polycanon.polytope import Polytope
from polycanon.semigroup import idp_check, irreducible_generators
from polycanon.triangulation import (
    full_lattice_triangulation,
    total_normalized_volume,
)


@st.composite
def translated_hulls(draw):
    """``(points, t)``: 1 to 6 points in [-2, 2]^m, m <= 3, half of the
    time lifted onto the lattice hyperplane ``x_{m+1} = c . x + s`` of
    Z^(m+1); and a translation whose entries lie within 3 of +-2^61 or
    +-2^70."""
    m = draw(st.integers(1, 3))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * m),
                        min_size=1, max_size=6))
    if draw(st.booleans()):
        c = draw(st.tuples(*[st.integers(-2, 2)] * m))
        s = draw(st.integers(-3, 3))
        pts = [p + (dot(c, p) + s,) for p in pts]
    far = st.sampled_from((2**61, -2**61, 2**70, -2**70))
    t = tuple(draw(far) + draw(st.integers(-3, 3)) for _ in pts[0])
    return pts, t


def _shift(p, k, t):
    return vadd(p, tuple(k * a for a in t))


@given(translated_hulls())
@example((list(families.example2(3).vertices), (2**61,) * 3))
@example(([(0, 0, 1), (2, 0, 3), (0, 2, 1), (1, 1, 2)],  # flat: no identity
          (2**70, -2**70 + 1, 3 - 2**61)))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_invariants_survive_a_far_translation(case):
    pts, t = case
    P = Polytope.from_vertices(pts)
    Q = Polytope.from_vertices([vadd(p, t) for p in pts])
    assert Q.vertices == tuple(vadd(v, t) for v in P.vertices)
    # lattice and interior points of every degree up to dim + 1, each
    # moved by k t, which keeps their lex order
    for k in range(P.dim + 2):
        for scan in (Polytope.lattice_points,
                     Polytope.interior_lattice_points):
            assert scan(Q, k) == tuple(_shift(p, k, t) for p in scan(P, k))
    # generators, their degree histogram and the degree bound
    R, S = irreducible_generators(P), irreducible_generators(Q)
    assert S.degree_histogram == R.degree_histogram
    assert S.bound == R.bound and S.max_degree == R.max_degree
    assert S.generators == tuple(
        GradedPoint(_shift(g.position, g.degree, t), g.degree)
        for g in R.generators)
    # the IDP verdict, and its witness moved with the polytope
    if P.dim >= 1:
        ok, witness = idp_check(P)
        assert idp_check(Q) == (ok, None if ok else GradedPoint(
            _shift(witness.position, witness.degree, t), witness.degree))
        assert (total_normalized_volume(full_lattice_triangulation(Q))
                == total_normalized_volume(full_lattice_triangulation(P)))
