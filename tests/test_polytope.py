"""Tests for polytope construction, scanning, classification and JSON."""

import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import polycanon.polytope as pmod
from polycanon import families
from polycanon.checks import default_corpus
from polycanon.exactmath import (
    build_chart,
    dot,
    generalized_cross,
    primitive_vector,
    rank,
    vsub,
)
from polycanon.polytope import FacetForm, Polytope


# ------------------------------------------------------------ construction

def test_vertex_hull_drops_interior_candidates(unit_square):
    P = Polytope.from_vertices(
        [(0, 0), (1, 0), (0, 1), (1, 1), (1, 0), (0, 0)])
    assert P.vertices == unit_square.vertices
    assert P == unit_square
    assert hash(P) == hash(unit_square)


def test_needs_at_least_one_point():
    with pytest.raises(ValueError):
        Polytope.from_vertices([])


def test_facets_of_unit_square(unit_square):
    got = {(f.normal, f.offset) for f in unit_square.facets}
    assert got == {
        ((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1)}


def test_facet_vertex_duality_round_trip(unit_cube):
    rebuilt = Polytope.from_inequalities(unit_cube.facets,
                                         unit_cube.ambient_dim)
    assert rebuilt.vertices == unit_cube.vertices


def test_from_inequalities_unbounded_halfplane():
    with pytest.raises(ValueError, match="unbounded"):
        Polytope.from_inequalities([FacetForm((1, 0), 1)], 2)


def test_from_inequalities_unbounded_recession_ray():
    # the positive quadrant: the normals span, yet rays escape
    with pytest.raises(ValueError, match="unbounded"):
        Polytope.from_inequalities(
            [FacetForm((-1, 0), 0), FacetForm((0, -1), 0)], 2)


def test_from_inequalities_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        Polytope.from_inequalities(
            [FacetForm((1,), 0), FacetForm((-1,), -1)], 1)


def test_from_inequalities_non_lattice_vertex():
    with pytest.raises(ValueError, match="not a lattice point"):
        Polytope.from_inequalities(
            [FacetForm((2,), 1), FacetForm((-1,), 0)], 1)


def test_from_inequalities_rejects_fractional_offset():
    with pytest.raises(ValueError, match="offset"):
        Polytope.from_inequalities([FacetForm((1,), 0.5),
                                    FacetForm((-1,), 0)], 1)


def test_redundant_inequalities_are_dropped(unit_square):
    forms = list(unit_square.facets) + [FacetForm((1, 1), 5)]
    P = Polytope.from_inequalities(forms, 2)
    assert P == unit_square
    assert len(P.facets) == 4


# ----------------------------------------------------------------- scanning

def test_unit_square_counts(unit_square):
    assert len(unit_square.lattice_points(1)) == 4
    assert len(unit_square.lattice_points(2)) == 9
    assert unit_square.interior_lattice_points(1) == ()
    assert unit_square.interior_lattice_points(2) == ((1, 1),)


def test_dilation_zero_is_the_origin(unit_square, point_polytope):
    assert unit_square.lattice_points(0) == ((0, 0),)
    assert unit_square.interior_lattice_points(0) == ((0, 0),)
    assert point_polytope.lattice_points(0) == ((0, 0),)


def test_negative_dilation_rejected(unit_square):
    with pytest.raises(ValueError):
        unit_square.lattice_points(-1)
    with pytest.raises(ValueError):
        unit_square.classify_point((0, 0), scale=-2)


def test_point_polytope_scans(point_polytope):
    assert point_polytope.dim == 0
    assert point_polytope.lattice_points(5) == ((10, -5),)
    assert point_polytope.interior_lattice_points(5) == ((10, -5),)


def test_segment_scans(segment):
    assert segment.lattice_points(1) == ((0,), (1,), (2,))
    assert segment.interior_lattice_points(1) == ((1,),)


def test_flat_triangle_scans(flat_triangle):
    # all lattice points of the hull satisfy z = x + y
    assert flat_triangle.dim == 2
    assert flat_triangle.lattice_points(1) == (
        (0, 0, 0), (0, 1, 1), (1, 0, 1))
    assert flat_triangle.interior_lattice_points(3) == ((1, 1, 2),)


def test_numpy_and_python_scans_agree(monkeypatch):
    # a zero guard makes every scan take the exact bignum route
    jobs = [(1, False), (2, False), (1, True), (3, True)]
    for P in default_corpus(seed=7, count=10):
        expect = {job: P._scan(*job) for job in jobs}
        fresh = Polytope.from_vertices(P.vertices)
        with monkeypatch.context() as mp:
            mp.setattr(pmod, "_INT64_GUARD", 0)
            for job, want in expect.items():
                assert fresh._scan(*job) == want


def test_scan_falls_back_when_coordinates_are_huge():
    # far enough from the origin that the int64 overflow guard rejects
    # the vectorized path; the pure-python path uses bignums
    big = 2 ** 40
    P = Polytope.from_vertices(
        [(big, 0), (big + 1, 0), (big, 1), (big + 1, 1)])
    assert sorted(P.lattice_points(1)) == [
        (big, 0), (big, 1), (big + 1, 0), (big + 1, 1)]
    assert P.interior_lattice_points(2) == ((2 * big + 1, 1),)


def test_oversized_box_is_refused_before_scanning():
    with pytest.raises(ValueError, match="cap of 40000000"):
        families.unit_cube(4).lattice_points(200)


def _never(*args, **kwargs):
    raise AssertionError("the search started")


def test_oversized_facet_search_is_refused_before_enumerating(monkeypatch):
    grid = list(itertools.product(range(6), repeat=4))  # 1296 * UBT(1296, 4)
    monkeypatch.setattr(pmod, "generalized_cross", _never)
    with pytest.raises(ValueError,
                       match=r"1296 points .* = 1085871744 .* cap of 10000000"):
        Polytope.from_vertices(grid)


def test_oversized_vertex_search_is_refused_before_enumerating(monkeypatch):
    forms = [FacetForm((a, b, c, 1), 9) for a in range(-2, 3)
             for b in range(-2, 3) for c in range(-1, 3)]  # C(100, 4)
    monkeypatch.setattr(pmod, "rank", _never)
    monkeypatch.setattr(pmod, "solve_rational", _never)
    with pytest.raises(ValueError, match=r"C\(100, 4\) = .* cap of 1000000"):
        Polytope.from_inequalities(forms, 4)


def _hull_by_subsets(points):
    """``(vertices, facets, fd_facets)`` of the hull of ``points`` by the
    C(n, d) search: a d-subset of the chart points spans a facet iff its
    hyperplane has every point on one side."""
    pts = sorted(set(points))
    chart = build_chart(pts)
    d = chart.dim
    q = [chart.to_chart(p) for p in pts]
    fd_facets = set()
    for rows in itertools.combinations(q, d) if d else ():
        n = generalized_cross([vsub(r, rows[0]) for r in rows[1:]], d)
        if not any(n):
            continue
        n = primitive_vector(n)
        o = dot(n, rows[0])
        sides = {(dot(n, p) > o) - (dot(n, p) < o) for p in q} - {0}
        if sides == {1}:
            n, o = tuple(-a for a in n), -o
        if len(sides) == 1:
            fd_facets.add(FacetForm(n, o))
    vertices = tuple(sorted(
        p for p, c in zip(pts, q)
        if d == 0 or rank([f.normal for f in fd_facets
                           if f.slack(c) == 0]) == d))
    facets = tuple(sorted(pmod._pull_back_facet(f, chart) for f in fd_facets))
    return vertices, facets, tuple(sorted(fd_facets))


@st.composite
def point_sets(draw):
    """2 to 10 points in [-2, 2]^m, m <= 4, half of the time lifted onto
    the lattice hyperplane ``x_{m+1} = c . x + t`` of Z^(m+1)."""
    m = draw(st.integers(1, 4))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * m),
                        min_size=2, max_size=10))
    if draw(st.booleans()):
        c = draw(st.tuples(*[st.integers(-2, 2)] * m))
        t = draw(st.integers(-3, 3))
        pts = [p + (sum(a * b for a, b in zip(c, p)) + t,) for p in pts]
    return pts


@given(point_sets())
@example(list(itertools.product(range(3), repeat=3)))
@example(list(families.example2(4).vertices))
@example([(x, y, x + 2 * y + 1) for x in range(3) for y in range(3)])
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hull_matches_the_subset_search(pts):
    # the examples have many coplanar boundary simplices per facet
    P = Polytope.from_vertices(pts)
    assert (P.vertices, P.facets, P._fd_facets) == _hull_by_subsets(pts)


# ------------------------------------------------------------- point queries

def test_classify_point_cases(unit_square):
    assert unit_square.classify_point((1, 1), scale=2) == "interior"
    assert unit_square.classify_point((0, 1), scale=2) == "boundary"
    assert unit_square.classify_point((3, 1), scale=2) == "outside"
    assert unit_square.classify_point((0, 0), scale=0) == "interior"
    assert unit_square.classify_point((1, 0), scale=0) == "outside"
    assert unit_square.contains((1, 1))
    assert not unit_square.contains((2, 0))
    with pytest.raises(ValueError, match="ambient"):
        unit_square.classify_point((1, 1, 1))


def test_classify_respects_relative_interior(flat_triangle):
    # on the hull plane but outside the triangle
    assert flat_triangle.classify_point((2, 2, 4)) == "outside"
    # off the hull plane entirely
    assert flat_triangle.classify_point((0, 0, 1)) == "outside"
    assert flat_triangle.classify_point((0, 0, 0)) == "boundary"
    assert flat_triangle.classify_point((1, 1, 2), scale=3) == "interior"


def test_simplex_recognition(unit_triangle, unit_square):
    assert unit_triangle.is_simplex()
    assert not unit_square.is_simplex()


# ------------------------------------------------------------------- JSON

def test_json_round_trip(unit_cube, flat_triangle, point_polytope):
    for P in (unit_cube, flat_triangle, point_polytope):
        assert Polytope.from_json_dict(P.to_json_dict()) == P


def test_json_inequalities_input():
    data = {
        "ambient_dim": 1,
        "inequalities": [
            {"normal": [1], "offset": 2},
            {"normal": [-1], "offset": 0},
        ],
    }
    P = Polytope.from_json_dict(data)
    assert P.vertices == ((0,), (2,))


@pytest.mark.parametrize("data, message", [
    ([1, 2], "must be an object"),
    ({"ambient_dim": 2, "vertices": [[0, 0]], "color": "red"},
     "unknown keys"),
    ({"vertices": [[0, 0]]}, "missing ambient_dim"),
    ({"ambient_dim": 0, "vertices": [[0]]}, "positive integer"),
    ({"ambient_dim": True, "vertices": [[0]]}, "positive integer"),
    ({"ambient_dim": 1}, "exactly one"),
    ({"ambient_dim": 1, "vertices": [[0]], "inequalities": []},
     "exactly one"),
    ({"ambient_dim": 1, "vertices": []}, "nonempty"),
    ({"ambient_dim": 2, "vertices": [[0]]}, "list of 2"),
    ({"ambient_dim": 1, "vertices": [[0]], "name": 7}, "name"),
    ({"ambient_dim": 1, "inequalities": [{"normal": [1]}]},
     "normal and offset"),
    ({"ambient_dim": 1,
      "inequalities": [{"normal": [1], "offset": True}]}, "integer"),
])
def test_json_validation_errors(data, message):
    with pytest.raises(ValueError, match=message):
        Polytope.from_json_dict(data)
