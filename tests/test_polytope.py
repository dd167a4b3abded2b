"""Tests for polytope construction, scanning, classification and JSON."""

import itertools
import math
import operator
from unittest import mock

import numpy as np

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import polycanon.exactmath as exactmath
import polycanon.polytope as pmod
from polycanon import families
from polycanon.checks import default_corpus
from polycanon.exactmath import (
    build_chart,
    dot,
    generalized_cross,
    primitive_vector,
    rank,
    solve_rational,
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


def test_from_inequalities_rejects_normals_of_another_length(unit_cube):
    with pytest.raises(ValueError,
                       match=r"normal \(-1, 0, 0\) must be a list of 2"):
        Polytope.from_inequalities(unit_cube.facets, 2)
    with pytest.raises(ValueError, match=r"normal \(-1,\) must be a list of 2"):
        Polytope.from_inequalities([FacetForm((1, 0), 1), FacetForm((-1,), 0),
                                    FacetForm((0, 1), 1)], 2)


def test_from_inequalities_rejects_ambient_dim_below_one():
    with pytest.raises(ValueError, match="ambient_dim must be a positive"):
        Polytope.from_inequalities([FacetForm((), 0)], 0)


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
    # the point of Z^0: the identity chart has no coordinates to zip
    origin = Polytope.from_vertices([()])
    assert origin.lattice_points(3) == origin.interior_lattice_points(3) \
        == ((),)


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
    # a zero guard makes every scan run on Python ints
    jobs = [(1, False), (2, False), (1, True), (3, True)]
    for P in default_corpus(seed=7, count=10):
        expect = {job: P._scan(*job) for job in jobs}
        fresh = Polytope.from_vertices(P.vertices)
        with monkeypatch.context() as mp:
            mp.setattr(pmod, "_INT64_GUARD", 0)
            for job, want in expect.items():
                assert fresh._scan(*job) == want


@st.composite
def point_sets(draw, max_size):
    """2 to ``max_size`` points in [-2, 2]^m, m <= 4, half of the time
    lifted onto the lattice hyperplane ``x_{m+1} = c . x + t`` of
    Z^(m+1)."""
    m = draw(st.integers(1, 4))
    pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * m),
                        min_size=2, max_size=max_size))
    if draw(st.booleans()):
        c = draw(st.tuples(*[st.integers(-2, 2)] * m))
        t = draw(st.integers(-3, 3))
        pts = [p + (dot(c, p) + t,) for p in pts]
    return pts


_CUBE = list(itertools.product((0, 1), repeat=3))


def _fd_scan_python(P, lo, shape, scale, interior):
    """Twin of ``Polytope._build_slice``: every box point against every
    chart facet, in Python ints."""
    least = 1 if interior else 0
    mask = np.zeros(shape, dtype=bool)
    for idx in itertools.product(*map(range, shape)):
        q = tuple(map(operator.add, lo, idx))
        mask[idx] = all(f.offset * scale - dot(f.normal, q) >= least
                        for f in P._fd_facets)
    return mask


def _points_by_rows(P, scale, lo, mask):
    """Twin of ``Polytope._points``: one chart point per true cell, mapped
    back and sorted."""
    return tuple(sorted(
        P._chart.from_chart(tuple(map(operator.add, lo, idx)), scale=scale)
        for idx in itertools.product(*map(range, mask.shape)) if mask[idx]))


@given(point_sets(max_size=8))
@example([(0, 0), (2, 0), (1, 0), (0, 2)])  # inside an edge
@example([tuple(2 * a for a in p) for p in _CUBE]
         + [(1, 1, 0), (1, 0, 2), (1, 1, 1)])  # inside a 2-face, an edge
@example([(0, 0), (1, 0), (0, 0), (0, 1), (1, 0), (1, 1), (0, 1)])
@example([tuple(2**40 + a for a in p) for p in _CUBE])
@example([tuple(2**60 + 2 * a for a in p) for p in _CUBE]
         + [(2**60 + 1,) * 3])  # tight masks on Python ints
@example([(-2,), (3,)])  # a segment in Z^1: the lines' base has shape ()
@example([(4, -7), (4, -7)])  # a point: dim 0
@example([(a, 2 * b, 3 * c) for a, b, c in _CUBE])  # facets with n_last = 0
@example([(-5, -1), (-1, -6), (-2, -2), (-7, -4)])  # r // c floors r < 0
@example([(x, y, z, 2 * x - y + 3 * z - 1)  # flat: the chart is no identity
          for x, y, z in [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2),
                          (1, 1, 1)]])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_slice_masks_and_vertices_match_their_twins(pts):
    P = Polytope.from_vertices(pts)
    for scale in range(1, 4):
        # the twins walk every box point in Python, and a flat hull's chart
        # box can be far larger than its ambient one
        if math.prod(P._box(1)[1]) * scale ** P.dim > 20_000:
            break
        for interior, guard in itertools.product(
                (False, True), (pmod._INT64_GUARD, 0)):
            lo, shape = P._box(scale)
            # a zero guard runs the same statements on Python ints
            with mock.patch.object(pmod, "_INT64_GUARD", guard):
                mask = P._build_slice(scale, interior, lo, shape)
                points = P._points(scale, lo, mask)
                # a window of the box reads the same cells as the whole box
                w_lo = tuple(a + n // 3 for a, n in zip(lo, shape))
                w_shape = tuple(max(1, n // 2) for n in shape)
                window = P._build_slice(scale, interior, w_lo, w_shape)
            assert (mask == _fd_scan_python(P, lo, shape, scale,
                                            interior)).all()
            assert points == _points_by_rows(P, scale, lo, mask)
            crop = tuple(slice(n // 3, n // 3 + m)
                         for n, m in zip(shape, w_shape))
            assert (window == mask[crop]).all()
    # a vertex is a point whose tight facet normals span the chart space
    spans = [p for p in sorted(set(pts))
             if P.dim == 0 or rank([f.normal for f in P._fd_facets
                                    if f.slack(P._chart.to_chart(p)) == 0])
             == P.dim]
    assert P.vertices == tuple(spans)


@st.composite
def mask_views(draw):
    """A mask of rank 0 to 5, empty, full, sparse or random, taken as it
    is, flipped on every axis (the ``-P`` operand of ``reduced_degree``)
    or sliced with a step."""
    shape = draw(st.lists(st.integers(1, 5), max_size=5).map(tuple))
    size = math.prod(shape)
    kind = draw(st.sampled_from(["empty", "full", "sparse", "random"]))
    if kind == "random":
        cells = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    else:
        cells = [kind == "full"] * size
        if kind == "sparse":
            for i in draw(st.lists(st.integers(0, size - 1), max_size=3)):
                cells[i] = True
    mask = np.array(cells, dtype=bool).reshape(shape)
    view = draw(st.sampled_from(["as is", "flipped", "sliced"]))
    if view == "flipped":
        return np.flip(mask)
    if view == "sliced":
        return mask[tuple(slice(draw(st.integers(0, n - 1)), None,
                                draw(st.integers(1, 2))) for n in shape)]
    return mask


@given(mask_views())
@example(np.array(True))
@example(np.array(False))
@example(np.flip(np.eye(4, 3, 1, dtype=bool)))
@example(np.ones((2, 1, 3, 1, 2), dtype=bool)[:, :, ::2])
@settings(max_examples=200, deadline=None)
def test_true_cells_match_argwhere(mask):
    cells = pmod._true_cells(mask)
    want = np.argwhere(mask)
    assert cells.shape == want.shape and cells.dtype == want.dtype
    assert (cells == want).all()


@given(point_sets(max_size=8))
@example([tuple(2**60 + a for a in p) for p in _CUBE])
@settings(max_examples=40, deadline=None)
def test_tight_form_masks_match_the_slack_loop(pts):
    P = Polytope.from_vertices(pts)
    pts = sorted(set(pts))
    want = [sum(1 << j for j, f in enumerate(P.facets) if f.slack(p) == 0)
            for p in pts]
    assert pmod._tight_form_masks(pts, P.facets) == want
    with mock.patch.object(pmod, "_INT64_GUARD", 0):  # the object route
        assert pmod._tight_form_masks(pts, P.facets) == want


def test_scan_falls_back_when_coordinates_are_huge():
    # far enough from the origin that the slice and the points are taken
    # on Python ints
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
    monkeypatch.setattr(pmod, "_placing", _never)
    with pytest.raises(ValueError,
                       match=r"1296 points .* = 1085871744 .* cap of 10000000"):
        Polytope.from_vertices(grid)


def test_oversized_vertex_search_is_refused_before_enumerating(monkeypatch):
    forms = [FacetForm((a, b, c, 1), 9) for a in range(-2, 3)
             for b in range(-2, 3) for c in range(-1, 3)]  # C(100, 4)
    # the rank check and the minors kernel
    for name in ("rank", "_cross_stack"):
        monkeypatch.setattr(pmod, name, _never)
    with pytest.raises(ValueError, match=r"C\(100, 4\) = .* cap of 1000000"):
        Polytope.from_inequalities(forms, 4)


def test_oversized_recession_search_is_refused_before_the_rank_check(
        monkeypatch):
    # C(23, 14) = 817190 vertex subsets pass the cap, the rays do not
    forms = [FacetForm(tuple(int(i == j) for j in range(14)), 1)
             for i in range(23)]
    for name in ("rank", "_cross_stack"):
        monkeypatch.setattr(pmod, name, _never)
    with pytest.raises(
            pmod.BudgetError,
            match=r"recession .* C\(23, 13\) = 1144066 .* cap of 1000000"):
        Polytope.from_inequalities(forms, 14)


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


def _from_inequalities_by_fractions(forms, m):
    """The vertex search on Fractions: a rank test per ``m - 1`` normals
    before their recession ray, ``solve_rational`` per ``m``-subset."""
    normals = [f.normal for f in forms]
    if rank(normals) < m:
        raise ValueError("unbounded polyhedron (normals do not span)")
    for rows in itertools.combinations(normals, m - 1):
        if m == 1 or rank(rows) == m - 1:
            ray = generalized_cross(rows, m) if m > 1 else (1,)
            for v in (ray, tuple(-a for a in ray)):
                if all(dot(n, v) <= 0 for n in normals):
                    raise ValueError("unbounded polyhedron (recession ray"
                                     f" {v})")
    candidates = set()
    for subset in itertools.combinations(forms, m):
        try:
            x = solve_rational([f.normal for f in subset],
                               [f.offset for f in subset])
        except ValueError:
            continue
        if x is not None and all(f.slack(x) >= 0 for f in forms):
            candidates.add(x)
    if not candidates:
        raise ValueError("infeasible system (no vertices)")
    bad = next((x for x in sorted(candidates)
                if any(c.denominator != 1 for c in x)), None)
    if bad is not None:
        raise ValueError(
            f"vertex {tuple(str(c) for c in bad)} is not a lattice point")
    return Polytope.from_vertices([tuple(map(int, x)) for x in candidates])


@st.composite
def form_lists(draw):
    """``(forms, m)``: up to 11 inequalities in Z^m, m <= 4, from the
    facets of a full-dimensional lattice hull (sometimes one dropped) or
    drawn at random, with random cuts, repeated and scaled forms, and half
    of the time translated by about 2^40 in each coordinate."""
    m = draw(st.integers(1, 4))
    forms = []
    if draw(st.integers(0, 3)):
        pts = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * m),
                            max_size=4))
        pts += [tuple(2 * (i == j) for j in range(m)) for i in range(m + 1)]
        forms = list(Polytope.from_vertices(pts).facets)
        if forms and not draw(st.integers(0, 3)):
            del forms[draw(st.integers(0, len(forms) - 1))]
    normals = st.tuples(*[st.integers(-3, 3)] * m)
    forms += draw(st.lists(st.builds(FacetForm, normals, st.integers(-6, 6)),
                           min_size=0 if forms else 1, max_size=3))
    for f, k in draw(st.lists(st.tuples(st.sampled_from(forms),
                                        st.integers(1, 3)), max_size=2)):
        forms.append(FacetForm(tuple(k * a for a in f.normal), k * f.offset))
    if draw(st.booleans()):
        t = [draw(st.sampled_from((-1, 1))) * 2**40 + draw(st.integers(-3, 3))
             for _ in range(m)]
        forms = [FacetForm(f.normal, f.offset + dot(f.normal, t))
                 for f in forms]
    return draw(st.permutations(forms[:11])), m


_BIG_EXAMPLE2 = ([FacetForm(f.normal, f.offset + 2**61 * sum(f.normal))
                  for f in families.example2(3).facets], 3)
# unbounded along (0, 1), with the vertex (1/2, 0): the ray is reported
_RAY_AND_HALF = ([FacetForm((2, -1), 1), FacetForm((-1, 0), 0),
                  FacetForm((0, -1), 0)], 2)


def _vertices_or_message(build):
    try:
        return build().vertices
    except ValueError as e:
        return str(e)


@given(form_lists())
@example(([FacetForm(f.normal, f.offset + 2**40 * sum(f.normal))
           for f in families.example2(3).facets], 3))
@example(([FacetForm((1, 0), 1), FacetForm((0, 1), 1), FacetForm((-1, 0), 0),
           FacetForm((0, -1), 0), FacetForm((1, 0), 1),
           FacetForm((2, 0), 2), FacetForm((1, 1), 5)], 2))
@example(([FacetForm((2, 1), 1), FacetForm((-1, 0), 0),
           FacetForm((0, -1), 0)], 2))  # vertex (1/2, 0)
@example(([FacetForm((1,), 0), FacetForm((-1,), -1)], 1))  # infeasible
@example(([FacetForm((-1, 0), 0), FacetForm((0, -1), 0)], 2))  # a ray
@example(_BIG_EXAMPLE2)  # offsets past 2^60: the Python-int route
@example(([FacetForm((1, 0), 1), FacetForm((-1, 0), 0), FacetForm((0, 1), 1),
           FacetForm((0, -1), 0), FacetForm((2**62, 1), 2**62 + 1)],
          2))  # a normal past 2^60
@example(_RAY_AND_HALF)
@example(([FacetForm((1, 0), 0), FacetForm((-1, 0), -1),
           FacetForm((0, 1), 0)], 2))  # infeasible, with the ray (0, -1)
@example(([FacetForm((1,), 1)], 1))  # a half-line: the ray (-1,)
@example(([FacetForm((2**62, -1), 0), FacetForm((-1, 0), 0)],
          2))  # the ray (1, 2**62), on Python ints
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_vertex_search_matches_the_fraction_search(case):
    forms, m = case
    assert (_vertices_or_message(lambda: Polytope.from_inequalities(forms, m))
            == _vertices_or_message(
                lambda: _from_inequalities_by_fractions(forms, m)))


@pytest.mark.parametrize("case", [
    (list(families.example2(4).facets), 4),  # C(9, 3) = 84 rays
    _BIG_EXAMPLE2,
    _RAY_AND_HALF,
    # the only ray, (0, 0, -1), is the last of the C(5, 2) = 10
    ([FacetForm((1, 0, 0), 1), FacetForm((0, 1, 0), 1),
      FacetForm((-1, 0, 0), 0), FacetForm((0, -1, 0), 0),
      FacetForm((0, 0, 1), 0)], 3),
    ([FacetForm((2, 1, 0), 1), FacetForm((-1, 0, 0), 0),
      FacetForm((0, -1, 0), 0), FacetForm((0, 0, 1), 1),
      FacetForm((0, 0, -1), 0)], 3),  # vertex (1/2, 0, 0)
])
def test_vertex_search_is_the_same_in_any_chunk_size(case, monkeypatch):
    forms, m = case
    want = _vertices_or_message(lambda: Polytope.from_inequalities(forms, m))
    for size in (1, 3):
        monkeypatch.setattr(pmod, "_CHUNK", size)
        assert _vertices_or_message(
            lambda: Polytope.from_inequalities(forms, m)) == want


# a plane of 9 points placed before the jump to (1, 0, 0), then (2, 1, 1)
_JUMP_AFTER_PLACED = ([(0, y, z) for y in range(3) for z in range(3)]
                      + [(1, 0, 0), (2, 1, 1)])
# a 4-simplex of normalized volume 12 on a lattice hyperplane of Z^5
_LIFTED_SIMPLEX = [p + (p[0] - p[1] + 3 * p[2] + 2 * p[3] + 1,)
                   for p in [(0, 0, 0, 0), (2, 0, 0, 0), (0, 3, 0, 0),
                             (0, 0, 1, 0), (1, 1, 1, 2)]]
_FAR_SIMPLEX = [(2**61, 0, 0), (2**61 + 2, 0, 0), (2**61, 1, 0),
                (2**61 + 1, 1, 3)]


@given(point_sets(max_size=10))
@example(list(itertools.product(range(3), repeat=3)))
@example(list(families.example2(4).vertices))
@example([(x, y, x + 2 * y + 1) for x in range(3) for y in range(3)])
@example([tuple(2**40 * a for a in p)  # pencil planes past 2^60
          for p in itertools.product(range(3), repeat=3)])
@example([(2**40 + x, 2**41 - y, 3 * x + y) for x in range(3)
          for y in range(3)] + [(2**40 + 1, 2**41 - 1, 2**40)])
@example(_JUMP_AFTER_PLACED)
@example(_LIFTED_SIMPLEX)
@example(_FAR_SIMPLEX)
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hull_matches_the_subset_search(pts):
    # the examples have many coplanar boundary simplices per facet
    P = Polytope.from_vertices(pts)
    assert (P.vertices, P.facets, P._fd_facets) == _hull_by_subsets(pts)


@pytest.mark.parametrize("pts", [
    _JUMP_AFTER_PLACED, _LIFTED_SIMPLEX, _FAR_SIMPLEX,
    list(families.example2(4).vertices),
    list(itertools.product(range(3), repeat=3)),
])
def test_construction_takes_no_subset_elimination(pts, monkeypatch):
    """Placing takes one ``_facet_form`` per dimension jump, and the
    inequality route no ``generalized_cross`` and no elimination but the
    rank check's."""
    forms = []
    facet_form = pmod._facet_form
    monkeypatch.setattr(pmod, "_facet_form",
                        lambda *a: forms.append(a) or facet_form(*a))
    P = Polytope.from_vertices(pts)
    assert len(forms) == P.dim
    calls = []
    row_reduce, rank_ = exactmath._row_reduce, pmod.rank
    monkeypatch.setattr(exactmath, "_row_reduce",
                        lambda *a: calls.append("_row_reduce")
                        or row_reduce(*a))
    monkeypatch.setattr(pmod, "rank",
                        lambda M: calls.append("rank") or rank_(M))
    monkeypatch.setattr(pmod, "generalized_cross", _never)
    monkeypatch.setattr(Polytope, "from_vertices",
                        classmethod(lambda cls, points, name=None:
                                    tuple(sorted(points))))
    if P.dim == P.ambient_dim:
        assert Polytope.from_inequalities(P.facets, P.dim) == P.vertices
        assert calls == ["rank", "_row_reduce"]


# ------------------------------------------------------------- point queries

def test_classify_point_cases(unit_square):
    assert unit_square.classify_point((1, 1), scale=2) == "interior"
    assert unit_square.classify_point((0, 1), scale=2) == "boundary"
    assert unit_square.classify_point((3, 1), scale=2) == "outside"
    assert unit_square.classify_point((0, 0), scale=0) == "interior"
    assert unit_square.classify_point((1, 0), scale=0) == "outside"
    assert unit_square.classify_point((1, 1)) != "outside"
    assert unit_square.classify_point((2, 0)) == "outside"
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
