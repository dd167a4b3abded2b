"""Tests for placing/full/interior-respecting triangulations, stellar
subdivision, and the disjoint interior-cone covering checker."""

import functools
import itertools
import operator
import random
import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import polycanon.checks as checks_mod
import polycanon.exactmath as emod
import polycanon.simplex as smod
import polycanon.triangulation as tmod
from polycanon import families
from polycanon.checks import _empty_cells, default_corpus
from polycanon.exactmath import (
    build_chart,
    det_bareiss,
    det_cofactor,
    dot,
    generalized_cross,
    vsub,
)
from polycanon.polytope import BudgetError, Polytope, _facet_form
from polycanon.simplex import SimplexConeSlicer
from polycanon.triangulation import (
    DecompositionResult,
    Triangulation,
    _cover_arrays,
    _cover_degree,
    _interior_faces,
    _placing,
    full_lattice_triangulation,
    interior_faces,
    interior_respecting_triangulation,
    placing_triangulation,
    total_normalized_volume,
    verify_decomposition,
)
from smith_boxes import HalfOpenBox


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


def test_tight_masks_are_built_once_per_point_list(monkeypatch):
    # the fine and the interior-respecting triangulations share their
    # points, so the interior faces of both read one list of masks
    calls = []
    build = tmod._tight_form_masks
    monkeypatch.setattr(tmod, "_tight_form_masks",
                        lambda *args: calls.append(args) or build(*args))
    P = families.example2(3)
    S = interior_respecting_triangulation(P)
    interior_faces(S, P)
    interior_faces(full_lattice_triangulation(P), P)
    assert len(calls) == 1
    assert tmod._tight_masks(S, P) == [
        sum(1 << j for j, f in enumerate(P.facets) if f.slack(p) == 0)
        for p in S.points]


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

def stellar_subdivide(T, x):
    """Insert ``x`` as a new vertex of ``T`` through the one-table
    ``_stellar_insert``, splitting every cell containing it."""
    x = tuple(x)
    if x in T.points:
        raise ValueError(f"{x} is already a vertex")
    chart = build_chart(list(T.points))
    if not chart.in_affine_hull(x):
        raise ValueError("point to insert is outside the triangulated region")
    points = tuple(sorted(T.points + (x,)))
    index = {p: i for i, p in enumerate(points)}
    cells = sorted(tuple(sorted(index[T.points[i]] for i in c))
                   for c in T.cells)
    cells = tmod._stellar_insert([chart.to_chart(p) for p in points], cells,
                                 [index[x]])
    return Triangulation(points=points, cells=tuple(sorted(cells)))


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


def test_interior_faces_name_points_of_another_length(unit_cube):
    T = full_lattice_triangulation(families.unit_cube(2))
    with pytest.raises(ValueError, match="length 2, .* dimension is 3"):
        interior_faces(T, unit_cube)


def test_verify_decomposition_names_points_of_another_length(unit_square):
    T = full_lattice_triangulation(families.unit_cube(3))
    with pytest.raises(ValueError, match="length 3, .* dimension is 2"):
        verify_decomposition(T, unit_square, 2)


# the second cell repeats a point of the first in place of one of its own
_RAGGED = Triangulation(points=((0, 0), (0, 1), (1, 0), (1, 1)),
                        cells=((0, 1, 2), (1, 2), (1, 2, 3)))


def test_interior_faces_name_cells_of_another_length(unit_square):
    with pytest.raises(ValueError, match=r"cell \(1, 2\) has 2 points, but"
                       r" its first cell \(0, 1, 2\) has 3"):
        interior_faces(_RAGGED, unit_square)


def test_verify_decomposition_names_cells_of_another_length(unit_square):
    with mock.patch.object(tmod, "_face_groups", _never), \
            pytest.raises(ValueError, match=r"cell \(1, 2\) has 2 points"):
        verify_decomposition(_RAGGED, unit_square, 2)


def _never(*args, **kwargs):
    raise AssertionError("a scan started")


_TRIANGLE = Polytope.from_vertices([(0, 0), (2, 0), (0, 2)])


def test_interior_faces_name_cells_with_a_negative_index():
    # numpy would read -1 as the last point
    T = Triangulation(_TRIANGLE.lattice_points(1), ((0, 1, -1),))
    for check in (lambda: interior_faces(T, _TRIANGLE),
                  lambda: verify_decomposition(T, _TRIANGLE, 2)):
        with pytest.raises(ValueError, match=r"cell \(0, 1, -1\) has an index"
                           r" outside 0\.\.5, the indices of its 6 points"):
            check()


def test_interior_faces_name_cells_with_an_index_past_the_points():
    T = Triangulation(_TRIANGLE.lattice_points(1), ((0, 1, 99),))
    for check in (lambda: interior_faces(T, _TRIANGLE),
                  lambda: verify_decomposition(T, _TRIANGLE, 2)):
        with pytest.raises(ValueError, match=r"cell \(0, 1, 99\) has an index"
                           r" outside 0\.\.5"):
            check()


def test_interior_faces_need_a_cell():
    T = Triangulation(_TRIANGLE.lattice_points(1), ())
    for check in (lambda: interior_faces(T, _TRIANGLE),
                  lambda: verify_decomposition(T, _TRIANGLE, 2)):
        with pytest.raises(ValueError, match="^triangulation has no cells$"):
            check()


def test_verify_decomposition_refuses_an_oversized_top_degree(monkeypatch):
    P = Polytope.from_vertices([(0, 0), (4, 0), (0, 4)])
    T = full_lattice_triangulation(P)
    monkeypatch.setattr(Polytope, "_scan", _never)
    monkeypatch.setattr(Polytope, "_slice", _never)
    with pytest.raises(ValueError, match="cap of 40000000"):
        verify_decomposition(T, P, 100000)


# ----------------------------------------- fast paths against slow twins

# the 4-simplex of the CI covering step: its coverings read 31 and 38 cell
# boxes of up to 20 points each
_SIMPLEX_D4 = Polytope.from_vertices([(0, 0, 0, 0), (5, 0, 0, 0), (0, 3, 0, 0),
                                      (1, 1, 4, 0), (1, 2, 1, 3)])
# hulls whose fine triangulations have 1 (unimodular), 1 (a box of two
# points), 2 and 3 cells
_FEW_CELLS = [Polytope.from_vertices([(0, 0), (1, 0), (0, 1)]),
              Polytope.from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0),
                                      (1, 1, 2)]),
              Polytope.from_vertices([(0, 0), (2, 0), (0, 1)]),
              Polytope.from_vertices([(0, 0, 0), (1, 0, 0), (0, 1, 0),
                                      (0, 0, 3)])]


def _lifted_square(t):
    """The 6x6 square lifted onto a plane of Z^3, translated by ``t`` in
    every coordinate: its chart subtracts the translation, so the chart
    coordinates stay small while the ambient points can be past int64."""
    return Polytope.from_vertices(
        [(t, t, t + 1), (t + 6, t, t + 7), (t, t + 6, t - 5),
         (t + 6, t + 6, t + 1)])


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


def _free_facets(cells):
    """Cell facets lying in exactly one of ``cells`` (sorted index tuples):
    the boundary of the region they triangulate, recounted from the
    cells."""
    count = Counter(f for c in cells
                    for f in itertools.combinations(c, len(c) - 1))
    return [f for f, k in count.items() if k == 1]


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


def _interior_faces_by_dict(T, P):
    """``(faces, owner)`` built face by face: every cell's index
    combinations in cell order, each face owned by the first cell that
    contains it, faces on the boundary dropped."""
    masks = tmod._tight_masks(T, P)
    owner = {}
    for cell in T.cells:
        for r in range(1, len(cell) + 1):
            for f in itertools.combinations(cell, r):
                if f not in owner:
                    # on the boundary iff some facet is tight at every point
                    tight = functools.reduce(operator.and_,
                                             (masks[i] for i in f))
                    owner[f] = None if tight else cell
    owner = {f: c for f, c in owner.items() if c is not None}
    return tuple(sorted(owner, key=lambda f: (len(f), f))), owner


def _owners(T, faces):
    """The owning cell of every face of the :func:`_interior_faces` arrays,
    in their order.  Each face's row is its points padded with
    ``len(T.points)``, and its subset row gives its positions in its
    owner."""
    at = tmod._subset_table(faces.F.shape[1])[0]
    out = {}
    for f, o, s, n in zip(faces.F.tolist(), faces.owner.tolist(),
                          faces.subset.tolist(), faces.size.tolist()):
        cell = T.cells[o]
        assert f[n:] == [len(T.points)] * (len(f) - n)
        assert f[:n] == [cell[j] for j in at[s, :n]]
        out[tuple(f[:n])] = cell
    return out


def _empty_by_signs(P, cells):
    """Per cell of ``P`` (its points), whether no lattice point of ``P``
    but its vertices lies in it.  In chart coordinates, with ``E`` the
    edges ``v_j - v_0`` as rows and ``D = det E``, a point ``q`` has
    barycentric coordinates ``mu = (q - v_0) adj(E) / D`` and
    ``1 - sum(mu)``; it lies in the cell iff each, times ``D^2``, is
    ``>= 0``.  Column ``j`` of ``adj(E)`` is row ``j`` of the cofactor
    matrix, so every sign is an exact integer product."""
    chart = P._chart
    Q = np.array([chart.to_chart(q) for q in P.lattice_points(1)],
                 dtype=object).reshape(-1, P.dim)
    out = []
    for cp in cells:
        v = [chart.to_chart(p) for p in cp]
        E = [vsub(a, v[0]) for a in v[1:]]
        n = len(E)
        cof = np.array([[(-1) ** (i + j) * det_cofactor(
            [r[:i] + r[i + 1:] for k, r in enumerate(E) if k != j])
            for i in range(n)] for j in range(n)], dtype=object)
        D = det_cofactor(E)
        mu = (Q - np.array(v[0], dtype=object)) @ cof.reshape(n, n).T
        bary = np.concatenate([D - mu.sum(axis=1, keepdims=True), mu],
                              axis=1)
        inside = (bary * D >= 0).all(axis=1)
        out.append(int(np.count_nonzero(inside)) == len(cp))
    return out


@given(hulls(), st.randoms(use_true_random=False))
@example(families.reeve_simplex(3), random.Random(0))
@example(Polytope.from_vertices(  # pencil planes on Python ints past 2^60
    [(x + 2**40, y - 2**40, 2**40 + x + 2 * y)
     for x, y in families.example2(2).vertices]), random.Random(1))
@example(Polytope.from_vertices(  # jumps after placed points
    [(0, y, z) for y in range(3) for z in range(3)] + [(1, 0, 0), (2, 1, 1)]),
    random.Random(2))
@example(Polytope.from_vertices(  # a lifted 4-simplex
    [p + (p[0] - p[1] + 3 * p[2] + 2 * p[3] + 1,)
     for p in [(0, 0, 0, 0), (2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 1, 0),
               (1, 1, 1, 2)]]), random.Random(3))
@example(Polytope.from_vertices(  # a simplex past the int64 guard
    [(2**61, 0, 0), (2**61 + 2, 0, 0), (2**61, 1, 0), (2**61 + 1, 1, 3)]),
    random.Random(4))
@example(_SIMPLEX_D4, random.Random(5))
@example(_FEW_CELLS[0], random.Random(6))
@example(_FEW_CELLS[1], random.Random(7))
@example(_FEW_CELLS[2], random.Random(8))
@example(_FEW_CELLS[3], random.Random(9))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_triangulation_layer_matches_its_twins(P, rnd):
    assume(P.dim >= 1)
    pts = list(P.lattice_points(1))
    # in lex order every point is a vertex of the hull placed so far
    cells, skipped = _placing_by_recount(pts)
    assert skipped == () and _placing(pts)[0] == cells
    shuffled = rnd.sample(pts, len(pts))
    cells, skipped = _placing_by_recount(shuffled)
    if skipped:
        with pytest.raises(AssertionError, match="sees no facet"):
            _placing(shuffled)
    else:
        assert _placing(shuffled)[0] == cells
    # placing cells span only vertices, so some of them are not empty
    lift = {p: P._chart.to_chart(p) + (1,) for p in pts}
    placing = placing_triangulation(P)
    cps = [placing.cell_points(cell) for cell in placing.cells]
    assert _empty_cells([[lift[p] for p in cp] for cp in cps]) == \
        _empty_by_signs(P, cps)
    tris = [full_lattice_triangulation(P)]
    if P.dim >= 2 and P.interior_lattice_points(1):
        tris.append(interior_respecting_triangulation(P))
    for T in tris:
        faces = interior_faces(T, P)
        assert faces == _interior_faces_by_slack(T, P)
        want = _interior_faces_by_dict(T, P)
        arrays = _interior_faces(T, P)
        assert (faces, _owners(T, arrays)) == want
        # the packed key on Python ints past its guard
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tmod, "_INT64_GUARD", 0)
            arrays = tmod._face_groups(arrays.cells, len(T.points),
                                       tmod._tight_masks(T, P))
        owner = _owners(T, arrays)
        assert (tuple(owner), owner) == want
        reps = {f: HalfOpenBox(T.cell_points(f)).face_reps(range(len(f)))
                for f in faces}
        cps = [T.cell_points(cell) for cell in T.cells]
        assert _empty_cells([[lift[p] for p in cp] for cp in cps]) == \
            _empty_by_signs(P, cps)
        for cell, cp in zip(T.cells, cps):
            box = HalfOpenBox(cp)
            for r in range(1, len(cell) + 1):
                for f in itertools.combinations(cell, r):
                    if f in reps:
                        got = box.face_reps([cell.index(i) for i in f])
                        assert got == reps[f], (cell, f)


@given(hulls())
@example(Polytope.from_vertices(  # jumps after placed points
    [(0, y, z) for y in range(3) for z in range(3)] + [(1, 0, 0), (2, 1, 1)]))
@example(Polytope.from_vertices(  # a simplex past the int64 guard
    [(2**61, 0, 0), (2**61 + 2, 0, 0), (2**61, 1, 0), (2**61 + 1, 1, 3)]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fine_boundary_is_the_free_facet_recount(P):
    assume(P.dim >= 1)
    T, boundary = tmod._fine(P)
    assert T is full_lattice_triangulation(P)
    assert boundary == sorted(_free_facets(T.cells))
    # each boundary simplex lies on its plane, and the plane on a facet
    planes = _placing(T.points)[1]
    assert sorted(planes) == boundary
    masks = tmod._tight_masks(T, P)
    for f, (n, o) in planes.items():
        assert all(dot(n, T.points[i]) == o for i in f)
        assert all(dot(n, p) >= o for p in T.points)
        assert functools.reduce(operator.and_, (masks[i] for i in f))


@given(hulls())
@example(Polytope.from_vertices(  # jumps after placed points
    [(0, y, z) for y in range(3) for z in range(3)] + [(1, 0, 0), (2, 1, 1)]))
@example(Polytope.from_vertices(  # a lifted square, 25 points inside
    [(0, 0, 1), (6, 0, 7), (0, 6, -5), (6, 6, 1)]))
@example(Polytope.from_vertices(  # the same translated past the int64 guard
    [(2**61, 2**61, 2**61 + 1), (2**61 + 6, 2**61, 2**61 + 7),
     (2**61, 2**61 + 6, 2**61 - 5), (2**61 + 6, 2**61 + 6, 2**61 + 1)]))
@example(Polytope.from_vertices(  # a simplex past the int64 guard
    [(2**61, 0, 0), (2**61 + 2, 0, 0), (2**61, 1, 0), (2**61 + 1, 1, 3)]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_boundary_pass_is_the_fine_boundary(P):
    # placing the boundary points alone gives the boundary of the placing
    # pass over every lattice point, mapped back to the same indices
    assume(P.dim >= 1)
    pts = P.lattice_points(1)
    interior = P.interior_lattice_points(1)
    got = tmod._boundary_simplices(pts, interior)
    T, want = tmod._fine(P)
    assert got == want
    assert {frozenset(T.cell_points(f)) for f in got} == \
        {frozenset(T.cell_points(f)) for f in _free_facets(T.cells)}
    inside = set(interior)
    assert not any(pts[i] in inside for f in got for i in f)


def test_interior_respecting_takes_no_fine_pass(monkeypatch):
    # cold: one placing pass over the boundary points, no fine
    # triangulation; warm: the fine triangulation's boundary, no pass
    for vertices in ([(0, 0, 1), (6, 0, 7), (0, 6, -5), (6, 6, 1)],
                     families.example2(3).vertices):
        P = Polytope.from_vertices(vertices)
        passes = []
        placing = tmod._placing
        with monkeypatch.context() as mp:
            mp.setattr(tmod, "_fine", _never)
            mp.setattr(tmod, "full_lattice_triangulation", _never)
            mp.setattr(tmod, "_placing",
                       lambda pts: passes.append(pts) or placing(pts))
            cold = interior_respecting_triangulation(P)
        inside = set(P.interior_lattice_points(1))
        assert passes == [[p for p in P.lattice_points(1) if p not in inside]]
        Q = Polytope.from_vertices(vertices)
        full_lattice_triangulation(Q)
        with monkeypatch.context() as mp:
            mp.setattr(tmod, "_placing", _never)
            warm = interior_respecting_triangulation(Q)
        assert warm == cold
        assert cold.cells == tuple(_insert_by_cells(*_stellar_cases(P)[0]))


def _box_fits(P, scale):
    """Whether the chart box of the dilate is under ``BOX_POINT_CAP``; a
    flat hull's chart box can be far larger than its ambient one."""
    try:
        P._box(scale)
    except ValueError:
        return False
    return True


def _degree_by_points(slicers, P, k):
    """One degree of the covering walked point by point as a set of tuples:
    the first point covered twice or outside the interior, in face order,
    else the least point not covered."""
    target = {p + (k,) for p in P.interior_lattice_points(k)}
    seen = set()
    for sl in slicers:
        for y in sl.interior_points(k):
            if y in seen:
                return DecompositionResult(False, k, y, "covered twice")
            if y not in target:
                return DecompositionResult(False, k, y,
                                           "point outside the interior")
            seen.add(y)
    if seen != target:
        return DecompositionResult(False, k, min(target - seen),
                                   "point not covered")
    return DecompositionResult(ok=True)


class SmithSlicer(SimplexConeSlicer):
    """:class:`SimplexConeSlicer` with its box from the Smith-form twin."""

    def __init__(self, points):
        box = HalfOpenBox(points)
        self.lifted = box.lifted
        self._reps = box.face_reps(range(len(box.lifted)))


def _cover_loop(T, P, kmax, faces, owner):
    """The covering over ``faces`` walked point by point, with one Smith
    form per face."""
    for f in faces:
        try:
            HalfOpenBox(T.cell_points(owner[f]))
        except ValueError:
            return DecompositionResult(ok=False, reason="degenerate face")
    slicers = [SmithSlicer(T.cell_points(f)) for f in faces]
    for k in range(1, kmax + 1):
        res = _degree_by_points(slicers, P, k)
        if not res:
            return res
    return DecompositionResult(ok=True)


@given(hulls())
@example(families.reeve_simplex(3))
@example(Polytope.from_vertices([(0, 0, 1), (3, 0, 4), (0, 2, 3)]))
@example(_SIMPLEX_D4)
@example(_FEW_CELLS[0])
@example(_FEW_CELLS[1])
@example(_FEW_CELLS[2])
@example(_FEW_CELLS[3])
@example(_lifted_square(2**30))
@example(_lifted_square(2**61))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_count_mask_covering_matches_the_point_loop(P):
    assume(P.dim >= 1)
    kmax = P.dim + 2
    assume(_box_fits(P, kmax))
    tris = [full_lattice_triangulation(P), placing_triangulation(P)]
    if P.dim >= 2 and P.interior_lattice_points(1):
        tris.append(interior_respecting_triangulation(P))
    for T in tris:
        faces, owner = _interior_faces_by_dict(T, P)
        slicers = [SmithSlicer(T.cell_points(f)) for f in faces]
        cover = _cover_arrays(T, P)
        for k in range(1, kmax + 1):
            assert _cover_degree(cover, P, k) == \
                _degree_by_points(slicers, P, k)
        assert verify_decomposition(T, P, kmax) == _cover_loop(
            T, P, kmax, faces, owner)


def _groups_by_boxes(T, P):
    """The count groups built face by face: every interior face's box read
    off its owning cell's :class:`HalfOpenBox` on ambient points, its points
    and generators stacked by ``(n, h)`` with the face's index, then lifted
    into chart coordinates in one product."""
    chart = P._chart
    faces, owner = _interior_faces_by_dict(T, P)
    boxes, pairs = {}, {}
    for i, f in enumerate(faces):
        cell = owner[f]
        if cell not in boxes:
            boxes[cell] = HalfOpenBox(T.cell_points(cell))
        box = boxes[cell]
        at = [cell.index(v) for v in f]
        for h, y in box.face_reps(at):
            reps, gens, index = pairs.setdefault((len(f), h), ([], [], []))
            reps.append(y)
            gens.append([box.lifted[j] for j in at])
            index.append(i)
    lift = np.array([(*c, -dot(chart.origin, c))
                     for c in (*chart.proj_cols, *chart.comp_cols)],
                    dtype=object).T
    return {key: (np.array(reps, dtype=object) @ lift,
                  np.array(gens, dtype=object) @ lift, np.array(index))
            for key, (reps, gens, index) in pairs.items()}


def _sorted_rows(groups):
    """Per ``(n, h)``, each point with its generators and its face's index
    as one sorted row."""
    return {key: sorted(r + g + [i] for r, g, i in zip(
                R.tolist(), G.reshape(len(G), -1).tolist(), I.tolist()))
            for key, (R, G, I) in groups.items()}


@given(hulls())
@example(families.reeve_simplex(3))
@example(Polytope.from_vertices([(0, 0, 1), (3, 0, 4), (0, 2, 3)]))
@example(_SIMPLEX_D4)
@example(_FEW_CELLS[0])
@example(_FEW_CELLS[1])
@example(_FEW_CELLS[2])
@example(_FEW_CELLS[3])
@example(_lifted_square(2**30))
@example(_lifted_square(2**61))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cover_arrays_match_the_per_face_groups(P):
    assume(P.dim >= 1)
    tris = [full_lattice_triangulation(P), placing_triangulation(P)]
    if P.dim >= 2 and P.interior_lattice_points(1):
        tris.append(interior_respecting_triangulation(P))
    for T in tris:
        bound, groups = _cover_arrays(T, P)
        assert _sorted_rows(groups) == _sorted_rows(_groups_by_boxes(T, P))
        assert all(bound >= int(np.abs(A).max(initial=0))
                   for R, G, _ in groups.values() for A in (R, G))
    # past the int64 guard the same statements run on Python ints
    kmax = P.dim + 1
    if _box_fits(P, kmax):
        want = verify_decomposition(tris[0], P, kmax)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tmod, "_INT64_GUARD", 0)
            bound, groups = _cover_arrays(tris[0], P)
            assert all(R.dtype == object for R, _, _ in groups.values())
            assert _sorted_rows(groups) == \
                _sorted_rows(_groups_by_boxes(tris[0], P))
            assert verify_decomposition(tris[0], P, kmax) == want


def test_coverings_and_checks_take_no_smith_form(monkeypatch):
    """Every box of the covering check and of the check suite comes from
    the batched enumerator: on full-dimensional hulls the unimodularity
    test alone takes a Smith form."""
    K = 2**20
    polys = [
        # Z/2 x Z/2, and Z/6 with no single generating row
        Polytope.from_vertices([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 1)]),
        Polytope.from_vertices([(0, 0), (2, 0), (0, 3)]),
        Polytope.from_vertices(families.reeve_simplex(13).vertices),
        # its coverings read boxes of 12 points
        Polytope.from_vertices([(0, 1, -3, 3), (1, 3, -5, 1), (1, 4, -2, 1),
                                (4, 2, -1, 1), (1, 4, -4, 4), (4, 2, -1, 4)]),
    ]
    # Z/2 x Z/2 sheared past the int64 guard: too big to scan
    shear = Polytope.from_vertices([(x, y + K * x, z + K * y) for x, y, z in
                                    [(0, 0, 0), (2, 0, 0), (0, 2, 0),
                                     (0, 0, 1)]])
    real = emod.smith_normal_form

    def spy(M):
        if sys._getframe(1).f_code.co_name != "is_unimodular":
            raise AssertionError("a Smith form was taken")
        return real(M)

    with monkeypatch.context() as mp:
        mp.setattr(emod, "smith_normal_form", spy)
        mp.setattr(smod, "smith_normal_form", spy)
        for P in polys:
            tris = [placing_triangulation(P), full_lattice_triangulation(P)]
            if P.interior_lattice_points(1):
                tris.append(interior_respecting_triangulation(P))
            for T in tris:
                assert verify_decomposition(T, P, P.dim + 2)
            assert checks_mod.check_polytope(P) == []
        T = placing_triangulation(shear)
        _, groups = _cover_arrays(T, shear)
        with pytest.raises(BudgetError):
            verify_decomposition(T, shear, shear.dim + 2)
        with pytest.raises(BudgetError):
            checks_mod.check_polytope(shear)
    assert _sorted_rows(groups) == _sorted_rows(_groups_by_boxes(T, shear))


def test_cover_arrays_keep_points_off_the_hull():
    # one cell of normalized volume 6 in Z^3, moved along a direction the
    # chart does not see: same chart coordinates, every point off the hull
    P = Polytope.from_vertices([(0, 0, 1), (3, 0, 4), (0, 2, 3)])
    v = next(v for v in itertools.product(range(-2, 3), repeat=3)
             if not any(dot(v, c) for c in P._chart.proj_cols)
             and any(dot(v, c) for c in P._chart.comp_cols))
    T = placing_triangulation(P)
    M = Triangulation(tuple(tuple(a + b for a, b in zip(p, v))
                            for p in T.points), T.cells)
    _, groups = _cover_arrays(M, P)
    assert _sorted_rows(groups) == _sorted_rows(_groups_by_boxes(M, P))
    # every box point keeps its coordinate across the hull
    assert all(R[:, P.dim:].all() for R, _, _ in groups.values())
    faces, owner = _interior_faces_by_dict(M, P)
    res = verify_decomposition(M, P, 3)
    assert res.reason == "point outside the interior"
    assert res == _cover_loop(M, P, 3, faces, owner)


def _no_slicer(*args, **kwargs):
    raise AssertionError("a slicer was built")


def test_passing_covering_builds_no_slicer(monkeypatch):
    """A covering that holds is counted alone: no slicer is built and no
    degree is walked for a bad point."""
    polys = [families.example2(3), families.reeve_simplex(3),
             families.unit_cube(3),
             Polytope.from_vertices([(0, 0, 1), (3, 0, 4), (0, 2, 3)])]
    tris = [(P, T) for P in polys
            for T in (full_lattice_triangulation(P),
                      placing_triangulation(P))]
    # cells with a box beyond the origin are among them
    assert any(abs(v) > 1 for P, T in tris for v in tmod.det_stack(
        [[P._chart.to_chart(T.points[i]) + (1,) for i in c]
         for c in T.cells]))
    monkeypatch.setattr(SimplexConeSlicer, "__init__", _no_slicer)
    monkeypatch.setattr(tmod, "_first_bad_point", _no_slicer)
    for P, T in tris:
        assert verify_decomposition(T, P, P.dim + 2)


def _mutants(T):
    """``T`` with its first, middle or last cell dropped, and with one of
    them listed twice."""
    cells = list(T.cells)
    picks = sorted({0, len(cells) // 2, len(cells) - 1})
    out = [Triangulation(T.points, tuple(sorted(cells + [cells[i]])))
           for i in picks]
    if len(cells) > 1:
        out += [Triangulation(T.points, tuple(cells[:i] + cells[i + 1:]))
                for i in picks]
    return out


def test_mutated_coverings_match_the_point_loop(monkeypatch):
    square = ((0, 0), (0, 1), (1, 0), (1, 1))
    polys = [families.unit_cube(2), families.example2(2),
             families.example2(3), families.reeve_simplex(2),
             *default_corpus(seed=3, count=12, dims=(2, 3))]
    trusted = [
        # overlapping cells cover the diagonal twice
        (polys[0], Triangulation(square, ((0, 1, 2), (0, 1, 3), (1, 2, 3)))),
        # a cell outside the square: its open edge leaves the interior
        (polys[0], Triangulation(square + ((2, 0),),
                                 ((0, 1, 2), (1, 2, 3), (2, 3, 4)))),
    ]
    # a flat triangle's fine triangulation moved off its affine hull along
    # a direction the chart does not see: same chart coordinates, no point
    # of the cone on the hull
    flat = Polytope.from_vertices([(0, 0, 0), (3, 0, 3), (0, 3, 3)])
    v = next(v for v in itertools.product(range(-2, 3), repeat=3)
             if not any(dot(v, c) for c in flat._chart.proj_cols)
             and any(dot(v, c) for c in flat._chart.comp_cols))
    T = full_lattice_triangulation(flat)
    trusted.append((flat, Triangulation(
        tuple(tuple(a + b for a, b in zip(p, v)) for p in T.points),
        T.cells)))
    # four points of the square in one cell are affinely dependent
    trusted.append((polys[0], Triangulation(square, ((0, 1, 2, 3),))))
    # every cell without its last vertex: cells of d points
    trusted += [(P, Triangulation(T.points, tuple(sorted(
                    c[:-1] for c in T.cells))))
                for P in polys for T in [full_lattice_triangulation(P)]]
    # a hull shifted by 2^70: the failing degrees run on Python ints
    shifted = Polytope.from_vertices(
        [(x + 2**70, y - 2**70) for x, y in families.example2(2).vertices])
    cases = trusted + [(P, M) for P in polys + [shifted]
                       for M in _mutants(full_lattice_triangulation(P))]
    reasons = set()
    for P, M in cases:
        kmax = P.dim + 2
        faces, owner = _interior_faces_by_dict(M, P)
        res = verify_decomposition(M, P, kmax)
        assert res == _cover_loop(M, P, kmax, faces, owner)
        reasons.add(res.reason)
    for P in polys:
        # each interior face removed in turn leaves its open cone uncovered
        T = full_lattice_triangulation(P)
        arrays = _interior_faces(T, P)
        owner = _owners(T, arrays)
        faces = tuple(owner)
        for i in range(0, len(faces), max(1, len(faces) // 4)):
            f = faces[i]
            kept = tuple(g for g in faces if g != f)
            own = {g: c for g, c in owner.items() if g != f}
            keep = np.arange(len(faces)) != i
            cut = tmod._Faces(arrays.cells, *(a[keep] for a in arrays[1:]))
            assert tuple(_owners(T, cut)) == kept
            with monkeypatch.context() as mp:
                mp.setattr(tmod, "_interior_faces", lambda T, P: cut)
                res = verify_decomposition(T, P, P.dim + 2)
            assert not res
            assert res == _cover_loop(T, P, P.dim + 2, kept, own)
            reasons.add(res.reason)
    assert reasons == {"", "covered twice", "point outside the interior",
                       "point not covered", "degenerate face"}


def test_covering_counts_the_same_in_chunks_of_one_group(monkeypatch):
    # a chunk limit of one entry counts every (n, h) group on its own, and
    # every result, passing or failing, stays the same
    square = ((0, 0), (0, 1), (1, 0), (1, 1))
    cases = [  # overlapping cells, and a cell outside the square
        (families.unit_cube(2),
         Triangulation(square, ((0, 1, 2), (0, 1, 3), (1, 2, 3)))),
        (families.unit_cube(2), Triangulation(
            square + ((2, 0),), ((0, 1, 2), (1, 2, 3), (2, 3, 4))))]
    for P in (families.example2(3), _SIMPLEX_D4, *_FEW_CELLS):
        T = full_lattice_triangulation(P)
        cases += [(P, T)] + [(P, M) for M in _mutants(T)]
        if P.interior_lattice_points(1):
            cases.append((P, interior_respecting_triangulation(P)))
    chunks = []
    real = tmod._degree_chunks

    def spy(groups, k, dtype):
        for pts, parts in real(groups, k, dtype):
            chunks.append(len(parts))
            yield pts, parts

    monkeypatch.setattr(tmod, "_degree_chunks", spy)
    want = [verify_decomposition(T, P, P.dim + 2) for P, T in cases]
    assert {r.reason for r in want} == {
        "", "covered twice", "point not covered", "point outside the interior"}
    merged = len(chunks)
    monkeypatch.setattr(tmod, "_COUNT_ENTRIES", 1)
    assert [verify_decomposition(T, P, P.dim + 2) for P, T in cases] == want
    assert len(chunks) - merged > merged
    assert set(chunks[merged:]) == {1}


# ------------------------------------------- stellar insertion on one table

def _cell_forms(coords, cell, planes):
    """Inequalities of a full-dimensional simplex cell in chart coordinates,
    one plane at a time: form ``j`` is tight on the facet opposite
    ``cell[j]`` and positive at it.  ``planes`` maps each facet to one
    ``(n, o)`` with ``n . x == o`` on it, shared by the cells on both
    sides; a cell orients it by the sign at its vertex opposite the
    facet."""
    out = []
    for j, v in enumerate(cell):
        f = cell[:j] + cell[j + 1:]
        if f not in planes:
            planes[f] = _facet_form(coords, f, v)
        n, o = planes[f]
        s = dot(n, coords[v]) - o
        if s == 0:
            raise ValueError("degenerate cell")
        out.append((n, o) if s > 0 else (tuple(-a for a in n), -o))
    return tuple(out)


def _split_at(coords, cells, forms, planes, x_index):
    """Stellar-insert point ``x_index`` into every cell containing it, one
    cell at a time; ``forms`` (cell -> its forms) and ``planes`` (facet ->
    its plane) are kept across the calls of one build."""
    x = coords[x_index]
    hit = []
    for c in cells:
        fs = forms.get(c)
        if fs is None:
            fs = forms[c] = _cell_forms(coords, c, planes)
        if all(dot(n, x) - o >= 0 for n, o in fs):
            hit.append(c)
    if not hit:
        raise ValueError("point to insert is outside the triangulated region")
    out = [c for c in cells if c not in hit]
    for c in hit:
        fs = forms.pop(c)
        for j, (n, o) in enumerate(fs):
            if dot(n, x) - o > 0:
                piece = tuple(sorted(
                    [v for k, v in enumerate(c) if k != j] + [x_index]))
                out.append(piece)
    return sorted(out)


def _insert_by_cells(coords, cells, xs):
    forms, planes = {}, {}
    for x in xs:
        cells = _split_at(coords, cells, forms, planes, x)
    return cells


def _stellar_cases(P):
    """``(coords, cells, xs)`` insertions on the fine triangulation's points
    in chart coordinates: the interior-respecting start (the boundary coned
    over the lex-least interior point, then the other interior points) and
    the placing triangulation of the vertices, then every other point."""
    T = full_lattice_triangulation(P)
    pts = T.points
    coords = [P._chart.to_chart(p) for p in pts]
    inside = [pts.index(x) for x in P.interior_lattice_points(1)]
    apex = inside[0]
    cones = sorted(tuple(sorted(f + (apex,))) for f in _free_facets(T.cells))
    verts = [pts.index(v) for v in P.vertices]
    placed = sorted(tuple(verts[i] for i in c)
                    for c in _placing(P.vertices)[0])
    rest = [i for i in range(len(pts)) if i not in verts]
    return [(coords, cones, inside[1:]), (coords, placed, rest)]


@st.composite
def interior_hulls(draw):
    """Hulls of 4 to 8 points in [-3, 3]^m, 2 <= m <= 4, half of them
    lifted onto a lattice hyperplane of Z^(m+1)."""
    m = draw(st.integers(2, 4))
    pts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * m),
                        min_size=4, max_size=8))
    if draw(st.booleans()):
        c = draw(st.tuples(*[st.integers(-2, 2)] * m))
        pts = [p + (sum(a * b for a, b in zip(c, p)) + 1,) for p in pts]
    return Polytope.from_vertices(pts)


@given(interior_hulls())
@example(families.example2(3))
@example(Polytope.from_vertices(
    [(0, 0, 1), (4, 0, 5), (0, 4, -3), (4, 4, 1)]))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_stellar_table_matches_the_cell_loop(P):
    assume(P.dim >= 2 and _box_fits(P, 1) and P.interior_lattice_points(1))
    for coords, cells, xs in _stellar_cases(P):
        want = _insert_by_cells(coords, cells, xs)
        assert tmod._stellar_insert(coords, cells, xs) == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tmod, "_INT64_GUARD", 0)  # Python ints throughout
            assert tmod._stellar_insert(coords, cells, xs) == want
            # one point per round, and a guard that the first round's bound
            # stays under and a later one reaches: the table turns to
            # Python ints in a later round
            mp.setattr(tmod, "_ROUND_ENTRIES", 1)
            probe = _Guard(2**200)
            mp.setattr(tmod, "_INT64_GUARD", probe)
            tmod._stellar_insert(coords, cells, xs)
            top = max(probe.bounds, default=0)
            if probe.bounds and probe.bounds[0] < top:
                guard = _Guard(top)
                mp.setattr(tmod, "_INT64_GUARD", guard)
                assert tmod._stellar_insert(coords, cells, xs) == want
                assert guard.bounds[0] < top == max(guard.bounds)
    assert interior_respecting_triangulation(P).cells == \
        tuple(_insert_by_cells(*_stellar_cases(P)[0]))
    # every cell's forms come from batched det_stack calls, never from one
    # determinant per plane
    inside = P.interior_lattice_points(1)
    with mock.patch.object(emod, "det_cofactor", side_effect=AssertionError), \
            mock.patch.object(emod, "det_bareiss", side_effect=AssertionError):
        assert tmod._interior_respecting(P, inside).cells == \
            interior_respecting_triangulation(P).cells


def test_stellar_rounds_insert_points_together():
    # the placing triangulation of example2(3)'s vertices takes its other
    # 17 points in 4 rounds, with the cells of the one-by-one order; one
    # point per round is that order itself
    P = families.example2(3)
    coords, cells, xs = _stellar_cases(P)[1]
    want = _insert_by_cells(coords, cells, xs)
    rounds = {}
    for entries in (1, tmod._ROUND_ENTRIES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tmod, "_ROUND_ENTRIES", entries)
            # the guard is compared once per round
            guard = _Guard(tmod._INT64_GUARD)
            mp.setattr(tmod, "_INT64_GUARD", guard)
            assert tmod._stellar_insert(coords, cells, xs) == want
            rounds[entries] = len(guard.bounds)
            mp.setattr(tmod, "_INT64_GUARD", 0)  # Python ints throughout
            assert tmod._stellar_insert(coords, cells, xs) == want
    assert len(xs) == rounds[1] == 17
    assert rounds[tmod._ROUND_ENTRIES] == 4


def test_stellar_rounds_reject_an_outside_pending_point():
    # (3, 3) waits behind (1, 1) in its round, as in the one-by-one order
    coords = [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2), (3, 3), (1, 0)]
    cells = [(0, 1, 3), (1, 3, 4)]
    for xs in ([2, 5], [2, 6, 5], [5, 2]):
        with pytest.raises(ValueError) as want:
            _insert_by_cells(coords, cells, xs)
        with pytest.raises(ValueError) as got:
            tmod._stellar_insert(coords, cells, xs)
        assert str(got.value) == str(want.value) == \
            "point to insert is outside the triangulated region"
    assert tmod._stellar_insert(coords, cells, [2, 6]) == \
        _insert_by_cells(coords, cells, [2, 6])


def test_stellar_table_turns_to_python_ints_before_it_overflows():
    # int64 forms of about 2^40: the pencils of the first point's pieces
    # would pass 2^63, and the later points are tested against them
    coords = [(0, 0), (806070, -4), (-4, 1717995), (17, 8), (32, 49),
              (29, 31), (42, 25)]
    for xs in ([3, 4, 5, 6], [6, 5, 4, 3]):
        assert tmod._stellar_insert(coords, [(0, 1, 2)], xs) == \
            _insert_by_cells(coords, [(0, 1, 2)], xs)


class _Guard(int):
    """A stand-in for ``_INT64_GUARD`` that records every bound compared
    with it (``bound >= guard`` asks ``guard.__le__(bound)`` first)."""

    def __new__(cls, value):
        guard = super().__new__(cls, value)
        guard.bounds = []
        return guard

    def __le__(self, bound):
        self.bounds.append(bound)
        return bound >= int(self)


def _subdivide_by_cells(T, x):
    """:func:`stellar_subdivide` on the per-cell loop."""
    chart = build_chart(list(T.points))
    points = tuple(sorted(T.points + (x,)))
    index = {p: i for i, p in enumerate(points)}
    cells = sorted(tuple(sorted(index[T.points[i]] for i in c))
                   for c in T.cells)
    coords = [chart.to_chart(p) for p in points]
    return Triangulation(points, tuple(sorted(
        _split_at(coords, cells, {}, {}, index[x]))))


@st.composite
def subdivisions(draw):
    """A placing triangulation and a lattice point of its hull that is not
    a vertex, or a point beyond it on its affine hull."""
    P = draw(hulls())
    assume(P.dim >= 1 and _box_fits(P, 2))
    T = placing_triangulation(P)
    pts = [p for p in P.lattice_points(1) if p not in T.points]
    pts += [tuple(2 * a - b for a, b in zip(T.points[-1], T.points[0]))]
    return T, draw(st.sampled_from(pts))


@given(subdivisions())
@example((placing_triangulation(Polytope.from_vertices(
    [(0, 0), (2**40, 0), (0, 2**40)])), (1, 1)))  # past the int64 bound
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
def test_stellar_subdivide_matches_the_cell_loop(case):
    T, x = case

    def outcome():
        try:
            return stellar_subdivide(T, x)
        except ValueError as e:
            return str(e)
    try:
        want = _subdivide_by_cells(T, x)
    except ValueError as e:
        want = str(e)
    assert outcome() == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tmod, "_INT64_GUARD", 0)
        assert outcome() == want


def test_dependent_cell_is_not_empty():
    assert _empty_cells([[(0, 0, 1), (1, 1, 1), (2, 2, 1)]]) == [False]


def test_cell_emptiness_builds_no_chart_per_cell(monkeypatch):
    # a Reeve simplex lifted into Z^4: its chart is not the identity, and
    # its one fine cell, of normalized volume 5, has a box of five points
    P = Polytope.from_vertices(
        [p + (p[0] + 2 * p[1] - p[2] + 1,)
         for p in families.reeve_simplex(5).vertices])
    full_lattice_triangulation(P)  # built before the spies: only the check
    boxes = mock.Mock(side_effect=smod.half_open_boxes)
    for mod in (emod, smod, tmod, checks_mod):
        for name in ("build_chart", "square_lift"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, mock.Mock(
                    side_effect=AssertionError(f"{name} was called")))
    monkeypatch.setattr(checks_mod, "half_open_boxes", boxes)
    assert checks_mod._cell_emptiness(P) is None
    assert boxes.called


# ------------------------------- volumes and boundary faces against loops

def _volume_by_cells(T):
    """Per-cell twin of :func:`total_normalized_volume`: one
    ``det_bareiss`` of each cell's edge vectors in chart coordinates."""
    chart = build_chart(list(T.points))
    coords = [chart.to_chart(p) for p in T.points]
    total = 0
    for c in T.cells:
        base = coords[c[0]]
        total += abs(det_bareiss([vsub(coords[i], base) for i in c[1:]]))
    return total


@given(hulls(), st.just(1))
@example(families.example2(3), 2**40)  # det_stack runs on Python ints
@example(Polytope.from_vertices([(0, 0, 1), (3, 0, 4), (0, 2, 3)]),
         2**70)  # entries past int64
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_volumes_match_the_cell_loop(P, scale):
    assume(P.dim >= 1)
    tris = [placing_triangulation(P), full_lattice_triangulation(P)]
    if P.dim >= 2 and P.interior_lattice_points(1):
        tris.append(interior_respecting_triangulation(P))
    for T in tris:
        # scaling keeps the lex order: the cells triangulate the new points
        T = Triangulation(tuple(tuple(scale * a for a in p) for p in T.points),
                          T.cells)
        # one det_stack call on any entries, never a matrix at a time
        with mock.patch.object(emod, "det_bareiss",
                               side_effect=AssertionError), \
                mock.patch.object(tmod, "build_chart",
                                  side_effect=build_chart) as chart:
            got = total_normalized_volume(T)
        assert got == _volume_by_cells(T)
        # cells that span the ambient space take their points as they are
        assert chart.called == (P.dim < P.ambient_dim)


def _boundary_face_property_by_faces(P):
    """Per-face twin of ``checks._boundary_face_property``: every facet of
    ``P`` is tested at every point of each cell facet."""
    if P.dim < 1:
        return None
    T = checks_mod.full_lattice_triangulation(P)
    for face, cnt in sorted(checks_mod._boundary_count(T.cells).items()):
        if cnt not in (1, 2):
            return f"cell facet {face} lies in {cnt} cells"
        pts = T.cell_points(face)
        on_boundary = any(
            all(f.slack(p) == 0 for p in pts) for f in P.facets)
        if cnt == 1 and not on_boundary:
            return f"free cell facet {face} not on the boundary"
        if cnt == 2 and on_boundary:
            return f"shared cell facet {face} lies on the boundary"
    return None


def _boundary_face_messages(P):
    """The check's message on the fine triangulation of ``P`` and on each
    of its :func:`_mutants`, served through
    ``checks.full_lattice_triangulation``, after asserting that the twin
    gives the same one."""
    T = full_lattice_triangulation(P)
    out = []
    for M in (T, *_mutants(T)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checks_mod, "full_lattice_triangulation",
                       lambda P: M)
            want = _boundary_face_property_by_faces(P)
            # the check keeps its own route: no shared masks, no memo
            mp.setattr(tmod, "_tight_form_masks", _never)
            mp.delattr(P, "_cache")
            got = checks_mod._boundary_face_property(P)
        assert got == want, M
        out.append(got)
    return out


@given(hulls())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_boundary_face_property_matches_the_face_loop(P):
    assume(P.dim >= 1)
    assert _boundary_face_messages(P)[0] is None


def test_boundary_face_mutants_give_every_message():
    polys = [families.unit_cube(2), families.unit_simplex(2),
             families.example2(2), families.example2(3),
             families.reeve_simplex(2),
             *default_corpus(seed=3, count=12, dims=(2, 3))]
    kinds = {msg and msg.split()[0] for P in polys
             for msg in _boundary_face_messages(P)}
    assert kinds == {None, "cell", "free", "shared"}
