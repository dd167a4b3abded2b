"""Tests for the self-check suite and the reproducible corpus."""

import json
from concurrent.futures import Future
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import polycanon.checks as checks_mod
from polycanon import families
from polycanon.checks import (
    _point_count,
    _slice_projection,
    check_polytope,
    default_corpus,
    run_suite,
)
from polycanon.cone import GradedCone, cone_over
from polycanon.polytope import BudgetError, Polytope


def test_corpus_is_reproducible_and_in_bounds():
    a = default_corpus(seed=5, count=12)
    b = default_corpus(seed=5, count=12)
    assert tuple(P.vertices for P in a) == tuple(P.vertices for P in b)
    c = default_corpus(seed=6, count=12)
    assert tuple(P.vertices for P in a) != tuple(P.vertices for P in c)
    for P in a:
        assert 1 <= P.dim <= 3
        assert len(P.vertices) <= 8
        assert all(-3 <= x <= 3 for v in P.vertices for x in v)


def test_corpus_refuses_boxes_too_small_to_draw_from():
    # [-1, 1] holds 3 points but a hull may draw 8; [0, 0]^m holds 1
    with pytest.raises(ValueError, match=r"\(2\*coord_bound\+1\)\^m"):
        default_corpus(dims=(1,), coord_bound=1, count=5)
    with pytest.raises(ValueError, match="coord_bound must be >= 1"):
        default_corpus(coord_bound=0, count=1)
    with pytest.raises(ValueError, match="dims must be nonempty"):
        default_corpus(dims=(), count=1)


def test_fixture_polytopes_pass_every_check():
    fixtures = [
        families.example1(2),
        families.example2(2),
        families.unit_simplex(3),
        families.reeve_simplex(2),
        families.unit_cube(2),
        Polytope.from_vertices([(0,), (4,)], name="long-segment"),
        Polytope.from_vertices([(0, 0, 0), (1, 0, 1), (0, 1, 1)],
                               name="flat"),
    ]
    report = run_suite(fixtures)
    assert report["ok"], report["violations"]
    assert report["polytopes_checked"] == len(fixtures)


def test_check_polytope_returns_structured_violations(unit_square):
    assert check_polytope(unit_square) == []


def test_slice_projection_reports_a_wrong_label(monkeypatch, unit_square):
    codes = GradedCone.codes

    def one_boundary_point_called_interior(self, rows, degree):
        out = codes(self, rows, degree).copy()
        out[np.flatnonzero(out == 1)[0]] = 0
        return out

    monkeypatch.setattr(GradedCone, "codes",
                        one_boundary_point_called_interior)
    assert _slice_projection(unit_square) == (
        "slice point (0, 0) degree 1 membership interior, expected boundary")


# ------------------------- the point-count and slice checks and their twins

def _point_count_by_sets(P):
    """Twin of ``checks._point_count`` on point tuples and sets."""
    if len(P.lattice_points(1)) < len(P.vertices):
        return "fewer lattice points than vertices"
    prev = None
    for k in range(1, P.dim + 2):
        lat = set(P.lattice_points(k))
        if not set(P.interior_lattice_points(k)) <= lat:
            return f"interior points at degree {k} not among lattice points"
        if prev is not None and len(lat) < prev:
            return f"lattice point count dropped at degree {k}"
        prev = len(lat)
    return None


def _slice_projection_by_tuples(P):
    """Twin of ``checks._slice_projection``: every lattice point tuple's
    cone label against the interior set, in lex order."""
    C = cone_over(P)
    for k in range(1, P.dim + 2):
        interior = set(P.interior_lattice_points(k))
        points = P.lattice_points(k)
        for p, got in zip(points, C.classify(points, k)):
            want = "interior" if p in interior else "boundary"
            if got != want:
                return (f"slice point {p} degree {k} membership"
                        f" {got}, expected {want}")
    return None


@st.composite
def check_hulls(draw):
    """Vertices of a hull of 1 to 7 points in [-2, 2]^m, m <= 3, sometimes
    lifted onto the lattice hyperplane ``x_{m+1} = c . x + t`` of
    Z^(m+1), a segment, or a point; translated by 0 or by +-2^61 or
    +-2^70 in every coordinate, which takes the ``object`` route."""
    kind = draw(st.sampled_from(["hull", "lifted", "segment", "point"]))
    m = draw(st.integers(1, 3))
    coords = st.tuples(*[st.integers(-2, 2)] * m)
    if kind == "point":
        pts = [draw(coords)]
    elif kind == "segment":
        a = draw(coords)
        v = draw(coords.filter(any))
        n = draw(st.integers(1, 3))
        pts = [a, tuple(x + n * y for x, y in zip(a, v))]
    else:
        pts = draw(st.lists(coords, min_size=2, max_size=7))
        if kind == "lifted":
            c = draw(st.tuples(*[st.integers(-2, 2)] * m))
            t = draw(st.integers(-3, 3))
            pts = [p + (sum(a * b for a, b in zip(c, p)) + t,) for p in pts]
    shift = draw(st.sampled_from([0, 0, 2**61, -2**61, 2**70, -2**70]))
    return [tuple(x + shift for x in p) for p in pts]


def _faulty_slices(P, k, fault, delta=0):
    """A stand-in for ``Polytope._slice`` that corrupts the masks of degree
    ``k`` of ``P``: ``"inner"`` sets the first interior cell that lies
    outside the lattice mask, and ``"drop"`` keeps only the first
    ``count(k - 1) - delta`` lattice cells (and the interior cells among
    them).  Both checks and both twins read the same masks."""
    real = Polytope._slice

    def _slice(self, scale, interior):
        lo, mask = real(self, scale, interior)
        if self is not P or scale != k:
            return lo, mask
        lat = real(self, scale, False)[1]
        if fault == "inner":
            if not interior:
                return lo, mask
            out = mask.copy()
            outside = np.flatnonzero(~lat)
            out.reshape(-1)[outside[:1]] = True
        else:
            prev = np.count_nonzero(real(self, scale - 1, False)[1])
            keep = lat.copy()
            keep.reshape(-1)[np.flatnonzero(lat)[prev - delta:]] = False
            out = mask & keep if interior else keep
        out.setflags(write=False)
        return lo, out

    return _slice


def _flipped_codes(target, k):
    """A stand-in for ``GradedCone.codes`` that swaps interior and boundary
    for the position ``target`` at degree ``k``."""
    real = GradedCone.codes

    def codes(self, rows, degree):
        out = real(self, rows, degree)
        if degree != k or not len(rows):
            return out
        hit = (rows == np.array(target, dtype=object)).all(axis=1)
        return np.where(hit, 1 - out, out)

    return codes


def _both_routes(P):
    """``(new, twin)`` for both checks, on fresh caches."""
    P._cache.clear()
    new = (_point_count(P), _slice_projection(P))
    P._cache.clear()
    return new, (_point_count_by_sets(P), _slice_projection_by_tuples(P))


@given(check_hulls(), st.integers(0, 2**16), st.integers(0, 1))
@example([(0, 0), (2, 0), (0, 2), (2, 2)], 5, 0)
@example([(0, 0, 1), (2, 0, 3), (0, 2, -1)], 3, 0)  # lifted: a chart
@example([(2**70 + a, 2**70 + b) for a, b in [(0, 0), (3, 0), (0, 2)]],
         7, 1)
@example([(-2**61, -2**61, -2**61), (-2**61 + 2, -2**61, -2**61 + 1),
          (-2**61 + 1, -2**61 + 2, -2**61)], 1, 0)  # flat, object rows
@example([(-1, 3)], 0, 0)  # a point
@example([(1,), (4,)], 2, 1)  # a segment: the box is the segment
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_mask_checks_match_their_tuple_twins(pts, pick, delta):
    P = Polytope.from_vertices(pts)
    new, twin = _both_routes(P)
    assert new == twin == (None, None)
    k = 1 + pick % (P.dim + 1)
    # one interior cell outside the lattice mask
    with mock.patch.object(Polytope, "_slice", _faulty_slices(P, k, "inner")):
        new, twin = _both_routes(P)
        full = P._slice(k, False)[1].all()
    assert new == twin
    assert full or twin[0] == (
        f"interior points at degree {k} not among lattice points")
    # a lattice count that drops by delta = 1, or stays with delta = 0
    if k >= 2:
        with mock.patch.object(Polytope, "_slice",
                               _faulty_slices(P, k, "drop", delta)):
            new, twin = _both_routes(P)
        assert new == twin
        assert twin[0] == (
            f"lattice point count dropped at degree {k}" if delta else None)
    # one flipped cone code
    points = P.lattice_points(k)
    target = points[pick % len(points)]
    with mock.patch.object(GradedCone, "codes", _flipped_codes(target, k)):
        new, twin = _both_routes(P)
    assert new == twin
    assert twin[1] is not None and twin[1].startswith(
        f"slice point {target} degree {k} membership")


def test_suite_identical_across_thread_counts():
    polys = default_corpus(seed=9, count=8)
    r1 = run_suite(polys, threads=1)
    r3 = run_suite(polys, threads=3)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r3, sort_keys=True)


def test_suite_reads_thread_env(monkeypatch):
    polys = default_corpus(seed=9, count=4)
    monkeypatch.setenv("POLYCANON_THREADS", "2")
    r_env = run_suite(polys)
    monkeypatch.delenv("POLYCANON_THREADS")
    r_one = run_suite(polys, threads=1)
    assert r_env == r_one


@pytest.mark.parametrize("cpus, count, workers",
                         [(3, 6, 3), (64, 4, 4), (None, 4, None)])
def test_suite_starts_no_more_workers_than_cores_or_polytopes(
        monkeypatch, cpus, count, workers):
    polys = default_corpus(seed=9, count=count)
    asked = []

    class Inline:
        """An executor that records ``max_workers`` and runs each task in
        the caller, so no thread is started."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            f = Future()
            f.set_result(fn(*args))
            return f

    monkeypatch.setattr(checks_mod, "ThreadPoolExecutor", Inline)
    monkeypatch.setattr(checks_mod.os, "cpu_count", lambda: cpus)
    report = run_suite(polys, threads=10**6)
    assert asked == ([] if workers is None else [workers])
    assert report == run_suite(polys, threads=1)


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_suite_stops_at_the_first_refusal(monkeypatch, threads):
    polys = default_corpus(seed=0, count=12)
    monkeypatch.setattr("polycanon.polytope.BOX_POINT_CAP", 3)
    reached = []
    point_count = checks_mod._point_count

    def spy(P):
        reached.append(P)
        return point_count(P)

    monkeypatch.setattr(checks_mod, "_point_count", spy)
    with pytest.raises(BudgetError, match="cap of 3"):
        run_suite(polys, threads=threads)
    # only the polytopes already being checked when the first one is
    # refused get this far
    assert 1 <= len(reached) <= threads
