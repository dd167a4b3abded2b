"""Tests for the self-check suite and the reproducible corpus."""

import json

import pytest

import polycanon.checks as checks_mod
from polycanon import families
from polycanon.checks import (
    _slice_projection,
    check_polytope,
    default_corpus,
    run_suite,
)
from polycanon.cone import GradedCone
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
    classify = GradedCone.classify

    def one_boundary_point_called_interior(self, positions, degree):
        labels = list(classify(self, positions, degree))
        labels[labels.index("boundary")] = "interior"
        return tuple(labels)

    monkeypatch.setattr(GradedCone, "classify",
                        one_boundary_point_called_interior)
    assert _slice_projection(unit_square) == (
        "slice point (0, 0) degree 1 membership interior, expected boundary")


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
