"""Tests for the named polytope families."""

import pytest

from polycanon import families
from polycanon.families import family


def test_long_edge_simplex_vertices():
    P = families.example1(3)
    assert P.vertices == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (2, 0, 0))
    assert P.is_simplex()
    # one lattice point beyond the vertices: the midpoint of the long edge
    assert set(P.lattice_points(1)) - set(P.vertices) == {(1, 0, 0)}


def test_capped_box_inequalities():
    P = families.example2(2)
    assert len(P.facets) == 5
    assert P.vertices == ((0, 0), (0, 2), (1, 2), (2, 0), (2, 1))
    assert len(P.lattice_points(1)) == 8
    assert P.interior_lattice_points(1) == ((1, 1),)


def test_capped_box_counts_scale_with_dimension():
    assert len(families.example2(3).lattice_points(1)) == 26
    assert len(families.example2(4).lattice_points(1)) == 80


def test_capped_box_builds_at_dimension_six():
    # 77 vertices: inside the placing budget, n * UBT(77, 6) = 5193804
    P = families.example2(6)
    assert len(P.facets) == 13
    assert len(P.vertices) == 77


def test_unit_simplex_and_cube():
    assert families.unit_simplex(2).vertices == ((0, 0), (0, 1), (1, 0))
    assert len(families.unit_cube(3).vertices) == 8
    assert len(families.unit_cube(3).lattice_points(2)) == 27


def test_reeve_simplex_fixture():
    P = families.reeve_simplex(2)
    assert P.vertices == ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 2))
    assert len(P.lattice_points(1)) == 4      # empty: vertices only


def test_family_dispatcher():
    assert family("example1", d=2) == families.example1(2)
    assert family("example2", d=3) == families.example2(3)
    assert family("unit", d=2) == families.unit_simplex(2)
    assert family("cube", d=2) == families.unit_cube(2)
    assert family("reeve", q=3) == families.reeve_simplex(3)


@pytest.mark.parametrize("call, message", [
    (lambda: family("nope", d=2), "unknown family"),
    (lambda: family("example1"), "needs --d"),
    (lambda: family("reeve", d=3), "needs --q"),
    (lambda: families.example1(0), ">= 1"),
    (lambda: families.example2(1), ">= 2"),
    (lambda: families.reeve_simplex(0), ">= 1"),
    (lambda: families.unit_cube(0), ">= 1"),
    (lambda: families.unit_simplex(0), ">= 1"),
])
def test_family_parameter_validation(call, message):
    with pytest.raises(ValueError, match=message):
        call()
