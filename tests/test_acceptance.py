"""Acceptance gate: nine end-to-end criteria, one test per criterion.

Run with ``pytest -v`` so each criterion reports as exactly one pass/fail
line.  Everything is exact — integer equalities and set equalities, no
numeric tolerance anywhere.  The two timed criteria assert a 60-second
budget on the stated cohort.
"""

import json
import os
import subprocess
import sys
import time

from polycanon import families
from polycanon.cone import GradedPoint
from polycanon.polytope import Polytope
from polycanon.semigroup import (
    degree_one_points,
    full_generators,
    idp_check,
    irreducible_generators,
    reduced_degree,
    reduced_degree_oracle,
)
from polycanon.simplex import is_empty_simplex
from polycanon.triangulation import (
    _boundary_count,
    full_lattice_triangulation,
    interior_respecting_triangulation,
    placing_triangulation,
    total_normalized_volume,
    verify_decomposition,
)


def test_criterion_1_long_edge_family_single_generator_at_dimension():
    """For d = 2..6 the simplex conv{0, 2e1, e2, ..., ed} has exactly one
    irreducible interior generator, (1,...,1) at degree d, so its maximal
    reduced degree equals d."""
    for d in range(2, 7):
        P = families.example1(d)
        rep = irreducible_generators(P)
        assert rep.generators == (GradedPoint((1,) * d, d),), (d, rep)
        assert rep.max_degree == d


def test_criterion_2_capped_box_family_value_set_and_named_generators():
    """For d = 2, 3, 4, 5 the capped-box family attains every reduced
    degree in {1, ..., d-1}, so the bound dim - 1 is sharp, with
    (1,...,1,(i-1)d+i) at degree i irreducible for each i; the d = 4 case
    must finish within 60 seconds."""
    for d in (2, 3, 4, 5):
        start = time.monotonic()
        P = families.example2(d)
        assert set(irreducible_generators(P).degrees()) == \
            set(range(1, d)), d
        for i in range(1, d):
            y = GradedPoint((1,) * (d - 1) + ((i - 1) * d + i,), i)
            # irreducible: no peeling lowers its reduced degree
            assert reduced_degree(P, y)[0] == i, (d, i)
        elapsed = time.monotonic() - start
        if d == 4:
            assert elapsed < 60.0, f"d=4 took {elapsed:.1f}s"


def test_criterion_3_capped_box_degree_one_splitting_and_equality():
    """For d = 2, 3, 4, 5 every capped-box point of degree up to d+1 splits
    into degree-one points, and the generators under the full semigroup
    action coincide exactly with the degree-one-action generators."""
    for d in (2, 3, 4, 5):
        P = families.example2(d)
        ok, witness = idp_check(P, kmax=d + 1)
        assert ok and witness is None, (d, witness)
        assert full_generators(P) == irreducible_generators(P), d


def test_criterion_4_full_semigroup_generators_of_extreme_simplices():
    """Unit simplices d = 2..5 have exactly one full-semigroup generator,
    of degree d+1; Reeve simplices q = 2..5 have all full-semigroup
    generators of degree at most 2 = d-1."""
    for d in range(2, 6):
        rep = full_generators(families.unit_simplex(d))
        assert rep.generators == (GradedPoint((1,) * d, d + 1),), d
    for q in range(2, 6):
        rep = full_generators(families.reeve_simplex(q))
        assert rep.generators, q
        assert all(g.degree <= 2 for g in rep.generators), (q, rep)


def test_criterion_5_reeve_generator_degrees_skip_the_dimension():
    """For q = 2..5 the degree-one-action generator degrees of the Reeve
    simplex contain 4 = d+1 and exclude 3 = d."""
    for q in range(2, 6):
        degrees = irreducible_generators(families.reeve_simplex(q)).degrees()
        assert 4 in degrees, (q, degrees)
        assert 3 not in degrees, (q, degrees)


def test_criterion_6_bound_theorems_on_the_random_corpus(corpus):
    """On 300 seeded random hulls (dimension <= 3, coordinates in [-3, 3],
    at most 8 candidate vertices): the maximal reduced degree is at most
    d+1 always, at most d exactly when the polytope is not an empty
    simplex, and at most d-1 whenever an interior lattice point exists and
    d >= 2.  Zero violations, within 60 seconds."""
    assert len(corpus) >= 300
    start = time.monotonic()
    for P in corpus:
        d = P.dim
        invariant = irreducible_generators(P).max_degree
        assert invariant <= d + 1, (P.name, invariant)
        assert (invariant <= d) == (not is_empty_simplex(P)), \
            (P.name, invariant)
        if d >= 2 and P.interior_lattice_points(1):
            assert invariant <= d - 1, (P.name, invariant)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"corpus scan took {elapsed:.1f}s"


def test_criterion_7_reduction_agrees_with_exhaustive_oracle(corpus):
    """On at least 200 interior points of degree up to d+3 sampled across
    the corpus, single-step peeling and the exhaustive multiset-subtraction
    oracle give the same reduced degree."""
    samples = 0
    for P in corpus:
        if len(degree_one_points(P)) > 12:
            continue
        taken = 0
        for k in range(1, P.dim + 4):
            for pos in P.interior_lattice_points(k)[:2]:
                y = GradedPoint(pos, k)
                assert reduced_degree(P, y)[0] == \
                    reduced_degree_oracle(P, y), (P.name, y)
                samples += 1
                taken += 1
            if taken >= 4:
                break
    assert samples >= 200, samples


def test_criterion_8_triangulation_suite_on_the_corpus(corpus):
    """On every corpus polytope the full lattice triangulation conserves
    normalized volume, has only empty cells, and covers each dilated
    interior exactly once up to degree d+1; when an interior lattice point
    exists and d >= 2, the interior-respecting triangulation has its free
    cell facets exactly on the boundary and every cell touching the
    interior."""
    for P in corpus:
        T = full_lattice_triangulation(P)
        assert total_normalized_volume(T) == \
            total_normalized_volume(placing_triangulation(P)), P.name
        for cell in T.cells:
            assert is_empty_simplex(
                Polytope.from_vertices(T.cell_points(cell))), (P.name, cell)
        assert verify_decomposition(T, P, P.dim + 1).ok, P.name
        if P.dim >= 2 and P.interior_lattice_points(1):
            S = interior_respecting_triangulation(P)
            assert total_normalized_volume(S) == \
                total_normalized_volume(T), P.name
            for face, cnt in _boundary_count(S.cells).items():
                pts = S.cell_points(face)
                on_boundary = any(all(f.slack(p) == 0 for p in pts)
                                  for f in P.facets)
                assert cnt in (1, 2), (P.name, face)
                assert (cnt == 1) == on_boundary, (P.name, face)
            inside = set(P.interior_lattice_points(1))
            for cell in S.cells:
                assert any(S.points[i] in inside for i in cell), \
                    (P.name, cell)


def test_criterion_9_verify_reports_identical_across_thread_settings():
    """Two corpus verification runs with different thread settings write
    byte-identical reports to standard output."""
    base = [sys.executable, "-m", "polycanon.cli", "verify", "--corpus",
            "--seed", "3", "--count", "10"]
    env = {k: v for k, v in os.environ.items() if k != "POLYCANON_THREADS"}
    one = subprocess.run(base + ["--threads", "1"], capture_output=True,
                         env=env, check=True)
    four = subprocess.run(base + ["--threads", "4"], capture_output=True,
                          env=env, check=True)
    env_threads = dict(env, POLYCANON_THREADS="2")
    two = subprocess.run(base, capture_output=True, env=env_threads,
                         check=True)
    assert one.stdout == four.stdout == two.stdout
    assert json.loads(one.stdout)["ok"] is True
