"""Property and unit tests for the exact integer/rational linear algebra."""

from fractions import Fraction
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import polycanon.exactmath as emod
from polycanon.exactmath import (
    as_matrix,
    as_vector,
    build_chart,
    det_bareiss,
    det_cofactor,
    det_stack,
    dot,
    gcd_vector,
    generalized_cross,
    identity_matrix,
    lll_reduce,
    primitive_vector,
    rank,
    smith_normal_form,
    solve_rational,
    transpose,
    unimodular_inverse,
    vadd,
    vscale,
    vsub,
)

settings.register_profile("suite", max_examples=60, deadline=None,
                          derandomize=True)
settings.load_profile("suite")

entries = st.integers(min_value=-9, max_value=9)


def int_matrix(max_rows=4, max_cols=4, elements=entries):
    return st.integers(1, max_rows).flatmap(
        lambda nr: st.integers(1, max_cols).flatmap(
            lambda nc: st.lists(
                st.lists(elements, min_size=nc, max_size=nc),
                min_size=nr, max_size=nr)))


def square_matrix(n):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n)


def mat_mul(A, B):
    return tuple(tuple(dot(row, col) for col in transpose(B)) for row in A)


def mat_vec(M, v):
    return tuple(dot(row, v) for row in M)


# ---------------------------------------------------------------- vectors

def test_vector_helpers():
    assert vadd((1, 2), (3, -1)) == (4, 1)
    assert vsub((1, 2), (3, -1)) == (-2, 3)
    assert vscale((1, -2), 3) == (3, -6)
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    u, v = (Fraction(1, 3), Fraction(-2, 7), 5), (Fraction(3, 4), 1,
                                                  Fraction(1, 6))
    assert dot(u, v) == Fraction(67, 84)
    assert vadd(u, v) == (Fraction(13, 12), Fraction(5, 7), Fraction(31, 6))
    assert vsub(u, v) == (Fraction(-5, 12), Fraction(-9, 7), Fraction(29, 6))
    assert gcd_vector((4, -6, 0)) == 2
    assert primitive_vector((4, -6, 0)) == (2, -3, 0)
    assert primitive_vector((0, -5)) == (0, -1)
    with pytest.raises(ValueError):
        primitive_vector((0, 0))


def test_vector_validation():
    with pytest.raises(ValueError):
        as_vector((1, True))
    with pytest.raises(ValueError):
        as_vector((1, Fraction(1, 2)))
    with pytest.raises(ValueError):
        as_matrix([(1, 2), (3,)])
    for f in (dot, vadd, vsub):
        for u, v in (((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2)), ((), (1,))):
            with pytest.raises(ValueError, match="lengths"):
                f(u, v)


fraction_pairs = st.integers(0, 5).flatmap(lambda n: st.tuples(
    *[st.lists(st.fractions(max_denominator=50), min_size=n, max_size=n)] * 2))


@given(fraction_pairs)
def test_vector_helpers_are_exact_on_fractions(case):
    # the Gram-Schmidt data of lll_reduce is Fractions
    u, v = case
    assert dot(u, v) == sum((Fraction(a) * b for a, b in zip(u, v)),
                            Fraction(0))
    assert vadd(u, v) == tuple(Fraction(a) + b for a, b in zip(u, v))
    assert vsub(u, v) == tuple(Fraction(a) - b for a, b in zip(u, v))


# ----------------------------------------------------------- determinants

@given(st.integers(1, 4).flatmap(square_matrix))
def test_determinant_routes_agree(rows):
    M = as_matrix(rows)
    assert det_bareiss(M) == det_cofactor(M)


def test_determinant_known_values():
    assert det_bareiss(((2, 0), (0, 3))) == 6
    assert det_bareiss(((0, 1), (1, 0))) == -1
    # numpy entries are read as Python ints: no int64 overflow
    big = np.array([[2**40, 1, 0], [3, 2**40, 1], [0, 5, 2**40]],
                   dtype=np.int64)
    assert det_bareiss(big) == det_cofactor(big.tolist())
    assert det_bareiss(big) == 2**120 - 8 * 2**40
    for bad in (((Fraction(1, 2),),), ((1.0, 0), (0, 1))):
        with pytest.raises(TypeError):
            det_bareiss(bad)
    assert det_cofactor(((Fraction(1, 2),),)) == Fraction(1, 2)


# entries in [-3, 3] make singular matrices common
stacks = st.integers(0, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
             min_size=n, max_size=n), max_size=6)))


@given(stacks)
@example((2, [[[2**40, 3], [5, 2**40 - 1]], [[2**40, 1], [2**40, 1]]]))
@example((3, [[[2**40, 1, 0], [0, 2**40, 1], [1, 0, 2**40]]]))
def test_det_stack_matches_both_routes(case):
    n, stack = case
    A = np.array(stack, dtype=np.int64).reshape(len(stack), n, n)
    want = [det_bareiss(M) for M in stack]
    assert want == [det_cofactor(M) for M in stack]
    if all(abs(a) <= 3 for M in stack for row in M for a in row):
        # the int64 route calls no det_bareiss
        with mock.patch.object(emod, "det_bareiss",
                               side_effect=AssertionError):
            got = det_stack(A)
    else:
        got = det_stack(A)
    assert got == want and all(type(v) is int for v in got)
    with mock.patch.object(emod, "_INT64_GUARD", 0):
        assert det_stack(A) == want


def test_det_stack_takes_python_ints_and_refuses_non_square_stacks():
    # an entry past int64 sends the stack through det_bareiss as given
    big = [[[2**70, 1], [1, 2**70]], [[3, 0], [0, 2]]]
    assert det_stack(big) == [2**140 - 1, 6]
    assert det_stack(np.array(big, dtype=object)) == [2**140 - 1, 6]
    assert det_stack([]) == []
    for bad in (np.zeros((2, 2, 3), dtype=np.int64), [[1, 2], [3, 4]]):
        with pytest.raises(ValueError, match="square"):
            det_stack(bad)


@given(st.integers(2, 4).flatmap(square_matrix))
def test_rank_bounded_and_zero_det_means_deficient(rows):
    M = as_matrix(rows)
    n = len(M)
    r = rank(M)
    assert 0 <= r <= n
    assert (det_bareiss(M) != 0) == (r == n)


# small entries make rank-deficient rectangular matrices common
@given(int_matrix(max_rows=4, max_cols=5, elements=st.integers(-2, 2)))
def test_rank_is_largest_nonzero_minor(rows):
    M = as_matrix(rows)
    nr, nc = len(M), len(M[0])
    largest = max(
        (k for k in range(1, min(nr, nc) + 1)
         for rs in combinations(range(nr), k)
         for cs in combinations(range(nc), k)
         if det_cofactor([[M[i][j] for j in cs] for i in rs]) != 0),
        default=0)
    assert rank(M) == largest


# ------------------------------------------------------------ cross products

@given(st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.lists(entries, min_size=n, max_size=n),
        min_size=n - 1, max_size=n - 1))))
def test_generalized_cross_is_orthogonal(data):
    n, rows = data
    w = generalized_cross(rows, n)
    for row in rows:
        assert dot(w, row) == 0
    assert (any(w)) == (rank(rows) == n - 1)


def test_generalized_cross_dimension_one():
    assert generalized_cross((), 1) == (1,)


# ------------------------------------------------------------ normal forms

@given(int_matrix())
def test_smith_normal_form_properties(rows):
    M = as_matrix(rows)
    S, U, V = smith_normal_form(M)
    assert mat_mul(mat_mul(U, M), V) == S
    assert abs(det_bareiss(U)) == 1
    assert abs(det_bareiss(V)) == 1
    diag = [S[i][i] for i in range(min(len(S), len(S[0])))]
    for i, row in enumerate(S):
        for j, a in enumerate(row):
            if i != j:
                assert a == 0
    assert all(a >= 0 for a in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0


@given(int_matrix())
def test_unimodular_inverse_on_transforms(rows):
    _, U, V = smith_normal_form(as_matrix(rows))
    for T in (U, V):
        Tinv = unimodular_inverse(T)
        assert mat_mul(T, Tinv) == identity_matrix(len(T))
        assert mat_mul(Tinv, T) == identity_matrix(len(T))


def test_unimodular_inverse_rejects_non_unimodular():
    with pytest.raises(ValueError):
        unimodular_inverse(((2, 0), (0, 1)))


# --------------------------------------------------------------- solving

@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(square_matrix(n),
                        st.lists(entries, min_size=n, max_size=n))))
def test_solve_rational_round_trip(data):
    rows, x = data
    M = as_matrix(rows)
    if det_bareiss(M) == 0:
        return
    b = mat_vec(M, x)
    sol = solve_rational(M, b)
    assert sol == tuple(Fraction(c) for c in x)


def test_solve_rational_edge_cases():
    # overdetermined but consistent
    assert solve_rational(((1,), (2,)), (3, 6)) == (Fraction(3),)
    # overdetermined and inconsistent
    assert solve_rational(((1,), (2,)), (3, 7)) is None
    with pytest.raises(ValueError):
        solve_rational(((1, 2),), (3,))          # underdetermined
    with pytest.raises(ValueError):
        solve_rational(((1, 1), (2, 2)), (0, 0))  # rank-deficient


def _assert_lll_reduced(B):
    # exact Gram-Schmidt, computed here independently of lll_reduce
    star, norms = [], []
    for i, row in enumerate(B):
        v = [Fraction(a) for a in row]
        mu = [Fraction(dot(row, s), n) for s, n in zip(star, norms)]
        for m_ij, s in zip(mu, star):
            v = [a - m_ij * c for a, c in zip(v, s)]
        assert all(abs(m_ij) <= Fraction(1, 2) for m_ij in mu)
        if i:
            assert dot(v, v) >= (Fraction(3, 4) - mu[-1] ** 2) * norms[-1]
        star.append(v)
        norms.append(dot(v, v))


@given(int_matrix(max_rows=4, max_cols=5))
@example([[1, 0, 0], [100, 1, 0], [7000, 70, 1]])
def test_lll_reduce_is_a_reduced_basis_of_the_same_lattice(rows):
    if rank(rows) < len(rows):
        with pytest.raises(ValueError):
            lll_reduce(rows)
        return
    B, U = lll_reduce(rows)
    assert mat_mul(U, as_matrix(rows)) == B
    assert abs(det_bareiss(U)) == 1
    _assert_lll_reduced(B)


# ----------------------------------------------------------------- charts

@given(st.integers(1, 3).flatmap(
    lambda m: st.lists(st.lists(entries, min_size=m, max_size=m),
                       min_size=1, max_size=5)))
def test_chart_round_trips_its_own_points(pts):
    chart = build_chart(pts)
    for p in pts:
        assert chart.in_affine_hull(p)
        assert chart.from_chart(chart.to_chart(p)) == tuple(p)


@given(st.integers(1, 4).flatmap(lambda m: st.tuples(
    st.lists(st.lists(entries, min_size=m, max_size=m),
             min_size=m + 1, max_size=m + 4),
    st.lists(entries, min_size=m, max_size=m),
    st.integers(0, 3))))
def test_identity_chart_matches_the_dot_product_formulas(data):
    pts, x, scale = data
    chart = build_chart(pts)
    if rank([vsub(p, pts[0]) for p in pts[1:]]) < len(x):
        assert not chart.identity
        return
    assert chart.identity
    y = vsub(x, vscale(chart.origin, scale))
    assert chart.in_affine_hull(x, scale=scale) == all(
        dot(y, col) == 0 for col in chart.comp_cols)
    assert chart.to_chart(x, scale=scale) == tuple(
        dot(y, col) for col in chart.proj_cols)
    z = list(vscale(chart.origin, scale))
    for ci, row in zip(x, chart.basis):
        z = [a + ci * b for a, b in zip(z, row)]
    assert chart.from_chart(x, scale=scale) == tuple(z)
    for wrong in (x[:-1], x + [0]):
        for f in (chart.in_affine_hull, chart.to_chart, chart.from_chart):
            with pytest.raises(ValueError):
                f(wrong, scale=scale)


@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    st.lists(st.lists(entries, min_size=m, max_size=m),
             min_size=2, max_size=m + 3),
    st.lists(st.lists(st.integers(-3, 3), min_size=m + 2, max_size=m + 2),
             min_size=m, max_size=m))))
def test_flat_chart_basis_is_reduced_and_dual_to_its_columns(data):
    # points of Z^m under an integer map into Z^(m+2): a flat hull
    pts, A = data
    pts = [vec_mat_rows(p, A) for p in pts]
    chart = build_chart(pts)
    r = chart.dim
    if r in (0, chart.ambient_dim):
        return
    _assert_lll_reduced(chart.basis)
    assert [[dot(b, c) for c in chart.proj_cols] for b in chart.basis] == [
        list(row) for row in identity_matrix(r)]
    assert all(dot(b, c) == 0 for b in chart.basis for c in chart.comp_cols)
    for p in pts:
        assert chart.from_chart(chart.to_chart(p)) == tuple(p)


def vec_mat_rows(v, M):
    return tuple(sum(a * row[j] for a, row in zip(v, M))
                 for j in range(len(M[0])))


def test_chart_detects_points_off_the_hull():
    chart = build_chart([(0, 0, 0), (1, 0, 1), (0, 1, 1)])
    assert chart.dim == 2
    assert not chart.in_affine_hull((0, 0, 1))
    with pytest.raises(ValueError):
        chart.to_chart((0, 0, 1))


def test_chart_respects_dilation_scale():
    chart = build_chart([(1, 1), (3, 1)])
    assert chart.dim == 1
    assert chart.in_affine_hull((2, 2), scale=2)
    assert not chart.in_affine_hull((2, 1), scale=2)
    c = chart.to_chart((4, 2), scale=2)
    assert chart.from_chart(c, scale=2) == (4, 2)


def test_chart_surjective_onto_hull_lattice():
    # the hull of (0,0),(2,4) has direction gcd 2: chart steps are (1,2)
    chart = build_chart([(0, 0), (2, 4)])
    images = {chart.from_chart((t,)) for t in range(-2, 3)}
    assert images == {(-2, -4), (-1, -2), (0, 0), (1, 2), (2, 4)}


def test_transpose_of_empty():
    assert transpose(()) == ()
