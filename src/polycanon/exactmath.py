"""Exact integer linear algebra for lattice geometry.

Vectors are tuples of ints and matrices are row-major tuples of such
tuples; Python ints never overflow and nothing here touches floating point.
Rank, exact solving and unimodular inverses share one fraction-free
Gauss-Jordan elimination over the integers; the Smith normal form and the
Bareiss determinant are integer-only too, and Laplace expansion stays as
the independent determinant route.  :func:`det_stack` takes a whole
stack of matrices at once, by closed-form cofactor expansion up to 4 x 4
and by Bareiss steps past that, on int64 or, for a stack whose entries
could overflow, the same statements on Python ints; :func:`det_bareiss`
and :func:`det_cofactor` are its per-matrix twins.  Every table of
minors indexed out of a stack goes through one kernel, :func:`_minors`
(one :func:`det_stack` pass per call); :func:`_cross_stack` reads the
cofactor rays of a stack off it, and :func:`_cofactor_stack` the cofactor
matrices, with :func:`generalized_cross` the per-matrix twin.  Here
``fractions.Fraction`` appears only in the results of
:func:`solve_rational` and in the Gram-Schmidt data of
:func:`lll_reduce`; the polytope layer's vertex search reads its
common-denominator solutions off cofactor rays, chunk by chunk.

An :class:`AffineChart` of a full-dimensional point set is the identity
with origin 0 and maps points without any arithmetic.  Any other chart
takes its lattice basis from a Smith form, LLL-reduced, so the chart
coordinates of a flat hull stay about as small as its ambient ones.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Optional, Sequence, Union

import numpy as np

# Integer arithmetic on int64 arrays is taken only while every value it
# can form stays below this bound.
_INT64_GUARD = 2**60

LatticeVector = tuple
IntMatrix = tuple

Number = Union[int, Fraction]


def as_vector(coords: Iterable[int]) -> LatticeVector:
    """Validate and freeze an integer coordinate sequence."""
    v = tuple(coords)
    for c in v:
        if isinstance(c, bool) or not isinstance(c, int):
            raise ValueError(f"non-integer coordinate {c!r}")
    return v


def as_matrix(rows: Iterable[Iterable[int]]) -> IntMatrix:
    M = tuple(as_vector(r) for r in rows)
    if M:
        ncols = len(M[0])
        if any(len(r) != ncols for r in M):
            raise ValueError("ragged matrix")
    return M


# The length check is written out in each helper: a shared helper's call
# would cost about as much as the arithmetic on short vectors.
def dot(u: Sequence[Number], v: Sequence[Number]) -> Number:
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")
    return sum(map(operator.mul, u, v))


def vadd(u: Sequence[Number], v: Sequence[Number]) -> tuple:
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")
    return tuple(map(operator.add, u, v))


def vsub(u: Sequence[Number], v: Sequence[Number]) -> tuple:
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")
    return tuple(map(operator.sub, u, v))


def vscale(u: Sequence[Number], s: Number) -> tuple:
    return tuple(a * s for a in u)


def gcd_vector(v: Sequence[int]) -> int:
    return reduce(math.gcd, v, 0)


def primitive_vector(v: Sequence[int]) -> tuple:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    g = gcd_vector(v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(a // g for a in v) if g > 1 else tuple(v)


def identity_matrix(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(M: Sequence[Sequence[Number]]) -> tuple:
    return tuple(zip(*M)) if M else ()


def vec_mat(v: Sequence[Number], M: Sequence[Sequence[Number]]) -> tuple:
    if not M:
        return ()
    return tuple(
        sum(v[i] * M[i][j] for i in range(len(M))) for j in range(len(M[0]))
    )


def det_cofactor(M: Sequence[Sequence[Number]]) -> Number:
    """Determinant by Laplace expansion along the first row.

    Exponential in the matrix size; kept as the independent cross-check for
    the fraction-free determinant below.  Works for ints and Fractions.
    """
    n = len(M)
    if any(len(r) != n for r in M):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    if n == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    total = 0
    for j, a in enumerate(M[0]):
        if a == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        term = a * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def det_bareiss(M: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant via the Bareiss fraction-free algorithm.

    Entries are read through ``operator.index``: numpy integers become
    Python ints, which cannot overflow, and a non-integer raises
    ``TypeError``."""
    n = len(M)
    if any(len(r) != n for r in M):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    A = [list(map(operator.index, row)) for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if pivot_row is None:
                return 0
            A[k], A[pivot_row] = A[pivot_row], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def _int_array(rows) -> np.ndarray:
    """``rows`` as an int64 array, or as Python ints (``object``) when an
    entry is past int64."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def det_stack(stack) -> list:
    """Determinants of a stack of square integer matrices, as Python ints.

    Matrices of size ``n <= 4`` take a closed-form cofactor expansion
    (:func:`_det_small`): every product it forms is at most ``n! * a^n``
    for the largest absolute entry ``a``, so it runs on int64 while that
    stays below ``_INT64_GUARD`` and the same statements run on Python
    ints (``object``) past it.  Larger matrices take fraction-free
    Bareiss steps (:func:`_bareiss_stack`).
    """
    return _det_array(_int_array(stack)).tolist()


def _det_array(A: np.ndarray) -> np.ndarray:
    """The determinants of :func:`det_stack` for an integer array ``A``,
    which the steps may overwrite, as an array: int64 where they were
    computed on int64, so that they are below ``_INT64_GUARD``, and Python
    ints (``object``) otherwise."""
    if not len(A):
        return np.zeros(0, dtype=np.int64)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError("determinant needs a square matrix")
    s, n = A.shape[:2]
    if n == 0:
        return np.ones(s, dtype=np.int64)
    if n <= 4:
        return _det_small(_expansion_operands(A), n)
    return _bareiss_stack(A)


def _expansion_operands(A: np.ndarray) -> np.ndarray:
    """A stack of ``n x n`` integer matrices in a dtype that holds every
    product of a cofactor expansion of their determinants: each is at most
    ``n! * a^n`` for the largest absolute entry ``a``, so ``A`` itself
    while that stays below ``_INT64_GUARD``, and ``A`` on Python ints
    (``object``) past it."""
    n = A.shape[-1]
    if A.dtype != object and len(A) and math.factorial(n) * max(
            int(A.max()), -int(A.min())) ** n >= _INT64_GUARD:
        return A.astype(object)
    return A


def _minors(A: np.ndarray, rows, cols) -> np.ndarray:
    """Per matrix of the stack ``A``, its ``k x k`` minors on the row index
    sets ``rows[q]`` and column index sets ``cols[q]`` (arrays that
    broadcast to ``(K, k)``), as an ``(s, K)`` array from one
    :func:`det_stack` pass (:func:`_det_array`): int64 while every minor
    stays below ``_INT64_GUARD``, else Python ints (``object``)."""
    sub = A[:, rows[:, :, None], cols[:, None, :]]
    s, K, k = sub.shape[:3]
    dets = _det_array(sub.reshape(s * K, k, k))
    if dets.dtype == object and max(map(abs, dets), default=0) < _INT64_GUARD:
        dets = dets.astype(np.int64)
    return dets.reshape(s, K)


@lru_cache(maxsize=None)
def _leave_one_out(n: int) -> np.ndarray:
    """``(n, n - 1)`` index table, read-only: row ``j`` lists ``range(n)``
    without ``j``."""
    table = np.array([[c for c in range(n) if c != j] for j in range(n)],
                     dtype=np.intp).reshape(n, n - 1)
    table.setflags(write=False)
    return table


def _cross_stack(A: np.ndarray) -> np.ndarray:
    """The cofactor rays (:func:`generalized_cross`) of a stack of
    ``r x (r+1)`` integer matrices: entry ``j`` is ``(-1)^j`` times the
    minor without column ``j``, so ``r = 0`` gives ``(1,)``.  The dtype is
    that of :func:`_minors`."""
    cols = _leave_one_out(A.shape[-1])
    # the last row of the table is range(r), every minor's row set
    return _minors(A, cols[-1:], cols) * (1 - 2 * (np.arange(len(cols)) % 2))


def _cofactor_stack(stack) -> np.ndarray:
    """The cofactor matrices of a stack of ``n x n`` integer matrices,
    ``n >= 1``: entry ``(i, j)`` is ``(-1)^(i+j)`` times the minor without
    row ``i`` and column ``j``, so row ``i`` is ``(-1)^i`` times the cross
    (:func:`_cross_stack`) of the matrix without row ``i``; in the dtype of
    :func:`_minors`."""
    A = _int_array(stack)
    s, n = A.shape[:2]
    rays = _cross_stack(A[:, _leave_one_out(n)].reshape(s * n, n - 1, n))
    return rays.reshape(s, n, n) * (1 - 2 * (np.arange(n) % 2))[:, None]


# 2x2 minors of two rows, as (left columns, right columns): the expansion
# of a 3x3 along its first row and of a 4x4 by its first two rows
# (generalized Laplace expansion).  A minus sign of the expansion is taken
# as a swapped column pair of the complementary minor.
_FIRST_ROW_MINORS = ([1, 2, 0], [2, 0, 1])
_TOP_MINORS = ([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])
_BOTTOM_MINORS = ([2, 3, 1, 0, 2, 0], [3, 1, 2, 3, 0, 1])


def _pair_minors(A: np.ndarray, r: int, cols: tuple) -> np.ndarray:
    """Per matrix of the stack ``A``, the 2x2 minors of rows ``r`` and
    ``r + 1`` on the column pairs ``cols``."""
    I, J = cols
    top, bottom = A[:, r], A[:, r + 1]
    return top[:, I] * bottom[:, J] - top[:, J] * bottom[:, I]


def _det_small(A: np.ndarray, n: int) -> np.ndarray:
    """Determinants of a stack of ``n x n`` matrices, ``1 <= n <= 4``, by
    closed-form cofactor expansion in the dtype of ``A``."""
    if n == 1:
        return A[:, 0, 0]
    if n == 2:
        return A[:, 0, 0] * A[:, 1, 1] - A[:, 0, 1] * A[:, 1, 0]
    if n == 3:
        return (A[:, 0] * _pair_minors(A, 1, _FIRST_ROW_MINORS)).sum(axis=1)
    return (_pair_minors(A, 0, _TOP_MINORS)
            * _pair_minors(A, 2, _BOTTOM_MINORS)).sum(axis=1)


def _bareiss_stack(A: np.ndarray) -> np.ndarray:
    """Determinants of a stack of ``n x n`` integer matrices, ``n >= 1``,
    in the dtype the steps ran on.

    Fraction-free Bareiss with row pivoting, one step for the whole stack
    at a time; a matrix with no pivot left in a column is singular and its
    rows are set to the identity so that the steps go on.  Every value the
    steps form is a product of two minors, so it is at most twice the
    square of the Hadamard bound (product of the row norms).  The steps run
    on int64 while that bound stays below ``_INT64_GUARD``, and on Python
    ints (``object``) for a stack with an entry past int64 or a bound that
    could reach the guard.
    """
    s, n = A.shape[:2]
    if A.dtype != object and (
            int(np.abs(A).max()) ** 2 * n >= _INT64_GUARD
            or 2 * math.prod(max(1, int(r)) for r in
                             (A * A).sum(axis=2).max(axis=0))
            >= _INT64_GUARD):
        A = A.astype(object)
    sign = np.ones(s, dtype=A.dtype)
    prev = np.ones(s, dtype=A.dtype)
    dead = np.zeros(s, dtype=bool)
    every = np.arange(s)
    eye = np.eye(n, dtype=A.dtype)
    for k in range(n - 1):
        nonzero = A[:, k:, k] != 0
        dead |= ~nonzero.any(axis=1)
        A[dead] = eye
        prev[dead] = 1
        p = k + nonzero.argmax(axis=1)
        swap = p != k
        A[every, k], A[every, p] = A[every, p], A[every, k]
        sign[swap] = -sign[swap]
        piv = A[:, k, k]
        A[:, k + 1:, k + 1:] = (
            A[:, k + 1:, k + 1:] * piv[:, None, None]
            - A[:, k + 1:, k, None] * A[:, k, None, k + 1:]
        ) // prev[:, None, None]
        A[:, k + 1:, k] = 0
        prev = piv.copy()
    det = sign * A[:, n - 1, n - 1]
    det[dead] = 0
    return det


def _row_reduce(rows: Iterable[Sequence[int]], ncols: int) -> tuple:
    """Fraction-free Gauss-Jordan elimination over the integers.

    Pivots are taken from the first ``ncols`` columns; any further columns
    (a right-hand side, an identity block) ride along.  Each elimination
    step replaces a row by ``p * row - f * pivot_row`` and divides it by
    its content, so the entries stay integers and every reduced row is a
    nonzero multiple of the row that rational Gauss-Jordan would give.

    Returns ``(rows, pivots)``: the reduced rows, with the row of the i-th
    pivot at index i, and the list of pivot columns.
    """
    rows = [_divide_content(list(row)) for row in rows]
    pivots: list = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = _divide_content(
                    [p * a - f * b for a, b in zip(row, prow)])
        pivots.append(c)
    return rows, pivots


def _divide_content(row: list) -> list:
    g = gcd_vector(row)
    return [a // g for a in row] if g > 1 else row


def rank(M: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals, by exact integer elimination."""
    return len(_row_reduce(M, len(M[0]) if M else 0)[1])


def generalized_cross(rows: Sequence[Sequence[Number]], dim: int) -> tuple:
    """Vector orthogonal to ``dim - 1`` rows of length ``dim`` (cofactors).

    Returns the zero vector exactly when the rows are linearly dependent.
    """
    rows = tuple(tuple(r) for r in rows)
    if len(rows) != dim - 1 or any(len(r) != dim for r in rows):
        raise ValueError("need dim-1 rows of length dim")
    out = []
    for j in range(dim):
        minor = [r[:j] + r[j + 1 :] for r in rows]
        d = det_cofactor(minor)
        out.append(d if j % 2 == 0 else -d)
    return tuple(out)


def _axpy(rows: list, dst: int, src: int, q: int) -> None:
    rows[dst] = [a + q * b for a, b in zip(rows[dst], rows[src])]


def smith_normal_form(M) -> tuple:
    """Smith normal form with transforms.

    Returns ``(S, U, V)`` with ``U @ M @ V == S``, ``U`` and ``V`` unimodular
    and ``S`` diagonal with nonnegative entries satisfying d1 | d2 | ...
    """
    M = as_matrix(M)
    if not M:
        raise ValueError("empty matrix")
    nr, nc = len(M), len(M[0])
    A = [list(r) for r in M]
    U = [list(r) for r in identity_matrix(nr)]
    V = [list(r) for r in identity_matrix(nc)]

    def col_axpy(dst: int, src: int, q: int) -> None:
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def col_swap(i: int, j: int) -> None:
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    for t in range(min(nr, nc)):
        while True:
            entries = [
                (abs(A[i][j]), i, j)
                for i in range(t, nr)
                for j in range(t, nc)
                if A[i][j] != 0
            ]
            if not entries:
                break
            _, pi, pj = min(entries)
            if pi != t:
                A[t], A[pi] = A[pi], A[t]
                U[t], U[pi] = U[pi], U[t]
            if pj != t:
                col_swap(t, pj)
            dirty = False
            for i in range(t + 1, nr):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    _axpy(A, i, t, -q)
                    _axpy(U, i, t, -q)
                    if A[i][t] != 0:
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, nc):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    col_axpy(j, t, -q)
                    if A[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            bad = next(
                (
                    i
                    for i in range(t + 1, nr)
                    for j in range(t + 1, nc)
                    if A[i][j] % A[t][t] != 0
                ),
                None,
            )
            if bad is not None:
                _axpy(A, t, bad, 1)
                _axpy(U, t, bad, 1)
                continue
            break
        if t < nr and A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
    return (
        tuple(tuple(row) for row in A),
        tuple(tuple(row) for row in U),
        tuple(tuple(row) for row in V),
    )


def lll_reduce(rows) -> tuple:
    """LLL-reduce linearly independent integer rows, exactly.

    Returns ``(B, U)`` with ``U`` unimodular, ``U @ rows == B`` and ``B``
    LLL-reduced for ``delta = 3/4``: size-reduced (``|mu_kj| <= 1/2``) and
    satisfying the Lovasz condition (Lenstra-Lenstra-Lovasz 1982; Cohen,
    *A Course in Computational Algebraic Number Theory*, Alg. 2.6.3).  The
    Gram-Schmidt data are exact fractions, recomputed after each swap.
    """
    b = [list(r) for r in as_matrix(rows)]
    n = len(b)
    U = [list(r) for r in identity_matrix(n)]

    def gram_schmidt():
        mu = [[Fraction(0)] * n for _ in range(n)]
        star, norms = [], []
        for i in range(n):
            v = [Fraction(a) for a in b[i]]
            for j in range(i):
                mu[i][j] = Fraction(dot(b[i], star[j])) / norms[j]
                v = [a - mu[i][j] * c for a, c in zip(v, star[j])]
            if not any(v):
                raise ValueError("rows are linearly dependent")
            star.append(v)
            norms.append(dot(v, v))
        return mu, norms

    mu, norms = gram_schmidt()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                _axpy(b, k, j, -q)
                _axpy(U, k, j, -q)
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        if norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            U[k - 1], U[k] = U[k], U[k - 1]
            mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return tuple(map(tuple, b)), tuple(map(tuple, U))


def unimodular_inverse(M) -> IntMatrix:
    """Exact inverse of an integer matrix with determinant +-1."""
    M = as_matrix(M)
    n = len(M)
    if n == 0:
        return ()
    if any(len(r) != n for r in M):
        raise ValueError("inverse needs a square matrix")
    rows, pivots = _row_reduce(
        [row + e for row, e in zip(M, identity_matrix(n))], n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    out = []
    for c, row in enumerate(rows):
        p = row[c]
        if any(x % p for x in row[n:]):
            raise ValueError("matrix is not unimodular")
        out.append(tuple(x // p for x in row[n:]))
    return tuple(out)


def solve_rational(A, b) -> Optional[tuple]:
    """Solve ``A x = b`` exactly over the rationals, for integer ``A``, ``b``.

    ``A`` must have full column rank (square or overdetermined systems);
    anything rank-deficient raises ``ValueError``.  Returns a tuple of
    Fractions, or ``None`` when the system is inconsistent.
    """
    A = tuple(tuple(row) for row in A)
    b = tuple(b)
    nr = len(A)
    if nr != len(b):
        raise ValueError("shape mismatch between matrix and right-hand side")
    nc = len(A[0]) if nr else 0
    if nc > nr:
        raise ValueError("underdetermined system")
    rows, pivots = _row_reduce(
        [row + (rhs,) for row, rhs in zip(A, b)], nc)
    if len(pivots) < nc:
        raise ValueError("matrix does not have full column rank")
    if any(row[-1] for row in rows[nc:]):
        return None
    return tuple(Fraction(row[-1], row[c]) for c, row in enumerate(rows[:nc]))


class AffineChart:
    """Affine-lattice-preserving coordinates on the affine hull of points.

    ``to_chart`` maps ``Z^m`` intersected with the affine hull bijectively
    onto ``Z^dim`` and ``from_chart`` inverts it.  Passing ``scale=k``
    shifts the chart to the hull of the k-th dilate, which shares the same
    direction lattice.

    A chart with ``dim == ambient_dim`` and origin 0 is the identity
    (``identity`` is true): its maps return the point as a tuple without
    any dot product, and still refuse a vector of the wrong length with
    ``ValueError``.
    """

    def __init__(self, ambient_dim, dim, origin, basis, proj_cols, comp_cols):
        self.ambient_dim = ambient_dim
        self.dim = dim
        self.origin = origin        # base point in Z^m
        self.basis = basis          # dim rows of length m
        self.proj_cols = proj_cols  # dim columns of length m
        self.comp_cols = comp_cols  # m - dim columns of length m
        self.identity = dim == ambient_dim and not any(origin)

    def in_affine_hull(self, x, scale: int = 1) -> bool:
        if self.identity:
            _check_length(x, self.ambient_dim)
            return True
        y = vsub(x, vscale(self.origin, scale))
        return all(dot(y, col) == 0 for col in self.comp_cols)

    def to_chart(self, x, scale: int = 1) -> tuple:
        if self.identity:
            _check_length(x, self.ambient_dim)
            return tuple(x)
        y = vsub(x, vscale(self.origin, scale))
        if any(dot(y, col) != 0 for col in self.comp_cols):
            raise ValueError(f"point {tuple(x)} is not in the affine hull")
        return tuple(dot(y, col) for col in self.proj_cols)

    def from_chart(self, c, scale: int = 1) -> tuple:
        if self.identity:
            _check_length(c, self.dim)
            return tuple(c)
        x = list(vscale(self.origin, scale))
        for ci, row in zip(c, self.basis, strict=True):
            for j in range(self.ambient_dim):
                x[j] += ci * row[j]
        return tuple(x)


def _check_length(v, n: int) -> None:
    if len(v) != n:
        raise ValueError(f"expected a vector of length {n}, got {len(v)}")


def build_chart(points) -> AffineChart:
    """Build the exact full-dimensionalization chart for a point set.

    Every point of a chart other than the identity is checked to round-trip
    through it."""
    pts = as_matrix(points)
    if not pts:
        raise ValueError("no points")
    m = len(pts[0])
    p0 = pts[0]
    diffs = [vsub(p, p0) for p in pts[1:]]
    r = rank(diffs) if diffs else 0
    if r == m:
        ident = identity_matrix(m)
        chart = AffineChart(m, m, (0,) * m, ident, ident, ())
    elif r == 0:
        ident = identity_matrix(m)
        chart = AffineChart(m, 0, p0, (), (), ident)
    else:
        # Vinv's first r rows are a basis of the direction lattice and V's
        # first r columns its dual; a reduced basis U @ Vinv[:r] keeps the
        # chart coordinates small, and its dual is V[:, :r] @ U^-1, so the
        # complement columns and every pulled-back facet stay the same.
        _, _, V = smith_normal_form(diffs)
        basis, U = lll_reduce(unimodular_inverse(V)[:r])
        cols = transpose(V)
        proj = tuple(vec_mat(row, cols[:r])
                     for row in transpose(unimodular_inverse(U)))
        chart = AffineChart(m, r, p0, basis, proj, cols[r:])
    if chart.identity:
        return chart
    for p in pts:
        if not chart.in_affine_hull(p) or chart.from_chart(chart.to_chart(p)) != p:
            raise AssertionError("chart construction failed to round-trip")
    return chart

