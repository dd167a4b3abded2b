"""Graded point semigroups of a lattice polytope.

Two monoids matter here: the lattice points of all dilates, graded by the
dilation degree, and the ideal of points interior to the cone.  A point of
the ideal reduces by peeling off degree-one points while staying in the
ideal; the least degree reachable that way (its reduced degree) equals its
own degree exactly when the point is an irreducible generator.

The generator sets, the reduced-degree search and the splitting check all
work on boolean masks over chart boxes and ask one question: which points
of a mask lie in a sumset ``A + B`` of two others.  :func:`_sumset`
answers it by one of two exact routes: a small sumset sets the pairwise
sums of the operands' flat indices in the strides of the result box, and
a larger one takes one shifted OR per run of one operand along the last
axis, of the other mask widened to the run's length.  Every mask is
turned into indices by one flat scan (``polytope._true_cells``).  The
generator scans and the splitting check take whole dilate slices
(``Polytope._slice``).
The reduced-degree search of one point ``y`` of degree ``k`` holds its
level ``j``, which lies in ``y - jP``, on a window of the dilate of degree
``k - j`` (:func:`reduced_degree`), and builds or caches no interior
slice, though it crops one that is cached already.

Both generator reports run one stage: at degree ``k`` a point is reducible
when it lies in some ``interior_{k-j} + basis_j``.  Under the degree-one
action the basis is the degree-one slice alone.  Under the full action it
is the Hilbert basis of the graded semigroup, its points that are no sum
of two of positive degree; it lies in degrees ``<= max(dim - 1, 1)`` and
is built degree by degree with the same sumsets (:func:`full_generators`).

:func:`reduced_degree_oracle` is kept as an independent exhaustive route
to test the reduced-degree search against.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .cone import GradedPoint, ReductionWitness, cone_over, cone_slice
from .exactmath import vadd, vsub
from .polytope import BudgetError, Polytope, _true_cells

# Work budget of the shifted ORs, in mask cells ORed, checked before the
# first sumset.  example2(6) reads 1.5e10 for its degree-one generators and
# 2.9e10 under the full action, 1.35e10 of it a bound on building the
# Hilbert basis; conv{0, 60e1, 60e2, 60e3} reads 3.1e11 and 3.2e11.  The
# scatter route's count(A) * count(B) pairs of points never exceed the
# count(A) * size(B) cells ORed, so the cap bounds both routes.
SUMSET_CAP = 10**11
# A sumset with at most this many pairs of points per cell of the result
# scatters them.  On the sumsets of example2(5) scattering won at 1.5-8.6
# pairs per cell, tied near 10.8 and lost from 16.3 on.
_SCATTER_RATIO = 8
# The scatter route holds at most max(size(result) // 8, _SCATTER_FLOOR)
# int64 indices at once: no more index bytes than the result has cells,
# past a floor of 1 MiB.
_SCATTER_FLOOR = 2**17
# Multisets of degree-one points that reduced_degree_oracle may try, checked
# before the first one; the benchmark's oracle check stays under about
# 10**5 and the test suite's far under that.
ORACLE_CAP = 10**6


@dataclass(frozen=True)
class BoundClass:
    """The sharpest general degree bound that applies to a polytope."""

    bound: int
    reason: str


@dataclass(frozen=True)
class GeneratorReport:
    """Minimal generators of the interior ideal plus summary data."""

    generators: tuple            # GradedPoints, sorted by (degree, position)
    degree_histogram: tuple      # ((degree, count), ...) sorted
    max_degree: int              # largest generator degree == max reduced deg
    bound: BoundClass

    def degrees(self) -> tuple:
        return tuple(d for d, _ in self.degree_histogram)


def _lattice_set(P: Polytope, k: int) -> frozenset:
    return P._memo(("lattice_set", k),
                   lambda: frozenset(P.lattice_points(k)))


def _interior_set(P: Polytope, k: int) -> frozenset:
    return P._memo(("interior_set", k),
                   lambda: frozenset(P.interior_lattice_points(k)))


def _sumset_work(a: tuple, b: tuple) -> int:
    """Mask cells :func:`_sumset` ORs for slices ``a`` and ``b`` on its
    run route, at least the pairs of points its scatter route sets."""
    na, nb = np.count_nonzero(a[1]), np.count_nonzero(b[1])
    return na * b[1].size if na <= nb else nb * a[1].size


def _check_work(work: int) -> None:
    if work > SUMSET_CAP:
        raise BudgetError(f"the sumsets would OR {work} mask cells, over the"
                          f" cap of {SUMSET_CAP}")


def _runs(mask) -> list:
    """The maximal runs of true cells of a mask along its last axis, as
    ``(first cell, length)`` in C order, read off one flat scan of the mask
    (:func:`_true_cells`); a run ends with its row."""
    runs = []
    first, n = None, 0
    for idx in _true_cells(mask).tolist():
        if n and idx[-1] == first[-1] + n and idx[:-1] == first[:-1]:
            n += 1
            continue
        if n:
            runs.append((first, n))
        first, n = idx, 1
    if n:
        runs.append((first, n))
    return runs


def _scatter(flat, fa, fb, rows: int) -> None:
    """Set the cells of the flat mask ``flat`` at every sum of an index of
    ``fa`` and one of ``fb``, ``rows`` indices of ``fa`` at a time."""
    for i in range(0, len(fa), rows):
        flat[fa[i:i + rows, None] + fb] = True


def _sumset(a: tuple, b: tuple) -> tuple:
    """The slice ``(lo, mask)`` of the sumset ``A + B`` of two slices.

    Its box corner is the sum of theirs and each side is one shorter than
    the sum of theirs, so slices of degrees ``j`` and ``l`` sum onto the
    box of degree ``j + l``.  Two routes give the same mask.

    When the sparser operand is not a single point and the pairs of
    points, ``count(A) * count(B)``, are at most
    ``_SCATTER_RATIO`` times the cells of the result, both operands' true
    cells (:func:`_true_cells`) are taken as flat indices in the result's
    C-order strides, where the index of ``a + b`` is the index of ``a``
    plus that of ``b``, and the pairwise sums are set, a block of rows of
    the sparser operand at a time (:func:`_scatter`).  The cell rows, the
    flat indices of both operands and one block of sums stay under
    ``max(size // 8, _SCATTER_FLOOR)`` entries; a pair over that takes the
    other route.

    Otherwise the operand with fewer points is walked by its runs along
    the last axis (:func:`_runs`), shortest first.  The other mask is
    widened along that axis to the length of each run, so that ``w_n``
    holds its shifts by ``0 .. n - 1``, and ORed in once per run at the
    run's first cell.  With the widenings that makes at most
    ``runs + longest - 1`` shifted ORs, never more than one per point.  A
    single point, as the first level of every :func:`reduced_degree`
    search is, takes one OR.
    """
    na, nb = np.count_nonzero(a[1]), np.count_nonzero(b[1])
    if na > nb:
        a, b, na, nb = b, a, nb, na
    (lo_a, small), (lo_b, big) = a, b
    out = np.zeros(tuple(s + t - 1 for s, t in zip(small.shape, big.shape)),
                   dtype=bool)
    lo = tuple(map(operator.add, lo_a, lo_b))
    limit = max(out.size // 8, _SCATTER_FLOOR)
    if na != 1 and na * nb <= _SCATTER_RATIO * out.size \
            and (na + nb) * (out.ndim + 1) <= limit:
        # a bool mask's byte strides are its strides in cells
        strides = np.array(out.strides, dtype=np.int64)
        fa, fb = (_true_cells(m) @ strides for m in (small, big))
        _scatter(out.reshape(-1), fa, fb,
                 max(1, (limit - na - nb) // max(nb, 1)))
        return lo, out
    wide, n = big, 1
    for first, length in sorted(_runs(small), key=operator.itemgetter(1)):
        while n < length:
            # w_{n + s} = w_n | (w_n shifted by s), for any s <= n
            s = min(length - n, n)
            w = np.zeros(wide.shape[:-1] + (wide.shape[-1] + s,), dtype=bool)
            w[..., :-s] = wide
            w[..., s:] |= wide
            wide, n = w, n + s
        out[tuple(slice(i, i + m) for i, m in zip(first, wide.shape))] |= wide
    return lo, out


def _crop(lo: tuple, shape: tuple, corner: tuple) -> tuple:
    """The slices of the box ``(lo, shape)`` in a mask with lowest corner
    ``corner``."""
    return tuple(slice(a - c, a - c + n) for a, c, n in zip(lo, corner, shape))


def _outside(mask, pairs) -> np.ndarray:
    """The cells of ``mask`` in no sumset ``A + B`` of the slice pairs
    ``pairs``, all of them on the box of ``mask``.  Each sumset's mask is
    overwritten with the running result, so at most the result and one
    sumset of the box's size are held at a time."""
    for a, b in pairs:
        s = _sumset(a, b)[1]
        np.logical_not(s, out=s)
        mask = np.logical_and(mask, s, out=s)
    return mask


def degree_one_points(P: Polytope) -> tuple:
    """The height-one graded points: lattice points of the polytope itself."""
    return cone_slice(cone_over(P), 1)


def semigroup_contains(P: Polytope, y: GradedPoint) -> bool:
    """Membership in the full graded semigroup."""
    if y.degree < 0:
        return False
    if y.degree == 0:
        return not any(y.position)
    return y.position in _lattice_set(P, y.degree)


def ideal_contains(P: Polytope, y: GradedPoint) -> bool:
    """Membership in the interior ideal."""
    return y.degree >= 1 and y.position in _interior_set(P, y.degree)


def _require_ideal(P: Polytope, y: GradedPoint) -> None:
    if y.degree < 1 or P.classify_point(y.position,
                                        scale=y.degree) != "interior":
        raise ValueError(
            f"point {y.position} at degree {y.degree} is not interior to"
            " the cone over the polytope")


def reduced_degree(P: Polytope, y: GradedPoint
                   ) -> Tuple[int, ReductionWitness]:
    """Least degree of an interior part when ``y`` splits into an interior
    point plus degree-one points.

    Breadth-first peeling of degree-one points, level by level; every
    intermediate remainder of a valid splitting is itself interior, so
    searching only interior states is exhaustive.  Level ``j`` is the mask
    of interior points of degree ``k - j`` reached from ``y``.  It lies in
    ``y - jP``, so it is held on a window, not on the whole dilate box: the
    box its sumset reaches, the level above's window minus the box of
    ``P``, cut down to the box of degree ``k - j``.  Its interior cells are
    cropped from the interior slice of degree ``k - j`` when ``P`` has
    cached it already (the check suite has), and otherwise come from the
    per-line facet bounds on that window alone, so no interior slice is
    built or cached.  Before the first sumset the search is
    refused when ``|P|`` times the larger operand box of each sumset,
    summed over the levels, is over the work budget.  Returns the value
    and a witness whose interior part is the lexicographically least at
    that value and whose path takes, step by step back up, the least point
    of the level above (read off its window), so the result is
    deterministic.
    """
    _require_ideal(P, y)
    k = y.degree
    lo1, ones = P._slice(1, False)
    # -P as a slice: t = s - u for s in a level and u in P
    minus_ones = (tuple(-(l + n - 1) for l, n in zip(lo1, ones.shape)),
                  np.flip(ones))
    P._box(k)  # refuse an oversized query degree before any work
    # level j lives on the box its sumset reaches, the window of level
    # j - 1 minus the box of P, cut down to the box of degree k - j; each
    # window is (lowest corner, shape), and end is one past its top corner
    windows = [(P._chart.to_chart(y.position, k), (1,) * P.dim)]
    work = 0
    for j in range(1, k):
        lo_w, shape_w = windows[-1]
        lo_b, shape_b = P._box(k - j)
        lo = tuple(map(max, map(operator.add, lo_w, minus_ones[0]), lo_b))
        end = tuple(min(w + n - p, b + m) for w, n, p, b, m
                    in zip(lo_w, shape_w, lo1, lo_b, shape_b))
        if any(e <= a for a, e in zip(lo, end)):
            break
        windows.append((lo, tuple(map(operator.sub, end, lo))))
        # the sumset ORs |P| cells per cell of its larger operand, at most
        work += max(math.prod(shape_w), ones.size)
    _check_work(int(np.count_nonzero(ones)) * work)
    levels = [(windows[0][0], np.ones(windows[0][1], dtype=bool))]
    for j, (lo, shape) in enumerate(windows[1:], 1):
        lo_r, reach = _sumset(levels[-1], minus_ones)
        # the window lies in the box of degree k - j, so a cached interior
        # slice of that degree holds every cell of it
        lo_in, inner = P._cache.get(("slice", k - j, True)) \
            or (lo, P._build_slice(k - j, True, lo, shape))
        nxt = inner[_crop(lo, shape, lo_in)] & reach[_crop(lo, shape, lo_r)]
        if not nxt.any():
            break
        levels.append((lo, nxt))
    depth = len(levels) - 1
    value = k - depth
    z_pos = P._points(value, *levels[-1])[0]
    ones_pts = P.lattice_points(1)
    parts = []
    cur = z_pos
    for j in range(depth, 0, -1):
        # the parent is the lex-least cur + u in the level above; adding
        # cur keeps the lex order of the degree-one points
        lo, above = levels[j - 1]
        for u in ones_pts:
            idx = tuple(map(operator.sub, P._chart.to_chart(
                vadd(cur, u), k - j + 1), lo))
            if all(0 <= i < n for i, n in zip(idx, above.shape)) \
                    and above[idx]:
                break
        parts.append(GradedPoint(u, 1))
        cur = vadd(cur, u)
    parts.sort(key=lambda p: p.position)
    witness = ReductionWitness(GradedPoint(z_pos, value), tuple(parts))
    if witness.total() != y:
        raise AssertionError("witness reconstruction failed")
    return value, witness


def reduced_degree_oracle(P: Polytope, y: GradedPoint) -> int:
    """Independent recomputation of the reduced degree.

    Tries every multiset of degree-one points from largest to smallest
    size and tests the remainder with facet-form classification instead of
    point-set lookups.  Exponential; meant for small cross-checks only:
    raises ``BudgetError``, before trying any, when the multisets of all
    sizes ``j < k``, ``C(|P| + j - 1, j)`` each, are over ``ORACLE_CAP``.
    """
    _require_ideal(P, y)
    k = y.degree
    ones = P.lattice_points(1)
    count = sum(math.comb(len(ones) + j - 1, j) for j in range(1, k))
    if count > ORACLE_CAP:
        raise BudgetError(f"the oracle would try {count} multisets of"
                          f" degree-one points, over the cap of {ORACLE_CAP}")
    for j in range(k - 1, 0, -1):
        for combo in itertools.combinations_with_replacement(ones, j):
            z = y.position
            for u in combo:
                z = vsub(z, u)
            if P.classify_point(z, scale=k - j) == "interior":
                return k - j
    return k


def degree_bound(P: Polytope) -> BoundClass:
    """The sharpest applicable general bound on reduced degrees."""
    from .simplex import is_empty_simplex

    d = P.dim
    if is_empty_simplex(P) and d >= 1:
        return BoundClass(d + 1, "empty simplex")
    if d >= 2 and P.interior_lattice_points(1):
        return BoundClass(d - 1, "has an interior lattice point")
    return BoundClass(max(d, 1), "not an empty simplex")


def irreducible_generators(P: Polytope) -> GeneratorReport:
    """All irreducible points of the interior ideal.

    Every point of the ideal reduces to degree at most ``dim + 1``, so the
    scan over degrees ``1 .. dim + 1`` is exhaustive.  At degree ``k`` the
    reducible points are the interior ones in ``interior_{k-1} + P``.
    """
    return P._memo("generator_report", lambda: _generator_report(
        P, {1: P._slice(1, False)}))


def _generation_work(P: Polytope, basis: Dict[int, tuple]) -> int:
    """Mask cells the sumsets of :func:`_generator_report` OR."""
    return sum(_sumset_work(P._slice(k - j, True), b)
               for j, b in basis.items() if b[1].any()
               for k in range(j + 1, P.dim + 2))


def _generator_report(P: Polytope, basis: Dict[int, tuple], spent: int = 0
                      ) -> GeneratorReport:
    """Scan degrees ``1 .. dim + 1`` for the interior points outside every
    sumset ``interior_{k-j} + basis_j`` with ``j < k``, where ``basis``
    maps a degree ``j`` to the slice of subtracted points; an empty one is
    skipped.  ``spent`` is the sumset work already admitted."""
    _check_work(spent + _generation_work(P, basis))
    gens = []
    for k in range(1, P.dim + 2):
        lo, inner = P._slice(k, True)
        free = _outside(inner, ((P._slice(k - j, True), b)
                                for j, b in basis.items()
                                if j < k and b[1].any()))
        gens.extend(GradedPoint(p, k) for p in P._points(k, lo, free))
    hist: Dict[int, int] = {}
    for g in gens:
        hist[g.degree] = hist.get(g.degree, 0) + 1
    return GeneratorReport(
        generators=tuple(gens),
        degree_histogram=tuple(sorted(hist.items())),
        max_degree=max(g.degree for g in gens),
        bound=degree_bound(P),
    )


def full_generators(P: Polytope) -> GeneratorReport:
    """Minimal generators of the interior ideal under the full semigroup
    of graded lattice points.

    Because subtracting sums of degree-one points is a special case of
    subtracting arbitrary positive-degree points, these generators form a
    subset of :func:`irreducible_generators`, so their degrees are also
    capped by ``dim + 1`` and the scan over degrees ``1 .. dim + 1`` is
    exhaustive.  The two reports coincide exactly when every graded lattice
    point splits into degree-one summands (see :func:`idp_check`).

    The subtracted point can be taken from the Hilbert basis of the graded
    semigroup, its points that are no sum of two of positive degree: if
    ``y = z + w`` with ``z`` interior and ``w = w1 + w2``, then ``z + w2``
    is still interior and ``y = (z + w2) + w1``.  That basis lies in
    degrees ``<= max(dim - 1, 1)``, because ``(c + 1)P`` and ``cP + P``
    hold the same lattice points for every ``c >= dim - 1`` (Bruns,
    Gubeladze and Trung, 1997).  So the basis slices are built degree by
    degree up to there with the same sumsets, and at degree ``k`` the
    reducible points are the interior ones in some
    ``interior_{k-j} + basis_j``.  Most ``basis_j`` with ``j >= 2`` are
    empty or a few points.
    """
    return P._memo("full_generator_report",
                   lambda: _full_generator_report(P))


def _full_generator_report(P: Polytope) -> GeneratorReport:
    """The generator scan over the Hilbert basis slices: ``basis_1`` is the
    degree-one slice, and ``basis_j`` for ``2 <= j <= max(dim - 1, 1)``
    holds the points of ``lattice_j`` outside every
    ``basis_i + lattice_{j-i}``, ``i < j``."""
    top = max(P.dim - 1, 1)
    lattice = {j: P._slice(j, False) for j in range(1, top + 1)}
    # basis_i lies in lattice_i, and basis_i + lattice_{j-i} walks the
    # sparser operand and ORs the other: at most the fewer points of the
    # two lattice slices times the larger box
    spent = sum(min(np.count_nonzero(a[1]), np.count_nonzero(b[1]))
                * max(a[1].size, b[1].size)
                for j in range(2, top + 1) for i in range(1, j)
                for a, b in [(lattice[i], lattice[j - i])])
    _check_work(spent + _generation_work(P, {1: lattice[1]}))
    basis = {1: lattice[1]}
    for j in range(2, top + 1):
        lo, lat = lattice[j]
        basis[j] = lo, _outside(lat, ((b, lattice[j - i])
                                      for i, b in basis.items()
                                      if b[1].any()))
    return _generator_report(P, basis, spent)


def idp_check(P: Polytope, kmax: Optional[int] = None
              ) -> Tuple[bool, Optional[GradedPoint]]:
    """Is every degree-``k`` semigroup element a sum of ``k`` degree-one
    elements, for all ``k`` up to ``kmax``?

    With ``kmax=None`` the check runs up to ``max(dim, 2)``, which is
    conclusive: above that degree a splitting always exists.  Returns the
    verdict and the first failing point, if any.
    """
    if kmax is None:
        kmax = max(P.dim, 2)
    if kmax < 2:
        raise ValueError("kmax must be at least 2")
    P._box(kmax)  # refuse an oversized top degree before any scan
    ones = P._slice(1, False)
    # step k costs at most |P| * size(box_{k-1}); no slice above 1 is read
    _check_work(np.count_nonzero(ones[1])
                * sum(math.prod(P._box(k)[1]) for k in range(1, kmax)))
    for k in range(2, kmax + 1):
        lo, lat = P._slice(k, False)
        bad = lat & ~_sumset(P._slice(k - 1, False), ones)[1]
        if bad.any():
            return False, GradedPoint(P._points(k, lo, bad)[0], k)
    return True, None
