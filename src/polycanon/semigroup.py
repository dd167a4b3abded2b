"""Graded point semigroups of a lattice polytope.

Two monoids matter here: the lattice points of all dilates, graded by the
dilation degree, and the ideal of points interior to the cone.  A point of
the ideal reduces by peeling off degree-one points while staying in the
ideal; the least degree reachable that way (its reduced degree) equals its
own degree exactly when the point is an irreducible generator.

The generator sets, the reduced-degree search and the splitting check all
work on dilate slices held as boolean masks (``Polytope._slice``) and ask
one question: which points of a slice lie in a sumset ``A + B`` of two
lower slices.  :func:`_sumset` answers it with shifted ORs of one mask.
The per-point predicates :func:`is_irreducible` and
:func:`is_irreducible_full` and :func:`reduced_degree_oracle` are kept as
independent twins to test the mask kernel against.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .cone import GradedPoint, ReductionWitness, cone_over, cone_slice
from .exactmath import vadd, vsub
from .polytope import Polytope

# Work budget of the shifted ORs, in mask cells ORed, checked before the
# first sumset.  example2(6) reads 1.5e10 for its degree-one generators and
# 3.3e11 under the full action; conv{0, 60e1, 60e2, 60e3} reads 3.1e11.
SUMSET_CAP = 10**11


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
    """Mask cells :func:`_sumset` ORs for slices ``a`` and ``b``."""
    na, nb = np.count_nonzero(a[1]), np.count_nonzero(b[1])
    return na * b[1].size if na <= nb else nb * a[1].size


def _check_work(work: int) -> None:
    if work > SUMSET_CAP:
        raise ValueError(f"the sumsets would OR {work} mask cells, over the"
                         f" cap of {SUMSET_CAP}")


def _sumset(a: tuple, b: tuple) -> tuple:
    """The slice ``(lo, mask)`` of the sumset ``A + B`` of two slices.

    Its box corner is the sum of theirs and each side is one shorter than
    the sum of theirs, so slices of degrees ``j`` and ``l`` sum onto the
    box of degree ``j + l``.  The larger mask is ORed in once, shifted, per
    point of the smaller one.
    """
    if np.count_nonzero(a[1]) > np.count_nonzero(b[1]):
        a, b = b, a
    (lo_a, small), (lo_b, big) = a, b
    out = np.zeros(tuple(s + t - 1 for s, t in zip(small.shape, big.shape)),
                   dtype=bool)
    for idx in np.argwhere(small).tolist():
        out[tuple(slice(i, i + n) for i, n in zip(idx, big.shape))] |= big
    return tuple(map(operator.add, lo_a, lo_b)), out


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


def is_irreducible(P: Polytope, y: GradedPoint) -> bool:
    """No way to split off a degree-one point and stay in the ideal.

    Peeling a single degree-one point is exact: in a splitting
    ``y = z + u_1 + ... + u_j`` every partial sum over ``z`` is still
    interior (adding cone points to an interior point stays interior), so
    some single ``u`` already witnesses reducibility.
    """
    _require_ideal(P, y)
    k = y.degree
    if k == 1:
        return True
    interior = _interior_set(P, k - 1)
    return not any(vsub(y.position, u) in interior
                   for u in P.lattice_points(1))


def reduced_degree(P: Polytope, y: GradedPoint
                   ) -> Tuple[int, ReductionWitness]:
    """Least degree of an interior part when ``y`` splits into an interior
    point plus degree-one points.

    Breadth-first peeling of degree-one points, level by level; every
    intermediate remainder of a valid splitting is itself interior, so
    searching only interior states is exhaustive.  Level ``j`` is the mask
    of interior points of degree ``k - j`` reached from ``y``.  Returns the
    value and a witness whose interior part is the lexicographically least
    at that value and whose path takes, step by step back up, the least
    point of the level above, so the result is deterministic.
    """
    _require_ideal(P, y)
    k = y.degree
    lo1, ones = P._slice(1, False)
    # -P as a slice: t = s - u for s in a level and u in P
    minus_ones = (tuple(-(l + n - 1) for l, n in zip(lo1, ones.shape)),
                  np.flip(ones))
    lo, shape = P._box(k)
    start = np.zeros(shape, dtype=bool)
    start[P._locate(y.position, k)] = True
    levels = [(lo, start)]
    while len(levels) < k:
        lo_in, inner = P._slice(k - len(levels), True)
        lo_r, reach = _sumset(levels[-1], minus_ones)
        crop = tuple(slice(a - b, a - b + n)
                     for a, b, n in zip(lo_in, lo_r, inner.shape))
        nxt = inner & reach[crop]
        if not nxt.any():
            break
        levels.append((lo_in, nxt))
    depth = len(levels) - 1
    value = k - depth
    z_pos = P._points(value, *levels[-1])[0]
    ones_pts = P.lattice_points(1)
    parts = []
    cur = z_pos
    for j in range(depth, 0, -1):
        # the parent is the lex-least cur + u in the level above; adding
        # cur keeps the lex order of the degree-one points
        _, above = levels[j - 1]
        for u in ones_pts:
            idx = P._locate(vadd(cur, u), k - j + 1)
            if idx is not None and above[idx]:
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
    point-set lookups.  Exponential; meant for small cross-checks only.
    """
    _require_ideal(P, y)
    k = y.degree
    ones = P.lattice_points(1)
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
        P, lambda k: range(max(k - 1, 1), k)))


def _generator_report(P: Polytope, lows: Callable[[int], range]
                      ) -> GeneratorReport:
    """Scan degrees ``1 .. dim + 1`` for the interior points outside every
    sumset ``interior_low + lattice_{k-low}`` with ``low`` in ``lows(k)``."""
    pairs = {k: [(P._slice(low, True), P._slice(k - low, False))
                 for low in lows(k)] for k in range(1, P.dim + 2)}
    _check_work(sum(_sumset_work(a, b)
                    for ps in pairs.values() for a, b in ps))
    gens = []
    for k in range(1, P.dim + 2):
        lo, inner = P._slice(k, True)
        reducible = np.zeros_like(inner)
        for a, b in pairs[k]:
            reducible |= _sumset(a, b)[1]
        gens.extend(GradedPoint(p, k)
                    for p in P._points(k, lo, inner & ~reducible))
    hist: Dict[int, int] = {}
    for g in gens:
        hist[g.degree] = hist.get(g.degree, 0) + 1
    return GeneratorReport(
        generators=tuple(gens),
        degree_histogram=tuple(sorted(hist.items())),
        max_degree=max(g.degree for g in gens),
        bound=degree_bound(P),
    )


def reduced_degree_values(P: Polytope) -> tuple:
    """The set of reduced degrees attained over the whole ideal: exactly
    the degrees of the irreducible generators."""
    return irreducible_generators(P).degrees()


def max_reduced_degree(P: Polytope) -> int:
    return irreducible_generators(P).max_degree


def is_irreducible_full(P: Polytope, y: GradedPoint) -> bool:
    """Irreducibility of an interior point under the full graded semigroup.

    Here the subtracted element may be *any* lattice point of the cone with
    degree between 1 and ``y.degree - 1`` — not merely a sum of degree-one
    points.  ``y`` is irreducible in this stronger sense when no such
    subtraction leaves an interior remainder.  The scan walks the interior
    slices (small) for the remainder and tests the complement against the
    full lattice slice (large) by set membership.
    """
    _require_ideal(P, y)
    k = y.degree
    for low in range(1, k):
        lattice = _lattice_set(P, k - low)
        for z in P.interior_lattice_points(low):
            if vsub(y.position, z) in lattice:
                return False
    return True


def full_generators(P: Polytope) -> GeneratorReport:
    """Minimal generators of the interior ideal under the full semigroup
    of graded lattice points.

    Because subtracting sums of degree-one points is a special case of
    subtracting arbitrary positive-degree points, these generators form a
    subset of :func:`irreducible_generators`, so their degrees are also
    capped by ``dim + 1`` and the scan over degrees ``1 .. dim + 1`` is
    exhaustive.  The two reports coincide exactly when every graded lattice
    point splits into degree-one summands (see :func:`idp_check`).  At
    degree ``k`` the reducible points are the interior ones in some
    ``interior_low + lattice_{k-low}``, ``1 <= low < k``.
    """
    return P._memo("full_generator_report",
                   lambda: _generator_report(P, lambda k: range(1, k)))


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
