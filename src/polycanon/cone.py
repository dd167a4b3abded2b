"""The graded cone over a lattice polytope and its lattice-point semigroups.

Placing a polytope ``P`` in ``Z^m`` at height one and coning over it yields
a cone in ``Z^(m+1)`` whose lattice points at height ``k`` are exactly the
lattice points of the ``k``-th dilate of ``P``.  The last coordinate of a
graded point is called its degree.

``GradedCone.codes`` sorts a whole array of points of one degree into
interior, boundary and outside with one product by the cone's ambient
forms, on int64 or, past the int64 guard, on Python ints;
``GradedCone.classify`` is its labels view for a list of points.  Their
per-point twin ``GradedCone.membership`` takes the other route: the base's
``Polytope.classify_point``, a slack loop over the facets of its chart.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exactmath import dot, gcd_vector, vadd
from .polytope import _INT64_GUARD, Polytope

_LABELS = ("interior", "boundary", "outside")


@dataclass(frozen=True)
class GradedPoint:
    """A lattice point of the graded cone: base-space position plus degree."""

    position: tuple
    degree: int

    @property
    def lifted(self) -> tuple:
        return self.position + (self.degree,)

    @classmethod
    def from_lifted(cls, y: Sequence[int]) -> "GradedPoint":
        y = tuple(y)
        return cls(position=y[:-1], degree=y[-1])


@dataclass(frozen=True)
class ReductionWitness:
    """A decomposition ``y = interior_part + sum(parts)`` where every part
    is a degree-one semigroup point."""

    interior_part: GradedPoint
    parts: tuple

    def total(self) -> GradedPoint:
        pos = self.interior_part.position
        deg = self.interior_part.degree
        for p in self.parts:
            pos = vadd(pos, p.position)
            deg += p.degree
        return GradedPoint(pos, deg)


class GradedCone:
    """Supporting data for the cone over ``base x {1}``.

    * ``support_forms``: homogeneous inequalities ``g . (x, t) >= 0`` that,
      together with the span equations and ``t >= 0``, cut out the cone.
      Each comes from a facet ``n . x <= o`` of the base as ``g = (-n, o)``.
    * ``span_equations``: homogeneous equations ``e . (x, t) == 0`` cutting
      out the linear span (empty when the base is full-dimensional).
    """

    def __init__(self, base: Polytope):
        self.base = base
        self.ambient_dim = base.ambient_dim + 1
        self.dim = base.dim + 1
        forms = []
        for f in base.facets:
            g = tuple(-a for a in f.normal) + (f.offset,)
            forms.append(g)
        self.support_forms = tuple(sorted(forms))
        eqs = []
        chart = base._chart
        for col in chart.comp_cols:
            e = tuple(col) + (-dot(col, chart.origin),)
            g = gcd_vector(e)
            if g > 1:
                e = tuple(a // g for a in e)
            if e < tuple(-a for a in e):
                e = tuple(-a for a in e)
            eqs.append(e)
        self.span_equations = tuple(sorted(eqs))
        self._coeff = max((abs(a) for g in self.span_equations
                           + self.support_forms for a in g), default=0)

    def membership(self, point: GradedPoint) -> str:
        """Classify a graded point: ``"interior"`` (relative interior of the
        cone), ``"boundary"`` or ``"outside"``.  A point of degree ``k``
        other than the apex is labelled as the base labels its position
        against the ``k``-th dilate (:meth:`Polytope.classify_point`)."""
        if point.degree < 0:
            return "outside"
        if point.degree == 0 and not any(point.position):
            return "boundary"
        return self.base.classify_point(point.position, scale=point.degree)

    def classify(self, positions: Sequence[tuple], degree: int) -> tuple:
        """``membership(GradedPoint(p, degree))`` for each ``p`` in
        ``positions``, in order: the labels of :meth:`codes`."""
        if not positions:
            return ()
        big = max(map(abs, itertools.chain.from_iterable(positions)),
                  default=0)
        rows = np.array(positions,
                        dtype=object if big >= _INT64_GUARD else np.int64)
        return tuple(map(_LABELS.__getitem__,
                         self.codes(rows, degree).tolist()))

    def codes(self, rows: np.ndarray, degree: int) -> np.ndarray:
        """Per row of ``rows``, an integer array of positions of one degree,
        the index in ``("interior", "boundary", "outside")`` of its label,
        from one product of the lifted rows with the span equations and
        support forms: a nonzero span value or a negative support value
        means outside, and otherwise a zero support value, or degree zero,
        means boundary.  The product is taken on int64 while every entry of
        it stays below ``_INT64_GUARD``, and on Python ints (``object``)
        past it.
        """
        if degree < 0:
            return np.full(len(rows), 2)
        big = int(abs(rows).max(initial=0))
        wide = ((max(big, degree) + 1) * self._coeff * self.ambient_dim
                >= _INT64_GUARD)
        dtype = object if wide else np.int64
        forms = np.array(self.span_equations + self.support_forms,
                         dtype=dtype).reshape(-1, self.ambient_dim)
        vals = (rows.astype(dtype, copy=False) @ forms[:, :-1].T
                + degree * forms[:, -1])
        span = vals[:, :len(self.span_equations)]
        support = vals[:, len(self.span_equations):]
        outside = (span != 0).any(axis=1) | (support < 0).any(axis=1)
        boundary = (support == 0).any(axis=1) | (degree == 0)
        return np.where(outside, 2, boundary.astype(np.int64))


def cone_over(P: Polytope) -> GradedCone:
    return P._memo("cone", lambda: GradedCone(P))


def cone_slice(C: GradedCone, degree: int) -> tuple:
    """Graded cone points of the given degree, sorted by position."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree == 0:
        return (GradedPoint((0,) * C.base.ambient_dim, 0),)
    return tuple(GradedPoint(p, degree) for p in C.base.lattice_points(degree))
