"""The half-open box of a simplicial cone from one Smith form: the exact
twin that the tests hold the package's batched box enumerator against."""

import itertools
import operator

from polycanon.exactmath import as_matrix, smith_normal_form


class HalfOpenBox:
    """The half-open fundamental parallelepiped of a simplicial cone.

    Given affinely independent lattice points, the cone over them placed at
    height one has the lifted points ``w_i`` as generators.  The box holds
    the lattice points ``sum t_i * w_i`` of their span with every ``t_i``
    in ``[0, 1)``, one per coset of the sublattice the ``w_i`` generate.
    They come from one Smith form ``S = U W V``: ``t = frac(mu U)`` with
    ``mu_i = r_i / d_i`` over the residues ``r_i`` modulo the invariant
    factors ``d_i``.  The points need not be square: the Smith form of a
    non-square stack gives the lattice of its span directly.

    ``coefficients`` holds each point's ``t`` as the integers ``D * t`` in
    ``[0, D)``, where ``D`` is the largest invariant factor (every ``d_i``
    divides it); ``points`` holds the lattice points, in the same order.
    """

    def __init__(self, points) -> None:
        pts = as_matrix(points)
        if not pts:
            raise ValueError("need at least one point")
        self.lifted = tuple(p + (1,) for p in pts)
        n = len(self.lifted)
        S, U, _ = smith_normal_form(self.lifted)
        diag = [S[i][i] for i in range(n)] if len(S[0]) >= n else [0]
        if any(d == 0 for d in diag):
            raise ValueError("points are not affinely independent")
        D = diag[-1]
        # a row with d == 1 takes residue 0 only
        steps = [(d, [(D // d) * u for u in row])
                 for d, row in zip(diag, U) if d > 1]
        cols = list(zip(*self.lifted))
        self.coefficients, self.points = [], []
        for residues in itertools.product(*[range(d) for d, _ in steps]):
            t = [0] * n
            for r, (_, row) in zip(residues, steps):
                t = [a + r * b for a, b in zip(t, row)]
            t = tuple(a % D for a in t)
            y = [sum(map(operator.mul, t, c)) for c in cols]
            if any(c % D for c in y):
                raise AssertionError("fundamental-domain point not integral")
            self.coefficients.append(t)
            self.points.append(tuple(c // D for c in y))

    def face_reps(self, positions) -> list:
        """The box ``{sum t_i * w_i : 0 < t_i <= 1}`` of the face spanned by
        the lifted points at ``positions`` (increasing), as sorted
        ``(degree, point)`` pairs: the box points supported on the face,
        each zero coefficient on the face raised to one."""
        inside = set(positions)
        off = [i not in inside for i in range(len(self.lifted))]
        reps = []
        for t, y in zip(self.coefficients, self.points):
            if any(c and o for c, o in zip(t, off)):
                continue
            for i in positions:
                if not t[i]:
                    y = tuple(map(operator.add, y, self.lifted[i]))
            reps.append((y[-1], y))
        reps.sort()
        return reps
