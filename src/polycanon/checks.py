"""Self-check suite: every structural invariant and theorem the package
relies on, run against arbitrary polytopes.

All checks are deterministic — samples are lexicographic prefixes, never
random — so a suite run over a fixed corpus produces byte-identical
reports no matter the thread count.

The point-count and slice-projection checks read each dilate as the
cached masks of the scan (``Polytope._slice``), with no point tuples: the
count check compares the lattice and interior masks of a degree cell for
cell, and the slice check labels the lattice mask's ambient rows
(``Polytope._rows``) in one ``GradedCone.codes`` product against the
interior mask read at the same cells.  Only when a code differs does the
tuple loop run, for that degree alone, to name the first bad point in lex
order.
"""

from __future__ import annotations

import functools
import itertools
import operator
import os
import random
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .cone import GradedCone, GradedPoint, cone_over, cone_slice
from .polytope import BudgetError, Polytope
from .semigroup import (
    degree_bound,
    degree_one_points,
    full_generators,
    ideal_contains,
    idp_check,
    irreducible_generators,
    reduced_degree,
    reduced_degree_oracle,
    semigroup_contains,
)
from .simplex import (
    half_open_boxes,
    is_empty_simplex,
    is_unimodular,
    normalized_volume,
    unit_box_decomposition,
)
from .triangulation import (
    full_lattice_triangulation,
    interior_respecting_triangulation,
    placing_triangulation,
    total_normalized_volume,
    verify_decomposition,
)
from .exactmath import _int_array, det_stack, dot, rank, vadd, vsub

SAMPLE_CAP = 8
ORACLE_POINT_CAP = 12
IDP_POINT_CAP = 40


def _polytope_id(P: Polytope) -> str:
    if P.name:
        return P.name
    return "v:" + ";".join(",".join(map(str, p)) for p in P.vertices)


def _interior_samples(P: Polytope, cap: int) -> List[GradedPoint]:
    out: List[GradedPoint] = []
    for k in range(1, P.dim + 2):
        for p in P.interior_lattice_points(k):
            out.append(GradedPoint(p, k))
            if len(out) >= cap:
                return out
    return out


def check_polytope(P: Polytope) -> List[dict]:
    """Run every applicable check; return a list of violation records."""
    violations: List[dict] = []
    pid = _polytope_id(P)

    def run(name: str, fn: Callable[[], Optional[str]]) -> None:
        try:
            detail = fn()
        except BudgetError:
            raise  # a refused input, not a violation: the CLI exits 1
        except Exception as exc:  # surface crashes as violations
            detail = f"exception: {exc!r}"
        if detail:
            violations.append(
                {"polytope": pid, "check": name, "detail": detail})

    run("facet_duality", lambda: _facet_duality(P))
    run("facet_rank", lambda: _facet_rank(P))
    run("roundtrip", lambda: _roundtrip(P))
    run("point_count", lambda: _point_count(P))
    run("classification", lambda: _classification(P))
    run("slice_projection", lambda: _slice_projection(P))
    run("cone_additivity", lambda: _cone_additivity(P))
    run("cone_pruning", lambda: _cone_pruning(P))
    run("degree_bound", lambda: _degree_bound(P))
    run("degree_bound_dichotomy", lambda: _degree_bound_dichotomy(P))
    run("interior_point_bound", lambda: _interior_point_bound(P))
    run("empty_simplex_gap", lambda: _empty_simplex_gap(P))
    run("empty_simplex_sum_degree", lambda: _empty_simplex_sum_degree(P))
    run("barycentric_reduction", lambda: _barycentric_reduction(P))
    run("unimodular_empty", lambda: _unimodular_empty(P))
    run("volume_unimodular", lambda: _volume_unimodular(P))
    run("oracle_equivalence", lambda: _oracle_equivalence(P))
    run("idp_full_equality", lambda: _idp_full_equality(P))
    run("volume_conservation", lambda: _volume_conservation(P))
    run("cell_emptiness", lambda: _cell_emptiness(P))
    run("fineness", lambda: _fineness(P))
    run("decomposition", lambda: _decomposition(P))
    run("boundary_face_property", lambda: _boundary_face_property(P))
    run("interior_vertex_property", lambda: _interior_vertex_property(P))
    return violations


def _irt_applicable(P: Polytope) -> bool:
    return P.dim >= 2 and bool(P.interior_lattice_points(1))


def _facet_duality(P: Polytope) -> Optional[str]:
    if P.dim != P.ambient_dim or P.dim < 1:
        return None
    Q = Polytope.from_inequalities(P.facets, P.ambient_dim)
    if Q.vertices != P.vertices:
        return f"rebuilt vertices {Q.vertices} != {P.vertices}"
    return None


def _facet_rank(P: Polytope) -> Optional[str]:
    if P.dim < 1:
        return None
    for f in P._fd_facets:
        tight = [q for q in P._fd_vertices if f.slack(q) == 0]
        if len(tight) < P.dim:
            return f"facet {f} tight on only {len(tight)} vertices"
        diffs = [vsub(q, tight[0]) for q in tight[1:]]
        if rank(diffs) != P.dim - 1:
            return f"facet {f} tight set has wrong rank"
    return None


def _roundtrip(P: Polytope) -> Optional[str]:
    Q = Polytope.from_json_dict(P.to_json_dict())
    if Q != P:
        return "vertex JSON round-trip changed the polytope"
    return None


def _point_count(P: Polytope) -> Optional[str]:
    # the lattice and interior masks of a degree lie on one chart box, and
    # cells map to points one to one
    prev = None
    for k in range(1, P.dim + 2):
        lat = P._slice(k, False)[1]
        n = np.count_nonzero(lat)
        if k == 1 and n < len(P.vertices):
            return "fewer lattice points than vertices"
        if (P._slice(k, True)[1] & ~lat).any():
            return f"interior points at degree {k} not among lattice points"
        if prev is not None and n < prev:
            return f"lattice point count dropped at degree {k}"
        prev = n
    return None


def _classification(P: Polytope) -> Optional[str]:
    for k in (1, 2):
        interior = set(P.interior_lattice_points(k))
        for p in P.lattice_points(k)[:SAMPLE_CAP * 4]:
            got = P.classify_point(p, scale=k)
            want = "interior" if p in interior else "boundary"
            if P.dim == 0:
                want = "interior"
            if got != want:
                return f"{p} at scale {k} classified {got}, expected {want}"
        far = list(P.vertices[0])
        far[0] = max(v[0] for v in P.vertices) * k + 1
        if P.classify_point(tuple(far), scale=k) != "outside":
            return f"far point {tuple(far)} not classified outside"
    return None


def _slice_projection(P: Polytope) -> Optional[str]:
    C = cone_over(P)
    for k in range(1, P.dim + 2):
        lo, lat = P._slice(k, False)
        # row for row, code 0 (interior) or 1 (boundary) is expected
        want = np.where(P._slice(k, True)[1][lat], 0, 1)
        if (C.codes(P._rows(k, lo, lat), k) != want).any():
            return (_first_wrong_label(P, C, k)
                    or f"slice degree {k}: the mask labels and the point"
                    " labels disagree")
    return None


def _first_wrong_label(P: Polytope, C: GradedCone, k: int) -> Optional[str]:
    """The first lattice point of degree ``k``, in lex order, whose cone
    label is not its label in the dilate, named point by point."""
    interior = set(P.interior_lattice_points(k))
    points = P.lattice_points(k)
    for p, got in zip(points, C.classify(points, k)):
        want = "interior" if p in interior else "boundary"
        if got != want:
            return (f"slice point {p} degree {k} membership"
                    f" {got}, expected {want}")
    return None


def _cone_additivity(P: Polytope) -> Optional[str]:
    C = cone_over(P)
    ones = cone_slice(C, 1)[:SAMPLE_CAP]
    # The samples come in degree order: one batch of sums per degree.
    for k, ys in itertools.groupby(_interior_samples(P, SAMPLE_CAP),
                                   key=operator.attrgetter("degree")):
        pairs = [(y, w) for y in ys for w in ones]
        sums = [vadd(y.position, w.position) for y, w in pairs]
        for (y, w), s, label in zip(pairs, sums, C.classify(sums, k + 1)):
            if label != "interior":
                return (f"interior {y} plus {w} left the interior")
            if not ideal_contains(P, GradedPoint(s, k + 1)):
                return (f"interior {y} plus {w} not in the ideal point set")
    pairs = [(w1, w2) for w1 in ones[:4] for w2 in ones[:4]]
    sums = [vadd(w1.position, w2.position) for w1, w2 in pairs]
    for (w1, w2), s, label in zip(pairs, sums, C.classify(sums, 2)):
        if label == "outside":
            return f"sum of {w1} and {w2} left the cone"
        if not semigroup_contains(P, GradedPoint(s, 2)):
            return f"sum of {w1} and {w2} not a degree-2 lattice point"
    return None


def _cone_pruning(P: Polytope) -> Optional[str]:
    C = cone_over(P)
    interior = set(P.interior_lattice_points(1))
    boundary = [p for p in P.lattice_points(1) if p not in interior]
    for p in boundary[:SAMPLE_CAP]:
        if C.membership(GradedPoint(p, 1)) != "boundary":
            return f"boundary point {p} misclassified"
    if P.facets:
        f = P.facets[0]
        tight = next(v for v in P.vertices if f.slack(v) == 0)
        beyond = vadd(tight, f.normal)
        if C.membership(GradedPoint(beyond, 1)) != "outside":
            return f"point {beyond} beyond a facet not outside"
    if C.membership(GradedPoint((0,) * P.ambient_dim, 0)) != "boundary":
        return "apex not on the boundary"
    return None


def _degree_bound(P: Polytope) -> Optional[str]:
    rep = irreducible_generators(P)
    if rep.max_degree > P.dim + 1:
        return f"max reduced degree {rep.max_degree} exceeds dim+1"
    if rep.max_degree > rep.bound.bound:
        return (f"max reduced degree {rep.max_degree} exceeds the"
                f" {rep.bound.reason} bound {rep.bound.bound}")
    return None


def _degree_bound_dichotomy(P: Polytope) -> Optional[str]:
    rep = irreducible_generators(P)
    empty = is_empty_simplex(P)
    if empty and rep.max_degree != P.dim + 1:
        return f"empty simplex with max reduced degree {rep.max_degree}"
    if not empty and rep.max_degree > P.dim:
        return f"max reduced degree {rep.max_degree} above dim for" \
            " a non-empty-simplex"
    return None


def _interior_point_bound(P: Polytope) -> Optional[str]:
    if P.dim < 2 or not P.interior_lattice_points(1):
        return None
    rep = irreducible_generators(P)
    if rep.max_degree > P.dim - 1:
        return (f"interior lattice point present but max reduced degree"
                f" is {rep.max_degree}")
    return None


def _empty_simplex_gap(P: Polytope) -> Optional[str]:
    if not is_empty_simplex(P):
        return None
    degrees = irreducible_generators(P).degrees()
    if P.dim + 1 not in degrees:
        return f"degree {P.dim + 1} missing from generator degrees {degrees}"
    if P.dim >= 1 and P.dim in degrees:
        return f"degree {P.dim} present in generator degrees {degrees}"
    return None


def _empty_simplex_sum_degree(P: Polytope) -> Optional[str]:
    if not is_empty_simplex(P):
        return None
    total = P.vertices[0]
    for v in P.vertices[1:]:
        total = vadd(total, v)
    y = GradedPoint(total, len(P.vertices))
    if not ideal_contains(P, y):
        return f"vertex sum {y} is not in the interior ideal"
    val, wit = reduced_degree(P, y)
    if val not in irreducible_generators(P).degrees():
        return f"vertex-sum reduced degree {val} is not a generator degree"
    if wit.total() != y:
        return "vertex-sum witness does not add back up"
    return None


def _barycentric_reduction(P: Polytope) -> Optional[str]:
    if not P.is_simplex() or P.dim < 1:
        return None
    for y in _interior_samples(P, SAMPLE_CAP):
        wit = unit_box_decomposition(P, y)
        if wit.total() != y:
            return f"box witness for {y} does not add back up"
        z = wit.interior_part
        if not ideal_contains(P, z):
            return f"box interior part {z} not in the ideal"
        if z.degree > P.dim + 1:
            return f"box interior part degree {z.degree} above dim+1"
        if any(not semigroup_contains(P, part) for part in wit.parts):
            return f"box witness for {y} has a part outside the semigroup"
        if reduced_degree(P, y)[0] > z.degree:
            return f"reduced degree of {y} above its box part degree"
    return None


def _unimodular_empty(P: Polytope) -> Optional[str]:
    if not is_unimodular(P):
        return None
    if not is_empty_simplex(P):
        return "unimodular simplex that is not empty"
    rep = irreducible_generators(P)
    total = P.vertices[0]
    for v in P.vertices[1:]:
        total = vadd(total, v)
    want = (GradedPoint(total, P.dim + 1),)
    if rep.generators != want:
        return f"unimodular generators {rep.generators} != {want}"
    return None


def _volume_unimodular(P: Polytope) -> Optional[str]:
    if not P.is_simplex():
        return None
    if (normalized_volume(P) == 1) != is_unimodular(P):
        return "volume-one and unimodularity disagree"
    return None


def _oracle_equivalence(P: Polytope) -> Optional[str]:
    if len(P.lattice_points(1)) > ORACLE_POINT_CAP:
        return None
    for y in _interior_samples(P, SAMPLE_CAP - 2):
        main, wit = reduced_degree(P, y)
        alt = reduced_degree_oracle(P, y)
        if main != alt:
            return f"reduced degree of {y}: scan {main} vs oracle {alt}"
        if wit.total() != y:
            return f"witness for {y} does not add back up"
        if not ideal_contains(P, wit.interior_part):
            return f"witness interior part for {y} not interior"
        if wit.interior_part.degree != main:
            return f"witness degree mismatch for {y}"
    return None


def _idp_full_equality(P: Polytope) -> Optional[str]:
    if len(P.lattice_points(1)) > IDP_POINT_CAP or P.dim > 3:
        return None
    ok, witness = idp_check(P)
    full = full_generators(P).generators
    plain = irreducible_generators(P).generators
    if not set(full) <= set(plain):
        extra = sorted(set(full) - set(plain),
                       key=lambda g: (g.degree, g.position))
        return f"full-action generators {extra} missing from degree-one set"
    if ok and full != plain:
        return (f"degree-one splitting holds everywhere yet the generator"
                f" sets differ: {len(full)} vs {len(plain)}")
    if not ok:
        if not semigroup_contains(P, witness):
            return f"failure witness {witness} is not a semigroup point"
        lower = set(P.lattice_points(witness.degree - 1))
        if any(vsub(witness.position, u.position) in lower
               for u in degree_one_points(P)):
            return f"failure witness {witness} splits after all"
    return None


def _volume_conservation(P: Polytope) -> Optional[str]:
    if P.dim < 1:
        return None
    v1 = total_normalized_volume(placing_triangulation(P))
    v2 = total_normalized_volume(full_lattice_triangulation(P))
    if v1 != v2:
        return f"placing volume {v1} != full triangulation volume {v2}"
    if _irt_applicable(P):
        v3 = total_normalized_volume(interior_respecting_triangulation(P))
        if v3 != v1:
            return f"interior-respecting volume {v3} != {v1}"
    return None


def _cell_emptiness(P: Polytope) -> Optional[str]:
    if P.dim < 1:
        return None
    T = full_lattice_triangulation(P)
    to_chart = P._chart.to_chart  # every full-dimensional cell is square
    cells = T.cells[:SAMPLE_CAP * 5]
    rows = {i: to_chart(T.points[i]) + (1,) for c in cells for i in c}
    empty = _empty_cells([[rows[i] for i in c] for c in cells])
    for cell, ok in zip(cells, empty):
        if not ok:
            return f"cell {cell} is not an empty simplex"
    return None


def _empty_cells(cells) -> list:
    """Per cell of ``cells``, square lifted rows ``(x, 1)`` of one size on
    a polytope's chart, whether its points are the vertex set of an empty
    simplex.

    A lattice point of the simplex other than a vertex is a point of degree
    one in its half-open box, and conversely.  Affinely dependent points
    (determinant zero) are not a simplex, and a unimodular simplex's box is
    the origin alone.  Every other box comes from one
    :func:`half_open_boxes` call.
    """
    A = _int_array(cells)
    dets = det_stack(A)
    empty = [abs(v) == 1 for v in dets]
    odd = [i for i, v in enumerate(dets) if abs(v) > 1]
    if odd:
        owner, _, points = half_open_boxes(A[odd], [dets[i] for i in odd])
        hit = np.bincount(owner[points[:, -1] == 1], minlength=len(odd))
        for i, h in zip(odd, hit.tolist()):
            empty[i] = not h
    return empty


def _fineness(P: Polytope) -> Optional[str]:
    if P.dim < 1:
        return None
    T = full_lattice_triangulation(P)
    if set(T.points) != set(P.lattice_points(1)):
        return "triangulation points differ from the lattice points"
    used = {i for c in T.cells for i in c}
    if used != set(range(len(T.points))):
        return "some lattice point is not a vertex of any cell"
    return None


def _decomposition(P: Polytope) -> Optional[str]:
    if P.dim < 1:
        return None
    res = verify_decomposition(full_lattice_triangulation(P), P, P.dim + 1)
    if not res:
        return (f"full triangulation covering failed at degree"
                f" {res.degree}: {res.reason} ({res.point})")
    if _irt_applicable(P):
        res = verify_decomposition(
            interior_respecting_triangulation(P), P, P.dim + 1)
        if not res:
            return (f"interior-respecting covering failed at degree"
                    f" {res.degree}: {res.reason} ({res.point})")
    return None


def _boundary_count(cells) -> Counter:
    cnt = Counter()
    for c in cells:
        for f in itertools.combinations(c, len(c) - 1):
            cnt[f] += 1
    return cnt


def _boundary_face_property(P: Polytope) -> Optional[str]:
    if P.dim < 1:
        return None
    T = full_lattice_triangulation(P)
    # per point, the set of facets tight on it as a bitmask: a face lies
    # in a facet iff the sets of its points intersect
    tight = [sum(1 << j for j, f in enumerate(P.facets) if f.slack(p) == 0)
             for p in T.points]
    for face, cnt in sorted(_boundary_count(T.cells).items()):
        if cnt not in (1, 2):
            return f"cell facet {face} lies in {cnt} cells"
        on_boundary = functools.reduce(
            operator.and_, (tight[i] for i in face)) != 0
        if cnt == 1 and not on_boundary:
            return f"free cell facet {face} not on the boundary"
        if cnt == 2 and on_boundary:
            return f"shared cell facet {face} lies on the boundary"
    return None


def _interior_vertex_property(P: Polytope) -> Optional[str]:
    if not _irt_applicable(P):
        return None
    T = interior_respecting_triangulation(P)
    interior = set(P.interior_lattice_points(1))
    for cell in T.cells:
        if not any(T.points[i] in interior for i in cell):
            return f"cell {cell} has no interior vertex"
    return None


def default_corpus(seed: int = 0, count: int = 24,
                   dims: Sequence[int] = (2, 3), coord_bound: int = 3,
                   max_candidates: int = 8) -> tuple:
    """Reproducible random polytopes: hulls of small random point sets.

    Candidate coordinates range over ``[-coord_bound, coord_bound]``; each
    hull uses at most ``max_candidates`` candidate points and has dimension
    at least one.  Raises ``ValueError`` up front when some box
    ``[-coord_bound, coord_bound]^m`` holds fewer points than a hull may
    draw, since drawing them would never end.
    """
    if not dims:
        raise ValueError("dims must be nonempty")
    if coord_bound < 1:
        raise ValueError(f"coord_bound must be >= 1, got {coord_bound}")
    for m in dims:
        need = max(m + 1, max_candidates)
        if m < 1 or (2 * coord_bound + 1) ** m < need:
            raise ValueError(
                f"corpus dimension {m} needs m >= 1 and"
                f" (2*coord_bound+1)^m >= max(m+1, max_candidates) = {need},"
                f" got (2*{coord_bound}+1)^{m} = {(2 * coord_bound + 1) ** m}")
    rng = random.Random(seed)
    out = []
    for i in range(count):
        m = dims[i % len(dims)]
        n = rng.randint(m + 1, max(m + 1, max_candidates))
        while True:
            pts = set()
            while len(pts) < n:
                pts.add(tuple(rng.randint(-coord_bound, coord_bound)
                              for _ in range(m)))
            P = Polytope.from_vertices(sorted(pts), name=f"random-{seed}-{i}")
            if P.dim >= 1:
                break
        out.append(P)
    return tuple(out)


def run_suite(polytopes: Sequence[Polytope],
              threads: Optional[int] = None) -> dict:
    """Check every polytope; aggregate violations in input order."""
    if threads is None:
        raw = os.environ.get("POLYCANON_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ValueError(
                f"POLYCANON_THREADS must be an integer, got {raw!r}") from None
    # the workers share the GIL, so more than the cores (or the polytopes)
    # would only start idle threads
    threads = max(1, min(threads, len(polytopes), os.cpu_count() or 1))
    if threads == 1:
        results = [check_polytope(P) for P in polytopes]
    else:
        results = _check_in_pool(polytopes, threads)
    violations = [v for batch in results for v in batch]
    return {
        "polytopes_checked": len(polytopes),
        "violations": violations,
        "ok": not violations,
    }


def _check_in_pool(polytopes: Sequence[Polytope], threads: int) -> list:
    """:func:`check_polytope` on a thread pool, results in input order.

    The first ``BudgetError`` stops the run: polytopes not yet started
    are cancelled, a worker that has already taken one skips it, and the
    exception of the first failed polytope in input order is raised."""
    stop = threading.Event()

    def check(P: Polytope):
        if stop.is_set():
            return None
        try:
            return check_polytope(P)
        except BudgetError:
            stop.set()
            raise

    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(check, P) for P in polytopes]
        try:
            return [f.result() for f in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
