"""Output checks: every job's exit code and stdout are judged here.

A job execution fails when its exit code is not 0, when its stdout differs
from the recorded reference digest (for the default and held-out seeds) or
from the job's first execution in the run, when a lattice invariant
differs from the one recorded for its base polytope, or when one of the
benchmark's own integer checks fails:

* the three degree bounds on every ``generators`` report;
* full-action generators form a subset of the degree-one generators;
* every ``rdeg`` witness sums back to the query point;
* the frozen generator degrees of ``example2`` and ``reeve``;
* fine and interior-respecting triangulations of one polytope have equal
  summed cell determinants.

Invariants are unchanged by the seed's translation, so they are recorded
once per base job and checked on every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Optional

import intmath
from workloads import Job, Workload, translate_lifted

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def invariants(job: Job, doc: dict) -> dict:
    """The lattice invariants of one job's report."""
    k = job.kind
    if k.startswith("generators"):
        return {"degree_histogram": doc["degree_histogram"],
                "bound": doc["bound"]}
    if k == "idp":
        return {"integrally_closed": doc["integrally_closed"]}
    if k == "rdeg":
        return {"reduced_degree": doc["reduced_degree"]}
    if k.startswith("triangulate"):
        return {"points": len(doc["points"]),
                "volume": _triangulation_volume(doc),
                "covering_ok": doc["covering"]["ok"]}
    if k == "verify":
        return {"ok": doc["ok"], "invariant": doc["invariant"],
                "bound": doc["bound"]}
    raise ValueError(f"unknown job kind {k!r}")


def _triangulation_volume(doc: dict) -> int:
    pts = doc["points"]
    return sum(intmath.simplex_volume([pts[i] for i in cell])
               for cell in doc["cells"])


def _lifted(g: dict) -> tuple:
    return tuple(g["position"]) + (g["degree"],)


class Judge:
    """Judges one run's executions against the references."""

    def __init__(self, workload: Workload, reference: Optional[dict]):
        self.w = workload
        ref = reference or {}
        self.digests = (ref.get("digests", {}).get(str(workload.seed), {})
                        .get(workload.name, {}))
        self.invariants = ref.get("invariants", {}).get(workload.name, {})
        self.first: Dict[str, str] = {}      # job_id -> digest of pass one
        self.docs: Dict[str, dict] = {}      # job_id -> parsed pass-one doc
        self.verdict: Dict[str, Optional[str]] = {}

    def record(self, job: Job, rc: int, stdout: str) -> Optional[str]:
        """Judge one execution.

        Returns what is wrong with this execution alone (its exit code, or
        stdout bytes that differ from the job's first execution).  What is
        wrong with the job's report is kept in ``verdict``, which
        :meth:`cross_checks` may still extend.
        """
        if rc != 0:
            return f"exit code {rc}"
        d = digest(stdout)
        if job.job_id not in self.first:
            self.first[job.job_id] = d
            self.verdict[job.job_id] = self._judge_new(job, d, stdout)
        elif d != self.first[job.job_id]:
            return "stdout differs from the job's first execution"
        return None

    def failure(self, job_id: str, reason: Optional[str]) -> Optional[str]:
        """Final reason an execution failed, given what :meth:`record`
        returned for it."""
        return reason or self.verdict.get(job_id)

    def _judge_new(self, job: Job, d: str, stdout: str) -> Optional[str]:
        want = self.digests.get(job.job_id)
        if want is not None and want != [0, d]:
            return "stdout differs from the recorded reference"
        try:
            doc = json.loads(stdout)
            self.docs[job.job_id] = doc
            inv = invariants(job, doc)
            want_inv = self.invariants.get(job.job_id)
            if want_inv is not None and want_inv != inv:
                return f"invariants {inv} differ from the recorded {want_inv}"
            return self._own_checks(job, doc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"malformed report: {exc!r}"

    # -- the benchmark's own checks --------------------------------------

    def _own_checks(self, job: Job, doc: dict) -> Optional[str]:
        k = job.kind
        poly = self.w.polytopes[job.poly_id]
        if k.startswith("generators"):
            return (_check_generators(doc, full=k == "generators-full")
                    or _check_family(poly, doc, full=k == "generators-full"))
        if k == "rdeg":
            return _check_rdeg(job, doc)
        if k == "idp":
            return _check_idp(poly, doc)
        if k.startswith("triangulate"):
            return _check_triangulation(doc)
        if k == "verify":
            return _check_verify(doc)
        return f"unknown job kind {k!r}"

    def cross_checks(self) -> Dict[str, str]:
        """Checks between jobs on one polytope; job_id -> failure reason.
        Call after every job ran once."""
        failed: Dict[str, str] = {}
        by_poly: Dict[str, Dict[str, dict]] = {}
        for job in self.w.jobs:
            if job.job_id in self.docs:
                by_poly.setdefault(job.poly_id, {})[job.kind] = \
                    (job.job_id, self.docs[job.job_id])
        for jobs in by_poly.values():
            if "generators" in jobs and "generators-full" in jobs:
                (_, plain), (b, full) = jobs["generators"], \
                    jobs["generators-full"]
                if not ({_lifted(g) for g in full["generators"]}
                        <= {_lifted(g) for g in plain["generators"]}):
                    failed[b] = "full-action generators not a subset of" \
                        " the degree-one generators"
            if "triangulate" in jobs and "triangulate-irt" in jobs:
                (_, fine), (b, irt) = jobs["triangulate"], \
                    jobs["triangulate-irt"]
                if _triangulation_volume(fine) != _triangulation_volume(irt):
                    failed[b] = "fine and interior-respecting summed cell" \
                        " determinants differ"
        for job_id, reason in failed.items():
            if self.verdict.get(job_id) is None:
                self.verdict[job_id] = reason
        return failed


def _polytope_dim(doc: dict) -> int:
    return intmath.affine_rank(doc["vertices"])


def _is_empty_simplex(vertices: list) -> Optional[bool]:
    """``None`` when the simplex is not full-dimensional in its ambient
    space (the box test below needs that)."""
    dim = intmath.affine_rank(vertices)
    if len(vertices) != dim + 1:
        return False
    if dim != len(vertices[0]):
        return None
    return intmath.lattice_points_of_simplex(vertices) == dim + 1


def _check_generators(doc: dict, full: bool) -> Optional[str]:
    gens = doc["generators"]
    keys = [(g["degree"], g["position"]) for g in gens]
    if keys != sorted(keys) or len(set(map(str, keys))) != len(keys):
        return "generators not sorted by (degree, position) or repeated"
    hist: Dict[int, int] = {}
    for g in gens:
        hist[g["degree"]] = hist.get(g["degree"], 0) + 1
    if [list(t) for t in sorted(hist.items())] != doc["degree_histogram"]:
        return "degree histogram does not match the generator list"
    top = max(hist)
    if doc["max_degree"] != top:
        return f"max_degree {doc['max_degree']} != top degree {top}"
    verts = doc["polytope"]["vertices"]
    d = _polytope_dim(doc["polytope"])
    has_interior = 1 in hist
    empty = _is_empty_simplex(verts)
    if top > d + 1:
        return f"generator degree {top} above dim + 1 = {d + 1}"
    if d >= 2 and has_interior and top > d - 1:
        return f"interior lattice point but generator degree {top} > dim - 1"
    if not full and empty is not None and (top == d + 1) != empty:
        return (f"top degree {top} vs dim + 1 = {d + 1} disagrees with"
                f" empty-simplex test {empty}")
    if empty:
        want = d + 1
    elif d >= 2 and has_interior:
        want = d - 1
    else:
        want = max(d, 1)
    if empty is not None and doc["bound"]["value"] != want:
        return f"bound {doc['bound']['value']} != expected {want}"
    if top > doc["bound"]["value"]:
        return f"top degree {top} above the reported bound"
    return None


def _check_family(poly, doc: dict, full: bool) -> Optional[str]:
    degrees = {g["degree"] for g in doc["generators"]}
    lifted = {_lifted(g) for g in doc["generators"]}
    if poly.family == "example2-d4":
        d = 4
        if degrees != set(range(1, d)):
            return f"example2-d4 generator degrees {sorted(degrees)}"
        for i in range(1, d):
            y = translate_lifted(poly.shift,
                                 (1,) * (d - 1) + ((i - 1) * d + i, i))
            if y not in lifted:
                return f"example2-d4 is missing the named generator {y}"
    elif poly.family == "reeve-q50":
        if full and degrees != {2}:
            return f"reeve-q50 full-action degrees {sorted(degrees)}"
        if not full and (4 not in degrees or 3 in degrees):
            return f"reeve-q50 degree-one degrees {sorted(degrees)}"
    return None


def _check_rdeg(job: Job, doc: dict) -> Optional[str]:
    y = _lifted(doc["point"])
    if y != job.point:
        return f"report is for {y}, asked {job.point}"
    wit = doc["witness"]
    total = list(_lifted(wit["interior_part"]))
    for p in wit["parts"]:
        if p["degree"] != 1:
            return "witness part of degree other than one"
        for j, c in enumerate(_lifted(p)):
            total[j] += c
    if tuple(total) != y:
        return f"witness sums to {tuple(total)}, not {y}"
    if wit["interior_part"]["degree"] != doc["reduced_degree"]:
        return "witness interior part degree != reduced degree"
    if doc["irreducible"] != (doc["reduced_degree"] == y[-1]):
        return "irreducible flag disagrees with the reduced degree"
    return None


def _check_idp(poly, doc: dict) -> Optional[str]:
    if not doc["conclusive"]:
        return "default idp check not conclusive"
    if doc["integrally_closed"] != (doc["witness"] is None):
        return "a witness must be given exactly when the check fails"
    want = {"example2-d4": True, "cube-d4": True, "reeve-q50": False}
    if poly.family in want and doc["integrally_closed"] != want[poly.family]:
        return f"{poly.family} idp verdict {doc['integrally_closed']}"
    if doc["witness"] is not None and doc["witness"]["degree"] < 2:
        return "idp witness below degree two"
    return None


def _check_triangulation(doc: dict) -> Optional[str]:
    pts = doc["points"]
    d = intmath.affine_rank(pts)
    if d != len(pts[0]):
        return "triangulated point set is not full-dimensional"
    used = set()
    for cell in doc["cells"]:
        if len(set(cell)) != d + 1 or not all(0 <= i < len(pts)
                                              for i in cell):
            return f"cell {cell} is not a {d}-simplex on the points"
        if intmath.simplex_volume([pts[i] for i in cell]) == 0:
            return f"cell {cell} is degenerate"
        used.update(cell)
    if not doc["interior_respecting"] and used != set(range(len(pts))):
        return "fine triangulation leaves a lattice point unused"
    cov = doc["covering"]
    if not cov["ok"] or cov["checked_up_to"] != d + 1:
        return f"covering verdict {cov}"
    return None


def _check_verify(doc: dict) -> Optional[str]:
    if not doc["ok"] or doc["violations"] or doc["polytopes_checked"] != 1:
        return f"suite found violations: {doc['violations'][:2]}"
    if doc["invariant"] > doc["bound"]["value"]:
        return "invariant above its bound"
    return None
