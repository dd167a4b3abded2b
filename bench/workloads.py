"""Seeded job lists for the three benchmark workloads.

Nothing here imports polycanon: the program only ever sees the JSON files
written by :func:`write_inputs`.

Each workload is a fixed *base* job list, drawn once from ``BASE_SEED``,
and a seed.  The seed moves every base polytope by its own random lattice
translation, shuffles its candidate list (or inequality list) and shuffles
the job order.  A translation keeps the lexicographic order of lattice
points, every scan box and every triangulation, so the program does the
same work on every seed while the numbers it reads and prints change.
Copies with signed coordinate permutations were tried first: they change
the placing order and the order of the semigroup loops, and spread
``jobs_per_s`` by 7.5% over five ``tri-cover`` seeds.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import intmath

BASE_SEED = 0
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

WORKLOADS = ("gen-dilates", "tri-cover", "verify-corpus")


@dataclass(frozen=True)
class PolytopeInput:
    """One polytope file: its JSON document plus what the checks need."""

    poly_id: str
    doc: dict
    family: Optional[str] = None      # "example2-d4", "cube-d4", "reeve-q50"
    shift: Optional[tuple] = None      # translation from the base polytope


@dataclass(frozen=True)
class Job:
    """One CLI call: ``argv`` with ``{file}`` standing for the polytope."""

    job_id: str
    poly_id: str
    kind: str        # generators, generators-full, idp, rdeg, triangulate,
                     # triangulate-irt or verify
    argv: tuple
    point: Optional[tuple] = None     # rdeg query (position..., degree)


@dataclass
class Workload:
    name: str
    seed: int
    polytopes: Dict[str, PolytopeInput] = field(default_factory=dict)
    jobs: List[Job] = field(default_factory=list)
    warmup: Optional[Job] = None

    def argv(self, job: Job, directory: str) -> list:
        path = os.path.join(directory, job.poly_id + ".json")
        return [path if a == "{file}" else a for a in job.argv]


# -- base polytopes ---------------------------------------------------------

def _random_hull(rng: random.Random, dim: int, bound: int, lo: int, hi: int,
                 want_interior: bool = False) -> list:
    """Candidate points of a full-dimensional hull in ``[-bound, bound]^dim``.

    With ``want_interior`` the hull is redrawn until the rounded centroid
    of the candidates lies strictly inside a simplex spanned by candidates,
    which proves the hull has an interior lattice point.
    """
    while True:
        n = rng.randint(lo, hi)
        pts = set()
        while len(pts) < n:
            pts.add(tuple(rng.randint(-bound, bound) for _ in range(dim)))
        pts = sorted(pts)
        if intmath.affine_rank(pts) != dim:
            continue
        if want_interior and intmath.witness_interior_point(pts) is None:
            continue
        return pts


def _embedded_hull(rng: random.Random, dim: int, ambient: int,
                   bound: int) -> list:
    """Candidates of a ``dim``-dimensional hull lying on a lattice plane of
    ``Z^ambient``: random points of ``Z^dim`` under ``x -> (x, A x + c)``."""
    while True:
        n = rng.randint(dim + 1, dim + 4)
        pts = set()
        while len(pts) < n:
            pts.add(tuple(rng.randint(-bound, bound) for _ in range(dim)))
        if intmath.affine_rank(sorted(pts)) == dim:
            break
    extra = ambient - dim
    coeffs = [[rng.choice((-2, -1, 1, 2)) for _ in range(dim)]
              for _ in range(extra)]
    shift = [rng.randint(-1, 1) for _ in range(extra)]
    out = []
    for p in sorted(pts):
        tail = tuple(sum(a * x for a, x in zip(row, p)) + c
                     for row, c in zip(coeffs, shift))
        out.append(tuple(p) + tail)
    return out


def _example2_forms(d: int) -> list:
    """The capped box 0 <= x_i <= 2 (i < d), 0 <= x_d <= d, sum <= d + 1,
    as ``(normal, offset)`` pairs meaning ``normal . x <= offset``."""
    forms = []
    for i in range(d):
        e = [1 if j == i else 0 for j in range(d)]
        forms.append((e, 2 if i < d - 1 else d))
        forms.append(([-c for c in e], 0))
    forms.append(([1] * d, d + 1))
    return forms


def _vertex_doc(dim: int, pts: list, name: Optional[str] = None) -> dict:
    doc = {"ambient_dim": dim, "vertices": [list(p) for p in pts]}
    if name is not None:
        doc["name"] = name
    return doc


def _lifted_sum(pts: list) -> tuple:
    """Sum of the candidates at degree ``len(pts)``: the centroid scaled up,
    so it lies in the relative interior of the dilate."""
    return tuple(sum(c) for c in zip(*pts)) + (len(pts),)


def _base_gen_dilates(rng: random.Random) -> Workload:
    w = Workload("gen-dilates", BASE_SEED)
    cube = [tuple((i >> k) & 1 for k in range(4)) for i in range(16)]
    reeve = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 50)]
    named = [
        ("example2-d4", {"ambient_dim": 4, "name": "example2-d4",
                         "inequalities": [{"normal": n, "offset": o}
                                          for n, o in _example2_forms(4)]},
         # (1,1,1,1) is interior; (2,2,0,0) and (0,0,0,4) are in P.
         [(3, 3, 1, 5, 3), (5, 5, 1, 9, 5)]),
        ("cube-d4", _vertex_doc(4, cube, "cube-d4"),
         [(3, 3, 3, 3, 6), (5, 5, 5, 5, 10)]),
        ("reeve-q50", _vertex_doc(3, reeve, "reeve-q50"),
         [_lifted_sum(reeve), (4, 4, 150, 6)]),
    ]
    for fam, doc, points in named:
        w.polytopes[fam] = PolytopeInput(fam, doc, family=fam)
        _add_generator_jobs(w, fam, points)
    for i in range(8):
        pts = _random_hull(rng, 4, 2, 6, 8)
        pid = f"hull4-{i:02d}"
        w.polytopes[pid] = PolytopeInput(pid, _vertex_doc(4, pts))
        _add_generator_jobs(w, pid, [_lifted_sum(pts)] if i % 2 == 0 else [])
    w.warmup = _job("reeve-q50", "generators", ("generators", "{file}"))
    return w


def _add_generator_jobs(w: Workload, pid: str, points: list) -> None:
    w.jobs.append(_job(pid, "generators", ("generators", "{file}")))
    w.jobs.append(_job(pid, "generators-full",
                       ("generators", "--full", "{file}")))
    w.jobs.append(_job(pid, "idp", ("idp", "{file}")))
    for j, y in enumerate(points):
        w.jobs.append(Job(f"{pid}/rdeg-{j}", pid, "rdeg",
                          ("rdeg", "{file}", None), point=tuple(y)))


def _job(pid: str, kind: str, argv: tuple) -> Job:
    return Job(f"{pid}/{kind}", pid, kind, argv)


def _base_tri_cover(rng: random.Random) -> Workload:
    w = Workload("tri-cover", BASE_SEED)
    specs = [(3, 3, 5, 8)] * 14 + [(4, 2, 6, 8)] * 6
    for i, (dim, bound, lo, hi) in enumerate(specs):
        pts = _random_hull(rng, dim, bound, lo, hi, want_interior=True)
        pid = f"hull{dim}-{i:02d}"
        w.polytopes[pid] = PolytopeInput(pid, _vertex_doc(dim, pts))
        w.jobs.append(_job(pid, "triangulate", ("triangulate", "{file}")))
        w.jobs.append(_job(pid, "triangulate-irt",
                           ("triangulate", "--interior-respecting", "{file}")))
    w.warmup = _job("hull3-00", "triangulate", ("triangulate", "{file}"))
    return w


def _base_verify_corpus(rng: random.Random) -> Workload:
    w = Workload("verify-corpus", BASE_SEED)
    hulls = []
    for _ in range(16):
        hulls.append((2, _random_hull(rng, 2, 3, 3, 8)))
    for _ in range(20):
        hulls.append((3, _random_hull(rng, 3, 3, 4, 8)))
    for _ in range(4):
        hulls.append((3, _embedded_hull(rng, 2, 3, 2)))
    for _ in range(2):
        hulls.append((2, _embedded_hull(rng, 1, 2, 3)))
    for i, (ambient, pts) in enumerate(hulls):
        pid = f"small{ambient}-{i:02d}"
        w.polytopes[pid] = PolytopeInput(pid, _vertex_doc(ambient, pts))
        w.jobs.append(_job(pid, "verify", ("verify", "{file}")))
    w.warmup = _job("small2-00", "verify", ("verify", "{file}"))
    return w


_BASES = {
    "gen-dilates": _base_gen_dilates,
    "tri-cover": _base_tri_cover,
    "verify-corpus": _base_verify_corpus,
}


def base_workload(name: str) -> Workload:
    """The seed-independent job list of a workload, in base coordinates."""
    if name not in _BASES:
        raise ValueError(f"unknown workload {name!r}; choose from"
                         f" {', '.join(WORKLOADS)}")
    return _BASES[name](random.Random(f"{name}/base/{BASE_SEED}"))


# -- seeded lattice-equivalent copies ---------------------------------------

def translate(doc: dict, shift: tuple, rng: random.Random) -> dict:
    """The polytope document moved by ``shift``, its lists shuffled.

    Inequalities ``n.x <= o`` become ``n.x <= o + n.shift``.
    """
    out = {k: v for k, v in doc.items() if k in ("ambient_dim", "name")}
    if "vertices" in doc:
        verts = [[a + s for a, s in zip(v, shift, strict=True)]
                 for v in doc["vertices"]]
        rng.shuffle(verts)
        out["vertices"] = verts
    else:
        forms = [{"normal": list(f["normal"]),
                  "offset": f["offset"] + intmath.dot(f["normal"], shift)}
                 for f in doc["inequalities"]]
        rng.shuffle(forms)
        out["inequalities"] = forms
    return out


def translate_lifted(shift: tuple, y: tuple) -> tuple:
    """Move a lifted point ``(position..., degree)`` with its polytope: the
    degree-``k`` slice moves by ``k * shift``."""
    k = y[-1]
    return tuple(a + k * s for a, s in zip(y[:-1], shift, strict=True)) + (k,)


def make_workload(name: str, seed: int) -> Workload:
    """The job list of ``name`` for ``seed``: same seed, same inputs."""
    base = base_workload(name)
    rng = random.Random(f"{name}/{seed}")
    w = Workload(name, seed, warmup=base.warmup)
    for pid, p in base.polytopes.items():
        shift = tuple(rng.randint(-3, 3) for _ in range(p.doc["ambient_dim"]))
        w.polytopes[pid] = PolytopeInput(pid, translate(p.doc, shift, rng),
                                         family=p.family, shift=shift)
    jobs = []
    for job in base.jobs:
        if job.point is None:
            jobs.append(job)
            continue
        y = translate_lifted(w.polytopes[job.poly_id].shift, job.point)
        argv = tuple(" ".join(map(str, y)) if a is None else a
                     for a in job.argv)
        jobs.append(Job(job.job_id, job.poly_id, job.kind, argv, point=y))
    rng.shuffle(jobs)
    w.jobs = jobs
    return w


def write_inputs(w: Workload, directory: str) -> None:
    """Write one JSON file per polytope into ``directory``."""
    os.makedirs(directory, exist_ok=True)
    for pid, p in w.polytopes.items():
        with open(os.path.join(directory, pid + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(p.doc, fh, sort_keys=True)
            fh.write("\n")
