"""Outside-in tracing: spans around calls into polycanon's public functions.

:func:`instrument` wraps each function or method named in ``TARGETS`` and
rebinds the name everywhere polycanon holds it (the defining module, every
module that imported it, the package namespace, or the class).  Nothing in
``src/`` changes.  A span is kept in memory as (name, start, end, parent,
job) and written out by :meth:`Recorder.write`.

Counts are taken outside the timed region: a wrapper only stashes its
arguments and result, and the count hooks run after the job has ended.

A call whose innermost open span has the same name records no span of its
own (recursive ``det_cofactor``, or ``from_inequalities`` ending in
``from_vertices``), so ``calls`` counts outermost entries.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

# (span name, module, attribute); an attribute "Class.method" wraps a method.
TARGETS = (
    ("exactmath.rank", "exactmath", "rank"),
    ("exactmath.snf", "exactmath", "smith_normal_form"),
    ("exactmath.solve", "exactmath", "solve_rational"),
    ("exactmath.det", "exactmath", "det_bareiss"),
    ("exactmath.det", "exactmath", "det_cofactor"),
    ("exactmath.chart", "exactmath", "build_chart"),
    ("polytope.construct", "polytope", "Polytope.from_vertices"),
    ("polytope.construct", "polytope", "Polytope.from_inequalities"),
    ("polytope.scan", "polytope", "Polytope.lattice_points"),
    ("polytope.scan", "polytope", "Polytope.interior_lattice_points"),
    ("polytope.classify", "polytope", "Polytope.classify_point"),
    ("cone.membership", "cone", "GradedCone.membership"),
    ("simplex.slicer_init", "simplex", "SimplexConeSlicer.__init__"),
    ("simplex.interior_points", "simplex",
     "SimplexConeSlicer.interior_points"),
    ("simplex.tests", "simplex", "is_empty_simplex"),
    ("simplex.tests", "simplex", "is_unimodular"),
    ("simplex.tests", "simplex", "normalized_volume"),
    ("simplex.barycentric", "simplex", "barycentric"),
    ("simplex.barycentric", "simplex", "unit_box_decomposition"),
    ("triangulation.placing", "triangulation", "placing_triangulation"),
    ("triangulation.fine", "triangulation", "full_lattice_triangulation"),
    ("triangulation.irt", "triangulation",
     "interior_respecting_triangulation"),
    ("triangulation.interior_faces", "triangulation", "interior_faces"),
    ("triangulation.cover", "triangulation", "verify_decomposition"),
    ("triangulation.volume", "triangulation", "total_normalized_volume"),
    ("semigroup.generators", "semigroup", "irreducible_generators"),
    ("semigroup.full", "semigroup", "full_generators"),
    ("semigroup.idp", "semigroup", "idp_check"),
    ("semigroup.rdeg", "semigroup", "reduced_degree"),
    ("semigroup.oracle", "semigroup", "reduced_degree_oracle"),
    ("checks.polytope", "checks", "check_polytope"),
    ("cli", "cli", "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))

# Counts and ratios reported next to each span's calls and self_s.
COUNTERS = (
    ("polytope.scan.repeat_frac", "frac"),
    ("polytope.scan.points_out", "count"),
    ("polytope.scan.keep_frac", "frac"),
    ("simplex.slicer.box_points", "count"),
    ("simplex.interior_points.points_out", "count"),
    ("triangulation.fine.cells", "count"),
    ("triangulation.interior_faces.count", "count"),
    ("triangulation.cover.points_checked", "count"),
    ("semigroup.generators.tests", "count"),
    ("semigroup.generators.useful_frac", "frac"),
    ("semigroup.full.tests", "count"),
    ("cli.stdout_bytes", "count"),
)


class Recorder:
    """Spans of one process, stored column-wise to stay small."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.stack: List[int] = []
        self.active = False
        self.job_index = -1
        self.pending: list = []
        self.counts: Dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin_job(self, index: int) -> None:
        self.job_index = index
        self.active = True

    def end_job(self) -> None:
        """Stop recording and run the count hooks the job left behind."""
        self.active = False
        if self.stack:
            raise RuntimeError("a span was left open")
        for hook, args, kwargs, result, note in self.pending:
            hook(self.counts, args, kwargs, result, note)
        self.pending.clear()

    def self_times(self) -> list:
        return self_times(self.start, self.end, self.parent)

    def totals(self) -> Dict[str, tuple]:
        """span name -> (calls, summed self time in seconds)."""
        calls: Dict[str, int] = defaultdict(int)
        own: Dict[str, float] = defaultdict(float)
        for nid, s in zip(self.name, self.self_times()):
            calls[self.names[nid]] += 1
            own[self.names[nid]] += s
        return {n: (calls[n], own[n]) for n in calls}

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "name": self.names[self.name[i]],
                    "start": self.start[i], "end": self.end[i],
                    "parent": self.parent[i], "job": self.job[i]}) + "\n")


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> list:
    """Each span's duration minus the part of it its children cover.

    Children may overlap one another or stick out of their parent; only
    the union of their intervals inside the parent is subtracted.
    """
    children: Dict[int, list] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        s, e = start[i], end[i]
        covered, reach = 0.0, s
        for a, b in sorted((max(start[c], s), min(end[c], e))
                           for c in children.get(i, ())):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append((e - s) - covered)
    return out


def _wrap(rec: Recorder, name: str, fn: Callable,
          before: Optional[Callable], after: Optional[Callable]) -> Callable:
    nid = rec.name_id(name)
    clock = time.perf_counter
    stack = rec.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active or (stack and rec.name[stack[-1]] == nid):
            return fn(*args, **kwargs)
        note = before(args, kwargs) if before is not None else None
        i = len(rec.start)
        rec.name.append(nid)
        rec.parent.append(stack[-1] if stack else -1)
        rec.job.append(rec.job_index)
        rec.end.append(0.0)
        stack.append(i)
        rec.start.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end[i] = clock()
            stack.pop()
        if after is not None:
            rec.pending.append((after, args, kwargs, result, note))
        return result

    wrapper.__wrapped_by_bench__ = fn
    return wrapper


# -- count hooks: ``before`` runs at call time, ``after`` after the job ----

def _arg(args, kwargs, index, key, default):
    return args[index] if len(args) > index else kwargs.get(key, default)


def _cached(key_of):
    def before(args, kwargs):
        return key_of(args, kwargs) in args[0]._cache
    return before


def _scan_key(interior):
    return lambda args, kwargs: ("scan", _arg(args, kwargs, 1, "scale", 1),
                                 interior)


def _after_scan(interior):
    def after(counts, args, kwargs, result, repeat):
        counts["polytope.scan.repeats"] += repeat
        if repeat:
            return
        P, scale = args[0], _arg(args, kwargs, 1, "scale", 1)
        counts["polytope.scan.points_out"] += len(result)
        if P.dim >= 1 and scale >= 1:
            box = 1
            for c in zip(*P._fd_vertices):
                box *= (max(c) - min(c)) * scale + 1
            counts["polytope.scan.box_points"] += box
            counts["polytope.scan.kept"] += len(result)
    return after


def _interior_count(P, kmax: int) -> int:
    return sum(len(P._cache.get(("scan", k, True), ()))
               for k in range(1, kmax + 1))


def _after_generators(prefix):
    def after(counts, args, kwargs, report, repeat):
        if repeat:
            return
        P = args[0]
        counts[prefix + ".tests"] += _interior_count(P, P.dim + 1)
        counts[prefix + ".useful"] += len(report.generators)
    return after


def _after_slicer(counts, args, kwargs, result, note):
    counts["simplex.slicer.box_points"] += len(args[0]._reps)


def _after_slice(counts, args, kwargs, result, note):
    counts["simplex.interior_points.points_out"] += len(result)


def _after_fine(counts, args, kwargs, T, repeat):
    if not repeat:
        counts["triangulation.fine.cells"] += len(T.cells)


def _after_faces(counts, args, kwargs, faces, note):
    counts["triangulation.interior_faces.count"] += len(faces)


def _after_cover(counts, args, kwargs, result, note):
    P, kmax = args[1], _arg(args, kwargs, 2, "kmax", 1)
    counts["triangulation.cover.points_checked"] += _interior_count(P, kmax)


HOOKS = {
    "Polytope.lattice_points": (_cached(_scan_key(False)), _after_scan(False)),
    "Polytope.interior_lattice_points": (_cached(_scan_key(True)),
                                         _after_scan(True)),
    "SimplexConeSlicer.__init__": (None, _after_slicer),
    "SimplexConeSlicer.interior_points": (None, _after_slice),
    "full_lattice_triangulation": (
        _cached(lambda a, k: "full_triangulation"), _after_fine),
    "interior_faces": (None, _after_faces),
    "verify_decomposition": (None, _after_cover),
    "irreducible_generators": (_cached(lambda a, k: "generator_report"),
                               _after_generators("semigroup.generators")),
    "full_generators": (_cached(lambda a, k: "full_generator_report"),
                        _after_generators("semigroup.full")),
}


def instrument(rec: Recorder,
               package: str = "polycanon") -> Callable[[], None]:
    """Wrap every target and rebind it wherever the package holds it.

    Returns a function that puts the originals back.
    """
    mods = {n: m for n, m in sys.modules.items()
            if n == package or n.startswith(package + ".")}
    undo = []
    for name, modname, attr in TARGETS:
        mod = mods[f"{package}.{modname}"]
        hooks = HOOKS.get(attr, (None, None))
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(rec, name, raw.__func__, *hooks))
            else:
                new = _wrap(rec, name, raw, *hooks)
            setattr(cls, meth, new)
            undo.append((cls, meth, raw))
            continue
        orig = getattr(mod, attr)
        new = _wrap(rec, name, orig, *hooks)
        for m in mods.values():
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, new)
                    undo.append((m, key, orig))

    def restore() -> None:
        for owner, key, val in reversed(undo):
            setattr(owner, key, val)
    return restore


def layer_metrics(rec: Recorder, passes: int) -> Dict[str, tuple]:
    """Per-layer metrics per pass of the job list: name -> (value, unit)."""
    totals = rec.totals()
    c = rec.counts
    out: Dict[str, tuple] = {}
    for name in SPAN_NAMES:
        calls, own = totals.get(name, (0, 0.0))
        out[name + ".calls"] = (calls / passes, "count")
        out[name + ".self_s"] = (own / passes, "s")

    def frac(num, den):
        return num / den if den else 0.0

    for name, unit in COUNTERS:
        if unit == "count":
            out[name] = (c.get(name, 0) / passes, unit)
    scans = totals.get("polytope.scan", (0, 0.0))[0]
    out["polytope.scan.repeat_frac"] = (
        frac(c.get("polytope.scan.repeats", 0), scans), "frac")
    out["polytope.scan.keep_frac"] = (
        frac(c.get("polytope.scan.kept", 0),
             c.get("polytope.scan.box_points", 0)), "frac")
    out["semigroup.generators.useful_frac"] = (
        frac(c.get("semigroup.generators.useful", 0),
             c.get("semigroup.generators.tests", 0)), "frac")
    return out
