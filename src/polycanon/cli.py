"""Command-line interface.

Every subcommand prints one canonical JSON document to stdout (sorted keys,
two-space indent, trailing newline); wall-clock timing goes to stderr so
identical inputs give byte-identical stdout.  Exit codes: 0 success, 1 bad
input or usage, 2 checks ran and found violations.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from typing import Optional

from .checks import default_corpus, run_suite
from .cone import GradedPoint
from .families import family
from .polytope import Polytope
from .semigroup import (
    full_generators,
    idp_check,
    irreducible_generators,
    reduced_degree,
)
from .triangulation import (
    full_lattice_triangulation,
    interior_faces,
    interior_respecting_triangulation,
    verify_decomposition,
)


def _canonical(x, pad: str = "") -> str:
    """``json.dumps(x, sort_keys=True, indent=2)``, byte for byte, with the
    lines of ``x`` after its first indented by ``pad``.

    ``json.dumps`` takes its pure-Python encoder whenever it indents, so a
    triangulation's long lists of small int lists cost more to print than
    to check.  Lists, dicts with string keys, strings, ints (bools are not
    ints here), ``None`` and bools are written here: a list of ints by one
    join, and a list of nonempty int lists by one ``%`` per run of rows of
    one length (:func:`_int_rows`).  Every other value goes through
    ``json.dumps``, and so does a dict with a key that is not a string,
    whole, since ``json.dumps`` converts such keys."""
    t = type(x)
    if t is int:
        return int.__repr__(x)
    if t is str:
        return _string(x)
    if x is None or t is bool:
        return _ATOMS[x]
    inner = pad + "  "
    if t is list or t is tuple:
        if not x:
            return "[]"
        if _only(x, int):
            items = map(int.__repr__, x)
        elif (all(x) and set(map(type, x)) <= {list, tuple}
              and _only(itertools.chain.from_iterable(x), int)):
            items = _int_rows(x, inner)
        else:
            items = (_canonical(v, inner) for v in x)
        return ("[\n" + inner + (",\n" + inner).join(items)
                + "\n" + pad + "]")
    if t is dict and _only(x, str):
        items = (_string(k) + ": " + _canonical(x[k], inner)
                 for k in sorted(x))
        return ("{\n" + inner + (",\n" + inner).join(items)
                + "\n" + pad + "}")
    if t is dict and not x:
        return "{}"
    return json.dumps(x, sort_keys=True, indent=2).replace("\n", "\n" + pad)


@functools.lru_cache(maxsize=64)
def _row_template(pad: str, n: int) -> str:
    """The ``%`` template of a list of ``n`` ints at indent ``pad``."""
    return ("[\n" + pad + "  " + (",\n" + pad + "  ").join(["%d"] * n)
            + "\n" + pad + "]")


def _int_rows(rows, pad: str) -> list:
    """The lines of nonempty int lists ``rows`` at indent ``pad``, one
    string per run of rows of one length: the row template, joined once per
    row of the run, takes all of the run's values in one ``%``."""
    out = []
    for n, run in itertools.groupby(rows, len):
        run = list(run)
        template = (",\n" + pad).join([_row_template(pad, n)] * len(run))
        out.append(template % tuple(itertools.chain.from_iterable(run)))
    return out


_ATOMS = {None: "null", True: "true", False: "false"}
_string = json.encoder.encode_basestring_ascii  # json.dumps on a str


def _only(values, kind: type) -> bool:
    return set(map(type, values)) == {kind}


def _emit(doc: dict) -> None:
    sys.stdout.write(_canonical(doc) + "\n")


def _load_polytope(path: str) -> Polytope:
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    return Polytope.from_json_dict(data)


def _graded_point_doc(y: GradedPoint) -> dict:
    return {"position": list(y.position), "degree": y.degree}


def cmd_generators(args) -> int:
    P = _load_polytope(args.polytope)
    rep = full_generators(P) if args.full else irreducible_generators(P)
    _emit({
        "polytope": P.to_json_dict(),
        "mode": "full-semigroup" if args.full else "degree-one",
        "generators": [_graded_point_doc(g) for g in rep.generators],
        "degree_histogram": [list(t) for t in rep.degree_histogram],
        "max_degree": rep.max_degree,
        "bound": {"value": rep.bound.bound, "reason": rep.bound.reason},
    })
    return 0


def cmd_rdeg(args) -> int:
    P = _load_polytope(args.polytope)
    coords = [int(t) for t in args.point.replace(",", " ").split()]
    if len(coords) != P.ambient_dim + 1:
        raise ValueError(
            f"need {P.ambient_dim} coordinates plus a degree,"
            f" got {len(coords)} numbers")
    y = GradedPoint(tuple(coords[:-1]), coords[-1])
    value, wit = reduced_degree(P, y)
    _emit({
        "point": _graded_point_doc(y),
        "reduced_degree": value,
        "irreducible": value == y.degree,
        "witness": {
            "interior_part": _graded_point_doc(wit.interior_part),
            "parts": [_graded_point_doc(p) for p in wit.parts],
        },
    })
    return 0


def cmd_family(args) -> int:
    P = family(args.name, d=args.d, q=args.q)
    doc = P.to_json_dict()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(_canonical(doc) + "\n")
    else:
        _emit(doc)
    return 0


def cmd_verify(args) -> int:
    if args.corpus:
        polytopes = list(default_corpus(
            seed=args.seed, count=args.count,
            dims=tuple(int(t) for t in args.dims.split(",")),
            coord_bound=args.coord_bound,
            max_candidates=args.max_candidates))
    elif args.polytope:
        polytopes = [_load_polytope(args.polytope)]
    else:
        raise ValueError("give a polytope file or --corpus")
    report = run_suite(polytopes, threads=args.threads)
    if not args.corpus:
        rep = irreducible_generators(polytopes[0])
        report["invariant"] = rep.max_degree
        report["bound"] = {"value": rep.bound.bound,
                           "reason": rep.bound.reason}
    _emit(report)
    return 0 if report["ok"] else 2


def cmd_triangulate(args) -> int:
    P = _load_polytope(args.polytope)
    if args.interior_respecting:
        T = interior_respecting_triangulation(P)
    else:
        T = full_lattice_triangulation(P)
    kmax = args.kmax if args.kmax is not None else P.dim + 1
    res = verify_decomposition(T, P, kmax)
    _emit({  # tuples of int tuples: the writer formats them as they are
        "points": T.points,
        "cells": T.cells,
        "interior_faces": interior_faces(T, P),
        "interior_respecting": bool(args.interior_respecting),
        "covering": {
            "ok": res.ok,
            "checked_up_to": kmax,
            "degree": res.degree,
            "point": list(res.point) if res.point else None,
            "reason": res.reason,
        },
    })
    return 0 if res.ok else 2


def cmd_idp(args) -> int:
    P = _load_polytope(args.polytope)
    ok, witness = idp_check(P, kmax=args.kmax)
    _emit({
        "integrally_closed": ok,
        "conclusive": args.kmax is None or args.kmax >= max(P.dim, 2),
        "witness": _graded_point_doc(witness) if witness else None,
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycanon",
        description="Lattice-point semigroups of polytopes: irreducible"
                    " generators, reduced degrees, triangulations, and"
                    " self-checks, all in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generators",
                       help="irreducible generators of the interior ideal")
    p.add_argument("polytope", help="polytope JSON file, or - for stdin")
    p.add_argument("--full", action="store_true",
                   help="generators of the full semigroup instead")
    p.set_defaults(fn=cmd_generators)

    p = sub.add_parser("rdeg", help="reduced degree of one graded point")
    p.add_argument("polytope", help="polytope JSON file, or - for stdin")
    p.add_argument("point",
                   help="coordinates then degree, e.g. \"1 1 2\"")
    p.set_defaults(fn=cmd_rdeg)

    p = sub.add_parser("family", help="emit a named polytope as JSON")
    p.add_argument("name",
                   choices=["example1", "example2", "unit", "cube", "reeve"])
    p.add_argument("--d", type=int, default=None, help="dimension")
    p.add_argument("--q", type=int, default=None,
                   help="apex height for the reeve family")
    p.add_argument("-o", "--output", default=None, help="output file")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("verify",
                       help="run the self-check suite (exit 2 on violations)")
    p.add_argument("polytope", nargs="?", default=None,
                   help="polytope JSON file, or - for stdin")
    p.add_argument("--corpus", action="store_true",
                   help="check a reproducible random corpus instead")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=24)
    p.add_argument("--dims", default="2,3",
                   help="comma-separated ambient dimensions")
    p.add_argument("--coord-bound", type=int, default=3)
    p.add_argument("--max-candidates", type=int, default=8)
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: POLYCANON_THREADS or 1)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("triangulate",
                       help="full lattice triangulation as JSON")
    p.add_argument("polytope", help="polytope JSON file, or - for stdin")
    p.add_argument("--interior-respecting", action="store_true",
                   help="every cell keeps a vertex interior to the polytope")
    p.add_argument("--kmax", type=int, default=None,
                   help="also verify the interior covering up to this degree")
    p.set_defaults(fn=cmd_triangulate)

    p = sub.add_parser("idp",
                       help="is every dilate's point a sum of degree-one"
                            " points?")
    p.add_argument("polytope", help="polytope JSON file, or - for stdin")
    p.add_argument("--kmax", type=int, default=None,
                   help="check up to this degree (default: conclusive)")
    p.set_defaults(fn=cmd_idp)
    return parser


# main parses with one parser per process: parsing leaves it unchanged,
# and building it costs about a millisecond per call
_parser = functools.cache(build_parser)


def main(argv: Optional[list] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; exit 2 is reserved for failed
        # mathematical checks, so usage problems report as 1.
        return 0 if exc.code in (0, None) else 1
    start = time.monotonic()
    try:
        rc = args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        elapsed = time.monotonic() - start
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
