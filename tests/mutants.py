"""Mutants of ``src/`` that the tests must catch, as a checked list.

Each entry is an exact ``old -> new`` edit of one source file and the
tests expected to fail on it.  For each entry the runner copies ``src/``
into a temporary directory, applies the edit there, and runs only the
named tests against the copy.  It fails if those tests pass (the mutant
survived), if ``old`` no longer occurs exactly once in the file (the
entry is stale), or if the named tests already fail on the unmutated
copy, which is run first.  Entries run one after the other, and the time
of each is reported.

Run it from the repository root, for all entries or for the named ones::

    python tests/mutants.py
    python tests/mutants.py point-count-subset
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MUTANTS = [
    {"name": "point-count-subset",
     "file": "src/polycanon/checks.py",
     "old": "(P._slice(k, True)[1] & ~lat).any()",
     "new": "(P._slice(k, True)[1] & lat).any()",
     "tests": ["tests/test_checks.py::test_mask_checks_match_their_tuple_twins"]},
    {"name": "slice-labels-from-the-lattice-mask",
     "file": "src/polycanon/checks.py",
     "old": "np.where(P._slice(k, True)[1][lat], 0, 1)",
     "new": "np.where(lat[lat], 0, 1)",
     "tests": ["tests/test_checks.py::test_mask_checks_match_their_tuple_twins"]},
    {"name": "slice-naming-skipped",
     "file": "src/polycanon/checks.py",
     "old": "return (_first_wrong_label(P, C, k)\n                    or ",
     "new": "return (",
     "tests": ["tests/test_checks.py::test_slice_projection_reports_a_wrong_label",
               "tests/test_checks.py::test_mask_checks_match_their_tuple_twins"]},
    {"name": "point-count-equal-is-a-drop",
     "file": "src/polycanon/checks.py",
     "old": "n < prev",
     "new": "n <= prev",
     "tests": ["tests/test_checks.py::test_mask_checks_match_their_tuple_twins"]},
    # tests/test_polytope.py builds example2 at import, so a mutant that
    # breaks that build stops its collection; the family tests fail instead
    {"name": "cone-search-keeps-zero-rays",
     "file": "src/polycanon/polytope.py",
     "old": "(up | (prod <= 0).all(axis=1)) & c.any(axis=1)]",
     "new": "(up | (prod <= 0).all(axis=1))]",
     "tests": ["tests/test_families.py::test_capped_box_counts_scale_with_dimension"]},
    {"name": "cone-search-keeps-rays-unoriented",
     "file": "src/polycanon/polytope.py",
     "old": "        c[up] *= -1\n",
     "new": "",
     "tests": ["tests/test_families.py::test_capped_box_counts_scale_with_dimension"]},
    {"name": "cone-search-without-the-homogenizing-row",
     "file": "src/polycanon/polytope.py",
     "old": "[(0,) * m + (-1,)] + ",
     "new": "",
     "tests": ["tests/test_polytope.py::test_from_inequalities_unbounded_recession_ray"]},
    {"name": "cross-stack-without-alternation",
     "file": "src/polycanon/exactmath.py",
     "old": "_minors(A, cols[-1:], cols) * (1 - 2 * (np.arange(len(cols)) % 2))",
     "new": "_minors(A, cols[-1:], cols)",
     "tests": ["tests/test_exactmath.py::test_cross_stack_matches_generalized_cross"]},
    {"name": "minors-always-int64",
     "file": "src/polycanon/exactmath.py",
     "old": "max(map(abs, dets), default=0) < _INT64_GUARD",
     "new": "True",
     "tests": ["tests/test_exactmath.py::test_minors_match_laplace_on_every_index_set"]},
    {"name": "stellar-clash-with-the-previous-point-only",
     "file": "src/polycanon/triangulation.py",
     "old": "np.logical_or.accumulate(hits[:-1])",
     "new": "hits[:-1]",
     "tests": ["tests/test_triangulation.py::test_stellar_rounds_insert_points_together",
               "tests/test_triangulation.py::test_stellar_table_matches_the_cell_loop"]},
    {"name": "interior-respecting-takes-the-fine-pass",
     "file": "src/polycanon/triangulation.py",
     "old": "boundary = fine[1] if fine else _boundary_simplices(pts, interior)",
     "new": "boundary = _fine(P)[1]",
     "tests": ["tests/test_triangulation.py::test_interior_respecting_takes_no_fine_pass"]},
    {"name": "scatter-ratio-nine",
     "file": "src/polycanon/semigroup.py",
     "old": "_SCATTER_RATIO = 8",
     "new": "_SCATTER_RATIO = 9",
     "tests": ["tests/test_semigroup.py::test_sumset_rule_scatters_only_small_sumsets"]},
    {"name": "slice-ignores-facets-parallel-to-the-last-axis",
     "file": "src/polycanon/polytope.py",
     "old": "np.copyto(t_hi, t[0] - 1, where=r < 0)",
     "new": "pass",
     "tests": ["tests/test_polytope.py::test_slice_masks_and_vertices_match_their_twins",
               "tests/test_polytope.py::test_numpy_and_python_scans_agree"]},
    {"name": "reduced-degree-ignores-cached-slices",
     "file": "src/polycanon/semigroup.py",
     "old": "P._cache.get((\"slice\", k - j, True))",
     "new": "None",
     "tests": ["tests/test_semigroup.py::test_reduced_degree_reads_cached_interior_slices"]},
]


def run_tests(tests: list, edit: dict = None) -> int:
    """The pytest exit status of ``tests`` on a copy of ``src/``, with
    ``edit`` applied to it if given; ``None`` if its ``old`` string does
    not occur exactly once."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if edit is not None:
            path = Path(tmp) / edit["file"]
            text = path.read_text()
            if text.count(edit["old"]) != 1:
                return None
            path.write_text(text.replace(edit["old"], edit["new"]))
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        # the copy, not an installed package, must be the one imported
        where = subprocess.run(
            [sys.executable, "-c", "import polycanon; print(polycanon.__file__)"],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        if not Path(where.stdout.strip()).is_relative_to(src):
            raise RuntimeError(f"tests would import {where.stdout.strip()}")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *tests],
            env=env, cwd=ROOT, capture_output=True).returncode


def run_mutant(entry: dict) -> str:
    """``"killed"`` when a named test fails on the mutant, ``"survived"``
    when they all pass, ``"stale"`` when ``old`` is gone, and ``"error"``
    for any other pytest exit status (no tests collected, say)."""
    status = run_tests(entry["tests"], entry)
    return {None: "stale", 0: "survived", 1: "killed"}.get(status, "error")


def main(names: list) -> int:
    entries = [e for e in MUTANTS if not names or e["name"] in names]
    unknown = set(names) - {e["name"] for e in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    # a mutant counts as killed only if its tests pass on the source as is
    tests = sorted({t for e in entries for t in e["tests"]})
    start = time.perf_counter()
    if run_tests(tests) != 0:
        print("the named tests fail on the unmutated source")
        return 1
    print(f"unmutated: passed in {time.perf_counter() - start:.1f} s")
    bad = 0
    for entry in entries:
        start = time.perf_counter()
        outcome = run_mutant(entry)
        bad += outcome != "killed"
        print(f"{entry['name']}: {outcome} in"
              f" {time.perf_counter() - start:.1f} s", flush=True)
    print(f"{len(entries) - bad} of {len(entries)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
