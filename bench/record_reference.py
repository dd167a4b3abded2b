#!/usr/bin/env python3
"""Record the reference outputs that ``run.py`` judges jobs against.

    python3 bench/record_reference.py --label <commit>

For the default and the held-out seed, every job of every workload runs
once; its exit code and stdout digest are stored, and its lattice
invariants are stored per base job after checking that both seeds agree.
Nothing is written if any job fails the benchmark's own checks.  Answers
are exact, so a reference is recorded once and only changes together with
the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import judge as judging
import run
import workloads


def record(label: str) -> dict:
    digests: dict = {}
    invariants: dict = {}
    for name in workloads.WORKLOADS:
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            workdir = os.path.join(run.OUT, f"record-{name}-s{seed}")
            try:
                cli, w, _ = run.set_up(name, seed, workdir)
                judge = judging.Judge(w, None)
                loop = run.Loop(cli, w, workdir, judge)
                loop.passes(1, 0.0)
                run.oracle_check(w, judge)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            bad = loop.failures()
            if bad:
                raise SystemExit(f"{name} seed {seed}: {bad[:3]}")
            digests.setdefault(str(seed), {})[name] = {
                job.job_id: [0, judge.first[job.job_id]] for job in w.jobs}
            inv = {job.job_id: judging.invariants(job, judge.docs[job.job_id])
                   for job in w.jobs}
            if invariants.setdefault(name, inv) != inv:
                raise SystemExit(f"{name}: invariants differ between seeds")
    return {"label": label,
            "seeds": {"default": workloads.DEFAULT_SEED,
                      "held_out": workloads.HELD_OUT_SEED},
            "digests": digests,
            "invariants": invariants}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True,
                   help="the commit the reference is taken at")
    args = p.parse_args()
    doc = record(args.label)
    with open(judging.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {judging.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
