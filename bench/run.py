#!/usr/bin/env python3
"""The polycanon benchmark.

    python3 bench/run.py --workload gen-dilates --seed 1 --seconds 34 --trace 0

Run from anywhere inside a checkout: it imports polycanon from the
checkout's ``src/`` and refuses to run (exit 2) when that is missing.

Each workload is a closed loop with one client: jobs run one after the
other, in one thread, each an in-process ``polycanon.cli.main(argv)`` call
on a freshly loaded polytope file, with stdout captured and judged (see
``judge.py``).  The job list is repeated in whole passes, at least three,
until ``--seconds`` is used up; each job's latency is its median over the
passes.

Times are rescaled to a nominal host speed by a fixed kernel timed between
jobs and set-ups (see ``calibrate.py``).  The raw wall times are printed
too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced pass, then traced passes, and reports per-layer metrics per pass
of the job list (see ``spans.py``).  Human-readable lines come first; the
last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import judge as judging  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 3          # every job's latency is its median over the passes
TAIL_LEVEL = 0.75       # 40 to 43 jobs: the highest level with 10 beyond
ORACLE_BUDGET = 20_000  # multisets the exhaustive rdeg oracle may try


class SetupError(RuntimeError):
    pass


def import_polycanon():
    """Import ``polycanon.cli`` from this checkout, dropping earlier copies."""
    if not os.path.isfile(os.path.join(SRC, "polycanon", "cli.py")):
        raise SetupError(f"no polycanon sources under {SRC}")
    for name in [n for n in sys.modules
                 if n == "polycanon" or n.startswith("polycanon.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.invalidate_caches()
    cli = importlib.import_module("polycanon.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported polycanon from {cli.__file__}")
    return cli


def run_job(cli, argv: list) -> tuple:
    """One in-process CLI call: ``(exit code, stdout, seconds)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a crashed run
            print(f"crash: {exc!r}", file=sys.stderr)
            rc = -1
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


def set_up(name: str, seed: int, workdir: str) -> tuple:
    """Import, generate and write the inputs, and run the warm-up job."""
    t0 = time.perf_counter()
    cli = import_polycanon()
    w = workloads.make_workload(name, seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workloads.write_inputs(w, workdir)
    rc, _, _ = run_job(cli, w.argv(w.warmup, workdir))
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise SetupError(f"warm-up job exited {rc}")
    return cli, w, elapsed


class Timings:
    """Raw and speed-normalized seconds of a series of timed steps."""

    def __init__(self):
        self.raw = []
        self.keys = []
        self.cal = [calibrate.calibrate()]

    def add(self, seconds: float, key: str = "") -> None:
        self.raw.append(seconds)
        self.keys.append(key)
        self.cal.append(calibrate.calibrate())

    @property
    def normalized(self) -> list:
        """Step ``i`` ran between kernel timings ``i`` and ``i + 1``; it is
        rescaled by the median of the six timings ``i - 2`` to ``i + 3``."""
        return [calibrate.normalized(t, self.cal[max(0, i - 2):i + 4])
                for i, t in enumerate(self.raw)]


class Loop:
    """Whole passes over the job list, judged as they run."""

    def __init__(self, cli, w, workdir: str, judge: judging.Judge):
        self.cli, self.w, self.workdir, self.judge = cli, w, workdir, judge
        self.executions = []      # (job_id, reason or None)

    def passes(self, min_passes: int, seconds: float,
               recorder=None) -> tuple:
        """Run passes until at least ``min_passes`` and until another pass
        would overrun ``seconds`` by more than half a pass.  Returns
        ``(passes, Timings of the jobs)``."""
        timings = Timings()
        start = time.perf_counter()
        done = 0
        while True:
            for job in self.w.jobs:
                argv = self.w.argv(job, self.workdir)
                if recorder is not None:
                    recorder.begin_job(len(self.executions))
                rc, out, dt = run_job(self.cli, argv)
                if recorder is not None:
                    recorder.end_job()
                    recorder.counts["cli.stdout_bytes"] += len(out)
                timings.add(dt, job.job_id)
                self.executions.append(
                    (job.job_id, self.judge.record(job, rc, out)))
            done += 1
            if done == 1:
                self.judge.cross_checks()
            elapsed = time.perf_counter() - start
            if done >= min_passes and elapsed * (1 + 0.5 / done) >= seconds:
                return done, timings

    def failures(self) -> list:
        return [(j, r) for j, r in
                ((j, self.judge.failure(j, r)) for j, r in self.executions)
                if r is not None]


def oracle_check(w, judge: judging.Judge) -> None:
    """After timing: polycanon's exhaustive ``reduced_degree_oracle`` must
    agree with every ``rdeg`` report small enough for it."""
    pc = sys.modules["polycanon"]
    for job in w.jobs:
        doc = judge.docs.get(job.job_id)
        if job.kind != "rdeg" or doc is None:
            continue
        P = pc.Polytope.from_json_dict(w.polytopes[job.poly_id].doc)
        k = job.point[-1]
        n = len(P.lattice_points(1))
        if math.comb(n + k - 2, k - 1) > ORACLE_BUDGET:
            continue
        y = pc.GradedPoint(tuple(job.point[:-1]), k)
        value = pc.reduced_degree_oracle(P, y)
        if value != doc["reduced_degree"] and not judge.verdict.get(
                job.job_id):
            judge.verdict[job.job_id] = (
                f"oracle reduced degree {value} != {doc['reduced_degree']}")


def tail(values: list, level: float = TAIL_LEVEL) -> float:
    """The ``level`` quantile by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(level * len(ordered)) - 1)]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(OUT, f"work-{name}-s{seed}-{os.getpid()}")
    try:
        setups = Timings()
        for _ in range(SETUP_REPEATS):
            cli, w, t = set_up(name, seed, workdir)
            setups.add(t)
        judge = judging.Judge(w, judging.load_reference())
        loop = Loop(cli, w, workdir, judge)
        result = {"workload": name, "seed": seed, "jobs": len(w.jobs),
                  "setup": setups}
        if not trace:
            result["passes"], result["jobs_timed"] = loop.passes(
                MIN_PASSES, seconds)
        else:
            _, result["plain"] = loop.passes(1, 0.0)
            rec = spans.Recorder()
            restore = spans.instrument(rec)
            try:
                result["passes"], result["jobs_timed"] = loop.passes(
                    1, seconds - sum(result["plain"].raw), rec)
            finally:
                restore()
            os.makedirs(OUT, exist_ok=True)
            rec.write(os.path.join(OUT, f"spans-{name}-s{seed}.jsonl.gz"))
            result["recorder"] = rec
        oracle_check(w, judge)
        result["failures"] = loop.failures()
        result["attempted"] = len(loop.executions)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def per_job(keys: list, seconds: list) -> list:
    """Each job's median latency over its executions."""
    runs: dict = {}
    for k, t in zip(keys, seconds):
        runs.setdefault(k, []).append(t)
    return [statistics.median(v) for v in runs.values()]


def end_to_end(r: dict, normalized: bool = True) -> dict:
    def pick(t: Timings) -> list:
        return t.normalized if normalized else t.raw

    jobs = r["jobs_timed"]
    lat = pick(jobs)
    job = per_job(jobs.keys, lat)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(pick(r["setup"])), "s"),
        "jobs_per_s": (len(job) / sum(job), "1/s"),
        "job_p50_ms": (statistics.median(job) * 1e3, "ms"),
        "job_tail_ms": (tail(job) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(r: dict) -> dict:
    rec, passes = r["recorder"], r["passes"]
    out = spans.layer_metrics(rec, passes)
    plain = r["plain"].normalized
    traced = r["jobs_timed"].normalized
    plain_rate = len(plain) / sum(plain)
    traced_rate = len(traced) / sum(traced)
    out["trace.untraced_jobs_per_s"] = (plain_rate, "1/s")
    out["trace.traced_jobs_per_s"] = (traced_rate, "1/s")
    out["trace.overhead_jobs_per_s"] = (plain_rate - traced_rate, "1/s")
    job_s = sum(r["jobs_timed"].raw) / passes
    out["trace.job_s"] = (job_s, "s")
    own = sum(out[name + ".self_s"][0] for name in spans.SPAN_NAMES)
    out["trace.accounted_frac"] = (own / job_s, "frac")
    return out


def report(r: dict, trace: bool) -> dict:
    metrics = per_layer(r) if trace else end_to_end(r)
    raw = {} if trace else end_to_end(r, normalized=False)
    failed = len(r["failures"])
    attempted = r["attempted"]
    n = r["jobs"]
    cal = statistics.median(r["jobs_timed"].cal)
    print(f"workload {r['workload']}  seed {r['seed']}  closed loop, one"
          f" client, serial; {r['jobs']} jobs x {r['passes']} passes"
          f"{' (traced)' if trace else ''}; calibration kernel median"
          f" {cal * 1e3:.2f} ms, nominal {calibrate.NOMINAL_S * 1e3:.0f} ms")
    for key, (value, unit) in metrics.items():
        note = ""
        if key in raw and key != "peak_rss_mb":
            note = f"  (raw {raw[key][0]:.6g})"
        if key == "job_tail_ms":
            beyond = n - math.ceil(TAIL_LEVEL * n)
            note += (f"  p{round(TAIL_LEVEL * 100)} of {n} per-job medians,"
                     f" {beyond} beyond it")
        elif key == "setup_s":
            note += f"  median of {len(r['setup'].raw)} set-ups"
        print(f"  {key:40s} {value:14.6g} {unit}{note}")
    print(f"  {'failed_frac':40s} {failed / attempted:14.6g} frac"
          f"  {failed} of {attempted} executions")
    for job_id, reason in r["failures"][:5]:
        print(f"failed: {job_id}: {reason}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=34.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        r = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = report(r, bool(args.trace))
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
