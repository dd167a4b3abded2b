"""Tests of the benchmark itself.

    python3 -m pytest bench
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import judge as judging  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- self time -------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    # root 0..10 has children A 1..4, B 3..6 (overlapping A) and C 9..12
    # (sticking out); D 2..3 sits inside A.
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = spans.self_times(start, end, parent)
    assert got == pytest.approx([10 - 5 - 1, 3 - 1, 3, 3, 1])


def test_wrapped_calls_nest_and_skip_same_name_recursion():
    rec = spans.Recorder()

    def fact(n):
        return 1 if n <= 1 else n * wrapped_fact(n - 1)

    wrapped_fact = spans._wrap(rec, "fact", fact, None, None)
    outer = spans._wrap(rec, "outer", lambda: wrapped_fact(5), None, None)
    assert outer() == 120          # recorder inactive: no spans
    assert len(rec.start) == 0
    rec.begin_job(7)
    assert outer() == 120
    rec.end_job()
    assert [rec.names[i] for i in rec.name] == ["outer", "fact"]
    assert list(rec.parent) == [-1, 0]
    assert list(rec.job) == [7, 7]
    calls, own = zip(*(rec.totals()[n] for n in ("outer", "fact")))
    assert calls == (1, 1)
    assert sum(own) == pytest.approx(rec.end[0] - rec.start[0])


# -- inputs ----------------------------------------------------------------

def fingerprint(w: workloads.Workload) -> str:
    """A digest of everything the program is given."""
    h = hashlib.sha256()
    for pid in sorted(w.polytopes):
        h.update(json.dumps([pid, w.polytopes[pid].doc],
                            sort_keys=True).encode())
    for job in w.jobs:
        h.update(json.dumps([job.job_id, list(job.argv)]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    a = fingerprint(workloads.make_workload(name, 5))
    assert a == fingerprint(workloads.make_workload(name, 5))
    assert a != fingerprint(workloads.make_workload(name, 6))


def test_input_generation_never_imports_polycanon():
    code = ("import sys, workloads\n"
            "for n in workloads.WORKLOADS:\n"
            "    workloads.make_workload(n, 3)\n"
            "assert not [m for m in sys.modules\n"
            "            if m.startswith('polycanon')]\n")
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                   timeout=120)


def test_seed_copy_moves_the_interior_point_with_the_polytope():
    w = workloads.make_workload("gen-dilates", 9)
    p = w.polytopes["example2-d4"]
    assert any(p.shift)
    # (1,1,1,1) at degree 1 is interior to the base polytope, so its image
    # satisfies every translated inequality strictly.
    y = workloads.translate_lifted(p.shift, (1, 1, 1, 1, 1))
    for f in p.doc["inequalities"]:
        assert sum(a * b for a, b in zip(f["normal"], y[:-1])) < f["offset"]


# -- judging ---------------------------------------------------------------

@pytest.fixture(scope="module")
def cli():
    return run.import_polycanon()


def _run(cli, w, job, tmp_path):
    workloads.write_inputs(w, str(tmp_path))
    rc, out, _ = run.run_job(cli, w.argv(job, str(tmp_path)))
    assert rc == 0
    return out


def test_tampered_stdout_counts_as_failed(cli, tmp_path):
    w = workloads.make_workload("gen-dilates", workloads.DEFAULT_SEED)
    job = next(j for j in w.jobs if j.job_id == "reeve-q50/rdeg-1")
    out = _run(cli, w, job, tmp_path)

    judge = judging.Judge(w, judging.load_reference())
    assert judge.failure(job.job_id, judge.record(job, 0, out)) is None
    # The same bytes again pass; different bytes on a later pass fail.
    assert judge.failure(job.job_id, judge.record(job, 0, out)) is None
    assert judge.record(job, 0, out + " ") is not None

    doc = json.loads(out)
    doc["witness"]["interior_part"]["position"][0] += 1
    tampered = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    # Against the recorded digest ...
    judge = judging.Judge(w, judging.load_reference())
    assert judge.failure(job.job_id, judge.record(job, 0, tampered))
    # ... and, with no reference at all, by the witness-sum check.
    judge = judging.Judge(w, None)
    reason = judge.failure(job.job_id, judge.record(job, 0, tampered))
    assert "witness sums" in reason
    # A wrong exit code fails even with the right bytes.
    judge = judging.Judge(w, judging.load_reference())
    assert judge.record(job, 1, out) == "exit code 1"


def test_cross_check_fails_a_full_generator_outside_the_plain_set(
        cli, tmp_path):
    w = workloads.make_workload("gen-dilates", workloads.DEFAULT_SEED)
    jobs = {j.job_id: j for j in w.jobs}
    plain = jobs["hull4-02/generators"]
    full = jobs["hull4-02/generators-full"]
    judge = judging.Judge(w, None)
    for job in (plain, full):
        judge.record(job, 0, _run(cli, w, job, tmp_path))
    assert judge.cross_checks() == {}
    judge.docs[full.job_id]["generators"].append(
        {"position": [99, 99, 99, 99], "degree": 2})
    assert full.job_id in judge.cross_checks()
    assert judge.failure(full.job_id, None)


# -- tracing ---------------------------------------------------------------

CHEAP_JOBS = {
    "gen-dilates": ("reeve-q50/", "hull4-02/"),
    "tri-cover": ("hull3-00/", "hull3-04/"),
    "verify-corpus": ("small2-00/", "small2-01/", "small3-36/"),
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_leaves_stdout_byte_identical(cli, tmp_path, name):
    w = workloads.make_workload(name, 4)
    workloads.write_inputs(w, str(tmp_path))
    jobs = [j for j in w.jobs if j.job_id.startswith(CHEAP_JOBS[name])]
    assert jobs
    plain = [run.run_job(cli, w.argv(j, str(tmp_path)))[:2] for j in jobs]
    rec = spans.Recorder()
    restore = spans.instrument(rec)
    try:
        traced = []
        for i, j in enumerate(jobs):
            rec.begin_job(i)
            traced.append(run.run_job(cli, w.argv(j, str(tmp_path)))[:2])
            rec.end_job()
    finally:
        restore()
    assert traced == plain
    assert all(rc == 0 for rc, _ in plain)
    roots = [i for i, p in enumerate(rec.parent) if p < 0]
    assert [rec.names[rec.name[i]] for i in roots] == ["cli"] * len(jobs)
    assert len(rec.start) > len(jobs)
    total = sum(rec.end[i] - rec.start[i] for i in roots)
    assert sum(rec.self_times()) == pytest.approx(total)
    # Restored: the package holds the original functions again.
    assert not hasattr(sys.modules["polycanon.cli"].main,
                       "__wrapped_by_bench__")


# -- the command -----------------------------------------------------------

def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path / "BENCHMARK.json")
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
    assert not (tmp_path / ".bench_out").exists() or not os.listdir(
        tmp_path / ".bench_out")


def test_tail_is_nearest_rank():
    values = list(range(1, 101))
    assert run.tail(values, 0.90) == 90
    assert run.tail(values, 0.75) == 75
    assert run.tail([5.0], 0.90) == 5.0
