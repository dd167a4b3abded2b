"""End-to-end tests of the command-line interface.

Each invocation runs in-process through ``main`` with captured stdout so the
canonical-JSON contract (sorted keys, two-space indent, trailing newline,
no timing noise on stdout) is byte-checkable.
"""

import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polycanon.checks as checks_mod
from polycanon.cli import _canonical, main
from polycanon.polytope import BudgetError, Polytope


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_family(tmp_path, capsys, name, **params):
    path = tmp_path / f"{name}.json"
    argv = ["family", name, "-o", str(path)]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0 and out == ""
    return str(path)


# -------------------------------------------------------------- generators

def test_generators_unit_triangle(tmp_path, capsys):
    path = write_family(tmp_path, capsys, "unit", d=2)
    rc, out, err = run_cli(capsys, "generators", path)
    assert rc == 0
    doc = json.loads(out)
    assert doc["generators"] == [{"degree": 3, "position": [1, 1]}]
    assert doc["max_degree"] == 3
    assert doc["bound"] == {"reason": "empty simplex", "value": 3}
    assert doc["mode"] == "degree-one"
    assert "elapsed" in err and "elapsed" not in out


def test_generators_capped_box_degree_set(tmp_path, capsys):
    path = write_family(tmp_path, capsys, "example2", d=3)
    rc, out, _ = run_cli(capsys, "generators", path)
    doc = json.loads(out)
    assert [h[0] for h in doc["degree_histogram"]] == [1, 2]
    assert doc["max_degree"] == 2


def test_generators_full_mode_on_reeve(tmp_path, capsys):
    path = write_family(tmp_path, capsys, "reeve", q=3)
    rc, plain_out, _ = run_cli(capsys, "generators", path)
    rc, full_out, _ = run_cli(capsys, "generators", path, "--full")
    plain = json.loads(plain_out)
    full = json.loads(full_out)
    assert plain["max_degree"] == 4
    assert full["max_degree"] == 2
    assert full["mode"] == "full-semigroup"


def test_generators_output_is_byte_stable(tmp_path, capsys):
    path = write_family(tmp_path, capsys, "example2", d=2)
    _, first, _ = run_cli(capsys, "generators", path)
    _, second, _ = run_cli(capsys, "generators", path)
    assert first == second
    assert first.endswith("\n")
    assert first == json.dumps(json.loads(first), sort_keys=True,
                               indent=2) + "\n"


# -------------------------------------------------------------------- rdeg

def test_rdeg_frozen_examples(tmp_path, capsys):
    e1 = write_family(tmp_path, capsys, "example1", d=2)
    rc, out, _ = run_cli(capsys, "rdeg", e1, "1 1 2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["reduced_degree"] == 2 and doc["irreducible"] is True

    e2 = write_family(tmp_path, capsys, "example2", d=3)
    rc, out, _ = run_cli(capsys, "rdeg", e2, "1 1 5 2")
    doc = json.loads(out)
    assert doc["reduced_degree"] == 2 and doc["irreducible"] is True

    rc, out, _ = run_cli(capsys, "rdeg", e2, "2 2 2 3")
    doc = json.loads(out)
    assert doc["reduced_degree"] < 3
    assert doc["irreducible"] is False
    total = doc["witness"]["interior_part"]["degree"] + sum(
        p["degree"] for p in doc["witness"]["parts"])
    assert total == 3


def test_rdeg_rejects_non_interior_points(tmp_path, capsys):
    path = write_family(tmp_path, capsys, "unit", d=2)
    rc, out, err = run_cli(capsys, "rdeg", path, "0 1 1")
    assert rc == 1 and out == ""
    assert "error:" in err and "not interior" in err


def test_rdeg_validates_coordinate_count(tmp_path, capsys):
    path = write_family(tmp_path, capsys, "unit", d=2)
    rc, _, err = run_cli(capsys, "rdeg", path, "1 1")
    assert rc == 1 and "coordinates plus a degree" in err


# ------------------------------------------------------------------ family

def test_family_files_round_trip(tmp_path, capsys):
    for name, params in [("example1", {"d": 3}), ("example2", {"d": 2}),
                         ("unit", {"d": 3}), ("cube", {"d": 2}),
                         ("reeve", {"q": 2})]:
        path = write_family(tmp_path, capsys, name, **params)
        data = json.loads(open(path).read())
        P = Polytope.from_json_dict(data)
        assert P.to_json_dict() == data


def test_family_to_stdout(capsys):
    rc, out, _ = run_cli(capsys, "family", "reeve", "--q", "2")
    assert rc == 0
    doc = json.loads(out)
    assert doc["vertices"] == [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 2]]


def test_family_bad_parameters(capsys):
    rc, _, err = run_cli(capsys, "family", "example2", "--d", "1")
    assert rc == 1 and "error:" in err


# ------------------------------------------------------------------ verify

def test_verify_single_file_reports_invariant(tmp_path, capsys):
    path = write_family(tmp_path, capsys, "example2", d=3)
    rc, out, _ = run_cli(capsys, "verify", path)
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["violations"] == []
    assert doc["invariant"] == 2
    assert doc["bound"] == {"reason": "has an interior lattice point",
                            "value": 2}


def test_verify_empty_simplex_reports_bound(tmp_path, capsys):
    path = write_family(tmp_path, capsys, "reeve", q=2)
    rc, out, _ = run_cli(capsys, "verify", path)
    assert rc == 0
    doc = json.loads(out)
    assert doc["bound"] == {"reason": "empty simplex", "value": 4}
    assert doc["invariant"] == 4


def test_verify_needs_a_target(capsys):
    rc, _, err = run_cli(capsys, "verify")
    assert rc == 1 and "polytope file or --corpus" in err


def test_verify_corpus_refuses_a_too_small_box(capsys):
    rc, out, err = run_cli(capsys, "verify", "--corpus", "--dims", "1",
                           "--coord-bound", "1")
    assert rc == 1 and out == "" and "max_candidates" in err


def test_verify_small_corpus(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--corpus", "--seed", "1",
                         "--count", "6")
    assert rc == 0
    doc = json.loads(out)
    assert doc["polytopes_checked"] == 6 and doc["ok"] is True


# -------------------------------------------------------------- triangulate

def test_triangulate_unit_square(tmp_path, capsys):
    path = write_family(tmp_path, capsys, "cube", d=2)
    rc, out, _ = run_cli(capsys, "triangulate", path)
    assert rc == 0
    doc = json.loads(out)
    assert doc["cells"] == [[0, 1, 2], [1, 2, 3]]
    assert doc["covering"]["ok"] is True
    assert doc["covering"]["checked_up_to"] == 3
    assert doc["interior_respecting"] is False


def test_triangulate_capped_box_cell_count(tmp_path, capsys):
    path = write_family(tmp_path, capsys, "example2", d=2)
    rc, out, _ = run_cli(capsys, "triangulate", path)
    doc = json.loads(out)
    assert len(doc["cells"]) == 7
    assert doc["covering"]["ok"] is True

    rc, out, _ = run_cli(capsys, "triangulate", path,
                         "--interior-respecting", "--kmax", "4")
    doc = json.loads(out)
    assert doc["interior_respecting"] is True
    assert doc["covering"]["checked_up_to"] == 4
    assert doc["covering"]["ok"] is True


def test_triangulate_refuses_an_oversized_kmax(tmp_path, capsys):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(
        {"ambient_dim": 2, "vertices": [[0, 0], [4, 0], [0, 4]]}))
    rc, out, err = run_cli(capsys, "triangulate", str(path),
                           "--kmax", "100000")
    assert rc == 1 and out == "" and "cap of 40000000" in err


def test_triangulate_interior_respecting_needs_interior(tmp_path, capsys):
    path = write_family(tmp_path, capsys, "cube", d=2)
    rc, _, err = run_cli(capsys, "triangulate", path,
                         "--interior-respecting")
    assert rc == 1 and "interior lattice point" in err


# --------------------------------------------------------------------- idp

def test_idp_verdicts(tmp_path, capsys):
    e2 = write_family(tmp_path, capsys, "example2", d=3)
    rc, out, _ = run_cli(capsys, "idp", e2, "--kmax", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["integrally_closed"] is True and doc["witness"] is None

    r2 = write_family(tmp_path, capsys, "reeve", q=2)
    rc, out, _ = run_cli(capsys, "idp", r2, "--kmax", "3")
    assert rc == 0
    doc = json.loads(out)
    assert doc["integrally_closed"] is False
    assert doc["witness"] == {"degree": 2, "position": [1, 1, 1]}


def test_idp_kmax_usage_error(tmp_path, capsys):
    path = write_family(tmp_path, capsys, "cube", d=2)
    rc, _, err = run_cli(capsys, "idp", path, "--kmax", "1")
    assert rc == 1 and "at least 2" in err


# ------------------------------------------------------------ input errors

def test_malformed_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, out, err = run_cli(capsys, "generators", str(bad))
    assert rc == 1 and out == "" and "error:" in err

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"ambient_dim": 2}))
    rc, _, err = run_cli(capsys, "generators", str(wrong))
    assert rc == 1 and "exactly one" in err


def test_missing_file_exits_one(capsys):
    rc, _, err = run_cli(capsys, "generators", "/nonexistent/p.json")
    assert rc == 1 and "error:" in err


def test_oversized_hull_exits_one(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "ambient_dim": 4,
        "vertices": [list(p) for p in itertools.product(range(6), repeat=4)],
    }))
    rc, out, err = run_cli(capsys, "triangulate", str(grid))
    assert rc == 1 and out == "" and "cap of 10000000" in err


def test_hull_of_every_cube_point_matches_the_vertex_cube(tmp_path, capsys):
    # 216 points, under the hull budget the C(216, 3) count used to exceed
    outs = []
    for pts in (itertools.product(range(6), repeat=3),
                itertools.product((0, 5), repeat=3)):
        path = tmp_path / "cube.json"
        path.write_text(json.dumps(
            {"ambient_dim": 3, "vertices": [list(p) for p in pts]}))
        rc, out, _ = run_cli(capsys, "generators", str(path))
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flags", [[], ["--full"]],
                         ids=["degree-one", "full"])
def test_oversized_sumsets_exit_one(tmp_path, capsys, monkeypatch, flags):
    def never(*args):
        raise AssertionError("a sumset started")

    monkeypatch.setattr("polycanon.semigroup._sumset", never)
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"ambient_dim": 3, "vertices": [
        [0, 0, 0], [60, 0, 0], [0, 60, 0], [0, 0, 60]]}))
    rc, out, err = run_cli(capsys, "generators", str(path), *flags)
    assert rc == 1 and out == "" and "cap of 100000000000" in err


def test_rdeg_refuses_oversized_queries(tmp_path, capsys, monkeypatch):
    path = write_family(tmp_path, capsys, "example2", d=3)
    rc, out, err = run_cli(capsys, "rdeg", path, "1 1 1 1000")
    assert rc == 1 and out == "" and "box around dilate 1000" in err

    def never(*args):
        raise AssertionError("a sumset started")

    monkeypatch.setattr("polycanon.semigroup._sumset", never)
    monkeypatch.setattr("polycanon.semigroup.SUMSET_CAP", 10)
    rc, out, err = run_cli(capsys, "rdeg", path, "2 2 6 3")
    assert rc == 1 and out == "" and "over the cap of 10" in err


@pytest.mark.parametrize("argv", [
    ["FILE"],
    ["--corpus", "--dims", "2", "--count", "3"],
])
def test_budget_refusal_inside_verify_exits_one_at_once(
        tmp_path, capsys, monkeypatch, argv):
    path = write_family(tmp_path, capsys, "unit", d=2)
    argv = [path if a == "FILE" else a for a in argv]
    monkeypatch.setattr("polycanon.polytope.BOX_POINT_CAP", 3)
    events = []

    def spy(name, fn):
        def wrapped(*args):
            events.append(("enter", name))
            try:
                return fn(*args)
            except BudgetError:
                events.append(("refused", name))
                raise
        return wrapped

    for name, fn in list(vars(checks_mod).items()):
        if (name.startswith("_") and callable(fn)
                and getattr(fn, "__module__", None) == checks_mod.__name__):
            monkeypatch.setattr(checks_mod, name, spy(name, fn))
    rc, out, err = run_cli(capsys, "verify", *argv)
    assert rc == 1 and out == "" and "cap of 3" in err
    first = events.index(next(e for e in events if e[0] == "refused"))
    assert first > 0
    assert all(kind == "refused" for kind, _ in events[first:])


def test_budget_refusal_on_threads_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("polycanon.polytope.BOX_POINT_CAP", 3)
    rc, out, err = run_cli(capsys, "verify", "--corpus", "--count", "12",
                           "--threads", "2")
    assert rc == 1 and out == "" and "cap of 3" in err


def test_bad_thread_env_is_named(capsys, monkeypatch):
    monkeypatch.setenv("POLYCANON_THREADS", "abc")
    rc, out, err = run_cli(capsys, "verify", "--corpus", "--count", "1")
    assert rc == 1 and out == ""
    assert "POLYCANON_THREADS must be an integer, got 'abc'" in err


def test_usage_error_exits_one(capsys):
    # exit 2 is reserved for failed checks; usage problems report as 1
    rc, out, err = run_cli(capsys, "no-such-command")
    assert rc == 1 and out == ""
    rc, out, _ = run_cli(capsys, "generators")
    assert rc == 1 and out == ""


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    path = write_family(tmp_path, capsys, "reeve", q=2)
    first = run_cli(capsys, "generators", path, "--full")
    assert first[0] == 0
    rc, out, _ = run_cli(capsys, "generators", "--no-such-flag", path)
    assert rc == 1 and out == ""
    again = run_cli(capsys, "generators", path, "--full")
    assert again[0] == 0 and again[1] == first[1]


def test_help_exits_zero(capsys):
    rc, out, _ = run_cli(capsys, "--help")
    assert rc == 0
    assert "generators" in out and "triangulate" in out


def test_stdin_input(capsys, monkeypatch):
    import io
    doc = json.dumps({"ambient_dim": 1, "vertices": [[0], [1]]})
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    rc, out, _ = run_cli(capsys, "generators", "-")
    assert rc == 0
    # the open unit segment first meets the lattice at dilation two
    assert json.loads(out)["generators"] == [
        {"degree": 2, "position": [1]}]


# ------------------------------------------------------- the canonical writer

_scalars = (st.none() | st.booleans()
            | st.integers() | st.integers(-2**200, 2**200)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(st.characters(), max_size=6))
_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.lists(st.lists(st.integers(), max_size=3), max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)
                   | st.dictionaries(st.integers(), inner, max_size=2)),
    max_leaves=12)


@given(_values)
@example({"cells": ((0, 1, 2), (1, 2, 3)), "faces": ((1,), (-2**70, 5),
                                                    (True, 1))})
@example([[0, 1, 2], (3, 4, 5), [6]])
# runs of rows of one length, as interior faces come sorted by size
@example({"faces": ((0,), (1,), (0, 1), [0, 2], (1, -2**70), (0, 1, 2))})
@example([[1, 2], (3,), [4, 5], (6, 7), [8], [9, 10, 11], (12,)])
@settings(max_examples=100, deadline=None)
def test_canonical_writer_matches_json_dumps(value):
    assert _canonical(value) == json.dumps(value, sort_keys=True, indent=2)
