"""The stdout pins of the CLI, replayed from ``tests/pins.json``.

Each pin runs one CLI call on a polytope file built as its entry says or,
with no input, on its argv as it stands; the call must exit 0 and the
sha256 of its stdout must equal the pinned one.  :func:`replay` takes the
call as ``run(argv) -> (exit code, stdout bytes)`` and builds every input
with that same ``run``.  Tier-1 passes ``cli.main`` in-process; as a
script, each call is ``CMD argv`` in a subprocess, and CI checks the
installed ``polycanon`` script that way::

    python tests/test_pins.py polycanon
    PYTHONPATH=src python tests/test_pins.py python -m polycanon.cli

The script exits 1 and names every pin that does not match.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads((ROOT / "tests" / "pins.json").read_text())["pins"]


def replay(run, tmpdir, pins=PINS) -> list:
    """A message for each of ``pins`` whose call through ``run`` does not
    exit 0 with the pinned digest, in order; each input file is built once
    in ``tmpdir``."""
    files = {}
    mismatches = []
    for pin in pins:
        argv = pin["argv"]
        if "input" in pin:
            key = json.dumps(pin["input"], sort_keys=True)
            if key not in files:
                files[key] = Path(tmpdir) / f"input-{len(files)}.json"
                files[key].write_text(json.dumps(_input(run, pin["input"])))
            argv = [str(files[key]) if a == "{input}" else a for a in argv]
        rc, out = run(argv)
        digest = hashlib.sha256(out).hexdigest()
        if (rc, digest) != (0, pin["sha256"]):
            mismatches.append(f"{pin['name']}: exit {rc}, sha256 {digest}, "
                              f"pinned {pin['sha256']}")
    return mismatches


def _input(run, spec) -> dict:
    """The polytope document that ``spec`` describes."""
    if "family" in spec:
        rc, out = run(["family", *spec["family"]])
        if rc != 0:
            raise RuntimeError(f"family {spec['family']} exited {rc}")
        doc = json.loads(out)
    else:
        doc = dict(spec["json"])
    shift = spec.get("shift", 0)
    doc["vertices"] = [[a + shift for a in v] for v in doc["vertices"]]
    return doc


def _command(cmd):
    """``run`` for :func:`replay`: ``cmd + argv`` in a subprocess."""
    def run(argv):
        done = subprocess.run([*cmd, *argv], stdout=subprocess.PIPE)
        return done.returncode, done.stdout
    return run


def _in_process(capsys):
    from polycanon.cli import main

    def run(argv):
        rc = main(argv)
        return rc, capsys.readouterr().out.encode("utf-8")
    return run


def test_pins_replay_in_process(tmp_path, capsys):
    assert replay(_in_process(capsys), tmp_path) == []
    assert len(PINS) == 26


def test_a_pin_replays_through_the_command_mode(tmp_path, monkeypatch):
    pins = [p for p in PINS if p["name"] == "embedded-cube-rdeg"]
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    run = _command([sys.executable, "-m", "polycanon.cli"])
    wrong = dict(pins[0], sha256="0" * 64)
    assert replay(run, tmp_path, pins + [wrong]) == [
        f"embedded-cube-rdeg: exit 0, sha256 {pins[0]['sha256']}, "
        f"pinned {'0' * 64}"]


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} CMD...")
    with tempfile.TemporaryDirectory() as tmp:
        failed = replay(_command(sys.argv[1:]), tmp)
    for line in failed:
        print(f"mismatch: {line}")
    print(f"{len(PINS) - len(failed)} of {len(PINS)} pins match")
    sys.exit(1 if failed else 0)
