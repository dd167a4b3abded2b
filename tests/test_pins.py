"""The stdout pins of ``tests/pins.json``, replayed in-process.

Each pin runs one CLI call through ``main``, on a polytope file built as
its entry says or, with no input, on its argv as it stands, and the
sha256 of its stdout must equal the pinned one.
The same digests are checked by the CI workflow against the installed
``polycanon`` script, so every pin must also appear there, byte for byte,
next to the name of its output file (``$RUNNER_TEMP/<name>.out``, or the
entry's ``out``).
"""

import hashlib
import json
from pathlib import Path

from polycanon.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads((ROOT / "tests" / "pins.json").read_text())["pins"]


def _write_input(spec, path, capsys):
    """Write the polytope file that ``spec`` describes to ``path``."""
    if "family" in spec:
        assert main(["family", *spec["family"], "-o", str(path)]) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(path.read_text())
    else:
        doc = dict(spec["json"])
    shift = spec.get("shift", 0)
    doc["vertices"] = [[a + shift for a in v] for v in doc["vertices"]]
    path.write_text(json.dumps(doc))


def test_pins_replay_in_process_and_match_the_workflow(tmp_path, capsys):
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    files = {}
    for pin in PINS:
        argv = pin["argv"]
        if "input" in pin:
            key = json.dumps(pin["input"], sort_keys=True)
            if key not in files:
                files[key] = tmp_path / f"input-{len(files)}.json"
                _write_input(pin["input"], files[key], capsys)
            argv = [str(files[key]) if a == "{input}" else a for a in argv]
        rc = main(argv)
        out = capsys.readouterr().out.encode("utf-8")
        assert (pin["name"], rc, hashlib.sha256(out).hexdigest()) == \
            (pin["name"], 0, pin["sha256"])
        path = pin.get("out", f"$RUNNER_TEMP/{pin['name']}.out")
        assert f"{pin['sha256']}  {path}" in workflow
    assert len(PINS) == 22
