"""Machine output pinned byte for byte on the shipped scenario.

Each fixture under ``fixtures/wire`` is the ``--format machine`` stdout
of one CLI command on ``scenarios/two_seed_s3.json``; ``verify`` reads
the stored ``jump`` output.  Any change to the wire format, or to a
certified value behind it, shows up here as a byte difference, under
``python`` and under ``python -O`` alike.  The scenario's
``options.budget`` is accepted and ignored, so each command also prints
its fixture when it is 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WIRE = ROOT / "tests" / "fixtures" / "wire"
SCENARIO = str(ROOT / "scenarios" / "two_seed_s3.json")

COMMANDS = {
    "iterate": ["iterate", "--seed", SCENARIO],
    "mean_index": ["mean-index", "--seed", SCENARIO],
    "jump": ["jump", "--seeds", SCENARIO],
    "jump_complement_of_12776": ["jump", "--seeds", SCENARIO, "--complement-of", "12776"],
    "analyze": ["analyze", "--system", SCENARIO],
    "verify": ["verify", "--seeds", SCENARIO, "--tuple", str(WIRE / "jump.out")],
    "realize": ["realize", "--seed", SCENARIO],
}


def replay(name: str, *python_flags: str, scenario: str = SCENARIO) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [scenario if a == SCENARIO else a for a in COMMANDS[name]]
    r = subprocess.run([sys.executable, *python_flags, "-m", "symjump.cli",
                        "--format", "machine", *argv], capture_output=True, env=env)
    assert r.returncode == 0, r.stderr
    return r.stdout


@pytest.mark.parametrize("name", list(COMMANDS))
def test_machine_output_replays_byte_for_byte(name):
    assert replay(name) == (WIRE / f"{name}.out").read_bytes()


@pytest.mark.parametrize("name", list(COMMANDS))
def test_machine_output_does_not_depend_on_optimize(name):
    # -O strips assert statements; no answer may rest on one
    assert replay(name, "-O") == (WIRE / f"{name}.out").read_bytes()


@pytest.mark.parametrize("python_flags", [(), ("-O",)], ids=["python", "python-O"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_machine_output_does_not_depend_on_the_budget(name, python_flags, tmp_path):
    doc = json.loads(Path(SCENARIO).read_bytes())
    doc["options"]["budget"] = 0
    scenario = tmp_path / "budget_0.json"
    scenario.write_text(json.dumps(doc))
    expected = (WIRE / f"{name}.out").read_bytes()
    assert replay(name, *python_flags, scenario=str(scenario)) == expected
