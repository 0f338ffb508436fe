"""The decode-error oracle of ``decode_errors.py`` replays its stored outcomes.

Every one-value mutation there must give the ScenarioError text (or the
parsed value's digest) recorded in ``fixtures/decode_errors.json``, under
``python`` in process and under ``python -O`` in a subprocess: no check
of an outside value may rest on an assert.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import decode_errors

ROOT = Path(__file__).resolve().parent.parent
STORED = ROOT / "tests" / "fixtures" / "decode_errors.json"


def test_the_oracle_covers_every_record_class_and_kind():
    stored = json.loads(STORED.read_bytes())
    labels = {ident.split(".")[0] for ident in stored}
    assert {"AnalysisReport", "AngleSide", "CandidateRecord", "ConditionCheck", "DeltaReport",
            "JumpTuple", "PathVerification", "PeakConstraintRecord", "PinchRecord",
            "TupleVerification", "ZeroEntry", "scenario"} <= labels
    assert all(any(f" {kind} (" in ident for ident in stored) for kind in decode_errors.KINDS)


def test_mutation_outcomes_replay():
    assert decode_errors.outcomes() == json.loads(STORED.read_bytes())


def test_mutation_outcomes_do_not_depend_on_optimize():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, "-O", str(ROOT / "tests" / "decode_errors.py")],
                       capture_output=True, env=env)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == json.loads(STORED.read_bytes())
