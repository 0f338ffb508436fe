"""What a fresh interpreter loads and compiles.  ``import symjump`` loads no
submodule, parsing a scenario compiles no record reader or writer, and a
CLI run imports ``jumps`` and ``analysis`` only when its subcommand calls
them and compiles only the record readers and writers its documents use,
each once.  Every check runs in a new interpreter with
PYTHONDONTWRITEBYTECODE=1, under ``python`` and ``python -O``, and counts
modules and compiled functions, never times."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = str(ROOT / "scenarios" / "two_seed_s3.json")
WIRE = ROOT / "tests" / "fixtures" / "wire"

# Counts each record reader and writer compiled, then either parses the
# scenario in argv[2] or runs the CLI on argv[2:]; stderr's last line is a
# JSON object of the symjump modules loaded and the records compiled.
PROBE = r"""
import json, sys
import symjump.scenario as sc
made = []
def counted(kind, make):
    def make_counted(cls, *tag):
        made.append([kind, cls.__name__])
        return make(cls, *tag)
    return make_counted
sc._record_reader = counted("read", sc._record_reader)
sc._record_writer = counted("write", sc._record_writer)
from symjump import cli
if sys.argv[1] == "parse":
    sc.parse_scenario(open(sys.argv[2], "rb").read())
    code = 0
else:
    code = cli.main(sys.argv[2:])
modules = sorted(m for m in sys.modules if m.startswith("symjump"))
sys.stderr.write("\n" + json.dumps({"code": code, "modules": modules, "made": made}) + "\n")
"""

FLAGS = pytest.mark.parametrize("flags", [(), ("-O",)], ids=["python", "python-O"])
BASE = ["symjump", "symjump.angles", "symjump.cli", "symjump.errors", "symjump.iteration",
        "symjump.normal_forms", "symjump.scenario"]


def _fresh(flags, code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    r = subprocess.run([sys.executable, *flags, "-c", code, *args], capture_output=True,
                       env=env, cwd=ROOT)
    assert r.returncode == 0, r.stderr
    return r


def _probe(flags, *args: str) -> dict:
    return json.loads(_fresh(flags, PROBE, *args).stderr.decode().splitlines()[-1])


@FLAGS
def test_parsing_a_scenario_compiles_no_record_codec(flags):
    assert _probe(flags, "parse", SHIPPED) == {"code": 0, "modules": BASE, "made": []}


@FLAGS
@pytest.mark.parametrize("command", [
    ["iterate", "--seed", SHIPPED], ["mean-index", "--seed", SHIPPED],
    ["realize", "--seed", SHIPPED], ["--format", "machine", "iterate", "--seed", SHIPPED],
    ["--format", "machine", "mean-index", "--seed", SHIPPED]],
    ids=["iterate", "mean-index", "realize", "iterate-machine", "mean-index-machine"])
def test_a_run_without_a_scan_loads_no_jump_module(flags, command):
    assert _probe(flags, "cli", *command) == {"code": 0, "modules": BASE, "made": []}


READ_TUPLE = [["read", "JumpTuple"], ["read", "PathVerification"],
              ["read", "ConditionCheck"], ["read", "AngleSide"]]
WRITE_VERIFICATION = [["write", "TupleVerification"], ["write", "PathVerification"],
                      ["write", "AngleSide"], ["write", "ConditionCheck"]]


@FLAGS
@pytest.mark.parametrize("fmt", ["text", "machine"])
def test_verify_compiles_each_record_it_uses_once(flags, fmt):
    out = _probe(flags, "cli", "--format", fmt, "verify", "--seeds", SHIPPED,
                 "--tuple", str(WIRE / "jump.out"))
    assert out["modules"] == sorted(BASE + ["symjump.jumps"])
    assert out["made"] == READ_TUPLE + (WRITE_VERIFICATION if fmt == "machine" else [])


@FLAGS
def test_analyze_writes_through_the_analysis_writers_only(flags):
    out = _probe(flags, "cli", "--format", "machine", "analyze", "--system", SHIPPED)
    assert out["modules"] == sorted(BASE + ["symjump.analysis", "symjump.jumps"])
    assert sorted(name for kind, name in out["made"] if kind == "write") == [
        "AnalysisReport", "AngleSide", "CandidateRecord", "ConditionCheck", "DeltaReport",
        "JumpTuple", "PathVerification", "PeakConstraintRecord", "PinchRecord", "ZeroEntry"]
    assert [kind for kind, _ in out["made"]] == ["write"] * 10


NAMES = r"""
import json, sys
import symjump
loaded = sorted(m for m in sys.modules if m.startswith("symjump"))
listed = dir(symjump)
star = {}
exec("from symjump import *", star)
print(json.dumps({"loaded": loaded, "all": symjump.__all__, "home": sorted(symjump._HOME),
                  "dir": listed, "star": sorted(star)}))
"""


@FLAGS
def test_the_package_resolves_every_export_on_access(flags):
    out = json.loads(_fresh(flags, NAMES).stdout)
    assert out["loaded"] == ["symjump"]
    assert sorted(out["all"]) == out["home"]
    assert set(out["all"]) <= set(out["dir"]) and set(out["all"]) <= set(out["star"])
