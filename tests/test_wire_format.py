"""Machine output pinned byte for byte on the shipped scenario and a rational one.

Each ``.out`` fixture under ``fixtures/wire`` is the ``--format machine``
stdout of one CLI command on ``scenarios/two_seed_s3.json`` or, for the
``jump_rational`` ones, on the rational-only ``fixtures/wire/rational.json``
(three seeds whose jump tuples lie at the multiples of P = 22932, made by
the lattice walk before the scan built them at those multiples directly);
``verify`` reads the stored ``jump`` output.  Any change to the wire
format, or to a certified value behind it, shows up here as a byte
difference, under ``python`` and under ``python -O`` alike.  The
scenario's ``options.budget`` is accepted and ignored, so each command
also prints its fixture when it is 0.

The oracle tests below check every report kind's machine bytes in process
against ``json.dumps`` of a dict built by a walk over the records'
dataclass fields, which shares no code with the writers in
``symjump.scenario``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symjump import (AnalysisReport, AngleSide, ConditionCheck, Decomposition,
                     GeodesicSystem, HyperbolicBlock, IterationRow, JumpTuple, Matrix,
                     MeanIndex, N1Block, PathSeed, PathVerification, RotationBlock,
                     TupleVerification, find_jump_tuples, iteration_rows, mean_index,
                     parse_scenario, quadratic_angle, rational_angle, realize,
                     run_analysis, verify_tuple)
from symjump.scenario import _mean_index_enclosure, emit_report

ROOT = Path(__file__).resolve().parent.parent
WIRE = ROOT / "tests" / "fixtures" / "wire"
SCENARIO = str(ROOT / "scenarios" / "two_seed_s3.json")
RATIONAL = str(WIRE / "rational.json")

COMMANDS = {
    "iterate": ["iterate", "--seed", SCENARIO],
    "mean_index": ["mean-index", "--seed", SCENARIO],
    "jump": ["jump", "--seeds", SCENARIO],
    "jump_complement_of_12776": ["jump", "--seeds", SCENARIO, "--complement-of", "12776"],
    "analyze": ["analyze", "--system", SCENARIO],
    "verify": ["verify", "--seeds", SCENARIO, "--tuple", str(WIRE / "jump.out")],
    "realize": ["realize", "--seed", SCENARIO],
    "jump_rational": ["jump", "--seeds", RATIONAL],
    "jump_rational_complement_of_22932": ["jump", "--seeds", RATIONAL,
                                          "--complement-of", "22932"],
}


def scenario_of(name: str) -> str:
    return RATIONAL if RATIONAL in COMMANDS[name] else SCENARIO


def replay(name: str, *python_flags: str, scenario: str | None = None) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [scenario or a if a == scenario_of(name) else a for a in COMMANDS[name]]
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
    doc = json.loads(Path(scenario_of(name)).read_bytes())
    doc["options"]["budget"] = 0
    scenario = tmp_path / "budget_0.json"
    scenario.write_text(json.dumps(doc))
    expected = (WIRE / f"{name}.out").read_bytes()
    assert replay(name, *python_flags, scenario=str(scenario)) == expected


# -- byte oracle --------------------------------------------------------------


def oracle_value(x):
    """The JSON value of a record field, by a walk over dataclass fields."""
    if dataclasses.is_dataclass(x):
        out = {"M" if f.name == "M_period" else f.name: oracle_value(getattr(x, f.name))
               for f in dataclasses.fields(x)}
        if isinstance(x, (ConditionCheck, PathVerification, TupleVerification)):
            out["passed"] = x.passed
        return out
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    if isinstance(x, tuple):
        return [oracle_value(v) for v in x]
    return x                              # int, str, bool or None


def oracle_doc(report) -> dict:
    """The machine document of a report.  An enclosure's two decimal strings
    are the library's; everything around them is built here."""
    if isinstance(report, Matrix):
        return {"type": "realized_matrix", "dim": len(report),
                "rows": [[format(v, ".17g") for v in row] for row in report]}
    if isinstance(report, list) and isinstance(report[0], IterationRow):
        return {"type": "iteration_table", "rows": [[r.m, r.index, r.nullity] for r in report]}
    if isinstance(report, list):
        return {"type": "jump_tuples", "tuples": [oracle_value(t) for t in report]}
    if isinstance(report, MeanIndex):
        if report.is_exact:
            return {"type": "mean_index", "exact": oracle_value(report.exact())}
        return {"type": "mean_index", "enclosure": _mean_index_enclosure(report)}
    kind = {TupleVerification: "tuple_verification", AnalysisReport: "analysis_report"}
    return {"type": kind[type(report)], **oracle_value(report)}


def oracle_bytes(report) -> bytes:
    return (json.dumps(oracle_doc(report), sort_keys=True, separators=(",", ":"))
            + "\n").encode()


GOLDEN = quadratic_angle(-1, 1, 2, 5)
ODD_TEXT = 'a "quote", a \\ backslash, a \x07 bell, \u00e9t\u00e9 and \U0001d516'


def _shipped():
    system, options = parse_scenario(Path(SCENARIO).read_bytes())
    seeds = list(system.seeds)
    tuples = find_jump_tuples(seeds, options.delta, options.n_max, 3)
    tampered = dataclasses.replace(tuples[0], N=tuples[0].N + 1)
    return {
        "iteration_table": list(iteration_rows(seeds[0], 40)),
        "mean_index_exact": mean_index(PathSeed(1, Decomposition([
            RotationBlock(rational_angle(1, 3))]))),
        "mean_index_enclosure": mean_index(seeds[0]),
        "mean_index_enclosure_two_angles": mean_index(PathSeed(2, Decomposition([
            RotationBlock(GOLDEN), RotationBlock(quadratic_angle(-1, 1, 1, 2))]))),
        "jump_tuples": tuples,
        "tuple_verification": verify_tuple(tuples[1], seeds),
        "tampered_verification": verify_tuple(tampered, seeds),
        "analysis_report": run_analysis(system, delta=options.delta, n_max=options.n_max),
        "realized_matrix": realize(seeds[0].decomp),
    }


def _contradictions():
    delta = Fraction(1, 100)
    one = PathSeed(2, Decomposition([RotationBlock(GOLDEN), N1Block(1, 0)]))
    hyperbolic = PathSeed(2, Decomposition([RotationBlock(GOLDEN), HyperbolicBlock()]))
    rational = PathSeed(2, Decomposition([N1Block(1, 0)]))
    return {
        "no_second_geodesic": run_analysis(GeodesicSystem(3, Fraction(1), (one,)),
                                           delta=delta, n_max=10**6),
        "no_peak_iterate": run_analysis(GeodesicSystem(3, Fraction(1), (hyperbolic,), False),
                                        delta=delta, n_max=10**5, tuple_limit=3),
        "rational_peak_geodesic": run_analysis(GeodesicSystem(2, Fraction(1), (rational,)),
                                               delta=delta, n_max=10**4, tuple_limit=2),
    }


def _odd_values(base: dict):
    """Records holding strings json.dumps must escape and 300-digit ints."""
    big = 10**300
    check = ConditionCheck(ODD_TEXT, big, -big, "<=")
    path = PathVerification(-big, (check, ConditionCheck("", -big, -big, "==")),
                            (AngleSide(ODD_TEXT, big, True, "\x00\x1f\x7f"),))
    t = JumpTuple(big, (big, -big), (0, 1), -big, Fraction(-big, big + 1), (path,))
    report = dataclasses.replace(base, status=ODD_TEXT, flag="\\\"\n", betti=Fraction(-big, 7),
                                 candidates=(big, -big), tuple_used=t, second_tuple=None,
                                 first_bound_at_second=check)
    return {"odd_tuples": [t, t], "odd_verification": TupleVerification((path, path)),
            "odd_analysis": report,
            "odd_table": [IterationRow(big, -big, 0), IterationRow(1, big, big)]}


NAMES = ["iteration_table", "mean_index_exact", "mean_index_enclosure",
         "mean_index_enclosure_two_angles", "jump_tuples", "tuple_verification",
         "tampered_verification", "analysis_report", "realized_matrix",
         "no_second_geodesic", "no_peak_iterate", "rational_peak_geodesic",
         "odd_tuples", "odd_verification", "odd_analysis", "odd_table"]


@pytest.fixture(scope="module")
def reports() -> dict:
    out = {**_shipped(), **_contradictions()}
    out.update(_odd_values(out["analysis_report"]))
    return out


def test_the_oracle_covers_every_report_kind_and_its_nulls(reports):
    assert list(reports) == NAMES
    kinds = {oracle_doc(r)["type"] for r in reports.values()}
    assert kinds == {"iteration_table", "mean_index", "jump_tuples", "tuple_verification",
                     "analysis_report", "realized_matrix"}
    assert not reports["tampered_verification"].passed
    assert reports["no_peak_iterate"].first is None
    assert "enclosure" in oracle_doc(reports["mean_index_enclosure_two_angles"])


@pytest.mark.parametrize("name", NAMES)
def test_machine_bytes_match_the_json_dumps_oracle(reports, name):
    assert emit_report(reports[name], "machine") == oracle_bytes(reports[name])
