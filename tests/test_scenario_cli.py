"""Scenario ingestion, machine round-trips, CLI behavior and exit codes."""

from __future__ import annotations

import copy
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symjump import (Decomposition, GeodesicSystem, N1Block, PathSeed,
                     RotationBlock, ScenarioError, ScenarioOptions, find_jump_tuples,
                     iteration_rows, mean_index, parse_report, parse_scenario,
                     quadratic_angle, rational_angle, run_analysis,
                     verify_tuple)
from symjump import cli
from symjump.scenario import emit_report

from conftest import QUADRATIC_POOL

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
SHIPPED = str(ROOT / "scenarios" / "two_seed_s3.json")
WIRE = ROOT / "tests" / "fixtures" / "wire"

MINIMAL = {
    "version": 1,
    "system": {"n": 2, "lambda": [1, 1], "pinching_asserted": True},
    "seeds": [{"i1": 1, "nu1": 2, "blocks": [{"n1": [1, 0]}]}],
}

TWO_SEED_S3 = {
    "version": 1,
    "system": {"n": 3, "lambda": [9, 8], "pinching_asserted": True},
    "seeds": [
        {"i1": 2, "nu1": 2, "blocks": [{"r": {"quadratic": [-1, 1, 1, 2]}},
                                       {"n1": [1, 0]}]},
        {"i1": 2, "nu1": 2, "blocks": [{"r": {"quadratic": [-1, 1, 2, 5]}},
                                       {"n1": [1, 0]}]},
    ],
    "options": {"delta": [1, 100], "n_max": 1000000, "limit": 3, "m_max": 6},
}

# The shipped scenario with seed 2 rotating by a decimal angle, whose one
# stated enclosure cannot decide every query the commands ask of it.
DECIMAL_S3 = copy.deepcopy(TWO_SEED_S3)
DECIMAL_S3["seeds"][1]["blocks"][0] = {"r": {"decimal": "0.6180339887", "error": "1e-7"}}

SHIPPED_DOC = json.loads(Path(SHIPPED).read_bytes())

# Every block kind, every angle kind and all five options.
EVERY_KIND = {
    "version": 1,
    "system": {"n": 9, "lambda": [9, 8], "pinching_asserted": False},
    "seeds": [{"i1": 1, "nu1": 2, "blocks": [
        {"n1": [1, 0]}, {"r": {"rational": [1, 3]}}, {"r": {"quadratic": [-1, 1, 2, 5]}},
        {"n2": {"angle": {"decimal": "0.6180339887", "error": "1e-10"}, "trivial": True}},
        {"n2": {"angle": {"rational": [2, 5]}, "trivial": False}}, {"hyp": {}}]}],
    "options": {"delta": [1, 100], "n_max": 1000, "limit": 2, "m_max": 6, "budget": 8},
}


def write_scenario(tmp_path, doc, name="scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def with_budget(doc, budget) -> dict:
    """A copy of the scenario doc whose ``options.budget`` is budget."""
    doc = copy.deepcopy(doc)
    doc["options"]["budget"] = budget
    return doc


def run_cli(*args, env_extra=None, timeout=None):
    import os
    env = dict(os.environ, PYTHONPATH=SRC)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "symjump.cli", *args],
                          capture_output=True, env=env, timeout=timeout)


class TestParsing:
    def test_minimal_valid(self):
        system, options = parse_scenario(json.dumps(MINIMAL).encode())
        assert len(system.seeds) == 1
        assert system.n == 2 and system.seeds[0].nu1 == 2
        assert options.delta == Fraction(1, 1000)

    def test_dimension_violation(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["system"]["n"] = 3
        with pytest.raises(ScenarioError, match="census"):
            parse_scenario(json.dumps(doc))

    def test_nullity_violation(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["seeds"][0]["nu1"] = 1
        with pytest.raises(ScenarioError, match="kernel"):
            parse_scenario(json.dumps(doc))

    def test_unknown_keys_rejected(self):
        for mutate in (
            lambda d: d.update(extra=1),
            lambda d: d["system"].update(extra=1),
            lambda d: d["seeds"][0].update(extra=1),
            lambda d: d["seeds"][0]["blocks"][0].update(bogus=[1, 2]),
        ):
            doc = json.loads(json.dumps(MINIMAL))
            mutate(doc)
            with pytest.raises(ScenarioError):
                parse_scenario(json.dumps(doc))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario(b'{"version": 1,,}')

    def test_angle_forms(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["seeds"][0] = {"i1": 1, "nu1": 0,
                           "blocks": [{"r": {"decimal": "0.6180339887",
                                             "error": "1e-10"}}]}
        system, _ = parse_scenario(json.dumps(doc))
        assert not system.seeds[0].decomp.theta_angles[0].is_rational

    def test_bad_version(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["version"] = 2
        with pytest.raises(ScenarioError, match="version"):
            parse_scenario(json.dumps(doc))

    def test_every_kind(self):
        system, options = parse_scenario(json.dumps(EVERY_KIND))
        assert options == ScenarioOptions(Fraction(1, 100), 1000, 2, 6, 8)
        decomp = system.seeds[0].decomp
        assert (decomp.r, decomp.r_star, decomp.r_zero, decomp.h, decomp.p_zero) == (2, 1, 1, 1, 1)
        assert not system.pinching_asserted

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d["seeds"][1]["blocks"][1].update(n1=[1, 0, 3]),
         "seeds[1].blocks[1].n1: expected [lam, b], got list"),
        (lambda d: d.update(extra=1), "scenario: unknown key 'extra'"),
        (lambda d: d["system"].pop("n"), "system: missing required key 'n'"),
        (lambda d: d["seeds"][0]["blocks"][0]["r"].update(quadratic=[1, 1, 1, 4]),
         "seeds[0].blocks[0].r: sqrt(4) is not irrational"),
        (lambda d: d["seeds"][0]["blocks"][0].update(r={"decimal": "0.5"}),
         "seeds[0].blocks[0].r: missing required key 'error'"),
        (lambda d: d["seeds"][0]["blocks"][0].update(r={"degrees": 30}),
         "seeds[0].blocks[0].r: angle takes one of the keys rational, quadratic, decimal, "
         "got ['degrees']"),
        (lambda d: d["options"].update(delta="1/100"),
         "options.delta: expected [numerator, denominator], got str"),
    ], ids=["n1_arity", "root_key", "system_n", "square_radicand", "decimal_error",
            "angle_kind", "delta_type"])
    def test_error_names_the_path(self, mutate, message):
        doc = copy.deepcopy(TWO_SEED_S3)
        mutate(doc)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(json.dumps(doc))
        assert str(err.value) == message


class TestMachineRoundTrips:
    def test_iteration_table(self):
        s = PathSeed(2, 1, 2, Decomposition([N1Block(1, 0)]))
        rows = list(iteration_rows(s, 12))
        assert parse_report(emit_report(rows, "machine")) == rows

    def test_mean_index_exact(self):
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(rational_angle(1, 3))]))
        out = parse_report(emit_report(mean_index(s), "machine"))
        assert out == Fraction(2, 3)

    def test_mean_index_enclosure(self):
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(quadratic_angle(-1, 1, 2, 5))]))
        emitted = emit_report(mean_index(s), "machine")
        enc = parse_report(emitted)
        # mean index = 2 * golden ratio conjugate = sqrt(5) - 1 = 1.2360679...
        assert enc.lo <= Fraction("1.2360679774997896") <= enc.hi
        assert emit_report_roundtrip_stable(emitted)

    def test_jump_tuples(self):
        s = PathSeed(2, 1, 0, Decomposition([RotationBlock(rational_angle(1, 3))]))
        tuples = find_jump_tuples([s], Fraction(1, 100), 100, 2)
        again = parse_report(emit_report(tuples, "machine"))
        assert again == tuples
        assert verify_tuple(again[0], [s]).passed

    def test_verification(self):
        s = PathSeed(2, 1, 2, Decomposition([N1Block(1, 0)]))
        t = find_jump_tuples([s], Fraction(1, 100), 100, 1)[0]
        v = verify_tuple(t, [s])
        assert parse_report(emit_report(v, "machine")) == v

    def test_analysis_report(self):
        system, options = parse_scenario(json.dumps(TWO_SEED_S3))
        report = run_analysis(system, delta=options.delta, n_max=options.n_max)
        again = parse_report(emit_report(report, "machine"))
        assert again == report

    def test_realized_matrix(self):
        from symjump import realize
        M = realize(Decomposition([RotationBlock(quadratic_angle(-1, 1, 2, 5)),
                                   N1Block(1, 1)]))
        out = parse_report(emit_report(M, "machine"))
        assert np.array_equal(out, M)


def emit_report_roundtrip_stable(emitted: bytes) -> bool:
    """emit(parse(emit(x))) == emit(x) for enclosure-bearing output."""
    obj = parse_report(emitted)
    from symjump.scenario import enclosure_json
    doc = json.loads(emitted)
    return doc["enclosure"] == enclosure_json(obj)


class TestCli:
    def test_iterate_text_and_machine(self, tmp_path):
        path = write_scenario(tmp_path, TWO_SEED_S3)
        r = run_cli("iterate", "--seed", path, "--m-max", "4")
        assert r.returncode == 0
        assert r.stdout.decode().splitlines()[0].split() == ["m", "index", "nullity"]
        r = run_cli("--format", "machine", "iterate", "--seed", path, "--m-max", "4")
        rows = parse_report(r.stdout)
        assert [row.m for row in rows] == [1, 2, 3, 4]

    def test_mean_index_exact_output(self, tmp_path):
        path = write_scenario(tmp_path, MINIMAL)
        r = run_cli("--format", "machine", "mean-index", "--seed", path)
        assert r.returncode == 0
        assert parse_report(r.stdout) == 2

    def test_jump_and_verify_round_trip(self, tmp_path):
        path = write_scenario(tmp_path, TWO_SEED_S3)
        r = run_cli("--format", "machine", "jump", "--seeds", path, "--limit", "1")
        assert r.returncode == 0, r.stderr
        tuple_file = tmp_path / "tuples.json"
        tuple_file.write_bytes(r.stdout)
        v = run_cli("verify", "--seeds", path, "--tuple", str(tuple_file))
        assert v.returncode == 0
        assert b"PASS" in v.stdout

    def test_verify_rejects_tampered_tuple(self, tmp_path):
        path = write_scenario(tmp_path, TWO_SEED_S3)
        r = run_cli("--format", "machine", "jump", "--seeds", path, "--limit", "1")
        doc = json.loads(r.stdout)
        doc["tuples"][0]["m"][0] += 1
        tuple_file = tmp_path / "tampered.json"
        tuple_file.write_text(json.dumps(doc))
        v = run_cli("verify", "--seeds", path, "--tuple", str(tuple_file))
        assert v.returncode == 1
        assert b"FAIL" in v.stdout

    def test_complement_of(self, tmp_path):
        path = write_scenario(tmp_path, TWO_SEED_S3)
        r = run_cli("--format", "machine", "jump", "--seeds", path, "--limit", "1")
        first_n = json.loads(r.stdout)["tuples"][0]["N"]
        r2 = run_cli("--format", "machine", "jump", "--seeds", path,
                     "--complement-of", str(first_n))
        assert r2.returncode == 0, r2.stderr
        second = json.loads(r2.stdout)["tuples"][0]
        assert second["N"] != first_n

    def test_analyze_success_exit_zero(self, tmp_path):
        path = write_scenario(tmp_path, TWO_SEED_S3)
        r = run_cli("--format", "machine", "analyze", "--system", path)
        assert r.returncode == 0, r.stderr
        report = parse_report(r.stdout)
        assert report.status == "two_elliptic_irrational"

    def test_analyze_contradiction_exit_two(self, tmp_path):
        doc = json.loads(json.dumps(TWO_SEED_S3))
        doc["seeds"] = doc["seeds"][:1]
        path = write_scenario(tmp_path, doc)
        r = run_cli("analyze", "--system", path)
        assert r.returncode == 2
        assert b"fcg_contradiction" in r.stdout

    def test_analyze_complement_past_n_max_exit_one(self):
        r = run_cli("analyze", "--system", SHIPPED, "--n-max", "20000")
        assert r.returncode == 1 and r.stdout == b""
        assert r.stderr.decode() == ("error: no complementary tuple with N <= 20000 for the "
                                     "peak at N = 12776; raise n_max\n")

    def test_verify_negative_mean_index_exit_one(self, tmp_path):
        doc = {"version": 1, "system": {"n": 2},
               "seeds": [{"i1": 0, "nu1": 0,
                          "blocks": [{"r": {"quadratic": [-1, 1, 1, 2]}}]}]}
        tuple_file = tmp_path / "tuple.json"
        tuple_file.write_text(json.dumps({"N": 5, "m": [3], "chi": [0], "M": 1,
                                          "delta": [1, 10], "per_path": []}))
        r = run_cli("verify", "--seeds", write_scenario(tmp_path, doc),
                    "--tuple", str(tuple_file))
        assert r.returncode == 1 and r.stdout == b""
        assert r.stderr.decode() == "error: mean index must be positive\n"

    def test_parse_error_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        r = run_cli("analyze", "--system", str(bad))
        assert r.returncode == 1
        assert b"error" in r.stderr

    def test_usage_error_exit_one(self):
        assert run_cli("no-such-command").returncode == 1
        assert run_cli("iterate").returncode == 1  # missing --seed

    @pytest.mark.parametrize("args,message", [
        (["iterate"], "error: the following arguments are required: --seed"),
        (["analyze"], "error: the following arguments are required: --system"),
        (["jump"], "error: the following arguments are required: --seeds"),
        (["verify", "--tuple", "t.json"],
         "error: the following arguments are required: --seeds"),
        (["iterate", "--seed", SHIPPED, "--budget", "0"],
         "error: unrecognized arguments: --budget 0"),
        # before the subcommand argparse would take the 0 for the subcommand
        (["--budget", "0", "iterate", "--seed", SHIPPED],
         "error: unrecognized arguments: --budget"),
        (["--bogus", "iterate", "--seed", SHIPPED], "error: unrecognized arguments: --bogus")],
        ids=["missing_seed", "missing_system", "missing_seeds", "verify_missing_seeds",
             "budget", "budget_before_command", "bogus_before_command"])
    def test_usage_error_is_one_line(self, args, message):
        r = run_cli(*args)
        assert r.returncode == 1 and r.stdout == b""
        assert r.stderr.decode() == message + "\n"

    def test_undecidable_exit_three(self, tmp_path):
        doc = {
            "version": 1,
            "system": {"n": 2},
            "seeds": [{"i1": 1, "nu1": 0,
                       "blocks": [{"r": {"decimal": "0.6180339887", "error": "1e-6"}}]}],
        }
        path = write_scenario(tmp_path, doc)
        r = run_cli("iterate", "--seed", path, "--m-max", "100000000")
        assert r.returncode == 3
        assert b"undecidable" in r.stderr

    def test_budget_env_override(self, tmp_path):
        # SYMJUMP_BUDGET overrides nothing
        path = write_scenario(tmp_path, with_budget(DECIMAL_S3, 0))
        r = run_cli("jump", "--seeds", path, env_extra={"SYMJUMP_BUDGET": "64"})
        plain = run_cli("jump", "--seeds", path)
        # the decimal angle cannot decide an angle side the scan asks
        assert r.returncode == plain.returncode == 3
        assert (r.stdout, r.stderr) == (plain.stdout, plain.stderr)
        assert r.stderr.decode().endswith(" undecided\n")

    @pytest.mark.parametrize("command,flag", [("jump", "--seeds"), ("analyze", "--system")])
    def test_budget_zero_replays_the_wire_fixture(self, command, flag, tmp_path):
        # the budget is accepted and ignored
        path = write_scenario(tmp_path, with_budget(SHIPPED_DOC, 0))
        r = run_cli("--format", "machine", command, flag, path)
        assert r.returncode == 0, r.stderr
        assert r.stdout == (WIRE / f"{command}.out").read_bytes()

    def test_budget_zero_scan_bound_from_the_exact_form(self, tmp_path):
        # mean index 200*sqrt(2) - 282 ~ 0.843: its 24-bit read is 1.2e-5
        # wide, and the scan's step bound is an exact floor at any budget
        doc = {"version": 1, "system": {"n": 2},
               "seeds": [{"i1": 1, "nu1": 0,
                          "blocks": [{"r": {"quadratic": [-141, 100, 1, 2]}}]}],
               "options": {"delta": [1, 10], "n_max": 2000}}
        zero, one = (run_cli("--format", "machine", "jump", "--seeds",
                             write_scenario(tmp_path, with_budget(doc, b), f"{b}.json"))
                     for b in (0, 1))
        assert zero.returncode == one.returncode == 0, zero.stderr
        assert zero.stdout == one.stdout

    def test_budget_zero_first_tuple_verifies(self, tmp_path):
        # the scan stops at the step of N = 12776, and its tuple verifies at
        # budget 0
        path = write_scenario(tmp_path, with_budget(SHIPPED_DOC, 0))
        r = run_cli("--format", "machine", "jump", "--seeds", path, "--limit", "1")
        assert r.returncode == 0, r.stderr
        assert [t.N for t in parse_report(r.stdout)] == [12776]
        tuple_file = tmp_path / "tuple.json"
        tuple_file.write_bytes(r.stdout)
        v = run_cli("verify", "--seeds", path, "--tuple", str(tuple_file))
        assert v.returncode == 0, v.stderr

    def test_budget_zero_refusal_names_only_the_query(self, tmp_path):
        r = run_cli("jump", "--seeds", write_scenario(tmp_path, with_budget(DECIMAL_S3, 0)))
        assert r.returncode == 3
        message = r.stderr.decode()
        assert message.startswith("undecidable:") and message.count("\n") == 1
        assert message.endswith(" undecided\n")
        assert "level" not in message and "budget" not in message
        assert run_cli("jump", "--seeds", write_scenario(tmp_path, DECIMAL_S3)).stderr == r.stderr

    @pytest.mark.parametrize("command", ["mean-index", "realize"])
    def test_every_command_keeps_the_budget(self, command, tmp_path):
        # the budget is accepted and ignored
        wire = (WIRE / f"{command.replace('-', '_')}.out").read_bytes()
        for budget in (0, 1):
            path = write_scenario(tmp_path, with_budget(SHIPPED_DOC, budget))
            r = run_cli("--format", "machine", command, "--seed", path)
            assert r.returncode == 0, r.stderr
            assert r.stdout == wire
        # the decimal angle of seed 1 refuses on its stated enclosure, with
        # the same line at every budget
        messages = []
        for budget in (0, 1):
            path = write_scenario(tmp_path, with_budget(DECIMAL_S3, budget))
            r = run_cli(command, "--seed", path, "--seed-index", "1")
            assert r.returncode == 3 and r.stdout == b""
            message = r.stderr.decode()
            assert message.count("\n") == 1
            assert message.startswith("undecidable:")
            assert message.endswith(" undecided\n")
            messages.append(message)
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("approx,error", [("0.6", "1e-999999999"),
                                              ("1e999999999", "1e-6")],
                             ids=["error_exponent", "approximant_exponent"])
    def test_unbounded_decimal_exponent_is_an_input_error(self, tmp_path, approx, error):
        # about 100 bytes that would ask Fraction for a gigabyte power of ten
        doc = ('{"version":1,"system":{"n":2},"seeds":[{"i1":1,"nu1":0,"blocks":'
               '[{"r":{"decimal":"%s","error":"%s"}}]}]}' % (approx, error))
        path = tmp_path / "scenario.json"
        path.write_text(doc)
        r = run_cli("iterate", "--seed", str(path), timeout=60)
        assert r.returncode == 1
        message = r.stderr.decode()
        assert message.count("\n") == 1
        assert message.startswith("error: seeds[0].blocks[0].r:") and "exponent" in message

    @pytest.mark.parametrize("args,exponent", [
        (["realize", "--seed", SHIPPED, "--precision", "1e-999999999"], "-999999999"),
        (["jump", "--seeds", SHIPPED, "--delta", "1e-999999999"], "-999999999"),
        (["jump", "--seeds", SHIPPED, "--delta", "3e-5000"], "-5000")],
        ids=["precision", "delta", "delta_5000"])
    def test_unbounded_rational_flag_is_a_usage_error(self, args, exponent):
        r = run_cli(*args, timeout=60)
        assert r.returncode == 1 and r.stdout == b""
        flag = args[-2]
        assert r.stderr.decode() == (
            f"error: argument {flag}: decimal exponent {exponent} exceeds +/-1000\n")

    def test_conjugate_rotations_scan_with_an_exact_mean_index(self, tmp_path):
        # x = sqrt(2) - 1 beside 1 - x: the mean index is exactly 2, so the
        # floor construction's quotients are exact and the scan never refuses
        doc = {"version": 1, "system": {"n": 3},
               "seeds": [{"i1": 2, "nu1": 0, "blocks": [
                   {"r": {"quadratic": [-1, 1, 1, 2]}}, {"r": {"quadratic": [2, -1, 1, 2]}}]}],
               "options": {"delta": [1, 100], "limit": 3}}
        path = write_scenario(tmp_path, doc)
        r = run_cli("--format", "machine", "mean-index", "--seed", path)
        assert r.returncode == 0
        assert parse_report(r.stdout) == 2
        r = run_cli("--format", "machine", "jump", "--seeds", path, timeout=60)
        assert r.returncode == 0, r.stderr
        tuples = parse_report(r.stdout)
        system, _ = parse_scenario(Path(path).read_bytes())
        assert len(tuples) == 3
        assert all(verify_tuple(t, system.seeds, budget=0).passed for t in tuples)

    def test_cancelling_rotations_written_differently_scan_exactly(self, tmp_path):
        # sqrt(2) - 1 beside (2 - sqrt(2))/2 twice: the sqrt(2) parts cancel
        # across the two forms, so the mean index is exactly 3
        doc = {"version": 1, "system": {"n": 4},
               "seeds": [{"i1": 4, "nu1": 0, "blocks": [
                   {"r": {"quadratic": [-1, 1, 1, 2]}}, {"r": {"quadratic": [2, -1, 2, 2]}},
                   {"r": {"quadratic": [2, -1, 2, 2]}}]}],
               "options": {"delta": [1, 10], "n_max": 2000}}
        path = write_scenario(tmp_path, doc)
        r = run_cli("mean-index", "--seed", path)
        assert r.returncode == 0
        assert r.stdout == b"mean index = 3 (exact, ~3.000000000)\n"
        r = run_cli("--format", "machine", "jump", "--seeds", path, timeout=60)
        assert r.returncode == 0, r.stderr
        tuples = parse_report(r.stdout)
        system, _ = parse_scenario(Path(path).read_bytes())
        assert tuples and all(verify_tuple(t, system.seeds).passed for t in tuples)

    def test_tiny_delta_jump_ends(self):
        # the sieve's first return at delta = 1e-7 lies beyond the last step
        # that can give N <= n_max
        r = run_cli("jump", "--seeds", SHIPPED, "--delta", "1/10000000", timeout=60)
        assert r.returncode == 1
        assert r.stderr.decode().splitlines() == [
            "error: no jump tuple with N <= 1000000 at delta = 1/10000000; "
            "raise n_max or loosen delta"]

    def test_machine_output_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, TWO_SEED_S3)
        a = run_cli("--format", "machine", "analyze", "--system", path)
        b = run_cli("--format", "machine", "analyze", "--system", path)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_realize_precision(self, tmp_path):
        path = write_scenario(tmp_path, TWO_SEED_S3)
        r = run_cli("--format", "machine", "realize", "--seed", path,
                    "--seed-index", "1", "--precision", "1/1000000000000")
        M = parse_report(r.stdout)
        assert M.shape == (4, 4)
        theta = 2 * np.pi * 0.6180339887498949
        assert abs(M[0, 0] - np.cos(theta)) < 1e-9

    def test_workers_flag_is_a_usage_error(self, tmp_path):
        path = write_scenario(tmp_path, TWO_SEED_S3)
        r = run_cli("jump", "--seeds", path, "--limit", "1", "--workers", "2")
        assert r.returncode == 1
        assert b"--workers" in r.stderr

    def test_global_flags_after_the_subcommand(self, tmp_path):
        path = write_scenario(tmp_path, TWO_SEED_S3)
        before = run_cli("--format", "machine", "jump", "--seeds", path, "--limit", "1")
        after = run_cli("jump", "--seeds", path, "--limit", "1", "--format", "machine")
        assert before.returncode == after.returncode == 0, after.stderr
        assert before.stdout == after.stdout
        assert parse_report(after.stdout)[0].N == 12776
        # a flag after the subcommand overrides the same flag before it
        r = run_cli("--format", "text", "iterate", "--seed", path, "--format", "machine")
        assert r.stdout == run_cli("--format", "machine", "iterate", "--seed", path).stdout

    @pytest.mark.parametrize("where", ["flag", "env", "options"])
    def test_negative_budget_is_an_input_error(self, tmp_path, where):
        # a flag is no way to give a budget, and SYMJUMP_BUDGET cannot
        # override the scenario's
        doc = json.loads(json.dumps(TWO_SEED_S3))
        args, env = ["jump", "--seeds", None, "--limit", "1"], None
        if where == "flag":
            args += ["--budget", "-1"]
        else:
            doc["options"]["budget"] = -1
        if where == "env":
            env = {"SYMJUMP_BUDGET": "0"}
        args[2] = write_scenario(tmp_path, doc)
        r = run_cli(*args, env_extra=env)
        assert r.returncode == 1
        message = r.stderr.decode().splitlines()[-1]
        assert message.startswith("error:") and "-1" in message and "budget" in message

    @pytest.mark.parametrize("args,options", [
        (["--m-max", "-5"], {}), (["--m-max", "0"], {}), ([], {"m_max": -5})],
        ids=["flag_negative", "flag_zero", "options_negative"])
    def test_nonpositive_m_max_is_an_input_error(self, tmp_path, args, options):
        doc = copy.deepcopy(TWO_SEED_S3)
        doc["options"].update(options)
        r = run_cli("iterate", "--seed", write_scenario(tmp_path, doc), *args)
        assert r.returncode == 1 and r.stdout == b""
        lines = r.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: m_max must be a positive")

    def test_huge_quadratic_coefficient_is_an_input_error(self, tmp_path):
        doc = copy.deepcopy(TWO_SEED_S3)
        doc["seeds"][0]["blocks"][0]["r"]["quadratic"] = [10**400, 1, 1, 2]
        r = run_cli("mean-index", "--seed", write_scenario(tmp_path, doc))
        assert r.returncode == 1
        lines = r.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: seeds[0].blocks[0].r: (1000")
        assert lines[0].endswith("+1*sqrt(2))/1 lies outside (0,1)")

    @pytest.mark.parametrize("tuple_doc,key", [
        ({"N": 1}, "'m'"),
        ({"N": 1, "m": "12", "chi": [0], "M": 1, "delta": [1, 100], "per_path": []},
         "tuple.m"),
        ({"N": 1, "m": [1], "chi": [0], "M": 1, "delta": [1, 0], "per_path": []},
         "tuple.delta"),
        ({"type": "jump_tuples"}, "'tuples'"),
        ({"type": "jump_tuples", "tuples": [{"N": 1, "m": [1], "chi": [0], "M": 1,
                                            "delta": [1, 100], "per_path": [{}]}]},
         "tuples[0].per_path[0]: missing required key 'seed_index'"),
        ([], "tuple file must be"),
        ({"type": "jump_tuples", "tuples": {}}, "tuples: expected list, got dict"),
    ])
    def test_verify_names_a_bad_tuple_key(self, tmp_path, tuple_doc, key):
        path = write_scenario(tmp_path, TWO_SEED_S3)
        tuple_file = tmp_path / "bad_tuple.json"
        tuple_file.write_text(json.dumps(tuple_doc))
        r = run_cli("verify", "--seeds", path, "--tuple", str(tuple_file))
        assert r.returncode == 1
        lines = r.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and key in lines[0]

    @pytest.mark.parametrize("precision", ["0", "-1/2"])
    def test_realize_nonpositive_precision_is_an_input_error(self, precision):
        r = run_cli("realize", "--seed", SHIPPED, f"--precision={precision}")
        assert r.returncode == 1
        assert r.stderr.decode().splitlines() == [
            f"error: precision must be positive, got {precision}"]

    def test_complement_of_a_non_tuple_names_it(self):
        r = run_cli("jump", "--seeds", SHIPPED, "--complement-of", "5")
        assert r.returncode == 1
        assert r.stderr.decode().splitlines() == [
            "error: N = 5 is not a jump tuple at delta = 1/100"]

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_complement_of_a_nonpositive_n_names_it(self, n):
        r = run_cli("jump", "--seeds", SHIPPED, "--complement-of", n)
        assert r.returncode == 1 and r.stdout == b""
        assert r.stderr.decode().splitlines() == [
            f"error: N must be a positive integer, got {n}"]

    def test_complement_of_a_far_n_reads_no_scan(self):
        # the base tuple is looked up at N alone; a scan from step 1 to
        # N = 10**12 would not end for hours
        n = str(10**12)
        start = time.perf_counter()
        r = run_cli("jump", "--seeds", SHIPPED, "--complement-of", n, "--n-max", n, timeout=60)
        assert time.perf_counter() - start < 3
        assert r.returncode == 1
        assert r.stderr.decode().splitlines() == [
            f"error: N = {n} is not a jump tuple at delta = 1/100"]

    def test_cli_import_leaves_numpy_unloaded(self):
        r = subprocess.run([sys.executable, "-c", "import symjump.cli, sys; "
                            "assert 'numpy' not in sys.modules"],
                           capture_output=True, env=dict(PYTHONPATH=SRC))
        assert r.returncode == 0, r.stderr


def _emitted_reports() -> list:
    """One document of every report type: the shipped scenario's wire
    fixtures plus the exact mean index, jump tuples and analysis report
    of a small rational system."""
    docs = [json.loads(line) for f in sorted(WIRE.iterdir())
            for line in f.read_bytes().splitlines()]
    s = PathSeed(2, 1, 2, Decomposition([N1Block(1, 0)]))
    rotation = PathSeed(2, 1, 0, Decomposition([RotationBlock(rational_angle(1, 3))]))
    tuples = find_jump_tuples([s], Fraction(1, 100), 100, 2)
    report = run_analysis(GeodesicSystem(2, Fraction(1), (s,)), delta=Fraction(1, 100),
                          n_max=1000)
    for x in (mean_index(rotation), tuples, verify_tuple(tuples[0], [s]), report):
        docs.append(json.loads(emit_report(x, "machine")))
    return docs


REPORTS = _emitted_reports()
ODD_VALUES = [None, True, 0, -1, 2.5, "x", [], {}, [1, 0], [[1]], {"type": "jump_tuples"}]


def _slots(node, out: list) -> list:
    """(container, key) of every value nested in node."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        out.append((node, key))
        _slots(value, out)
    return out


def _mutated(data, docs: list, odd_values: list) -> str:
    """One of docs as JSON text, with one nested value deleted, replaced by
    one of odd_values, or wrapped in a list or an object."""
    holder = {"doc": copy.deepcopy(data.draw(st.sampled_from(docs)))}
    container, key = data.draw(st.sampled_from(_slots(holder, [])))
    op = data.draw(st.sampled_from(["delete", "retype", "wrap_list", "wrap_object"]))
    if op == "delete":
        del container[key]
    elif op == "retype":
        container[key] = data.draw(st.sampled_from(odd_values))
    elif op == "wrap_list":
        container[key] = [container[key]]
    else:
        container[key] = {"value": container[key]}
    return json.dumps(holder.get("doc"))


def _analyze_with_relation(relation: str) -> bytes:
    doc = json.loads((WIRE / "analyze.out").read_bytes())
    doc["first_bound_at_second"]["relation"] = relation
    return json.dumps(doc).encode()


class TestMalformedReports:
    @pytest.mark.parametrize("data,message", [
        (b'{"type":"tuple_verification"}', "report: missing required key 'per_path'"),
        (b'[]', "report: expected an object, got list"),
        (b'{"type":"analysis_report","n":3}', "report: missing required key 'status'"),
        (_analyze_with_relation("<>"), "first_bound_at_second: unknown relation '<>'"),
    ], ids=["tuple_verification", "not_an_object", "analysis_report", "relation"])
    def test_reproducers(self, data, message):
        with pytest.raises(ScenarioError) as err:
            parse_report(data)
        assert str(err.value) == message

    def test_error_names_the_path(self):
        doc = json.loads((WIRE / "jump.out").read_bytes())
        del doc["tuples"][0]["per_path"][1]["conditions"][2]["lhs"]
        with pytest.raises(ScenarioError) as err:
            parse_report(json.dumps(doc))
        assert str(err.value) == ("tuples[0].per_path[1].conditions[2]: "
                                  "missing required key 'lhs'")

    def test_every_report_type_is_covered(self):
        assert {d["type"] for d in REPORTS} == {
            "iteration_table", "mean_index", "jump_tuples", "tuple_verification",
            "analysis_report", "realized_matrix"}
        assert any("exact" in d for d in REPORTS) and any("enclosure" in d for d in REPORTS)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_mutated_report_parses_or_raises_scenario_error(self, data):
        try:
            parse_report(_mutated(data, REPORTS, ODD_VALUES))
        except ScenarioError as exc:
            assert "\n" not in str(exc)


SCENARIOS = [json.loads(Path(SHIPPED).read_bytes()), EVERY_KIND]


class TestMalformedScenarios:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_mutated_scenario_parses_or_raises_scenario_error(self, data):
        # 10**400 overflows a float; 2*10**38 + 1 defeats trial division
        text = _mutated(data, SCENARIOS, ODD_VALUES + [10**400, 2 * 10**38 + 1])
        try:
            system, options = parse_scenario(text)
        except ScenarioError as exc:
            assert "\n" not in str(exc)
        else:
            assert isinstance(system, GeodesicSystem) and isinstance(options, ScenarioOptions)


class TestTextRendering:
    def test_tuple_text_shows_both_sides(self, tmp_path):
        path = write_scenario(tmp_path, TWO_SEED_S3)
        r = run_cli("jump", "--seeds", path, "--limit", "1")
        text = r.stdout.decode()
        assert "index_after_jump" in text
        assert "==" in text and "[ok]" in text

    def test_analysis_text_structure(self, tmp_path):
        path = write_scenario(tmp_path, TWO_SEED_S3)
        r = run_cli("analyze", "--system", path)
        text = r.stdout.decode()
        assert "two_elliptic_irrational" in text
        assert "first geodesic" in text and "second geodesic" in text
        assert "zero set" in text


# -- the CLI in process, under random flags, environments, tuple files and
# scenarios ---------------------------------------------------------------------

JUMP_DOC = json.loads((WIRE / "jump.out").read_bytes())
TAMPERED = copy.deepcopy(JUMP_DOC)
TAMPERED["tuples"][1]["m"][0] += 1  # parses, and fails verification
# values for a --budget flag, which the CLI does not have, and for SYMJUMP_BUDGET,
# which it does not read
BUDGETS = ["0", "1", "3", "64", " 2 ", "-1", "x", "", "1e3", "99999999999999999999"]
RATIONALS = ["1/100", "0.01", "1/3", "0.49", "0.5", "0", "-1/7", "1e-9", "1e-999",
             "1e-1001", "abc", "1/0", "nan", "inf", "7"]
INTEGERS = ["1", "0", "-3", "12776", "70145", "99999", "100000", "1e5", "x", "5.0"]


def _in_process(argv: list, env_budget=None) -> tuple[int, bytes, str]:
    """cli.main(argv) with SYMJUMP_BUDGET set (or unset) and stdout/stderr captured."""
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    saved = sys.stdout, sys.stderr, os.environ.get("SYMJUMP_BUDGET")
    sys.stdout, sys.stderr = out, err
    if env_budget is None:
        os.environ.pop("SYMJUMP_BUDGET", None)
    else:
        os.environ["SYMJUMP_BUDGET"] = env_budget
    try:
        code = cli.main(argv)
        out.flush()
    finally:
        sys.stdout, sys.stderr = saved[:2]
        if saved[2] is None:
            os.environ.pop("SYMJUMP_BUDGET", None)
        else:
            os.environ["SYMJUMP_BUDGET"] = saved[2]
    return code, out.buffer.getvalue(), err.getvalue()


@st.composite
def cli_runs(draw):
    """(argv, SYMJUMP_BUDGET, tuple file bytes) for one command on the
    shipped scenario; every scan is bounded by an n_max of at most 10**5.
    A ``verify`` reads the tuple file at the path TUPLE_FILE stands for, or
    none when its bytes are None."""
    def maybe(flag, values):
        return [flag, draw(st.sampled_from(values))] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["iterate", "mean-index", "jump", "analyze", "verify",
                                    "realize"]))
    seed_flag = {"jump": "--seeds", "analyze": "--system", "verify": "--seeds"}
    args = [command, seed_flag.get(command, "--seed"),
            draw(st.sampled_from([SHIPPED, SHIPPED + ".missing"]))]
    tuples = None
    if command in ("iterate", "mean-index", "realize"):
        args += maybe("--seed-index", ["0", "1", "2", "-1", "x"])
    if command == "iterate":
        args += maybe("--m-max", ["1", "12", "40", "0", "-2", "x"])
    if command == "realize":
        args += maybe("--precision", RATIONALS)
    if command in ("jump", "analyze"):
        args += maybe("--delta", RATIONALS) + maybe("--limit", ["1", "3", "5", "0", "-1", "x"])
        args += ["--n-max", draw(st.sampled_from(INTEGERS))]
    if command == "jump":
        args += maybe("--complement-of", INTEGERS)
    if command == "verify":
        tuples = draw(st.one_of(
            st.sampled_from([(WIRE / "jump.out").read_bytes(), json.dumps(TAMPERED).encode()]),
            st.none(), st.binary(max_size=40),
            st.builds(lambda d: _mutated(d, [JUMP_DOC], ODD_VALUES + [2, -5, 10**30, [0, 1]])
                      .encode(), st.data())))
        args += ["--tuple", "TUPLE_FILE"]
    globals_ = maybe("--budget", BUDGETS) + maybe("--format", ["text", "machine", "json"])
    argv = globals_ + args if draw(st.booleans()) else args + globals_
    return argv, draw(st.sampled_from([None] + BUDGETS)), tuples


class TestCliFuzz:
    @settings(max_examples=150, deadline=None)
    @given(run=cli_runs())
    def test_every_run_exits_0_to_3_with_at_most_one_error_line(self, run, tmp_path_factory):
        argv, env_budget, tuples = run
        path = tmp_path_factory.getbasetemp() / "cli_fuzz_tuples.json"
        path.unlink(missing_ok=True)
        if tuples is not None:
            path.write_bytes(tuples)
        argv = [str(path) if a == "TUPLE_FILE" else a for a in argv]
        code, out, err = _in_process(argv, env_budget)
        assert code in (0, 1, 2, 3), (argv, env_budget, err)
        assert "Traceback" not in err
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, env_budget, err)
        if "--budget" in argv:  # no such flag: a usage error
            assert code == 1 and err.startswith("error:"), (argv, err)
        if env_budget is not None:
            assert _in_process(argv) == (code, out, err), (argv, env_budget)

    def test_budget_past_2_63_is_accepted(self, tmp_path):
        # accepted and ignored, however large
        path = write_scenario(tmp_path, with_budget(SHIPPED_DOC, 10**20))
        code, out, err = _in_process(["--format", "machine", "mean-index", "--seed", path])
        assert (code, err) == (0, "")
        assert out == (WIRE / "mean_index.out").read_bytes()

    def test_failed_verification_and_contradiction_print_one_line(self, tmp_path):
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(TAMPERED))
        code, out, err = _in_process(["verify", "--seeds", SHIPPED, "--tuple", str(path)])
        assert code == 1 and b"FAIL" in out
        assert err == "error: 1 of 3 tuples fail verification\n"
        doc = copy.deepcopy(TWO_SEED_S3)
        doc["seeds"] = doc["seeds"][:1]
        code, out, err = _in_process(["analyze", "--system", write_scenario(tmp_path, doc)])
        assert code == 2 and b"fcg_contradiction" in out
        assert err == "contradiction: no_second_geodesic\n"


@st.composite
def scenario_docs(draw):
    """A scenario of one or two seeds of one or two rotations each, by
    rational, quadratic (``QUADRATIC_POOL``) and ``decimal`` angles, with a
    mean index above 1 and n_max <= 10**4."""
    def angle():
        kind = draw(st.sampled_from(["rational", "quadratic", "decimal"]))
        if kind == "rational":
            q = draw(st.integers(3, 12))
            return {"rational": [draw(st.sampled_from([p for p in range(1, q) if 2 * p != q])), q]}
        a, b, c, d = draw(st.sampled_from(QUADRATIC_POOL))
        if kind == "quadratic":
            return {"quadratic": [a, b, c, d]}
        digits = draw(st.integers(6, 12))
        return {"decimal": f"{(a + b * math.sqrt(d)) / c:.{digits}f}",
                "error": f"1e-{digits - draw(st.integers(0, 2))}"}

    k = draw(st.integers(1, 2))
    seeds = [{"i1": k + draw(st.integers(1, 3)), "nu1": 0,
              "blocks": [{"r": angle()} for _ in range(k)]}
             for _ in range(draw(st.integers(1, 2)))]
    return {"version": 1, "system": {"n": k + 1}, "seeds": seeds,
            "options": {"delta": [1, draw(st.sampled_from([10, 100]))],
                        "n_max": draw(st.sampled_from([100, 1000, 10**4])),
                        "limit": draw(st.integers(1, 3)), "m_max": draw(st.integers(1, 30))}}


class TestScenarioBudget:
    """Every angle query decides on one read or refuses, so
    ``options.budget`` is accepted and ignored: it changes no byte of
    stdout or stderr."""

    @settings(max_examples=25, deadline=None)
    @given(doc=scenario_docs())
    def test_budget_changes_nothing(self, doc, tmp_path_factory):
        base = tmp_path_factory.mktemp("budget")
        tuple_file = base / "tuples.json"
        outcomes = {}
        for budget in (64, 0, 1):
            path = write_scenario(base, with_budget(doc, budget), f"{budget}.json")
            for command, flag, *rest in (
                    ("iterate", "--seed"), ("mean-index", "--seed"), ("realize", "--seed"),
                    ("jump", "--seeds"), ("analyze", "--system"),
                    ("verify", "--seeds", "--tuple", str(tuple_file))):
                code, out, err = _in_process(["--format", "machine", command, flag, path, *rest])
                if command == "jump" and budget == 64:
                    tuple_file.write_bytes(out if code == 0 else (WIRE / "jump.out").read_bytes())
                outcomes.setdefault(command, []).append((code, out, err))
        for command, (first, *others) in outcomes.items():
            assert all(o == first for o in others), (command, doc)
