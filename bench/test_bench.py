"""Tests of the benchmark itself:  python -m pytest bench  (about a minute)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_library()

import symjump.angles as sj_angles  # noqa: E402
import symjump.analysis as sj_analysis  # noqa: E402
import symjump.iteration as sj_iteration  # noqa: E402
import symjump.jumps as sj_jumps  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
CHEAP = ["rational_scan", "deep_iterate", "verify_stored"]


def _rounds(name: str, seed: int, rounds: int):
    plan = workloads.plan(name, seed)
    tally = run.Tally()
    outputs = []
    for _ in range(rounds):
        results = run.run_round(plan, tally)
        run.check_round(plan, tally, results)
        outputs.append({item.key: out for item, _, out, _ in results})
    assert tally.failed == 0
    return outputs


def _traced_counts(name: str, seed: int) -> dict:
    """Per-op counters of one traced round (every metric that is not a time)."""
    plan = workloads.plan(name, seed)
    tracer, tally = tracing.Tracer(), run.Tally()
    tracer.install()
    try:
        results = run.run_round(plan, tally, tracer)
    finally:
        tracer.uninstall()
    tracer.end_round()
    run.check_round(plan, tally, results)
    assert tally.failed == 0
    return {k: v for k, (v, unit) in tracer.layer_metrics(tally.attempted).items()
            if not unit.startswith("ms")}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    a, b, c = (workloads.plan(name, s) for s in (7, 7, 8))
    assert [(i.key, x) for i, x in a.steps] == [(i.key, x) for i, x in b.steps]
    assert [x for _, x in a.steps] != [x for _, x in c.steps]
    # another seed lays the bytes out differently but runs the same work
    assert sorted(i.key for i, _ in a.steps) == sorted(i.key for i, _ in c.steps)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_first_and_last_op_emit_identical_bytes(name):
    first, last = _rounds(name, 3, 2)
    assert first == last


def test_s3_lattice_steps_are_exact_and_repeat():
    counts = _traced_counts("s3_analyze", 0)
    assert counts["jumps.lattice_steps"] == 38912 + 26624
    assert counts["jumps.scan_calls"] == 2
    assert counts["jumps.complement_calls"] == 1
    assert counts["jumps.tuples_found"] == 5 + 1
    assert counts["analysis.peak_checks"] >= 1
    assert _traced_counts("s3_analyze", 0) == counts


@pytest.mark.parametrize("name", CHEAP)
def test_counters_repeat_across_traced_runs(name):
    counts = _traced_counts(name, 5)
    assert _traced_counts(name, 5) == counts
    assert counts["angles.undecidable"] == 0
    if name == "rational_scan":
        assert counts["angles.refine_calls"] == 0
        assert counts["jumps.lattice_steps"] >= 2048
    else:
        assert counts["jumps.scan_calls"] == counts["jumps.lattice_steps"] == 0


def test_tracer_wraps_every_binding_and_restores_it():
    originals = (sj_jumps.index_iterate, sj_analysis.find_jump_tuples,
                 sj_angles.IrrationalAngle.__dict__["floor_mul"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sj_jumps.index_iterate is sj_iteration.index_iterate
        assert sj_jumps.index_iterate is not originals[0]
        assert sj_analysis.find_jump_tuples is sj_jumps.find_jump_tuples
        assert sj_analysis.find_jump_tuples is not originals[1]
        assert sj_angles.IrrationalAngle.__dict__["floor_mul"] is not originals[2]
    finally:
        tracer.uninstall()
    assert (sj_jumps.index_iterate, sj_analysis.find_jump_tuples,
            sj_angles.IrrationalAngle.__dict__["floor_mul"]) == originals
    assert sj_iteration.index_iterate is originals[0]


def test_pieces_are_scaled_by_the_speed_around_them():
    ms = 1_000_000
    tally = run.Tally(calibrated=True, latencies_ns=run.array("q", [10 * ms]),
                      speed=[(10 * ms, 5 * ms)] * 2 + [(20 * ms, 10 * ms)] * 3)
    # one op in two pieces: 4 ms after the first sample, 6 ms after the fourth
    for piece in ([0, 4 * ms, 4 * ms, 1], [0, 6 * ms, 6 * ms, 4]):
        for arr, v in zip((tally.piece_op, tally.piece_wall, tally.piece_cpu,
                           tally.piece_samples), piece):
            arr.append(v)
    wall, cpu = tally.at_ref_speed()
    # medians of samples 0..2 and 2..4: 10 ms then 20 ms wall, 5 then 10 ms CPU
    assert wall == [4 * ms + 3 * ms]
    assert cpu == [8 * ms + 6 * ms]


def test_calibration_inside_an_op_is_not_timed(monkeypatch):
    monkeypatch.setattr(run, "CAL_EVERY_NS", 0)
    tally = run.Tally(calibrated=True)

    def op():
        for _ in range(3):
            sum(range(20000))
            tally.checkpoint(0, 1)

    t0 = run.perf_counter_ns()
    tally.start_op()
    op()
    tally.end_op()
    elapsed = run.perf_counter_ns() - t0
    assert list(tally.piece_op) == [0] * 4 and list(tally.piece_samples) == [0, 1, 2, 3]
    assert len(tally.speed) == 4
    calibrating = sum(w for w, _ in tally.speed[:3])
    assert sum(tally.piece_wall) <= tally.latencies_ns[0] <= elapsed - calibrating


def test_quad_floor_oracle():
    assert workloads.quad_floor_oracle((-1, 1, 2, 5), 10**12) == 618033988749
    for coeffs in workloads.QUADRATIC:
        x = sj_angles.quadratic_angle(*coeffs)
        for m in (1, 7, 10**6 + 3, 10**40 + 11):
            assert x.floor_mul(m) == workloads.quad_floor_oracle(coeffs, m)


def _bench(args, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_carries_every_metric(trace, kind):
    proc = _bench(["--workload", "verify_stored", "--seed", "1", "--seconds", "1",
                   "--trace", trace], BENCH.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[kind]}


def test_fails_without_the_library(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for f in BENCH.iterdir():
        if f.is_file():
            shutil.copy(f, tmp_path / "bench")
    proc = _bench(["--workload", "verify_stored", "--seed", "0", "--seconds", "1",
                   "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
