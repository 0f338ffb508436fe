"""Benchmark for symjump: one process, one closed-loop client, no threads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S [--trace 0|1]

A run builds its inputs from the seed (see workloads.py), times ops back
to back for about S seconds, checks every op's output against a golden
digest and an independent check, and prints one line per metric and, as
its last stdout line, one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

With --trace 0 the metrics are the end-to-end ones listed in
BENCHMARK.json, every time scaled to a reference speed measured beside it
(calibrate, SetupTimer) because the machine's own speed drifts; with --trace 1 they are the per-layer ones, from rounds
run with the tracer installed (tracing.py), alternating with untraced
rounds so the tracing overhead is measured on the same inputs.
``--workload all`` runs every workload in a child process in turn and
prints one table.  The library is imported from ``src`` next to this
directory and nowhere else; without it the run exits non-zero and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 8
REF_START_S = 0.2
P90_MIN_OPS = 100
# Every time metric is reported at reference speed: scaled by REF_MS over the
# local time of calibrate(), sampled after at least CAL_EVERY_NS of ops; an
# op's local time is the median of CAL_NEIGHBOURS samples on each side of it.
REF_MS = 10.0
CAL_EVERY_NS = 100_000_000
CAL_NEIGHBOURS = 2

# A fresh interpreter pays this on every CLI invocation: import the CLI and
# parse the op's input documents (a scenario, then any stored report).
SETUP_CODE = """\
import sys
from pathlib import Path
import symjump.cli
from symjump.scenario import parse_report, parse_scenario
if Path(symjump.cli.__file__).resolve().parent != Path(sys.argv[1]):
    sys.exit("symjump imported from the wrong place")
docs = sys.stdin.buffer.read().split(b"\\0")
parse_scenario(docs[0])
for doc in docs[1:]:
    parse_report(doc)
"""
# The reference start for SETUP_CODE: what it imports besides symjump.
REF_CODE = """\
import sys, argparse, dataclasses, fractions, itertools, json, threading, typing
import concurrent.futures, numpy
json.loads(sys.stdin.buffer.read().split(b"\\0")[0])
"""


def load_library() -> None:
    """Import symjump from this checkout's src, or exit non-zero."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import symjump
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import symjump from {SRC}: {exc}")
    where = Path(symjump.__file__).resolve().parent
    if where != (SRC / "symjump").resolve():
        raise SystemExit(f"bench: symjump was imported from {where}, not {SRC}")


def calibrate() -> tuple[int, int]:
    """Wall and CPU ns of a fixed piece of pure-Python work of the library's
    kind (Fraction arithmetic, big-int isqrt), about 10 ms on a 2-vCPU Xeon.

    The machine's speed drifts by up to a factor 1.6 within a minute, and
    this work slows down with it, so time over calibrate() time is steady
    where time alone is not.  It calls nothing in symjump: a change to the
    library cannot move it.
    """
    c0, t0 = process_time_ns(), perf_counter_ns()
    x, q, acc = Fraction(0), Fraction(355, 113), 0
    for i in range(1, 1200):
        x += Fraction(i, i + 3)
        if x > q:
            x -= q
        acc ^= isqrt(i ** 40 + acc) & 0xFFFF
    return perf_counter_ns() - t0, process_time_ns() - c0


class SetupTimer:
    """Set-up time: a fresh interpreter that imports the CLI and parses an
    op's input, at reference start-up speed.

    Each sample is a pair of starts, a reference interpreter first (REF_CODE:
    the same stdlib modules and numpy, but not symjump) and then the set-up
    one; the result is REF_START_S times the median of set-up over reference.
    Interpreter start-up is mostly loading and unmarshalling, which does not
    slow down in step with calibrate(), but it does with another start-up.
    The SETUP_RUNS pairs are spread through the run, after one unmeasured
    pair that fills the bytecode cache as an installed CLI would have it.
    """

    def __init__(self, inputs: tuple, seconds: int):
        lib = str((SRC / "symjump").resolve())
        self.cmds = ([sys.executable, "-c", REF_CODE],
                     [sys.executable, "-c", SETUP_CODE, lib])
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.stdin = b"\0".join(inputs)
        self.every = seconds / SETUP_RUNS
        self.ratios = []
        self._pair()
        self.last = perf_counter()

    def _start(self, cmd) -> int:
        t0 = perf_counter_ns()
        proc = subprocess.run(cmd, input=self.stdin, env=self.env, cwd=ROOT,
                              capture_output=True, timeout=120)
        elapsed = perf_counter_ns() - t0
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up interpreter failed:\n{proc.stderr.decode()}")
        return elapsed

    def _pair(self) -> float:
        ref, setup = (self._start(cmd) for cmd in self.cmds)
        return setup / ref

    def maybe_sample(self) -> None:
        if len(self.ratios) < SETUP_RUNS and perf_counter() - self.last >= self.every:
            self.ratios.append(self._pair())
            self.last = perf_counter()

    def median(self) -> float:
        while len(self.ratios) < SETUP_RUNS:
            self.ratios.append(self._pair())
        return REF_START_S * statistics.median(self.ratios)


@dataclass
class Tally:
    """Per-op times of a run.  With ``calibrated`` set, each op is also
    timed in pieces cut at its progress callbacks, and calibrate() is
    sampled between pieces (its time excluded from the op) whenever
    CAL_EVERY_NS has passed, so every piece can be scaled by the speed of
    the machine around it.  Arrays, not lists, keep peak RSS independent of
    how many ops a run holds."""

    latencies_ns: array = field(default_factory=lambda: array("q"))
    failed: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    errors: Counter = field(default_factory=Counter)
    calibrated: bool = False
    speed: list = field(default_factory=list)   # calibrate() samples
    piece_op: array = field(default_factory=lambda: array("q"))
    piece_wall: array = field(default_factory=lambda: array("q"))
    piece_cpu: array = field(default_factory=lambda: array("q"))
    piece_samples: array = field(default_factory=lambda: array("q"))
    last_sample_ns: int = 0
    _t0: int = 0        # the current op's start
    _t: int = 0         # the current piece's start, wall and CPU
    _c: int = 0
    _excluded: int = 0  # calibrate() time inside the current op

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def ops_per_s(self) -> float:
        return self.attempted / (sum(self.latencies_ns) / 1e9)

    def sample_speed(self) -> None:
        self.speed.append(calibrate())
        self.last_sample_ns = perf_counter_ns()

    def start_op(self) -> None:
        self._excluded = 0
        self._c, self._t = process_time_ns(), perf_counter_ns()
        self._t0 = self._t

    def checkpoint(self, *_progress) -> None:
        """Close the current op's current piece: its progress callback."""
        if self.calibrated:
            self._close_piece(perf_counter_ns())

    def _close_piece(self, t: int) -> None:
        c = process_time_ns()
        self.piece_op.append(len(self.latencies_ns))
        self.piece_wall.append(t - self._t)
        self.piece_cpu.append(c - self._c)
        self.piece_samples.append(len(self.speed))
        if t - self.last_sample_ns >= CAL_EVERY_NS:
            self.sample_speed()
            self._excluded += self.last_sample_ns - t
        self._c, self._t = process_time_ns(), perf_counter_ns()

    def end_op(self) -> None:
        t = perf_counter_ns()
        latency = t - self._t0 - self._excluded
        if self.calibrated:
            self._close_piece(t)
        self.latencies_ns.append(latency)

    def at_ref_speed(self) -> tuple[list, list]:
        """Every op's wall and CPU ns, each piece scaled to reference speed
        by the median calibrate() time of the CAL_NEIGHBOURS samples taken
        on either side of it."""
        wall = [0.0] * self.attempted
        cpu = [0.0] * self.attempted
        local = {}
        for op, w, c, k in zip(self.piece_op, self.piece_wall, self.piece_cpu,
                               self.piece_samples):
            if k not in local:
                near = self.speed[max(0, k - CAL_NEIGHBOURS):k + CAL_NEIGHBOURS]
                local[k] = (REF_MS * 1e6 / statistics.median(x for x, _ in near),
                            REF_MS * 1e6 / statistics.median(x for _, x in near))
            wall[op] += w * local[k][0]
            cpu[op] += c * local[k][1]
        return wall, cpu


def run_round(plan, tally: Tally, tracer=None) -> list:
    """Every pool item once, in the plan's order; returns what check_round needs."""
    op = plan.workload.op
    results = []
    for item, inputs in plan.steps:
        tally.start_op()
        try:
            out, result = (tracer.root(op, item, inputs, None) if tracer
                           else op(item, inputs, tally.checkpoint))
        except Exception as exc:  # any exception out of the library is a failed op
            out, result = None, exc
        tally.end_op()
        results.append((item, inputs, out, result))
    return results


def check_round(plan, tally: Tally, results: list) -> None:
    """Golden digest and the workload's independent check, outside the timing."""
    import workloads
    for item, inputs, out, result in results:
        tally.bytes_in += sum(len(b) for b in inputs)
        if out is None:
            _fail(tally, item, result)
            continue
        tally.bytes_out += len(out)
        try:
            if workloads.digest(out) != plan.golden[item.key]:
                raise workloads.Mismatch("output differs from its golden digest")
            plan.workload.check(item, out, result)
        except Exception as exc:  # a mismatch, or a check that cannot run
            _fail(tally, item, exc)


def _fail(tally: Tally, item, exc: BaseException) -> None:
    tally.failed += 1
    kind = type(exc).__name__
    if not tally.errors[kind]:
        sys.stderr.write(f"bench: {item.key}: {kind}\n")
        traceback.print_exception(exc, file=sys.stderr)
    tally.errors[kind] += 1


def _stop(t_start: float, rounds: int, seconds: int) -> bool:
    """Stop when another round of the mean length would pass the deadline."""
    elapsed = perf_counter() - t_start
    return elapsed * (rounds + 1) / rounds > seconds


def measure(plan, seconds: int) -> tuple[Tally, float, float]:
    """Rounds of ops, calibrated, with set-up starts between them; returns
    the tally, the set-up time and the peak RSS in MiB, taken before the
    run's statistics add their own lists."""
    setup = SetupTimer(plan.steps[0][1], seconds)
    tally, t_start, rounds = Tally(calibrated=True), perf_counter(), 0
    tally.sample_speed()
    while True:
        check_round(plan, tally, run_round(plan, tally))
        rounds += 1
        setup.maybe_sample()
        if _stop(t_start, rounds, seconds):
            tally.sample_speed()
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            return tally, setup.median(), rss_mb


def end_to_end(tally: Tally, setup_s: float, rss_mb: float) -> dict:
    """Every time at reference speed (see calibrate)."""
    wall_ns, cpu_ns = tally.at_ref_speed()
    lat_ms = [t / 1e6 for t in wall_ns]
    p50 = statistics.median(lat_ms)
    # with fewer than P90_MIN_OPS ops no upper percentile has ten samples
    # beyond it, so the median stands in for it
    p90 = (statistics.quantiles(lat_ms, n=10, method="inclusive")[-1]
           if len(lat_ms) >= P90_MIN_OPS else p50)
    return {
        "ops_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "cpu_ms_per_op": (sum(cpu_ns) / len(cpu_ns) / 1e6, "ms"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def measure_traced(plan, seconds: int, dump_path: Path) -> tuple[dict, Tally]:
    """Untraced and traced rounds in turn; per-layer metrics per traced op."""
    from tracing import Tracer
    tracer, plain, traced = Tracer(), Tally(), Tally()
    t_start, pairs = perf_counter(), 0
    while True:
        check_round(plan, plain, run_round(plan, plain))
        tracer.install()
        try:
            results = run_round(plan, traced, tracer)
        finally:
            tracer.uninstall()
        tracer.end_round()
        check_round(plan, traced, results)
        pairs += 1
        if _stop(t_start, pairs, seconds):
            break
    dump_path.parent.mkdir(exist_ok=True)
    tracer.dump(dump_path)
    ops = traced.attempted
    metrics = tracer.layer_metrics(ops)
    metrics["scenario.bytes_in"] = (traced.bytes_in / ops, "B/op")
    metrics["scenario.bytes_out"] = (traced.bytes_out / ops, "B/op")
    untraced_rate, traced_rate = plain.ops_per_s(), traced.ops_per_s()
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = (100 * (untraced_rate - traced_rate) / untraced_rate, "%")
    both = Tally(plain.latencies_ns + traced.latencies_ns,
                 failed=plain.failed + traced.failed)
    return metrics, both


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import workloads
    try:
        plan = workloads.plan(workload, seed)
    except ValueError as exc:
        raise SystemExit(f"bench: {exc}; regenerate with bench/make_golden.py")
    if trace:
        metrics, tally = measure_traced(plan, seconds,
                                        OUT / f"spans-{workload}.tsv.gz")
    else:
        tally, setup_s, rss_mb = measure(plan, seconds)
        metrics = end_to_end(tally, setup_s, rss_mb)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Each workload in its own child process, so peak RSS and warm state
    belong to one workload."""
    import workloads
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"bench: {name} failed:\n{proc.stderr.decode()}")
        results[name] = json.loads(proc.stdout.decode().splitlines()[-1])
    names = list(workloads.WORKLOADS)
    first = results[names[0]]["metrics"]
    print(f"{'metric':34} {'unit':10}" + "".join(f"{n:>15}" for n in names))
    for metric, entry in first.items():
        row = "".join(f"{results[n]['metrics'][metric]['value']:>15.6g}" for n in names)
        print(f"{metric:34} {entry['unit']:10}{row}")
    print(f"{'attempted ops':45}" + "".join(f"{results[n]['attempted']:>15}" for n in names))
    print(f"{'failed ops':45}" + "".join(f"{results[n]['failed']:>15}" for n in names))
    return {"workloads": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    load_library()
    import workloads
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, args.trace)))
        return 0
    result = run_one(args.workload, args.seed, args.seconds, args.trace)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
