"""The four benchmark workloads: input generators, operations and checks.

Every workload owns a fixed pool of input documents.  The run seed picks
the order in which the pool is visited and the byte layout of every
document (key order, indentation, separators), so two seeds give
different input bytes for the same work.  Keeping the multiset of work
fixed across seeds is deliberate: the run-to-run spread of a metric is
then the machine's noise, not a different mix of inputs, and every op
can be checked against a golden digest whatever seed is passed.

Each op parses its documents from bytes, so no refined angle enclosure
carries over from one op to the next.  Library calls go through module
attributes (``sj_jumps.find_jump_tuples``) at call time, so the tracer in
``tracing.py`` sees them once it has patched those attributes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Callable

import symjump.analysis as sj_analysis
import symjump.errors as sj_errors
import symjump.iteration as sj_iteration
import symjump.jumps as sj_jumps
import symjump.scenario as sj_scenario

HERE = Path(__file__).resolve().parent
GOLDEN_FILE = HERE / "golden.json"
STORED_FILE = HERE / "stored_tuples.json"

# The shipped example system (scenarios/two_seed_s3.json), held here so the
# benchmark input does not move if the example is edited.
S3_DOC = {
    "version": 1,
    "system": {"n": 3, "lambda": [9, 8], "pinching_asserted": True},
    "seeds": [
        {"i1": 2, "nu1": 2,
         "blocks": [{"r": {"quadratic": [-1, 1, 1, 2]}}, {"n1": [1, 0]}]},
        {"i1": 2, "nu1": 2,
         "blocks": [{"r": {"quadratic": [-1, 1, 2, 5]}}, {"n1": [1, 0]}]},
    ],
    "options": {"delta": [1, 100], "n_max": 1000000, "limit": 3, "m_max": 12},
}
S3_FIRST_N = 12776
S3_SECOND_N = 70145

# (a, b, c, d) meaning (a + b*sqrt(d))/c in (0, 1), with c > 0 and d not a square
QUADRATIC = [
    (-1, 1, 1, 2), (-1, 1, 2, 5), (-1, 1, 1, 3), (-2, 1, 1, 7), (0, 1, 3, 3),
    (0, 1, 4, 2), (5, -1, 4, 5), (-1, 1, 2, 6), (-2, 1, 1, 6), (3, -1, 2, 3),
]

RATIONAL_POOL = 24
DEEP_POOL = 32
DEEP_EXPONENTS = (6, 40, 80, 120, 160, 200, 250, 300)
NO_TUPLE = b'{"type":"no_tuple_found"}\n'


class Mismatch(Exception):
    """An op returned output that disagrees with its golden or an oracle."""


@dataclass(frozen=True)
class Item:
    key: str
    docs: tuple            # dicts are re-laid out per seed; bytes pass verbatim
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    pool: Callable[[], list]
    op: Callable            # (item, inputs, progress) -> (output bytes, result for check)
    check: Callable         # (item, output, result) -> None, raises Mismatch


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(doc) -> bytes:
    if isinstance(doc, bytes):
        return doc
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def input_digest(item: Item) -> str:
    return digest(b"\0".join(canonical(d) for d in item.docs))


def relayout(doc, rng: random.Random) -> bytes:
    """Same JSON document, seed-chosen key order and whitespace."""
    if isinstance(doc, bytes):
        return doc

    def shuffled(x):
        if isinstance(x, dict):
            keys = list(x)
            rng.shuffle(keys)
            return {k: shuffled(x[k]) for k in keys}
        if isinstance(x, list):
            return [shuffled(v) for v in x]
        return x

    indent = rng.choice((None, None, 1, 2, 4))
    compact = indent is None and rng.random() < 0.5
    return json.dumps(shuffled(doc), indent=indent,
                      separators=(",", ":") if compact else None).encode()


def quad_floor_oracle(coeffs: tuple, m: int) -> int:
    """floor(m * (a + b*sqrt(d))/c) in one integer square root.

    m*b*sqrt(d) is never an integer, so its floor is isqrt(m^2 b^2 d) for
    b > 0 and -isqrt(m^2 b^2 d) - 1 for b < 0; with c > 0 the floor of the
    quotient only needs the floor of the numerator.
    """
    a, b, c, d = coeffs
    f = isqrt(m * m * b * b * d)
    if b < 0:
        f = -f - 1
    return (m * a + f) // c


# -- generators -----------------------------------------------------------------


def _rational(rng: random.Random) -> list:
    while True:
        q = rng.randint(3, 12)
        x = Fraction(rng.randint(1, q - 1), q)
        if x != Fraction(1, 2):
            return [x.numerator, x.denominator]


def _angle(rng: random.Random, p_quadratic: float):
    """(angle document, value as float, quadratic coefficients or None)."""
    if rng.random() < p_quadratic:
        a, b, c, d = rng.choice(QUADRATIC)
        return {"quadratic": [a, b, c, d]}, (a + b * d ** 0.5) / c, (a, b, c, d)
    p, q = _rational(rng)
    return {"rational": [p, q]}, p / q, None


def _seed_doc(rng: random.Random, n: int, p_quadratic: float,
              weights: tuple) -> tuple[dict, list]:
    """A pinched seed: i1 >= n-1 and mean index > n-1 (with a margin, so the
    float test cannot misjudge it).  Returns the document and the
    (block position, coefficients) of every quadratic angle."""
    w_n1, w_rot, w_n2 = weights
    while True:
        units, blocks, quads = n - 1, [], []
        p_minus = p_zero = p_plus = r = 0
        theta = 0.0
        while units:
            roll = rng.random()
            if roll < w_n1:
                lam, b = rng.choice((1, -1)), rng.choice((1, 0, -1))
                blocks.append({"n1": [lam, b]})
                if lam == 1:
                    p_minus += b == 1
                    p_zero += b == 0
                    p_plus += b == -1
                units -= 1
            elif roll < w_n1 + w_rot:
                angle, value, coeffs = _angle(rng, p_quadratic)
                if coeffs:
                    quads.append((len(blocks), coeffs))
                blocks.append({"r": angle})
                r += 1
                theta += value
                units -= 1
            elif roll < w_n1 + w_rot + w_n2 and units >= 2:
                angle, _, coeffs = _angle(rng, p_quadratic)
                if coeffs:
                    quads.append((len(blocks), coeffs))
                blocks.append({"n2": {"angle": angle, "trivial": rng.random() < 0.5}})
                units -= 2
            else:
                blocks.append({"hyp": {}})
                units -= 1
        i1 = rng.randint(n - 1, n + 2)
        if i1 + p_minus + p_zero - r + 2 * theta > n - 1 + 0.25:
            return {"i1": i1, "nu1": p_minus + 2 * p_zero + p_plus,
                    "blocks": blocks}, quads


def rational_doc(i: int) -> dict:
    """Pool item i of rational_scan: 1-3 pinched seeds, rational angles only."""
    rng = random.Random(f"rational_scan/{i}")
    n = rng.randint(2, 5)
    seeds = [_seed_doc(rng, n, 0.0, (0.40, 0.30, 0.15))[0]
             for _ in range(rng.randint(1, 3))]
    return {"version": 1,
            "system": {"n": n, "lambda": [1, 1], "pinching_asserted": True},
            "seeds": seeds,
            "options": {"delta": [1, 100], "n_max": 100000, "limit": 3}}


def _s3_pool() -> list:
    return [Item("two_seed_s3", (S3_DOC,))]


def _rational_pool() -> list:
    return [Item(f"rational_scan/{i}", (rational_doc(i),)) for i in range(RATIONAL_POOL)]


def _deep_pool() -> list:
    items = []
    for i in range(DEEP_POOL):
        rng = random.Random(f"deep_iterate/{i}")
        n = rng.randint(3, 6)
        seeds, quads = [], []
        for _ in range(rng.randint(1, 2)):
            doc, q = _seed_doc(rng, n, 0.6, (0.25, 0.35, 0.30))
            seeds.append(doc)
            quads.append(q)
        mults = [rng.randrange(10 ** e, 2 * 10 ** e) for e in DEEP_EXPONENTS]
        items.append(Item(f"deep_iterate/{i}",
                          ({"version": 1, "system": {"n": n}, "seeds": seeds},),
                          {"multipliers": mults, "quads": quads, "n": n}))
    return items


def _stored_pool() -> list:
    stored = json.loads(STORED_FILE.read_text())
    items = []
    for key, report in stored.items():
        doc = S3_DOC if key == "two_seed_s3" else rational_doc(int(key.rsplit("/", 1)[1]))
        items.append(Item(f"verify_stored/{key}", (doc, report.encode()),
                          {"tuples": len(json.loads(report)["tuples"])}))
    return items


# -- operations -------------------------------------------------------------------


def _op_s3(item: Item, inputs: tuple, progress=None):
    system, opts = sj_scenario.parse_scenario(inputs[0])
    # the CLI's analyze path: tuple limit is max(options.limit, 5), and a
    # progress callback (the runner's clock) on the scan
    report = sj_analysis.run_analysis(system, delta=opts.delta, n_max=opts.n_max,
                                      tuple_limit=max(opts.limit, 5),
                                      budget=opts.budget, progress=progress)
    return sj_scenario.emit_report(report, "machine"), (system, report)


def _op_rational(item: Item, inputs: tuple, progress=None):
    system, opts = sj_scenario.parse_scenario(inputs[0])
    try:
        tuples = sj_jumps.find_jump_tuples(system.seeds, opts.delta, opts.n_max,
                                           opts.limit, budget=opts.budget,
                                           progress=progress)
    except sj_errors.NoTupleFound:
        return NO_TUPLE, []
    verdicts = [sj_jumps.verify_tuple(t, system.seeds, opts.budget) for t in tuples]
    out = sj_scenario.emit_report(tuples, "machine") + b"".join(
        sj_scenario.emit_report(v, "machine") for v in verdicts)
    return out, verdicts


def _op_deep(item: Item, inputs: tuple, progress=None):
    system, _ = sj_scenario.parse_scenario(inputs[0])
    rows = []
    for k, seed in enumerate(system.seeds):
        mi = sj_iteration.mean_index(seed)
        angles = [seed.decomp.blocks[j].angle for j, _ in item.extra["quads"][k]]
        for m in item.extra["multipliers"]:
            rows.append([k, m,
                         sj_iteration.index_iterate(seed, m),
                         sj_iteration.nullity_iterate(seed, m),
                         sj_iteration.bott_gap(seed, m),
                         mi.floor_quotient(m, 1),
                         [x.floor_mul(m) for x in angles]])
    return json.dumps(rows, separators=(",", ":")).encode() + b"\n", rows


def _op_stored(item: Item, inputs: tuple, progress=None):
    system, opts = sj_scenario.parse_scenario(inputs[0])
    tuples = sj_scenario.parse_report(inputs[1])
    verdicts = [sj_jumps.verify_tuple(t, system.seeds, opts.budget) for t in tuples]
    return b"".join(sj_scenario.emit_report(v, "machine") for v in verdicts), verdicts


# -- independent checks -------------------------------------------------------------


def _all_passed(verdicts) -> None:
    for v in verdicts:
        if not v.passed:
            raise Mismatch("a returned jump tuple fails verify_tuple")


def _check_s3(item: Item, out: bytes, result) -> None:
    system, report = result
    doc = json.loads(out)
    if doc["status"] != "two_elliptic_irrational":
        raise Mismatch(f"status {doc['status']!r}")
    got = (doc["tuple_used"]["N"], doc["second_tuple"]["N"])
    if got != (S3_FIRST_N, S3_SECOND_N):
        raise Mismatch(f"tuples at N = {got}, expected {(S3_FIRST_N, S3_SECOND_N)}")
    _all_passed([sj_jumps.verify_tuple(t, system.seeds)
                 for t in (report.tuple_used, report.second_tuple)])


def _check_rational(item: Item, out: bytes, verdicts) -> None:
    _all_passed(verdicts)


def _check_deep(item: Item, out: bytes, rows) -> None:
    n = item.extra["n"]
    for k, m, _, nullity, _, _, floors in rows:
        if not 0 <= nullity <= 2 * (n - 1):
            raise Mismatch(f"nullity {nullity} outside [0, {2 * (n - 1)}]")
        want = [quad_floor_oracle(c, m) for _, c in item.extra["quads"][k]]
        if floors != want:
            raise Mismatch(f"floor(m*x) at m ~ 1e{len(str(m)) - 1} disagrees with isqrt oracle")


def _check_stored(item: Item, out: bytes, verdicts) -> None:
    if len(verdicts) != item.extra["tuples"]:
        raise Mismatch(f"{len(verdicts)} tuples parsed, {item.extra['tuples']} stored")
    _all_passed(verdicts)


# Why each workload is here is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload("s3_analyze", _s3_pool, _op_s3, _check_s3),
    Workload("rational_scan", _rational_pool, _op_rational, _check_rational),
    Workload("deep_iterate", _deep_pool, _op_deep, _check_deep),
    Workload("verify_stored", _stored_pool, _op_stored, _check_stored),
)}


@dataclass(frozen=True)
class Plan:
    """One run's inputs: pool items in seed order with their seed-laid-out bytes."""

    workload: Workload
    steps: tuple            # ((item, input bytes tuple), ...)
    golden: dict            # item key -> expected output digest


def plan(name: str, seed: int) -> Plan:
    """Inputs for one run.  Raises ValueError when the pool no longer matches
    the inputs the golden digests were made from."""
    w = WORKLOADS[name]
    golden = json.loads(GOLDEN_FILE.read_text())[name]
    pool = w.pool()
    expected = {}
    for item in pool:
        entry = golden.get(item.key)
        if entry is None or entry["input"] != input_digest(item):
            raise ValueError(f"{item.key}: input differs from the one in golden.json")
        expected[item.key] = entry["output"]
    rng = random.Random(f"{name}/{seed}")
    order = list(pool)
    rng.shuffle(order)
    steps = tuple((item, tuple(relayout(d, rng) for d in item.docs)) for item in order)
    return Plan(w, steps, expected)
