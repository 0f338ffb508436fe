"""Scenario files, report serialization and text rendering.

A scenario is a JSON document declaring a geodesic system and options::

    {
      "version": 1,
      "system": {"n": 3, "lambda": [9, 8], "pinching_asserted": true},
      "seeds": [
        {"i1": 2, "nu1": 2,
         "blocks": [{"r": {"quadratic": [-1, 1, 1, 2]}}, {"n1": [1, 0]}]}
      ],
      "options": {"delta": [1, 100], "n_max": 1000000, "limit": 3,
                  "m_max": 20, "budget": 64}
    }

Angles are ``{"rational": [p, q]}``, ``{"quadratic": [a, b, c, d]}``
(meaning (a + b*sqrt(d))/c) or ``{"decimal": "0.618...", "error": "1e-10"}``.
Blocks are ``{"n1": [lam, b]}``, ``{"r": <angle>}``,
``{"n2": {"angle": <angle>, "trivial": bool}}`` or ``{"hyp": {}}``.
Unknown keys are rejected everywhere.  Exact rationals serialize as
[numerator, denominator]; enclosures as string-encoded decimals, so
machine output round-trips losslessly and is byte-identical for
identical inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from .analysis import (AnalysisReport, CandidateRecord, GeodesicSystem,
                       PeakConstraintRecord, PinchRecord, ZeroEntry)
from .angles import (DEFAULT_BUDGET, Enclosure, ExactAngle, IrrationalAngle,
                     RationalAngle, _snap_outward, decimal_angle, quadratic_angle,
                     rational_angle)
from .errors import ScenarioError
from .iteration import IterationRow, MeanIndex, PathSeed
from .jumps import (AngleSide, ConditionCheck, DeltaReport, JumpTuple,
                    PathVerification, TupleVerification)
from .normal_forms import (Decomposition, HyperbolicBlock, N1Block, N2Block,
                           RotationBlock)


@dataclass(frozen=True)
class ScenarioOptions:
    delta: Fraction = Fraction(1, 1000)
    n_max: int = 10**6
    limit: int = 3
    m_max: int = 20
    budget: int = DEFAULT_BUDGET


# -- input parsing -----------------------------------------------------------


def _require_keys(obj: dict, required: tuple[str, ...], optional: tuple[str, ...],
                  where: str) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"{where}: missing required key '{key}'")
    for key in obj:
        if key not in required and key not in optional:
            raise ScenarioError(f"{where}: unknown key '{key}'")


def _parse_int(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    return value


def _parse_fraction(value: Any, where: str) -> Fraction:
    if isinstance(value, list) and len(value) == 2:
        den = _parse_int(value[1], where)
        if den == 0:
            raise ScenarioError(f"{where}: zero denominator")
        return Fraction(_parse_int(value[0], where), den)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ScenarioError(f"{where}: expected [numerator, denominator], got {value!r}")


def _fields(obj: Any, where: str, spec: tuple) -> list:
    """obj's values at spec's (key, type) pairs.  A missing or mistyped key
    is a one-line ScenarioError that names it."""
    if type(obj) is not dict:
        raise ScenarioError(f"{where}: expected an object, got {type(obj).__name__}")
    values = []
    for key, kind in spec:
        if key not in obj:
            raise ScenarioError(f"{where}: missing required key '{key}'")
        value = obj[key]
        if type(value) is not kind:
            raise ScenarioError(
                f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
        values.append(value)
    return values


def _ints(values: list, where: str) -> tuple[int, ...]:
    for i, v in enumerate(values):
        if type(v) is not int:
            raise ScenarioError(f"{where}[{i}]: expected int, got {type(v).__name__}")
    return tuple(values)


def parse_angle(obj: Any, where: str) -> ExactAngle:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: angle must be an object, got {obj!r}")
    try:
        if set(obj) == {"rational"}:
            pq = obj["rational"]
            if not (isinstance(pq, list) and len(pq) == 2):
                raise ScenarioError(f"{where}: 'rational' takes [p, q]")
            return rational_angle(_parse_int(pq[0], where), _parse_int(pq[1], where))
        if set(obj) == {"quadratic"}:
            co = obj["quadratic"]
            if not (isinstance(co, list) and len(co) == 4):
                raise ScenarioError(f"{where}: 'quadratic' takes [a, b, c, d]")
            return quadratic_angle(*(_parse_int(v, where) for v in co))
        if set(obj) == {"decimal", "error"}:
            return decimal_angle(str(obj["decimal"]), str(obj["error"]))
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(
        f"{where}: angle must be one of {{'rational'}}, {{'quadratic'}}, "
        f"{{'decimal', 'error'}}, got keys {sorted(obj)}")


def parse_block(obj: Any, where: str):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ScenarioError(f"{where}: block must be an object with one key")
    (key, value), = obj.items()
    try:
        if key == "n1":
            if not (isinstance(value, list) and len(value) == 2):
                raise ScenarioError(f"{where}: 'n1' takes [lam, b]")
            return N1Block(_parse_int(value[0], where), _parse_int(value[1], where))
        if key == "r":
            return RotationBlock(parse_angle(value, where))
        if key == "n2":
            _require_keys(value, ("angle", "trivial"), (), where)
            if not isinstance(value["trivial"], bool):
                raise ScenarioError(f"{where}: 'trivial' must be a boolean")
            return N2Block(parse_angle(value["angle"], where), value["trivial"])
        if key == "hyp":
            if value != {}:
                raise ScenarioError(f"{where}: 'hyp' takes an empty object")
            return HyperbolicBlock()
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    raise ScenarioError(f"{where}: unknown block kind '{key}'")


def parse_seed(obj: Any, n: int, where: str) -> PathSeed:
    _require_keys(obj, ("i1", "nu1", "blocks"), (), where)
    if not isinstance(obj["blocks"], list):
        raise ScenarioError(f"{where}: 'blocks' must be an array")
    blocks = [parse_block(b, f"{where}.blocks[{j}]") for j, b in enumerate(obj["blocks"])]
    try:
        decomp = Decomposition(blocks, n)
        return PathSeed(n, _parse_int(obj["i1"], where), _parse_int(obj["nu1"], where), decomp)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def parse_scenario(data) -> tuple[GeodesicSystem, ScenarioOptions]:
    """Parse and fully validate a scenario document."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ScenarioError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    _require_keys(doc, ("version", "system", "seeds"), ("options",), "scenario")
    if doc["version"] != 1:
        raise ScenarioError(f"scenario: unsupported version {doc['version']!r}")
    sysobj = doc["system"]
    _require_keys(sysobj, ("n",), ("lambda", "pinching_asserted"), "system")
    n = _parse_int(sysobj["n"], "system.n")
    lam = _parse_fraction(sysobj.get("lambda", 1), "system.lambda")
    pinching = sysobj.get("pinching_asserted", True)
    if not isinstance(pinching, bool):
        raise ScenarioError("system.pinching_asserted must be a boolean")
    if not isinstance(doc["seeds"], list) or not doc["seeds"]:
        raise ScenarioError("scenario: 'seeds' must be a non-empty array")
    seeds = tuple(parse_seed(s, n, f"seeds[{k}]") for k, s in enumerate(doc["seeds"]))
    options = _parse_options(doc.get("options", {}))
    try:
        system = GeodesicSystem(n, lam, seeds, pinching)
    except ValueError as exc:
        raise ScenarioError(f"system: {exc}") from exc
    return system, options


def _parse_options(obj: Any) -> ScenarioOptions:
    _require_keys(obj, (), ("delta", "n_max", "limit", "m_max", "budget"), "options")
    kwargs = {}
    if "delta" in obj:
        kwargs["delta"] = _parse_fraction(obj["delta"], "options.delta")
    for key in ("n_max", "limit", "m_max", "budget"):
        if key in obj:
            kwargs[key] = _parse_int(obj[key], f"options.{key}")
    if kwargs.get("budget", 0) < 0:
        raise ScenarioError(
            f"options.budget: budget must be a non-negative integer, got {kwargs['budget']}")
    return ScenarioOptions(**kwargs)


# -- value encoders ----------------------------------------------------------


def frac_json(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def _decimal_str(f: Fraction) -> str:
    """Exact decimal expansion; the fraction must have a 10-power-friendly
    denominator (all emitted enclosures do by construction)."""
    den = f.denominator
    k = 0
    while den % 2 == 0:
        den //= 2
        k += 1
    j = 0
    while den % 5 == 0:
        den //= 5
        j += 1
    if den != 1:
        raise ValueError(f"{f} has no finite decimal expansion")
    digits = max(k, j)
    scaled = f * 10**digits
    sign = "-" if scaled < 0 else ""
    whole, frac_part = divmod(abs(scaled.numerator), 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{str(frac_part).zfill(digits)}"


def enclosure_json(e: Enclosure) -> dict:
    mid = (e.lo + e.hi) / 2
    err = (e.hi - e.lo) / 2
    return {"approx": _decimal_str(mid), "error": _decimal_str(err)}


def _mean_index_enclosure(mi: MeanIndex) -> dict:
    """The mean index within 1e-12, snapped outward to exact 14-place decimals."""
    lo, hi = mi.enclosure(Fraction(1, 10**12))
    return enclosure_json(Enclosure(*_snap_outward(lo, hi, Fraction(1, 10**14))))


def enclosure_from_json(obj) -> Enclosure:
    mid = Fraction(obj["approx"])
    err = Fraction(obj["error"])
    return Enclosure(mid - err, mid + err)


def angle_json(a: ExactAngle) -> dict:
    if isinstance(a, RationalAngle):
        return {"rational": [a.value.numerator, a.value.denominator]}
    assert isinstance(a, IrrationalAngle)
    if a.source and a.source[0] == "quadratic":
        return {"quadratic": list(a.source[1])}
    if a.source and a.source[0] == "decimal":
        return {"decimal": a.source[1][0], "error": a.source[1][1]}
    lo, hi = a.enclosure()
    return {"decimal": str(float((lo + hi) / 2)), "error": str(float((hi - lo) / 2))}


def block_json(blk) -> dict:
    if isinstance(blk, N1Block):
        return {"n1": [blk.lam, blk.b]}
    if isinstance(blk, HyperbolicBlock):
        return {"hyp": {}}
    if isinstance(blk, RotationBlock):
        return {"r": angle_json(blk.angle)}
    return {"n2": {"angle": angle_json(blk.angle), "trivial": blk.trivial}}


def seed_json(s: PathSeed) -> dict:
    return {"i1": s.i1, "nu1": s.nu1, "blocks": [block_json(b) for b in s.decomp.blocks]}


def scenario_json(system: GeodesicSystem, options: ScenarioOptions) -> dict:
    return {
        "version": 1,
        "system": {"n": system.n,
                   "lambda": frac_json(Fraction(system.reversibility_lambda)),
                   "pinching_asserted": system.pinching_asserted},
        "seeds": [seed_json(s) for s in system.seeds],
        "options": {"delta": frac_json(options.delta), "n_max": options.n_max,
                    "limit": options.limit, "m_max": options.m_max,
                    "budget": options.budget},
    }


# -- report encoders ---------------------------------------------------------


def _cond_json(c: ConditionCheck) -> dict:
    return {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "relation": c.relation,
            "passed": c.passed}


def _cond_from(obj, where="condition") -> ConditionCheck:
    return ConditionCheck(*_fields(obj, where, _COND))


def _path_json(pv: PathVerification) -> dict:
    return {"seed_index": pv.seed_index,
            "conditions": [_cond_json(c) for c in pv.conditions],
            "angle_sides": [{"kind": s.kind, "index": s.index,
                             "rational": s.rational, "side": s.side}
                            for s in pv.angle_sides],
            "passed": pv.passed}


def _path_from(obj, where="path") -> PathVerification:
    k, conds, sides = _fields(obj, where, _PATH)
    return PathVerification(
        k, tuple(_cond_from(c, f"{where}.conditions[{i}]") for i, c in enumerate(conds)),
        tuple(AngleSide(*_fields(a, f"{where}.angle_sides[{i}]", _SIDE))
              for i, a in enumerate(sides)))


def tuple_json(t: JumpTuple) -> dict:
    return {"N": t.N, "m": list(t.m), "chi": list(t.chi), "M": t.M_period,
            "delta": frac_json(t.delta),
            "per_path": [_path_json(pv) for pv in t.per_path]}


def tuple_from_json(obj, where="tuple") -> JumpTuple:
    N, m, chi, M, delta, paths = _fields(obj, where, _TUPLE)
    return JumpTuple(N, _ints(m, f"{where}.m"), _ints(chi, f"{where}.chi"), M,
                     _parse_fraction(delta, f"{where}.delta"),
                     tuple(_path_from(p, f"{where}.per_path[{i}]")
                           for i, p in enumerate(paths)))


_COND = (("name", str), ("lhs", int), ("rhs", int), ("relation", str))
_SIDE = (("kind", str), ("index", int), ("rational", bool), ("side", str))
_PATH = (("seed_index", int), ("conditions", list), ("angle_sides", list))
_TUPLE = (("N", int), ("m", list), ("chi", list), ("M", int), ("delta", list),
          ("per_path", list))


def _delta_json(d: DeltaReport) -> dict:
    return {"delta_k": d.delta_k, "delta_k_prime": d.delta_k_prime,
            "c_k": d.c_k, "s_plus": d.s_plus}


def _constraints_json(c: PeakConstraintRecord) -> dict:
    return {"balance": _cond_json(c.balance), "census": _cond_json(c.census),
            "residual": c.residual,
            "zero_set": [{"name": z.name, "value": z.value} for z in c.zero_set],
            "elliptic": c.elliptic, "elliptic_height": c.elliptic_height,
            "irrational_rotation_count": c.irrational_rotation_count,
            "rational_geodesic_flag": c.rational_geodesic_flag}


def _constraints_from(obj) -> PeakConstraintRecord:
    return PeakConstraintRecord(
        _cond_from(obj["balance"]), _cond_from(obj["census"]), obj["residual"],
        tuple(ZeroEntry(z["name"], z["value"]) for z in obj["zero_set"]),
        obj["elliptic"], obj["elliptic_height"],
        obj["irrational_rotation_count"], obj["rational_geodesic_flag"])


def _candidate_json(c: CandidateRecord) -> dict:
    return {"seed_index": c.seed_index, "tuple_N": c.tuple_N,
            "delta_report": _delta_json(c.delta_report),
            "constraints": _constraints_json(c.constraints)}


def _candidate_from(obj) -> CandidateRecord:
    d = obj["delta_report"]
    return CandidateRecord(
        obj["seed_index"], obj["tuple_N"],
        DeltaReport(d["delta_k"], d["delta_k_prime"], d["c_k"], d["s_plus"]),
        _constraints_from(obj["constraints"]))


def report_json(report) -> dict:
    """Machine encoding of any report object."""
    if isinstance(report, list) and all(isinstance(r, IterationRow) for r in report):
        return {"type": "iteration_table",
                "rows": [[r.m, r.index, r.nullity] for r in report]}
    if isinstance(report, MeanIndex):
        if report.is_exact:
            return {"type": "mean_index", "exact": frac_json(report.exact())}
        return {"type": "mean_index", "enclosure": _mean_index_enclosure(report)}
    if isinstance(report, list) and all(isinstance(t, JumpTuple) for t in report):
        return {"type": "jump_tuples", "tuples": [tuple_json(t) for t in report]}
    if isinstance(report, TupleVerification):
        return {"type": "tuple_verification", "passed": report.passed,
                "per_path": [_path_json(p) for p in report.per_path]}
    if isinstance(report, AnalysisReport):
        return {
            "type": "analysis_report", "n": report.n, "status": report.status,
            "flag": report.flag, "betti": frac_json(report.betti),
            "pinching": [{"seed_index": p.seed_index,
                          "initial_index_ok": p.initial_index_ok,
                          "mean_index_ok": p.mean_index_ok}
                         for p in report.pinching],
            "tuple_used": tuple_json(report.tuple_used) if report.tuple_used else None,
            "candidates": list(report.candidates),
            "first": _candidate_json(report.first) if report.first else None,
            "second_tuple": (tuple_json(report.second_tuple)
                             if report.second_tuple else None),
            "second": _candidate_json(report.second) if report.second else None,
            "first_bound_at_second": (_cond_json(report.first_bound_at_second)
                                      if report.first_bound_at_second else None),
        }
    if isinstance(report, np.ndarray):
        return {"type": "realized_matrix", "dim": report.shape[0],
                "rows": [[format(v, ".17g") for v in row] for row in report]}
    raise TypeError(f"no machine encoding for {type(report).__name__}")


def parse_report(data):
    """Inverse of emit_report for the machine format."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    doc = json.loads(data)
    kind = doc.get("type")
    if kind == "iteration_table":
        return [IterationRow(*row) for row in doc["rows"]]
    if kind == "mean_index":
        if "exact" in doc:
            return _parse_fraction(doc["exact"], "mean_index.exact")
        return enclosure_from_json(doc["enclosure"])
    if kind == "jump_tuples":
        tuples, = _fields(doc, "jump_tuples", (("tuples", list),))
        return [tuple_from_json(t, f"tuples[{i}]") for i, t in enumerate(tuples)]
    if kind == "tuple_verification":
        return TupleVerification(tuple(_path_from(p) for p in doc["per_path"]))
    if kind == "analysis_report":
        return AnalysisReport(
            n=doc["n"], status=doc["status"], flag=doc["flag"],
            betti=_parse_fraction(doc["betti"], "betti"),
            pinching=tuple(PinchRecord(p["seed_index"], p["initial_index_ok"],
                                       p["mean_index_ok"]) for p in doc["pinching"]),
            tuple_used=tuple_from_json(doc["tuple_used"]) if doc["tuple_used"] else None,
            candidates=tuple(doc["candidates"]),
            first=_candidate_from(doc["first"]) if doc["first"] else None,
            second_tuple=(tuple_from_json(doc["second_tuple"])
                          if doc["second_tuple"] else None),
            second=_candidate_from(doc["second"]) if doc["second"] else None,
            first_bound_at_second=(_cond_from(doc["first_bound_at_second"])
                                   if doc["first_bound_at_second"] else None))
    if kind == "realized_matrix":
        return np.array([[float(v) for v in row] for row in doc["rows"]])
    raise ScenarioError(f"unknown report type {kind!r}")


# -- emission ----------------------------------------------------------------


def emit_report(report, fmt: str = "text") -> bytes:
    """Render a report. ``machine`` is lossless JSON; ``text`` shows every
    evaluated relation with both sides."""
    if fmt == "machine":
        doc = report_json(report)
        return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    return _render_text(report).encode()


def _render_text(report) -> str:
    if isinstance(report, list) and all(isinstance(r, IterationRow) for r in report):
        lines = [f"{'m':>8} {'index':>10} {'nullity':>8}"]
        lines += [f"{r.m:>8} {r.index:>10} {r.nullity:>8}" for r in report]
        return "\n".join(lines) + "\n"
    if isinstance(report, MeanIndex):
        if report.is_exact:
            v = report.exact()
            return f"mean index = {v} (exact, ~{float(v):.9f})\n"
        j = _mean_index_enclosure(report)
        return f"mean index in [{j['approx']} +/- {j['error']}]\n"
    if isinstance(report, list) and all(isinstance(t, JumpTuple) for t in report):
        return "".join(_render_tuple(t) for t in report)
    if isinstance(report, TupleVerification):
        out = [f"verification: {'PASS' if report.passed else 'FAIL'}"]
        for pv in report.per_path:
            out.append(_render_path(pv))
        return "\n".join(out) + "\n"
    if isinstance(report, AnalysisReport):
        return _render_analysis(report)
    if isinstance(report, np.ndarray):
        lines = ["  ".join(f"{v: .12f}" for v in row) for row in report]
        return "\n".join(lines) + "\n"
    raise TypeError(f"no text rendering for {type(report).__name__}")


def _render_tuple(t: JumpTuple) -> str:
    head = (f"tuple N={t.N} m={list(t.m)} chi={list(t.chi)} "
            f"M={t.M_period} delta={t.delta}\n")
    return head + "".join(_render_path(pv) + "\n" for pv in t.per_path)


def _render_path(pv: PathVerification) -> str:
    lines = [f"  path {pv.seed_index}: {'PASS' if pv.passed else 'FAIL'}"]
    for c in pv.conditions:
        mark = "ok" if c.passed else "FAIL"
        lines.append(f"    {c.name:<34} {c.lhs} {c.relation} {c.rhs}  [{mark}]")
    sides = ", ".join(f"{s.kind}[{s.index}]={s.side}" for s in pv.angle_sides) or "none"
    lines.append(f"    angle sides: {sides}  [{'ok' if pv.closeness_ok else 'FAIL'}]")
    return "\n".join(lines)


def _render_candidate(c: CandidateRecord, label: str) -> str:
    k = c.constraints
    lines = [
        f"{label}: seed {c.seed_index} at N={c.tuple_N}",
        f"  near-integer count = {c.delta_report.delta_k}, complement = "
        f"{c.delta_report.delta_k_prime}, C = {c.delta_report.c_k}, "
        f"S+ = {c.delta_report.s_plus}",
        f"  {k.balance.name}: {k.balance.lhs} == {k.balance.rhs}  "
        f"[{'ok' if k.balance.passed else 'FAIL'}]",
        f"  {k.census.name}: {k.census.lhs} == {k.census.rhs}  "
        f"[{'ok' if k.census.passed else 'FAIL'}]",
        f"  residual = {k.residual}",
        "  zero set: " + ", ".join(f"{z.name}={z.value}" for z in k.zero_set),
        f"  elliptic: {k.elliptic} (height {k.elliptic_height}), "
        f"irrational rotations: {k.irrational_rotation_count}",
    ]
    if k.rational_geodesic_flag:
        lines.append("  flag: every rotation angle rational (rational-geodesic branch)")
    return "\n".join(lines) + "\n"


def _render_analysis(r: AnalysisReport) -> str:
    out = [f"analysis on S^{r.n}: {r.status}"]
    if r.flag:
        out.append(f"flag: {r.flag} (alternating Morse sum constant per 2N: {r.betti})")
    for p in r.pinching:
        out.append(f"pinching seed {p.seed_index}: initial index "
                   f"{'ok' if p.initial_index_ok else 'FAIL'}, mean index "
                   f"{'ok' if p.mean_index_ok else 'FAIL'}")
    text = "\n".join(out) + "\n"
    if r.tuple_used:
        text += "first " + _render_tuple(r.tuple_used)
        text += f"peak candidates: {list(r.candidates)}\n"
    if r.first:
        text += _render_candidate(r.first, "first geodesic")
    if r.second_tuple:
        text += "complementary " + _render_tuple(r.second_tuple)
    if r.first_bound_at_second:
        c = r.first_bound_at_second
        text += (f"{c.name}: {c.lhs} {c.relation} {c.rhs}  "
                 f"[{'ok' if c.passed else 'FAIL'}]\n")
    if r.second:
        text += _render_candidate(r.second, "second geodesic")
    return text
