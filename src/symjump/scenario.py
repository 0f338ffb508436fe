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
Unknown keys are rejected everywhere in a scenario.

Reports are compact sorted-key JSON objects tagged with a ``"type"``,
byte-identical for identical inputs.  One codec, compiled once per
record dataclass from its fields and type hints, carries every record:
int, str and bool as themselves, Fraction as [numerator, denominator],
Optional as null, tuples as arrays, records as objects keyed by field
name.  ``_RENAME`` maps a field to another wire key (``M_period`` is
``"M"``); ``_DERIVED`` lists the properties emitted beside the fields
(``passed``), which decoding ignores like any key it does not read.
Iteration rows, mean-index enclosures (exact decimal strings) and
realized matrices have small hooks of their own.  ``parse_report``
type-checks every value and names the path to the first bad one in a
one-line ScenarioError, e.g.
``tuples[0].per_path[1].conditions[2]: missing required key 'lhs'``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Union, get_args, get_origin, get_type_hints

from .analysis import (AnalysisReport, CandidateRecord, GeodesicSystem,
                       PeakConstraintRecord, PinchRecord, ZeroEntry)
from .angles import (DEFAULT_BUDGET, Enclosure, ExactAngle, _snap_outward,
                     decimal_angle, quadratic_angle, rational_angle)
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
    return _decoded(_DECODE[int], value, where)


def _parse_fraction(value: Any, where: str) -> Fraction:
    return Fraction(value) if type(value) is int else _decoded(_frac_from, value, where)


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
    doc = _document(data)
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


def _document(data) -> Any:
    """The JSON document in data (str or UTF-8 bytes); a syntax error
    names its line and column."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(exc.msg, line=exc.lineno, column=exc.colno) from exc


# -- report codec ------------------------------------------------------------

_RENAME = {"M_period": "M"}
_DERIVED = {ConditionCheck: ("passed",), PathVerification: ("passed",),
            TupleVerification: ("passed",)}


class _Bad(Exception):
    """A decode failure; each enclosing array or object prepends its step
    to ``path`` as the error unwinds."""
    path = ""


def _expected(what: str, value) -> _Bad:
    return _Bad(f"expected {what}, got {type(value).__name__}")


def _decoded(decode, doc, where: str = ""):
    """decode(doc), with a failure raised as a ScenarioError naming its path."""
    try:
        return decode(doc)
    except _Bad as exc:
        raise ScenarioError(f"{(where + exc.path).lstrip('.') or 'report'}: {exc}") from None


def _frac_from(v) -> Fraction:
    if type(v) is not list or len(v) != 2 or type(v[0]) is not int or type(v[1]) is not int:
        raise _expected("[numerator, denominator]", v)
    if v[1] == 0:
        raise _Bad("zero denominator")
    return Fraction(v[0], v[1])


def _scalar(kind: type):
    def decode(v):
        if type(v) is not kind:
            raise _expected(kind.__name__, v)
        return v
    return decode


def _array(inner):
    def decode(v):
        if type(v) is not list:
            raise _expected("list", v)
        out = []
        try:
            for x in v:
                out.append(inner(x))
        except _Bad as exc:
            exc.path = f"[{len(out)}]{exc.path}"
            raise
        return tuple(out)
    return decode


def _object(spec, build=lambda v: v):
    """Decoder of a JSON object: build(*values read at spec's (key, decoder)
    pairs).  Keys outside spec are ignored."""
    def decode(obj):
        if type(obj) is not dict:
            raise _expected("an object", obj)
        args = []
        for key, dec in spec:
            try:
                args.append(dec(obj[key]))
            except KeyError:
                raise _Bad(f"missing required key '{key}'") from None
            except _Bad as exc:
                exc.path = f".{key}{exc.path}"
                raise
        return build(*args)
    return decode


# By type hint: an encoder to the JSON value (None: the value is its own
# JSON) and a type-checking decoder.  Records join in dependency order.
_ENCODE: dict = {int: None, str: None, bool: None,
                 Fraction: lambda f: [f.numerator, f.denominator]}
_DECODE: dict = {int: _scalar(int), str: _scalar(str), bool: _scalar(bool),
                 Fraction: _frac_from}


def _encoder(hint):
    if hint in _ENCODE:
        return _ENCODE[hint]
    inner = _encoder(get_args(hint)[0])
    if get_origin(hint) is Union:        # Optional[X]
        return None if inner is None else (lambda v: None if v is None else inner(v))
    return list if inner is None else (lambda v: [inner(x) for x in v])


def _decoder(hint):
    if hint in _DECODE:
        return _DECODE[hint]
    inner = _decoder(get_args(hint)[0])
    if get_origin(hint) is Union:        # Optional[X]
        return lambda v: None if v is None else inner(v)
    return _array(inner)                 # tuple[X, ...]


def _record_codec(cls):
    hints = get_type_hints(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    keys = [_RENAME.get(name, name) for name in names]
    fields = [(name, key, _encoder(hints[name])) for name, key in zip(names, keys)]
    fields += [(name, name, None) for name in _DERIVED.get(cls, ())]

    def encode(obj):
        out = {}
        for name, key, enc in fields:
            v = getattr(obj, name)
            out[key] = v if enc is None else enc(v)
        return out
    return encode, _object([(key, _decoder(hints[name])) for name, key in zip(names, keys)],
                           cls)


for _cls in (ConditionCheck, AngleSide, PathVerification, JumpTuple, TupleVerification,
             DeltaReport, ZeroEntry, PeakConstraintRecord, CandidateRecord, PinchRecord,
             AnalysisReport):
    _ENCODE[_cls], _DECODE[_cls] = _record_codec(_cls)


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


def _enclosure_from(approx: str, error: str) -> Enclosure:
    try:
        mid, err = Fraction(approx), Fraction(error)
    except (ValueError, ZeroDivisionError) as exc:
        raise _Bad(str(exc)) from None
    if err < 0:
        raise _Bad(f"negative error {error!r}")
    return Enclosure(mid - err, mid + err)


def _row_from(v) -> IterationRow:
    if type(v) is not list or len(v) != 3 or any(type(x) is not int for x in v):
        raise _expected("[m, index, nullity]", v)
    return IterationRow(*v)


def _is_matrix(report) -> bool:
    # an ndarray exists only once numpy is imported, so never import it here
    np = sys.modules.get("numpy")
    return np is not None and isinstance(report, np.ndarray)


def _matrix_from(v):
    import numpy as np
    try:
        return np.array([[float(x) for x in row] for row in _STRING_ROWS(v)])
    except ValueError as exc:
        raise _Bad(str(exc)) from None


def report_json(report) -> dict:
    """Machine encoding of any report object."""
    if isinstance(report, list) and all(isinstance(r, IterationRow) for r in report):
        return {"type": "iteration_table", "rows": [[r.m, r.index, r.nullity] for r in report]}
    if isinstance(report, MeanIndex):
        if report.is_exact:
            return {"type": "mean_index", "exact": _ENCODE[Fraction](report.exact())}
        return {"type": "mean_index", "enclosure": _mean_index_enclosure(report)}
    if isinstance(report, list) and all(isinstance(t, JumpTuple) for t in report):
        return {"type": "jump_tuples", "tuples": [_ENCODE[JumpTuple](t) for t in report]}
    if isinstance(report, TupleVerification):
        return {"type": "tuple_verification", **_ENCODE[TupleVerification](report)}
    if isinstance(report, AnalysisReport):
        return {"type": "analysis_report", **_ENCODE[AnalysisReport](report)}
    if _is_matrix(report):
        return {"type": "realized_matrix", "dim": report.shape[0],
                "rows": [[format(v, ".17g") for v in row] for row in report]}
    raise TypeError(f"no machine encoding for {type(report).__name__}")


_STR = _DECODE[str]
_STRING_ROWS = _array(_array(_STR))
_EXACT = _object((("exact", _frac_from),))
_ENCLOSED = _object((("enclosure", _object((("approx", _STR), ("error", _STR)),
                                           _enclosure_from)),))
_REPORTS = {
    "iteration_table": _object((("rows", _array(_row_from)),), list),
    "mean_index": lambda doc: (_EXACT if "exact" in doc else _ENCLOSED)(doc),
    "jump_tuples": _object((("tuples", _decoder(tuple[JumpTuple, ...])),), list),
    "tuple_verification": _DECODE[TupleVerification],
    "analysis_report": _DECODE[AnalysisReport],
    "realized_matrix": _object((("rows", _matrix_from),)),
}


def _report(doc):
    if type(doc) is not dict:
        raise _expected("an object", doc)
    kind = doc.get("type")
    if type(kind) is not str or kind not in _REPORTS:
        raise _Bad(f"unknown report type {kind!r}")
    return _REPORTS[kind](doc)


def parse_report(data):
    """Inverse of emit_report for the machine format.  Malformed input
    raises ScenarioError naming the path to the first bad value."""
    return _decoded(_report, _document(data))


def parse_tuples(data) -> list[JumpTuple]:
    """The jump tuples of a ``jump_tuples`` report, or of one bare tuple
    object, as ``verify --tuple`` reads them."""
    doc = _document(data)
    if type(doc) is dict and doc.get("type") == "jump_tuples":
        return _decoded(_report, doc)
    if type(doc) is dict and "N" in doc:
        return [_decoded(_DECODE[JumpTuple], doc, "tuple")]
    raise ScenarioError("tuple file must be a jump_tuples report or one tuple object")


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
    if _is_matrix(report):
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
