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
Reports are compact sorted-key JSON objects tagged with a ``"type"``,
byte-identical for identical inputs.

Scenarios and reports share one codec of small decoder combinators.
Report records are compiled once per dataclass from its fields and type
hints: int, str and bool as themselves, Fraction as [numerator,
denominator], Optional as null, tuples as arrays, records as objects
keyed by field name (``_RENAME`` maps ``M_period`` to ``"M"``;
``_DERIVED`` adds ``passed``, which decoding ignores like any key it
does not read).  Scenario objects are closed, rejecting unknown keys,
and angles and blocks are variants tagged by their key.  Decoding
type-checks every value and names the path to the first bad one in a
one-line ScenarioError, e.g.
``seeds[1].blocks[1].n1: expected [lam, b], got list`` or
``tuples[0].per_path[1].conditions[2]: missing required key 'lhs'``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import MISSING, dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Iterable, Iterator, Union, get_args, get_origin, get_type_hints

from .analysis import (AnalysisReport, CandidateRecord, GeodesicSystem,
                       PeakConstraintRecord, PinchRecord, ZeroEntry)
from .angles import decimal_angle, quadratic_angle, rational_angle
from .errors import ScenarioError
from .iteration import IterationRow, MeanIndex, PathSeed
from .jumps import (AngleSide, ConditionCheck, DeltaReport, JumpTuple,
                    PathVerification, TupleVerification)
from .normal_forms import (Decomposition, HyperbolicBlock, Matrix, N1Block, N2Block,
                           RotationBlock)


@dataclass(frozen=True)
class ScenarioOptions:
    delta: Fraction = Fraction(1, 1000)
    n_max: int = 10**6
    limit: int = 3
    m_max: int = 20
    # accepted and ignored, so that every scenario file that states it parses
    budget: int = 64

    def __post_init__(self):
        if self.budget < 0:
            raise ValueError(f"budget must be a non-negative integer, got {self.budget}")


def _document(data) -> object:
    """The JSON document in data (str or UTF-8 bytes); a syntax error
    names its line and column."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(exc.msg, line=exc.lineno, column=exc.colno) from exc


# -- codec -------------------------------------------------------------------


class _Bad(Exception):
    """A decode failure; each enclosing array or object prepends its step
    to ``path`` as the error unwinds."""
    path = ""


def _expected(what: str, value) -> _Bad:
    return _Bad(f"expected {what}, got {type(value).__name__}")


def _decoded(decode, doc, where: str = "", root: str = "report"):
    """decode(doc), with a failure raised as a ScenarioError naming its
    path below where, or root for a failure of doc itself."""
    try:
        return decode(doc)
    except _Bad as exc:
        raise ScenarioError(f"{(where + exc.path).lstrip('.') or root}: {exc}") from None


def _scalar(kind: type):
    def decode(v):
        if type(v) is not kind:
            raise _expected(kind.__name__, v)
        return v
    return decode


def _ints(*names: str):
    """Decoder of an array of len(names) ints, e.g. [lam, b]."""
    what, ints = f"[{', '.join(names)}]", [int] * len(names)

    def decode(v):
        if type(v) is not list or list(map(type, v)) != ints:
            raise _expected(what, v)
        return v
    return decode


_PQ = _ints("numerator", "denominator")


def _frac_from(v) -> Fraction:
    p, q = _PQ(v)
    if q == 0:
        raise _Bad("zero denominator")
    return Fraction(p, q)


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


def _object(spec, build=lambda v: v, closed: bool = False):
    """Decoder of a JSON object: build(*values read at spec's entries).
    An entry (key, decoder) is required; (key, decoder, default) may be
    absent.  Keys outside spec are ignored, or rejected when closed.  A
    ValueError from build is a failure of the object itself."""
    entries = [(key, dec, default[0] if default else MISSING)
               for key, dec, *default in spec]
    known = frozenset(key for key, _, _ in entries)

    def decode(obj):
        if type(obj) is not dict:
            raise _expected("an object", obj)
        if closed and not known.issuperset(obj):
            raise _Bad(f"unknown key '{next(key for key in obj if key not in known)}'")
        args = []
        for key, dec, default in entries:
            try:
                v = obj[key]
            except KeyError:
                if default is MISSING:
                    raise _Bad(f"missing required key '{key}'") from None
                args.append(default)
                continue
            try:
                args.append(dec(v))
            except _Bad as exc:
                exc.path = f".{key}{exc.path}"
                raise
        try:
            return build(*args)
        except (ValueError, ZeroDivisionError) as exc:
            raise _Bad(str(exc)) from None
    return decode


def _variant(what: str, cases: dict):
    """Decoder of an object tagged by the one key of cases it holds;
    cases[tag] decodes the whole object."""
    def decode(obj):
        if type(obj) is not dict:
            raise _expected("an object", obj)
        tags = [key for key in obj if key in cases]
        if len(tags) != 1:
            raise _Bad(f"{what} takes one of the keys {', '.join(cases)}, got {sorted(obj)}")
        return cases[tags[0]](obj)
    return decode


def _tagged(tag: str, decoder, build=lambda v: v):
    """Decoder of the one-key object {tag: value}: build(decoder(value))."""
    return _object(((tag, decoder),), build, closed=True)


_RENAME = {"M_period": "M"}
_DERIVED = {ConditionCheck: ("passed",), PathVerification: ("passed",),
            TupleVerification: ("passed",)}

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

_INT, _STR, _BOOL = _DECODE[int], _DECODE[str], _DECODE[bool]


# -- scenarios ---------------------------------------------------------------


def _ratio(v) -> Fraction:
    """A scenario rational: an int or [numerator, denominator]."""
    return Fraction(v) if type(v) is int else _frac_from(v)


_ANGLE = _variant("angle", {
    "rational": _tagged("rational", _frac_from, rational_angle),
    "quadratic": _tagged("quadratic", _ints("a", "b", "c", "d"),
                         lambda v: quadratic_angle(*v)),
    "decimal": _object((("decimal", _STR), ("error", _STR)), decimal_angle, closed=True),
})

_BLOCK = _variant("block", {
    "n1": _tagged("n1", _ints("lam", "b"), lambda v: N1Block(*v)),
    "r": _tagged("r", _ANGLE, RotationBlock),
    "n2": _tagged("n2", _object((("angle", _ANGLE), ("trivial", _BOOL)), N2Block,
                                closed=True)),
    "hyp": _tagged("hyp", _object((), HyperbolicBlock, closed=True)),
})


def _seed(i1: int, nu1: int, blocks: tuple) -> PathSeed:
    seed = PathSeed(i1, Decomposition(blocks))  # n from the census; GeodesicSystem checks it
    if nu1 != seed.nu1:
        raise ValueError(f"initial nullity must equal the 1-eigenvalue kernel of the endpoint: "
                         f"expected {seed.nu1}, got {nu1}")
    return seed


def _scenario(version: int, system: tuple, seeds: tuple, options: ScenarioOptions):
    if version != 1:
        raise ValueError(f"unsupported version {version!r}")
    n, lam, pinching = system
    return GeodesicSystem(n, lam, seeds, pinching), options


_SCENARIO = _object((
    ("version", _INT),
    ("system", _object((("n", _INT), ("lambda", _ratio, Fraction(1)),
                        ("pinching_asserted", _BOOL, True)), lambda *v: v, closed=True)),
    ("seeds", _array(_object((("i1", _INT), ("nu1", _INT), ("blocks", _array(_BLOCK))),
                             _seed, closed=True))),
    ("options", _object([(f.name, _ratio if isinstance(f.default, Fraction) else _INT,
                          f.default) for f in dataclasses.fields(ScenarioOptions)],
                        ScenarioOptions, closed=True), ScenarioOptions()),
), _scenario, closed=True)


def parse_scenario(data) -> tuple[GeodesicSystem, ScenarioOptions]:
    """Parse and fully validate a scenario document."""
    return _decoded(_SCENARIO, _document(data), root="scenario")


# -- reports -----------------------------------------------------------------


def _decimal_str(f: Fraction) -> str:
    """Exact decimal expansion in the fewest digits; the denominator must
    divide a power of 10 (all emitted enclosures do by construction)."""
    digits = f.denominator.bit_length()  # 2**a * 5**b divides 10**digits
    scaled = f * 10**digits
    if scaled.denominator != 1:
        raise ValueError(f"{f} has no finite decimal expansion")
    whole, frac_part = divmod(abs(scaled.numerator), 10**digits)
    sign = "-" if scaled < 0 else ""
    return f"{sign}{whole}.{str(frac_part).zfill(digits)}".rstrip("0").rstrip(".")


def _mean_index_enclosure(mi: MeanIndex) -> dict:
    """The mean index within 1e-12, snapped outward to exact 14-place decimals."""
    lo, hi = mi.enclosure(Fraction(1, 10**12))
    lo, hi = Fraction(floor(lo * 10**14), 10**14), Fraction(ceil(hi * 10**14), 10**14)
    return {"approx": _decimal_str((lo + hi) / 2), "error": _decimal_str((hi - lo) / 2)}


def _enclosure_from(approx: str, error: str) -> tuple[Fraction, Fraction]:
    mid, err = Fraction(approx), Fraction(error)
    if err < 0:
        raise ValueError(f"negative error {error!r}")
    return mid - err, mid + err


_EXACT = _object((("exact", _frac_from),))
_ENCLOSED = _object((("enclosure", _object((("approx", _STR), ("error", _STR)),
                                           _enclosure_from)),))


def _matrix_from(v) -> Matrix:
    try:
        m = Matrix(tuple(map(float, row)) for row in _array(_array(_STR))(v))
    except ValueError as exc:
        raise _Bad(str(exc)) from None
    for i, row in enumerate(m):
        if len(row) != len(m[0]):
            exc = _Bad(f"expected {len(m[0])} entries, got {len(row)}")
            exc.path = f"[{i}]"
            raise exc
    return m


_TUPLES = _decoder(tuple[JumpTuple, ...])


def _some(decode, what: str):
    """``decode`` of a report's list, refused when empty: a scan that
    returns finds a tuple, and an iteration table has m_max >= 1 rows."""
    def some(v):
        items = decode(v)
        if not items:
            raise _Bad(f"expected at least one {what}, got none")
        return items
    return some


def _wire_type(report) -> str:
    """The ``"type"`` tag of a report object."""
    if isinstance(report, list) and report:  # an empty list is no report
        for cls, kind in ((IterationRow, "iteration_table"), (JumpTuple, "jump_tuples")):
            if all(isinstance(x, cls) for x in report):
                return kind
    for cls, kind in ((MeanIndex, "mean_index"), (TupleVerification, "tuple_verification"),
                      (AnalysisReport, "analysis_report"), (Matrix, "realized_matrix")):
        if isinstance(report, cls):
            return kind
    raise TypeError(f"not a report: {type(report).__name__}")


# -- text rendering ----------------------------------------------------------


def _render_check(c: ConditionCheck, pad: int = 0) -> str:
    """``name: lhs relation rhs  [ok]``, or with the name padded to pad columns."""
    name = f"{c.name:<{pad}}" if pad else f"{c.name}:"
    return f"{name} {c.lhs} {c.relation} {c.rhs}  [{'ok' if c.passed else 'FAIL'}]"


def _render_rows(rows: list) -> str:
    return b"".join(emit_rows(rows, "text")).decode()


def _render_mean_index(mi: MeanIndex) -> str:
    if mi.is_exact:
        v = mi.exact()
        return f"mean index = {v} (exact, ~{float(v):.9f})\n"
    j = _mean_index_enclosure(mi)
    return f"mean index in [{j['approx']} +/- {j['error']}]\n"


def _render_tuple(t: JumpTuple) -> str:
    head = (f"tuple N={t.N} m={list(t.m)} chi={list(t.chi)} "
            f"M={t.M_period} delta={t.delta}\n")
    return head + "".join(_render_path(pv) + "\n" for pv in t.per_path)


def _render_path(pv: PathVerification) -> str:
    lines = [f"  path {pv.seed_index}: {'PASS' if pv.passed else 'FAIL'}"]
    lines += ["    " + _render_check(c, 34) for c in pv.conditions]
    sides = ", ".join(f"{s.kind}[{s.index}]={s.side}" for s in pv.angle_sides) or "none"
    lines.append(f"    angle sides: {sides}  [{'ok' if pv.closeness_ok else 'FAIL'}]")
    return "\n".join(lines)


def _render_verification(v: TupleVerification) -> str:
    out = [f"verification: {'PASS' if v.passed else 'FAIL'}"]
    out += [_render_path(pv) for pv in v.per_path]
    return "\n".join(out) + "\n"


def _render_candidate(c: CandidateRecord, label: str) -> str:
    k = c.constraints
    lines = [
        f"{label}: seed {c.seed_index} at N={c.tuple_N}",
        f"  near-integer count = {c.delta_report.delta_k}, complement = "
        f"{c.delta_report.delta_k_prime}, C = {c.delta_report.c_k}, "
        f"S+ = {c.delta_report.s_plus}",
        "  " + _render_check(k.balance),
        "  " + _render_check(k.census),
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
        text += _render_check(r.first_bound_at_second) + "\n"
    if r.second:
        text += _render_candidate(r.second, "second geodesic")
    return text


# wire type: (encoder of the fields beside "type", decoder, text renderer)
_REPORTS = {
    "iteration_table": (
        lambda rows: {"rows": [[r.m, r.index, r.nullity] for r in rows]},
        _object((("rows", _some(_array(_ints("m", "index", "nullity")), "row")),),
                lambda rows: [IterationRow(*r) for r in rows]),
        _render_rows),
    "mean_index": (
        lambda mi: ({"exact": _ENCODE[Fraction](mi.exact())} if mi.is_exact
                    else {"enclosure": _mean_index_enclosure(mi)}),
        lambda doc: (_EXACT if "exact" in doc else _ENCLOSED)(doc),
        _render_mean_index),
    "jump_tuples": (
        lambda ts: {"tuples": [_ENCODE[JumpTuple](t) for t in ts]},
        _object((("tuples", _some(_TUPLES, "tuple")),), list),
        lambda ts: "".join(_render_tuple(t) for t in ts)),
    "tuple_verification": (_ENCODE[TupleVerification], _DECODE[TupleVerification],
                           _render_verification),
    "analysis_report": (_ENCODE[AnalysisReport], _DECODE[AnalysisReport], _render_analysis),
    "realized_matrix": (
        lambda M: {"dim": len(M), "rows": [[format(v, ".17g") for v in row] for row in M]},
        _object((("rows", _matrix_from),)),
        lambda M: "\n".join("  ".join(f"{v: .12f}" for v in row) for row in M) + "\n"),
}


def report_json(report) -> dict:
    """Machine encoding of any report object."""
    kind = _wire_type(report)
    return {"type": kind, **_REPORTS[kind][0](report)}


def _report(doc):
    if type(doc) is not dict:
        raise _expected("an object", doc)
    kind = doc.get("type")
    if type(kind) is not str or kind not in _REPORTS:
        raise _Bad(f"unknown report type {kind!r}")
    return _REPORTS[kind][1](doc)


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


def emit_rows(rows: Iterable[IterationRow], fmt: str = "text") -> Iterator[bytes]:
    """``emit_report`` of an iteration table in pieces: a head, one piece per
    row as ``rows`` yields it, then a tail, so a long table is written while
    it is computed.  The pieces join to ``emit_report(list(rows), fmt)``."""
    if fmt not in ("text", "machine"):
        raise ValueError(f"unknown format {fmt!r}")
    machine = fmt == "machine"
    yield b'{"rows":[' if machine else f"{'m':>8} {'index':>10} {'nullity':>8}\n".encode()
    for k, r in enumerate(rows):
        yield (f"{',' if k else ''}[{r.m},{r.index},{r.nullity}]" if machine
               else f"{r.m:>8} {r.index:>10} {r.nullity:>8}\n").encode()
    if machine:
        yield b'],"type":"iteration_table"}\n'


def emit_report(report, fmt: str = "text") -> bytes:
    """Render a report. ``machine`` is lossless JSON; ``text`` shows every
    evaluated relation with both sides."""
    if fmt == "machine":
        return (json.dumps(report_json(report), sort_keys=True, separators=(",", ":"))
                + "\n").encode()
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    return _REPORTS[_wire_type(report)][2](report).encode()
