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

Every JSON object is read by ``_object`` and every report record is
written by ``_record_writer``, each compiled once per kind of object from
generated source, as dataclasses builds ``__init__``, so that it makes
one call per object.  A reader checks int, str and bool values inline
and hands any other value to its own reader.  Records are read and
written by their dataclass fields and type hints: int, str and bool as
themselves, Fraction as [numerator, denominator], Optional as null,
tuples as arrays, records as objects keyed by field name (``_RENAME``
maps ``M_period`` to ``"M"``; ``_DERIVED`` adds ``passed``, which reading
ignores like any key it does not read).  A writer formats every field
inline, keys sorted, straight to the text ``json.dumps(...,
sort_keys=True, separators=(",", ":"))`` would give, with no dict tree.
Scenario objects are closed, rejecting unknown keys, and angles and
blocks are variants tagged by their key.  Reading names the path to the
first bad value in a one-line ScenarioError, e.g.
``seeds[1].blocks[1].n1: expected [lam, b], got list`` or
``tuples[0].per_path[1].conditions[2]: missing required key 'lhs'``; an
array's index is found only when one of its items fails.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import ceil, floor
from typing import Iterable, Iterator, Union, get_args, get_origin, get_type_hints

from .analysis import (AnalysisReport, CandidateRecord, GeodesicSystem,
                       PeakConstraintRecord, PinchRecord, ZeroEntry)
from .angles import _bounded_decimal, decimal_angle, quadratic_angle, rational_angle
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
    """The JSON document in data (str or UTF-8 bytes).  Every failure is a
    one-line ScenarioError; a syntax error names its line and column."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(exc.msg, line=exc.lineno, column=exc.colno) from exc
    except RecursionError:
        raise ScenarioError("JSON nested too deeply") from None
    except ValueError as exc:  # an int longer than sys.get_int_max_str_digits()
        raise ScenarioError(str(exc).partition(";")[0]) from None


# -- codec -------------------------------------------------------------------


class _Bad(Exception):
    """A decode failure; each enclosing array or object prepends its step
    to ``path`` as the error unwinds."""
    path = ""


def _expected(what: str, value) -> _Bad:
    return _Bad(f"expected {what}, got {type(value).__name__}")


def _refuse(what: str, value):
    raise _expected(what, value)


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
    """Reader of an array of len(names) ints, e.g. [lam, b]."""
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


def _items(read, v) -> tuple:
    """The JSON array v, each item read by read.  The index of a bad item
    is found only on failure, by reading the items again in order."""
    if type(v) is not list:
        raise _expected("list", v)
    try:
        return tuple(map(read, v))
    except _Bad:
        for k, x in enumerate(v):
            try:
                read(x)
            except _Bad as exc:
                exc.path = f"[{k}]{exc.path}"
                raise
        raise


def _array(inner):
    return lambda v: _items(inner, v)


def _variant(what: str, cases: dict):
    """Reader of an object tagged by the one key of cases it holds;
    cases[tag] reads the whole object."""
    def decode(obj):
        if type(obj) is not dict:
            raise _expected("an object", obj)
        tags = [key for key in obj if key in cases]
        if len(tags) != 1:
            raise _Bad(f"{what} takes one of the keys {', '.join(cases)}, got {sorted(obj)}")
        return cases[tags[0]](obj)
    return decode


def _tagged(tag: str, reader, build=lambda v: v):
    """Reader of the one-key object {tag: value}: build(reader(value))."""
    return _object(((tag, reader),), build, closed=True)


_RENAME = {"M_period": "M"}
_DERIVED = {ConditionCheck: ("passed",), PathVerification: ("passed",),
            TupleVerification: ("passed",)}

# The globals of the compiled object readers: read_<type name> for each
# hint they do not check inline (a record, Fraction, or an int, str or
# bool inside a tuple), and the helpers they call.
_READ: dict = {"read_int": _scalar(int), "read_str": _scalar(str), "read_bool": _scalar(bool),
               "read_Fraction": _frac_from, "_Bad": _Bad, "_expected": _expected,
               "_refuse": _refuse, "_items": _items}
# The globals of the compiled record writers: write_<class name> for each
# record, and _string, the encoder json.dumps itself uses for str.
_WRITE: dict = {"_string": encode_basestring_ascii}


def _read_of(hint, v: str) -> str:
    """Source of an expression for the value of type hint read from the
    JSON value in the name v.  int, str and bool are type-checked inline;
    a failure raises _Bad with the path below v."""
    if hint in (int, str, bool):
        return f"({v} if type({v}) is {hint.__name__} else _refuse({hint.__name__!r}, {v}))"
    if get_origin(hint) is Union:        # Optional[X]
        return f"(None if {v} is None else {_read_of(get_args(hint)[0], v)})"
    if get_origin(hint) is tuple:        # tuple[X, ...]
        return f"_items(read_{get_args(hint)[0].__name__}, {v})"
    return f"read_{hint.__name__}({v})"  # Fraction or a record


def _object(spec, build=lambda v: v, closed: bool = False):
    """Reader of a JSON object: build(*values read at spec's entries).
    An entry (key, reader) is required; (key, reader, default) may be
    absent.  A reader is a type hint (see ``_read_of``) or a function of
    the JSON value.  Keys outside spec are ignored, or, when closed,
    rejected before any value is read.  A failure names the path below
    the object: a missing or unknown key, or a ValueError or
    ZeroDivisionError of build, at the object itself; a bad value at its
    key, which ``k`` holds while it is read.  A KeyError raised while a
    present key is read propagates."""
    env, lines = {"build": build, "known": frozenset(key for key, *_ in spec)}, []
    for j, (key, reader, *default) in enumerate(spec):
        if isinstance(reader, type) or get_origin(reader):
            value = _read_of(reader, "v")
        else:
            env[f"r{j}"], value = reader, f"r{j}(v)"
        if default:
            env[f"d{j}"] = default[0]
            lines += [f"k = {key!r}", f"if k in o: v = o[k]; a{j} = {value}", f"else: a{j} = d{j}"]
        else:
            lines.append(f"k = {key!r}; v = o[k]; a{j} = {value}")
    unknown = """
        if not known.issuperset(o):
            raise _Bad(f"unknown key '{next(x for x in o if x not in known)}'")""" if closed else ""
    indent = "\n            "
    made: dict = {}
    exec(f"""def make({", ".join(env)}):
    def read(o):
        if type(o) is not dict:
            raise _expected("an object", o){unknown}
        try:
            {indent.join(lines) or "pass"}
        except KeyError:
            if k in o:
                raise
            raise _Bad(f"missing required key '{{k}}'") from None
        except _Bad as exc:
            exc.path = f".{{k}}{{exc.path}}"
            raise
        try:
            return build({", ".join(f"a{j}" for j in range(len(spec)))})
        except (ValueError, ZeroDivisionError) as exc:
            raise _Bad(str(exc)) from None
    return read""", _READ, made)
    return made["make"](**env)


def _fields(cls) -> list[tuple[str, object, str]]:
    """(key, type hint, field name) of each field of the record cls; the
    key is the name, but ``_RENAME`` maps ``M_period`` to ``"M"``."""
    hints = get_type_hints(cls)
    return [(_RENAME.get(f.name, f.name), hints[f.name], f.name) for f in dataclasses.fields(cls)]


def _json_of(hint, v: str) -> str:
    """Source of an expression for the compact JSON text of the value v of
    type hint, as json.dumps writes it; free of single quotes, backslashes
    and braces, so that it can sit in a single-quoted f-string."""
    if hint is int:
        return f"str({v})"
    if hint is bool:
        return f'("true" if {v} else "false")'
    if hint is str:
        return f"_string({v})"
    if hint is Fraction:
        return f'"[" + str({v}.numerator) + "," + str({v}.denominator) + "]"'
    if dataclasses.is_dataclass(hint):
        return f"write_{hint.__name__}({v})"
    inner = get_args(hint)[0]
    if get_origin(hint) is Union:        # Optional[X]
        return f'("null" if {v} is None else {_json_of(inner, v)})'
    return f'"[" + ",".join([{_json_of(inner, "x")} for x in {v}]) + "]"'  # tuple[X, ...]


def _record_writer(cls, tag: str | None = None):
    """The writer of cls: a record's JSON object, keys sorted, each field
    formatted inline by its type hint (``_DERIVED`` adds ``passed``), with
    a ``"type"`` key when tagged."""
    fields = _FIELDS[cls] + [(name, bool, name) for name in _DERIVED.get(cls, ())]
    members = {key: "{%s}" % _json_of(hint, f"o.{name}") for key, hint, name in fields}
    if tag:
        members["type"] = f'"{tag}"'
    body = ",".join(f'"{key}":{members[key]}' for key in sorted(members))
    made: dict = {}
    exec(f"def write(o): return f'{{{{{body}}}}}'", _WRITE, made)
    return made["write"]


# Each record is read by the object reader of its fields, which ignores
# the keys it does not read, such as ``passed``.
_FIELDS = {cls: _fields(cls) for cls in (
    ConditionCheck, AngleSide, PathVerification, JumpTuple, TupleVerification, DeltaReport,
    ZeroEntry, PeakConstraintRecord, CandidateRecord, PinchRecord, AnalysisReport)}
for _cls, _spec in _FIELDS.items():
    _READ[f"read_{_cls.__name__}"] = _object([(key, hint) for key, hint, _ in _spec], _cls)
    _WRITE[f"write_{_cls.__name__}"] = _record_writer(_cls)


# -- scenarios ---------------------------------------------------------------


def _ratio(v) -> Fraction:
    """A scenario rational: an int or [numerator, denominator]."""
    return Fraction(v) if type(v) is int else _frac_from(v)


_ANGLE = _variant("angle", {
    "rational": _tagged("rational", _frac_from, rational_angle),
    "quadratic": _tagged("quadratic", _ints("a", "b", "c", "d"),
                         lambda v: quadratic_angle(*v)),
    "decimal": _object((("decimal", str), ("error", str)), decimal_angle, closed=True),
})

_BLOCK = _variant("block", {
    "n1": _tagged("n1", _ints("lam", "b"), lambda v: N1Block(*v)),
    "r": _tagged("r", _ANGLE, RotationBlock),
    "n2": _tagged("n2", _object((("angle", _ANGLE), ("trivial", bool)), N2Block,
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
    ("version", int),
    ("system", _object((("n", int), ("lambda", _ratio, Fraction(1)),
                        ("pinching_asserted", bool, True)), lambda *v: v, closed=True)),
    ("seeds", _array(_object((("i1", int), ("nu1", int), ("blocks", _array(_BLOCK))),
                             _seed, closed=True))),
    ("options", _object([(f.name, _ratio if isinstance(f.default, Fraction) else int,
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


# Most characters of a stored enclosure string: a sign, the integer digits
# str() writes by default (a scenario's i1 is read with as many), a point
# and the 15 places of the midpoint of two 14-place ends.
_ENCLOSURE_CHARS = sys.int_info.default_max_str_digits + 17


def _enclosure_from(approx: str, error: str) -> tuple[Fraction, Fraction]:
    mid, err = (_bounded_decimal(s, _ENCLOSURE_CHARS) for s in (approx, error))
    if err < 0:
        raise ValueError(f"negative error {error!r}")
    return mid - err, mid + err


_EXACT = _object((("exact", _frac_from),))
_ENCLOSED = _object((("enclosure", _object((("approx", str), ("error", str)),
                                           _enclosure_from)),))


def _matrix_from(v) -> Matrix:
    try:
        m = Matrix(tuple(map(float, row)) for row in _array(_array(_READ["read_str"]))(v))
    except ValueError as exc:
        raise _Bad(str(exc)) from None
    for i, row in enumerate(m):
        if len(row) != len(m[0]):
            exc = _Bad(f"expected {len(m[0])} entries, got {len(row)}")
            exc.path = f"[{i}]"
            raise exc
    return m


_TUPLES = _array(_READ["read_JumpTuple"])


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


def _write_mean_index(mi: MeanIndex) -> str:
    if mi.is_exact:
        v = mi.exact()
        value = f'"exact":[{v.numerator},{v.denominator}]'
    else:
        j = _mean_index_enclosure(mi)
        value = (f'"enclosure":{{"approx":{encode_basestring_ascii(j["approx"])},'
                 f'"error":{encode_basestring_ascii(j["error"])}}}')
    return f'{{{value},"type":"mean_index"}}'


# wire type: (writer of the JSON text, reader, text renderer); emit_rows
# writes an iteration table in both formats
_REPORTS = {
    "iteration_table": (
        None,
        _object((("rows", _some(_array(_ints("m", "index", "nullity")), "row")),),
                lambda rows: [IterationRow(*r) for r in rows]),
        None),
    "mean_index": (
        _write_mean_index,
        lambda doc: (_EXACT if "exact" in doc else _ENCLOSED)(doc),
        _render_mean_index),
    "jump_tuples": (
        lambda ts: f'{{"tuples":[{",".join(map(_WRITE["write_JumpTuple"], ts))}],'
                   f'"type":"jump_tuples"}}',
        _object((("tuples", _some(_TUPLES, "tuple")),), list),
        lambda ts: "".join(_render_tuple(t) for t in ts)),
    "tuple_verification": (_record_writer(TupleVerification, "tuple_verification"),
                           _READ["read_TupleVerification"], _render_verification),
    "analysis_report": (_record_writer(AnalysisReport, "analysis_report"),
                        _READ["read_AnalysisReport"], _render_analysis),
    "realized_matrix": (
        lambda M: (f'{{"dim":{len(M)},"rows":['
                   + ",".join("[" + ",".join(f'"{v:.17g}"' for v in row) + "]" for row in M)
                   + '],"type":"realized_matrix"}'),
        _object((("rows", _matrix_from),)),
        lambda M: "\n".join("  ".join(f"{v: .12f}" for v in row) for row in M) + "\n"),
}


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
        return [_decoded(_READ["read_JumpTuple"], doc, "tuple")]
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
    if fmt not in ("text", "machine"):
        raise ValueError(f"unknown format {fmt!r}")
    kind = _wire_type(report)
    if kind == "iteration_table":
        return b"".join(emit_rows(report, fmt))
    write, _, render = _REPORTS[kind]
    return (write(report) + "\n" if fmt == "machine" else render(report)).encode()
