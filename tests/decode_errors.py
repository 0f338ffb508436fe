"""Decode-error oracle: the outcome of one-value mutations of stored documents.

The documents are the reports of the wire fixtures (``fixtures/wire/*.out``)
and three scenarios: the two beside them (``scenarios/two_seed_s3.json`` and
``fixtures/wire/rational.json``) and ``fixtures/every_kind.json``, which
holds every angle and block kind and every option.  Every JSON object in
them is labelled by the record class that reads it, found by a walk over
the records' dataclass fields and type hints, or, outside records, by its
path with the array indices dropped.  For each (label, key, kind) the
first object, in document order, gets one mutation:

* ``delete``: the key is removed;
* ``retype``: its value becomes one of another JSON type (an int becomes
  ``true``, a bool ``1``, a string or null ``0``, an array ``{}``, an
  object ``[]``);
* ``[1, 0]``: its value becomes ``[1, 0]``, a fraction with a zero
  denominator;
* ``relation``: a ``relation`` value becomes ``"<>"``;
* ``extra``: an unknown key ``"unknown"`` is added, once per label; a
  scenario object refuses it and a record ignores it.

A mutation's outcome is ``error: `` and the ScenarioError's text, or ``ok``
and the first 16 hex digits of the sha256 of the report's machine bytes
(of the repr of a parsed scenario, or of a mean index, which reads back as
its value: a Fraction or an enclosure (lo, hi)), or the type and text of
any other exception.  ``decode_errors.json`` holds the outcomes of the
version that made it:

    PYTHONPATH=src python tests/decode_errors.py > tests/fixtures/decode_errors.json

Regenerating it is a behaviour change: name it, with the count of outcomes
that changed.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

from symjump import AnalysisReport, JumpTuple, ScenarioError, TupleVerification
from symjump.scenario import emit_report, parse_report, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
WIRE = ROOT / "tests" / "fixtures" / "wire"
SCENARIOS = [ROOT / "scenarios" / "two_seed_s3.json", WIRE / "rational.json",
             ROOT / "tests" / "fixtures" / "every_kind.json"]
# the hint of each report's top object; the other kinds hold no record
TOP = {"tuple_verification": TupleVerification, "analysis_report": AnalysisReport}
TUPLES = {"tuples": tuple[JumpTuple, ...]}
KINDS = ("delete", "retype", "[1, 0]", "relation", "extra")
UNKNOWN = "unknown"


def documents() -> list[tuple[str, str, object]]:
    """(source, kind of document, JSON value) of every stored document: each
    line of a wire fixture is one report."""
    docs = [(f"{f.name}:{k}", "report", json.loads(line)) for f in sorted(WIRE.glob("*.out"))
            for k, line in enumerate(f.read_bytes().splitlines(), 1)]
    return docs + [(f.name, "scenario", json.loads(f.read_bytes())) for f in SCENARIOS]


def _objects(node, hint, path: str, out: list) -> list:
    """(label, object) of every JSON object in node, read by hint, in
    document order."""
    if get_origin(hint) is Union:                 # Optional[X]
        hint = get_args(hint)[0]
    if isinstance(node, list):
        inner = get_args(hint)[0] if get_origin(hint) is tuple else None
        for k, v in enumerate(node):
            _objects(v, inner, f"{path}[{k}]", out)
    elif isinstance(node, dict):
        if dataclasses.is_dataclass(hint):
            hints = get_type_hints(hint)
            fields = {("M" if f.name == "M_period" else f.name): hints[f.name]
                      for f in dataclasses.fields(hint)}
            label = hint.__name__
        else:
            fields = TUPLES if node.get("type") == "jump_tuples" else {}
            label = re.sub(r"\[\d+\]", "[]", path)
        out.append((label, node))
        for key, value in node.items():
            _objects(value, fields.get(key), f"{path}.{key}", out)
    return out


def _wrong(value):
    """A JSON value of another type than value."""
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return True
    if isinstance(value, list):
        return {}
    if isinstance(value, dict):
        return []
    return 0                                      # str or null


def mutations() -> list[tuple[str, str, bytes]]:
    """(id, kind of document, mutated JSON text) of every mutation."""
    out, seen = [], set()
    for source, doc_kind, doc in documents():
        top = doc_kind if doc_kind == "scenario" else doc["type"]
        for k, (label, obj) in enumerate(_objects(doc, TOP.get(top), top, [])):
            for key in [*obj, UNKNOWN]:
                for kind in KINDS:
                    if ((label, key, kind) in seen or (kind == "relation") != (key == "relation")
                            or (kind == "extra") != (key == UNKNOWN)):
                        continue
                    seen.add((label, key, kind))
                    mutated = copy.deepcopy(doc)
                    target = _objects(mutated, TOP.get(top), top, [])[k][1]
                    if kind == "delete":
                        del target[key]
                    elif kind == "extra":
                        target[key] = 1
                    else:
                        target[key] = {"retype": _wrong(obj[key]), "[1, 0]": [1, 0],
                                       "relation": "<>"}[kind]
                    ident = f"{label}.{key} {kind} ({source})"
                    out.append((ident, doc_kind, json.dumps(mutated).encode()))
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def outcome(doc_kind: str, text: bytes) -> str:
    try:
        if doc_kind == "scenario":
            return "ok " + _sha(repr(parse_scenario(text)).encode())
        report = parse_report(text)
        if type(report) in (Fraction, tuple):  # a mean index; a Matrix is a tuple subclass
            return "ok " + _sha(repr(report).encode())
        return "ok " + _sha(emit_report(report, "machine"))
    except ScenarioError as exc:
        return f"error: {exc}"
    except Exception as exc:  # recorded, so that a change of it shows
        return f"{type(exc).__name__}: {exc}"


def outcomes() -> dict[str, str]:
    return {ident: outcome(doc_kind, text) for ident, doc_kind, text in mutations()}


if __name__ == "__main__":
    json.dump(outcomes(), sys.stdout, indent=1, ensure_ascii=False)
    sys.stdout.write("\n")
