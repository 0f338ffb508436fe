"""The differential corpus of ``corpus.py`` replays its stored digest.

Every scan of the corpus must give the tuples, the refusal and the progress
calls recorded in ``fixtures/corpus_digest.json``, under ``python`` and, for
every 8th system, under ``python -O``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import corpus

ROOT = Path(__file__).resolve().parent.parent
DIGEST = ROOT / "tests" / "fixtures" / "corpus_digest.json"


def _digest() -> dict[str, dict]:
    return json.loads(DIGEST.read_bytes())


def test_the_digest_covers_tuples_refusals_and_complements():
    want = _digest()
    free = [v for k, v in want.items() if "complement" not in k]
    assert len(free) == corpus.SYSTEMS * len(corpus.DELTAS)
    assert sum(bool(v.get("N")) for v in free) >= 150
    assert sum(v.get("error") == "NoTupleFound" for v in free) >= 150
    assert sum("complement" in k for k in want) >= 300


def test_every_scan_matches_the_digest():
    want, got = _digest(), corpus.records()
    assert [k for k in want.keys() | got.keys() if got.get(k) != want.get(k)] == []


def test_a_subset_matches_under_optimize():
    # -O strips assert statements; no scan may rest on one
    r = subprocess.run([sys.executable, "-O", str(ROOT / "tests" / "corpus.py"), "--every", "8"],
                       capture_output=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                       timeout=300)
    assert r.returncode == 0, r.stderr
    want = {k: v for k, v in _digest().items() if int(k.split("/")[0]) % 8 == 0}
    assert want and json.loads(r.stdout) == want
