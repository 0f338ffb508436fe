"""Regenerate golden.json and stored_tuples.json from the library as it is.

The digests pin every op's machine output, so regenerate them only when
an output change is intended, and say so where the change is reviewed:

    python3 bench/make_golden.py
"""

from __future__ import annotations

import json

from run import load_library

STORED_RATIONAL = 15  # rational_scan pool items with tuples, for verify_stored


def stored_reports() -> dict:
    """Machine `jump` reports, as the CLI would write them, for verify_stored."""
    import workloads as wl
    from symjump.errors import NoTupleFound
    from symjump.jumps import find_jump_tuples
    from symjump.scenario import emit_report, parse_scenario

    def report(doc):
        system, opts = parse_scenario(wl.canonical(doc))
        tuples = find_jump_tuples(system.seeds, opts.delta, opts.n_max, opts.limit,
                                  budget=opts.budget)
        return emit_report(tuples, "machine").decode()

    out = {"two_seed_s3": report(wl.S3_DOC)}
    for i in range(wl.RATIONAL_POOL):
        if len(out) > STORED_RATIONAL:
            break
        try:
            out[f"rational_scan/{i}"] = report(wl.rational_doc(i))
        except NoTupleFound:
            continue
    return out


def main() -> None:
    load_library()
    import workloads as wl
    wl.STORED_FILE.write_text(json.dumps(stored_reports(), indent=1) + "\n")
    golden = {}
    for name, w in wl.WORKLOADS.items():
        golden[name] = {}
        for item in w.pool():
            out, result = w.op(item, tuple(wl.canonical(d) for d in item.docs))
            w.check(item, out, result)
            golden[name][item.key] = {"input": wl.input_digest(item),
                                      "output": wl.digest(out)}
    wl.GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
