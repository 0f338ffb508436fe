"""Span tracing around the public functions of symjump's layers.

The library has no instrumentation of its own, so the tracer wraps, from
the outside, every public function and every public method of a public
class defined in the six layer modules (plus ``Decomposition.__init__``,
where the census is computed).  A name bound elsewhere by ``from .x
import f`` is replaced where it is bound, so ``symjump.jumps.index_iterate``
and ``symjump.iteration.index_iterate`` both reach the same wrapper.  A
name that no longer exists is simply not wrapped; its counters read 0.

Spans live in flat arrays (name id, parent index, start, end) for the
round being traced.  ``end_round`` folds them into per-name totals:
a span's self time is its duration minus the durations of its direct
children.  Only the last round's spans are kept for ``dump``.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import symjump.errors as sj_errors
import symjump.jumps as sj_jumps

LAYERS = ("angles", "normal_forms", "iteration", "jumps", "analysis", "scenario")
EXTRA_METHODS = (("normal_forms", "Decomposition", "__init__"),)
ROOT = "bench.op"

QUERY_METHODS = frozenset({"floor_mul", "ceil_mul", "varphi_mul", "frac_mul", "frac_side"})
PARSE = frozenset({"scenario.parse_scenario", "scenario.parse_report"})
EMIT = frozenset({"scenario.emit_report"})


def _targets():
    """(span name, owner or None, attribute, function) for every wrapped callable."""
    out = []
    for layer in LAYERS:
        mod = sys.modules.get(f"symjump.{layer}")
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append((f"{layer}.{attr}", None, attr, obj))
            elif inspect.isclass(obj):
                for m_attr, m_obj in vars(obj).items():
                    if inspect.isfunction(m_obj) and (
                            not m_attr.startswith("_")
                            or (layer, attr, m_attr) in EXTRA_METHODS):
                        out.append((f"{layer}.{attr}.{m_attr}", obj, m_attr, m_obj))
    return out


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self.counters = Counter()      # lattice_steps, tuples_found, undecidable
        self.calls = Counter()         # span name -> calls, over all traced rounds
        self.self_ns = Counter()       # span name -> self time
        self.incl_ns = Counter()       # "parse" / "emit" -> outermost inclusive time
        self._patches = []
        self._wrappers = {}            # id(original) -> (original, wrapper)
        self._class_targets = []
        self.nids, self.parents = array("i"), array("q")
        self.starts, self.ends = array("q"), array("q")
        self.stack = [-1]
        self._angle_period = sj_jumps.angle_period
        for name, owner, attr, fn in _targets():
            call = self._scan_shim(fn) if name == "jumps.find_jump_tuples" else fn
            wrapper = self._wrap(call, len(self.names), fn)
            self.names.append(name)
            if owner is None:
                self._wrappers[id(fn)] = (fn, wrapper)
            else:
                self._class_targets.append((owner, attr, wrapper))

    # -- recording ---------------------------------------------------------------

    def _new_round(self):
        # cleared in place: the wrappers hold these objects in their closures
        del self.nids[:], self.parents[:], self.starts[:], self.ends[:]
        self.stack[:] = [-1]

    def _wrap(self, fn, nid, original):
        nids, parents, starts, ends, stack = (self.nids, self.parents, self.starts,
                                              self.ends, self.stack)
        counters = self.counters
        undecidable = sj_errors.UndecidableComparison

        def wrapper(*args, **kwargs):
            idx = len(starts)
            nids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except undecidable as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    counters["undecidable"] += 1
                raise
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()

        wrapper.__name__ = original.__name__
        wrapper.__qualname__ = original.__qualname__
        wrapper.__doc__ = original.__doc__
        wrapper.__wrapped__ = original
        return wrapper

    def _scan_shim(self, fn):
        """find_jump_tuples with a counting progress callback: the public way
        to learn how many lattice steps a scan visited.  run_analysis passes
        no callback to its complement scan, so one is injected when absent."""
        counters = self.counters

        def scan(seeds, *args, **kwargs):
            seeds = tuple(seeds)
            period = self._angle_period(seeds)
            user = kwargs.get("progress")
            last = [0]

            def progress(m_done, n_max):
                last[0] = m_done
                if user is not None:
                    user(m_done, n_max)

            kwargs["progress"] = progress
            try:
                found = fn(seeds, *args, **kwargs)
            finally:
                counters["lattice_steps"] += last[0] // period
            counters["tuples_found"] += len(found)
            return found

        return scan

    def root(self, fn, *args):
        """Run fn(*args) under the op's root span."""
        return self._wrap(fn, 0, fn)(*args)

    # -- patching ----------------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "symjump" or name.startswith("symjump.")):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])
        for owner, attr, wrapper in self._class_targets:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        self._new_round()

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------------

    def end_round(self):
        """Fold the current round's spans into the totals."""
        nids, parents, starts, ends = self.nids, self.parents, self.starts, self.ends
        n, names = len(starts), self.names
        group = [("parse" if k in PARSE else "emit" if k in EMIT else None) for k in names]
        calls, self_ns, incl = [0] * len(names), [0] * len(names), Counter()
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        for i in range(n):
            nid, p = nids[i], parents[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            self_ns[nid] += dur - child[i]
            g = group[nid]
            if g is not None and (p < 0 or group[nids[p]] != g):
                incl[g] += dur
        for nid, name in enumerate(names):
            self.calls[name] += calls[nid]
            self.self_ns[name] += self_ns[nid]
        self.incl_ns.update(incl)
        self.counters["spans"] += n

    def dump(self, path):
        """Write the last round's spans as gzip'd TSV, times in ns from its start."""
        t0 = self.starts[0] if len(self.starts) else 0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\tname\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.starts)):
                f.write(f"{i}\t{self.names[self.nids[i]]}\t{self.parents[i]}\t"
                        f"{self.starts[i] - t0}\t{self.ends[i] - t0}\n")

    # -- metrics -------------------------------------------------------------------

    def _sum(self, table, pred):
        return sum(v for k, v in table.items() if pred(k))

    def layer_metrics(self, ops: int) -> dict:
        """Per-op layer metrics over every traced round so far."""
        calls, self_ns = self.calls, self.self_ns

        def count(*names):
            return sum(calls[n] for n in names) / ops

        def ms(pred):
            return self._sum(self_ns, pred) / ops / 1e6

        def layer(prefix):
            return lambda k: k.startswith(prefix + ".")

        def is_query(k):
            parts = k.split(".")
            return parts[0] == "angles" and (parts[-1] in QUERY_METHODS
                                             or k == "angles.same_angle")

        steps = self.counters["lattice_steps"]
        found = self.counters["tuples_found"]
        return {
            "angles.query_calls": (self._sum(calls, is_query) / ops, "calls/op"),
            "angles.query_self_ms": (ms(is_query), "ms/op"),
            "angles.refine_calls": (count("angles.IrrationalAngle.refine_once",
                                          "angles.IrrationalAngle.enclosure_at"), "calls/op"),
            "angles.undecidable": (self.counters["undecidable"] / ops, "errors/op"),
            "angles.self_ms": (ms(layer("angles")), "ms/op"),
            "iteration.index_calls": (count("iteration.index_iterate"), "calls/op"),
            "iteration.index_self_ms": (ms(lambda k: k == "iteration.index_iterate"), "ms/op"),
            "iteration.nullity_calls": (count("iteration.nullity_iterate"), "calls/op"),
            "iteration.nullity_self_ms": (ms(lambda k: k == "iteration.nullity_iterate"), "ms/op"),
            "iteration.floor_quotient_calls": (count("iteration.MeanIndex.floor_quotient"),
                                               "calls/op"),
            "iteration.floor_quotient_self_ms": (
                ms(lambda k: k == "iteration.MeanIndex.floor_quotient"), "ms/op"),
            "iteration.self_ms": (ms(layer("iteration")), "ms/op"),
            "normal_forms.census_calls": (count("normal_forms.Decomposition.__init__"),
                                          "calls/op"),
            "normal_forms.self_ms": (ms(layer("normal_forms")), "ms/op"),
            "jumps.scan_calls": (count("jumps.find_jump_tuples"), "calls/op"),
            "jumps.complement_calls": (count("jumps.find_complementary_tuples"), "calls/op"),
            "jumps.lattice_steps": (steps / ops, "steps/op"),
            "jumps.tuples_found": (found / ops, "tuples/op"),
            "jumps.hit_ratio": (found / steps if steps else 0.0, "ratio"),
            "jumps.scan_self_ms": (ms(lambda k: k in ("jumps.find_jump_tuples",
                                                      "jumps.find_complementary_tuples")),
                                   "ms/op"),
            "jumps.verify_calls": (count("jumps.verify_tuple"), "calls/op"),
            "jumps.verify_self_ms": (ms(lambda k: k == "jumps.verify_tuple"), "ms/op"),
            "jumps.self_ms": (ms(layer("jumps")), "ms/op"),
            "analysis.self_ms": (ms(layer("analysis")), "ms/op"),
            "analysis.peak_checks": (count("analysis.find_peak_geodesic",
                                           "analysis.second_geodesic"), "calls/op"),
            "scenario.parse_ms": (self.incl_ns["parse"] / ops / 1e6, "ms/op"),
            "scenario.emit_ms": (self.incl_ns["emit"] / ops / 1e6, "ms/op"),
            "scenario.self_ms": (ms(layer("scenario")), "ms/op"),
            "bench.self_ms": (ms(lambda k: k == ROOT), "ms/op"),
            "trace.spans": (self.counters["spans"] / ops, "spans/op"),
        }
