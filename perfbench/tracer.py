"""Spans and counters at the layer boundaries of hwcover, added from outside.

:class:`Tracer` replaces chosen functions of the ``hwcover`` modules with
wrappers while it is active, and puts the originals back when it exits.  A
function is replaced wherever a module holds it: as a module global, in a
module-level dict (such as ``catalog._ENUMERATORS``) or, for methods, on its
class.  Nothing under ``src/`` is changed.

Three kinds of wrapper:

* span -- one record (name, start, end, parent) per call, kept in memory in
  flat arrays and written out by :meth:`Tracer.write`;
* timed leaf -- a function too hot to record each call of (``divisors``
  runs millions of times on ``count``); its calls and time are summed, and
  its time is still subtracted from the enclosing span's self time;
* counted -- calls only, for the hottest leaves (``Element.__mul__``,
  ``catalog.contains``); their cost comes from the microbenchmarks.

Self time of a span is its duration minus the time of its child spans and
timed leaves.  The process is single-threaded, so one stack suffices.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter_ns

PACKAGE = "hwcover"

# (module, attribute, span name, tally or None).  Several functions may share
# a span name; their calls and self times add up.  A tally names the Tracer
# attribute that the length of each result is added to.
# ``catalog.conjugacy_classes`` is a span as well, wrapped on its own to
# measure catalog.orbit_new_ratio.
SPANS = (
    ("cli", "main", "cli.main", None),
    ("cli", "_cmd_count", "cli.command", None),
    ("cli", "_cmd_enumerate", "cli.command", None),
    ("cli", "_cmd_classes", "cli.command", None),
    ("cli", "_cmd_normal", "cli.command", None),
    ("cli", "_cmd_series", "cli.command", None),
    ("cli", "_cmd_verify", "cli.command", None),
    ("cli", "_emit", "cli.emit", None),
    ("catalog", "enumerate_index", "catalog.enumerate", None),
    ("catalog", "enumerate_z3", "catalog.enumerate", "descriptors"),
    ("catalog", "enumerate_g2", "catalog.enumerate", "descriptors"),
    ("catalog", "enumerate_g6", "catalog.enumerate", "descriptors"),
    ("catalog", "conjugate_descriptor", "catalog.conjugate", None),
    ("catalog", "class_count", "catalog.class_count", None),
    ("catalog", "normal_counts", "catalog.normal_counts", None),
    ("catalog", "count_s", "catalog.closed_form", None),
    ("catalog", "count_c", "catalog.closed_form", None),
    ("catalog", "count_arrays", "catalog.count_arrays", None),
    ("catalog", "series_report", "catalog.series_report", None),
    ("lattice", "hnf2_of", "lattice.hnf", None),
    ("lattice", "hnf3_of", "lattice.hnf", None),
    ("oracle", "cross_check", "oracle.cross_check", None),
    ("oracle", "low_index", "oracle.search", "tables_found"),
    ("oracle", "classes_of", "oracle.classes_of", None),
    ("oracle", "canonical_table", "oracle.canonical", None),
    ("oracle", "descriptor_to_table", "oracle.descriptor_to_table", None),
    ("arith", "gf_coeffs", "arith.gf_coeffs", None),
    ("arith", "convolve", "arith.convolve", None),
)
TIMED_LEAVES = (
    ("arith", "divisors", "arith.divisors"),
)
# (module, class or None, attribute, counter name)
COUNTED = (
    ("group", "Element", "__mul__", "group.mul"),
    ("group", "Element", "inverse", "group.inverse"),
    ("group", "Element", "conjugated_by", "group.conjugated_by"),
    ("catalog", None, "contains", "catalog.contains"),
    ("oracle", "CosetTable", "__post_init__", "oracle.table_construction"),
)


class Tracer:
    """Wraps hwcover's layer boundaries while active (``with tracer: ...``)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        # Span records, one entry per call in each array.
        self.rec_name = array("q")
        self.rec_start = array("q")
        self.rec_end = array("q")
        self.rec_parent = array("q")
        # Frames: [record index, child time in ns]; the bottom one collects
        # the time of top-level spans.
        self._stack: list[list[int]] = [[-1, 0]]
        self.requests: list[tuple[int, str]] = []
        self.contains_hits = 0
        self.descriptors = 0
        self.tables_found = 0
        self.orbit_new = 0
        self.classes_conjugations = 0
        self._undo: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name: str, tally: str | None = None):
        i = self._id(name)
        stack, calls, self_ns = self._stack, self.calls, self.self_ns
        rn, rs, re, rp = self.rec_name, self.rec_start, self.rec_end, self.rec_parent

        def span(*args, **kwargs):
            parent = stack[-1]
            idx = len(rn)
            rn.append(i)
            rp.append(parent[0])
            re.append(0)
            frame = [idx, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            rs.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                re[idx] = t1
                dur = t1 - t0
                self_ns[i] += dur - frame[1]
                calls[i] += 1
                parent[1] += dur
            if tally is not None:
                setattr(self, tally, getattr(self, tally) + len(result))
            return result
        return span

    def _timed_leaf(self, fn, name: str):
        i = self._id(name)
        stack, calls, self_ns = self._stack, self.calls, self.self_ns

        def leaf(*args, **kwargs):
            t0 = perf_counter_ns()
            result = fn(*args, **kwargs)
            dur = perf_counter_ns() - t0
            stack[-1][1] += dur
            self_ns[i] += dur
            calls[i] += 1
            return result
        return leaf

    def _counted(self, fn, name: str):
        i = self._id(name)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[i] += 1
            return fn(*args, **kwargs)
        return counted

    def _contains(self, fn):
        i = self._id("catalog.contains")
        calls = self.calls

        def contains(*args, **kwargs):
            calls[i] += 1
            hit = fn(*args, **kwargs)
            if hit:
                self.contains_hits += 1
            return hit
        return contains

    def _conjugacy_classes(self, fn):
        conj = self._id("catalog.conjugate")
        calls = self.calls

        def conjugacy_classes(*args, **kwargs):
            before = calls[conj]
            classes = fn(*args, **kwargs)
            # Each orbit grows by one member per conjugation that finds a
            # new descriptor, starting from its first member.
            self.orbit_new += sum(len(cls) - 1 for cls in classes)
            self.classes_conjugations += calls[conj] - before
            return classes
        return self._span(conjugacy_classes, "catalog.conjugacy_classes")

    # -- installation -----------------------------------------------------

    def _module(self, name: str):
        return importlib.import_module(f"{PACKAGE}.{name}")

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every module global and module-level dict entry holding ``original``."""
        for modname, mod in list(sys.modules.items()):
            if not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            space = vars(mod)
            for key, val in list(space.items()):
                if val is original:
                    space[key] = wrapper
                    self._undo.append((space, key, original))
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is original:
                            val[k] = wrapper
                            self._undo.append((val, k, original))

    def __enter__(self) -> "Tracer":
        for modname, attr, name, tally in SPANS:
            original = getattr(self._module(modname), attr)
            self._replace_everywhere(original, self._span(original, name, tally))
        original = self._module("catalog").conjugacy_classes
        self._replace_everywhere(original, self._conjugacy_classes(original))
        for modname, attr, name in TIMED_LEAVES:
            original = getattr(self._module(modname), attr)
            self._replace_everywhere(original, self._timed_leaf(original, name))
        for modname, cls_name, attr, name in COUNTED:
            mod = self._module(modname)
            if cls_name is None:
                original = getattr(mod, attr)
                wrapper = (self._contains(original) if name == "catalog.contains"
                           else self._counted(original, name))
                self._replace_everywhere(original, wrapper)
            else:
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._counted(original, name))
                self._undo.append((cls, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()

    def request(self, label: str) -> None:
        """Start a request (one CLI command): the spans recorded from now on."""
        self.requests.append((len(self.rec_name), label))

    # -- results ----------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    def self_s(self, name: str) -> float:
        return self.self_ns[self._ids[name]] / 1e9 if name in self._ids else 0.0

    def layer_metrics(self) -> dict:
        """Per-layer metrics that the trace yields, with their units."""
        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        counts = {
            "group.mul_calls": self.count("group.mul"),
            "group.inverse_calls": self.count("group.inverse"),
            "lattice.hnf_calls": self.count("lattice.hnf"),
            "catalog.conjugate_calls": self.count("catalog.conjugate"),
            "catalog.contains_calls": self.count("catalog.contains"),
            "catalog.descriptors": self.descriptors,
            "oracle.descriptor_to_table_calls": self.count("oracle.descriptor_to_table"),
            "oracle.tables_found": self.tables_found,
            "oracle.table_constructions": self.count("oracle.table_construction"),
            "oracle.canonical_calls": self.count("oracle.canonical"),
            "arith.divisors_calls": self.count("arith.divisors"),
            "arith.convolve_calls": self.count("arith.convolve"),
        }
        seconds = {
            "lattice.hnf_s": "lattice.hnf",
            "catalog.conjugate_s": "catalog.conjugate",
            "catalog.enumerate_s": "catalog.enumerate",
            "catalog.closed_form_s": "catalog.closed_form",
            "catalog.count_arrays_s": "catalog.count_arrays",
            "oracle.search_s": "oracle.search",
            "oracle.canonical_s": "oracle.canonical",
            "oracle.descriptor_to_table_s": "oracle.descriptor_to_table",
            "cli.serialise_s": "cli.command",
            "cli.emit_s": "cli.emit",
            "arith.divisors_s": "arith.divisors",
            "arith.convolve_s": "arith.convolve",
            "arith.gf_coeffs_s": "arith.gf_coeffs",
        }
        out = {name: {"value": val, "unit": "count"} for name, val in counts.items()}
        out.update({name: {"value": self.self_s(span), "unit": "s"}
                    for name, span in seconds.items()})
        out["catalog.orbit_new_ratio"] = {
            "value": ratio(self.orbit_new, self.classes_conjugations), "unit": "ratio"}
        out["catalog.contains_hit_ratio"] = {
            "value": ratio(self.contains_hits, self.count("catalog.contains")),
            "unit": "ratio"}
        return out

    def write(self, path) -> None:
        """Write the span tree and the per-name totals as one JSON file."""
        t0 = self.rec_start[0] if self.rec_start else 0
        doc = {
            "names": self.names,
            "requests": [{"first_span": idx, "command": label}
                         for idx, label in self.requests],
            "totals": {name: {"calls": self.calls[i], "self_s": self.self_ns[i] / 1e9}
                       for i, name in enumerate(self.names)},
            "spans": {
                "name": self.rec_name.tolist(),
                "start_ns": [t - t0 for t in self.rec_start],
                "end_ns": [t - t0 for t in self.rec_end],
                "parent": self.rec_parent.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
