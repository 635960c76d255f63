"""Span tracer for the traced benchmark run.

The tracer wraps the library from the outside: the public functions of
each module and the methods the workloads reach through class
attributes.  Every binding is patched, so calls are seen whichever name
they go through: the defining module's attribute, the package
re-export, and names other modules imported with `from ... import`.

Spans (name, start, end, parent span, op id) are kept in flat arrays in
memory and written out at the end.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

MODULES = ("schedule", "perms", "core", "families", "engine", "cli")

# (module, class, attribute, span name) for methods called through the class.
METHODS = (
    ("core", "Automaton", "run", "core.run"),
    ("core", "Automaton", "table_at", "core.table_at"),
    ("core", "Automaton", "bireversibility", "core.bireversibility"),
    ("core", "Automaton", "from_periodic_tables", "core.from_periodic_tables"),
    ("core", "Automaton", "from_rule", "core.from_rule"),
    ("engine", "GroupWord", "__mul__", "engine.words.mul"),
    ("engine", "GroupWord", "__pow__", "engine.words.pow"),
    ("schedule", "AlphabetSchedule", "check_word", "schedule.check_word"),
)

RENAMES = {"engine.classify_two_state_binary": "engine.classify"}

# Work counts read off a call's arguments and result, per span name.
COUNTERS = {
    "engine.decide_equal": ("engine.decide_equal.explored", lambda args, r: r.explored),
    "engine.level_group": ("engine.level_group.order_sum", lambda args, r: r.order),
    "engine.orbit_at_level": ("engine.orbit_at_level.words", lambda args, r: len(r)),
    "engine.steer_to_word": ("engine.steer_to_word.word_factors", lambda args, r: r.word.length),
    "engine.relation_search": ("engine.relation_search.checked", lambda args, r: r.checked),
    "core.run": ("core.run.letters", lambda args, r: len(r[0])),
}

SETUP_OP = -1
SPAN_FIELDS = (("name", "H"), ("start_ns", "q"), ("end_ns", "q"), ("parent", "i"), ("op", "i"))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.arrays = {field: array.array(code) for field, code in SPAN_FIELDS}
        self.counts: dict[str, int] = defaultdict(int)
        self.current = -1
        self.op_id = SETUP_OP
        self._undo: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the library imported as `package` (the tvautomata module)."""
        prefix = package.__name__ + "."
        modules = {short: sys.modules[prefix + short] for short in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                name = f"{short}.{attr}"
                wrapped[fn] = self._wrap(RENAMES.get(name, name), fn)
        bindings = [package] + [m for n, m in sys.modules.items() if n.startswith(prefix)]
        for mod in bindings:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        for short, cls_name, attr, name in METHODS:
            cls = getattr(modules[short], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            else:
                self._set(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()

    def _set(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        a = self.arrays
        name_add, parent_add, op_add = a["name"].append, a["parent"].append, a["op"].append
        start_add, end_add, ends = a["start_ns"].append, a["end_ns"].append, a["end_ns"]
        counter_key, count = COUNTERS.get(name, (None, None))
        counts = self.counts
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            idx = len(ends)
            name_add(nid)
            parent_add(parent)
            op_add(tracer.op_id)
            end_add(0)
            tracer.current = idx
            start_add(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = parent
            if counter_key is not None and tracer.op_id != SETUP_OP:
                counts[counter_key] += count(args, result)
            return result

        return traced

    # -- results --------------------------------------------------------

    def span_times(self):
        """Per-span (duration, self time) in nanoseconds."""
        a = self.arrays
        dur = array.array("q", (e - s for s, e in zip(a["start_ns"], a["end_ns"])))
        own = array.array("q", dur)
        for i, p in enumerate(a["parent"]):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def write(self, path, op_kinds) -> None:
        """A JSON header line, then each span field as a raw array."""
        header = {
            "format": "perfbench-spans-1",
            "names": self.names,
            "spans": len(self.arrays["name"]),
            "fields": [list(f) for f in SPAN_FIELDS],
            "byteorder": sys.byteorder,
            "op_kinds": op_kinds,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in SPAN_FIELDS:
                self.arrays[field].tofile(fh)


def load_spans(path):
    """Read a file written by `Tracer.write`: (header, {field: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        fields = {}
        for field, code in header["fields"]:
            arr = array.array(code)
            arr.fromfile(fh, header["spans"])
            fields[field] = arr
    return header, fields
