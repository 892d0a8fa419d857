"""Per-layer spans and call counts, recorded from outside the program.

While installed, a Tracer rebinds layer functions of equicompress in every
module namespace that holds them, and the group and action subroutines on
their classes.  A layer function call becomes a span (name, start, end,
parent, sample id); a subroutine call increments an exact per-sample count.
Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, function) pairs that get a span named "<module>.<function>".
SPANNED = (
    ("groups", "enumerate_from_generators"),
    ("groups", "group_from_doc"),
    ("actions", "action_from_doc"),
    ("actions", "check_regularity"),
    ("actions", "quotient"),
    ("actions", "induced_action_on_subdivision"),
    ("complexes", "complex_from_doc"),
    ("complexes", "barycentric_subdivision"),
    ("compress", "compress"),
    ("cog", "triple_to_doc"),
    ("cog", "triple_from_doc"),
    ("cog", "validate_triple"),
    ("reconstruct", "reconstruct"),
    ("reconstruct", "recovered_action"),
    ("verify", "verify_roundtrip"),
)

# (module, class, method) triples counted as "<module>.<method>.calls".
COUNTED = (
    ("groups", "FiniteGroup", "prod"),
    ("groups", "FiniteGroup", "inv"),
    ("groups", "FiniteGroup", "minrep"),
    ("actions", "GroupAction", "orb"),
    ("actions", "GroupAction", "stab"),
    ("actions", "GroupAction", "trans"),
)

# The command-line tool's JSON file reader and writer, spanned as cli.json_io.
JSON_IO = ("_load_json", "_dump")

PACKAGE = "equicompress"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, sample]
        self.counts = {}  # sample -> Counter
        self.missing = []  # hooks whose target the program no longer has
        self._stack = []
        self._sample = None

    def start_sample(self, sample):
        self._sample = sample
        self.counts[sample] = Counter()

    def count(self, name, n=1):
        self.counts[self._sample][name] += n

    @contextmanager
    def span(self, name):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._sample]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[self._sample][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _load_json(self, fn):
        def wrapper(path, *args, **kwargs):
            with self.span("cli.json_io"):
                out = fn(path, *args, **kwargs)
            self.count("cli.bytes_read", os.path.getsize(path))
            return out

        return wrapper

    def _dump(self, fn):
        def wrapper(doc, path, *args, **kwargs):
            with self.span("cli.json_io"):
                out = fn(doc, path, *args, **kwargs)
            if path not in (None, "-"):
                self.count("cli.bytes_written", os.path.getsize(path))
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind the hooks for the duration of the block."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        undo = []

        def rebind_everywhere(original, replacement):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, value))
                        setattr(module, attr, replacement)

        try:
            for module_name, fn_name in SPANNED:
                module = sys.modules.get(f"{PACKAGE}.{module_name}")
                original = getattr(module, fn_name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{fn_name}")
                    continue
                rebind_everywhere(original, self._spanned(f"{module_name}.{fn_name}", original))
            cli = sys.modules.get(f"{PACKAGE}.cli")
            for fn_name in JSON_IO:
                original = getattr(cli, fn_name, None)
                if original is None:
                    self.missing.append(f"cli.{fn_name}")
                    continue
                rebind_everywhere(original, getattr(self, fn_name)(original))
            for module_name, cls_name, method in COUNTED:
                cls = getattr(sys.modules.get(f"{PACKAGE}.{module_name}"), cls_name, None)
                original = vars(cls).get(method) if cls is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{cls_name}.{method}")
                    continue
                undo.append((cls, method, original))
                setattr(cls, method, self._counted(f"{module_name}.{method}.calls", original))
            yield
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def self_times(self):
        """sample -> Counter of span name -> summed self time in seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for (name, start, end, _, sample), child in zip(self.spans, covered):
            out.setdefault(sample, Counter())[name] += end - start - child
        return out

    def calls(self):
        """sample -> Counter of span name -> number of spans."""
        out = {}
        for name, _, _, _, sample in self.spans:
            out.setdefault(sample, Counter())[name] += 1
        return out

    def write(self, path, **header):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    **header,
                    "span_fields": ["name", "start", "end", "parent", "sample"],
                    "spans": self.spans,
                    "counts": {str(s): dict(c) for s, c in self.counts.items()},
                    "missing_hooks": self.missing,
                },
                fh,
            )
            fh.write("\n")
