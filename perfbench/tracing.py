"""Spans around the calls into privmetrics, recorded from outside the package.

``Tracer.install`` replaces each public function of the traced modules with a
wrapper, at the attribute its caller looks up: ``compute`` calls
``uncertainty.shannon_entropy`` through its module, so that attribute is
wrapped; it calls ``parse_table`` by the name it imported from ``core``, so
``compute.parse_table`` is wrapped too. A span is named after the module that
defines the function (``core.parse_table``), whichever attribute reached it.

Spans are kept in memory; ``summary`` folds them into per-name counts,
durations and self times (duration minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

TRACED_MODULES = ("cli", "compute", "core", "registry", "uncertainty", "infogain",
                  "indist", "adversary", "tabular")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, child_ns]
        self._open = []

    def begin(self, name: str):
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter_ns(), 0, parent, 0])

    def end(self):
        span = self.spans[self._open.pop()]
        span[2] = time.perf_counter_ns()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def install(self):
        """Wrap every public privmetrics function reachable from a traced module."""
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"privmetrics.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("privmetrics."):
                    continue
                owner = obj.__module__.rsplit(".", 1)[1]
                setattr(mod, attr, self.wrap(f"{owner}.{obj.__name__}", obj))
        cli = importlib.import_module("privmetrics.cli")
        cli._emit = self.wrap("cli.serialize", cli._emit)

    def summary(self) -> dict:
        """{name: [count, duration_ns, self_ns, top_level_parse_ns]}, then clear the spans."""
        out = {}
        for name, start, end, parent, child in self.spans:
            dur = end - start
            agg = out.setdefault(name, [0, 0, 0, 0])
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child
            if is_parse(name) and not (parent >= 0 and is_parse(self.spans[parent][0])):
                agg[3] += dur
        self.spans.clear()
        return out


def is_parse(name: str) -> bool:
    return name.rsplit(".", 1)[1].startswith("parse_")
