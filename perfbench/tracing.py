"""Span tracing installed from the benchmark, around semitop's public functions.

The tracer replaces each traced function with a wrapper wherever the
program looks it up: in its home module, in every ``semitop`` module that
imported it by name, and on the class for methods.  Each call becomes a
span with a name, start, end, parent span and op id (the index of the
``cli.main`` call it belongs to).  Self time is the span's duration minus
the time its child spans cover; it is accumulated exactly for every call,
while only the first ``KEEP_PER_NAME`` spans of each name are kept in
memory for the trace file, so that hot functions such as
``PartialMap.compose`` (about a million calls on the sweep) cannot exhaust
memory.

``PartialMap.__call__`` is deliberately never wrapped: it runs tens of
millions of times and a wrapper there would swamp every other span.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

KEEP_PER_NAME = 2000


class Tracer:
    """In-memory span recorder with exact per-name calls and self time."""

    def __init__(self):
        self.op = -1
        self.names: list = []
        self._slot_of: dict = {}
        self.calls: list = []
        self.self_s: list = []
        self.total_s: list = []
        self.spans: list = []       # (id, parent, op, name index, start, end)
        self._kept: list = []
        self._stack: list = []      # frames: [start, child time, span id]
        self._next_id = 0
        self._undo: list = []
        self.missing: list = []

    def _slot(self, name: str) -> int:
        i = self._slot_of.get(name)
        if i is None:
            i = self._slot_of[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self._kept.append(0)
        return i

    def span(self, name: str, fn):
        """Wrap ``fn`` so that every call records a span called ``name``."""
        i = self._slot(name)
        stack = self._stack
        clock = time.perf_counter
        calls, self_s, total_s, kept = (self.calls, self.self_s,
                                        self.total_s, self._kept)

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [clock(), 0.0, sid]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                calls[i] += 1
                self_s[i] += dur - frame[1]
                total_s[i] += dur
                parent = None
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][2]
                if kept[i] < KEEP_PER_NAME:
                    kept[i] += 1
                    self.spans.append((sid, parent, self.op, i, frame[0], end))

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        """Wrap ``fn`` so that calls are counted, without a span."""
        i = self._slot(name)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[i] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installing wrappers where callers look the names up -------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, module: str, qualname: str, name: str,
                span: bool = True) -> None:
        """Trace ``semitop.<module>.<qualname>`` under ``name``.

        A name the program no longer defines is recorded in ``missing``
        and reads as zero calls, so the benchmark keeps running across
        refactors.
        """
        wrap = self.span if span else self.counter
        self._slot(name)
        mod = importlib.import_module(f"semitop.{module}")
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            cls = getattr(mod, owner_name, None)
            member = cls.__dict__.get(attr) if isinstance(cls, type) else None
            if isinstance(member, property):
                self._set(cls, attr, property(wrap(name, member.fget)))
            elif callable(member):
                self._set(cls, attr, wrap(name, member))
            else:
                self.missing.append(name)
            return
        fn = mod.__dict__.get(attr)
        if not callable(fn):
            self.missing.append(name)
            return
        wrapped = wrap(name, fn)
        for m in list(sys.modules.values()):
            mname = getattr(m, "__name__", "")
            if mname != "semitop" and not mname.startswith("semitop."):
                continue
            for key, value in list(vars(m).items()):
                if value is fn:
                    self._set(m, key, wrapped)

    def install_check_spans(self, suites_module) -> None:
        """Give every suite check a span ``suites.check.<check id>``.

        Suite builders return ``(check id, thunk)`` lists; the registry
        entries are replaced by builders whose thunks are traced.
        """
        registry = suites_module.SUITES
        for suite, builder in list(registry.items()):
            def traced_builder(params, seed, _builder=builder):
                return [(cid, self.span(f"suites.check.{cid}", thunk))
                        for cid, thunk in _builder(params, seed)]
            self._undo.append((registry, suite, builder))
            registry[suite] = traced_builder

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    # -- results --------------------------------------------------------

    def stats(self, name: str) -> tuple:
        """(calls, self seconds, inclusive seconds) for one span name."""
        i = self._slot_of.get(name)
        if i is None:
            return 0, 0.0, 0.0
        return self.calls[i], self.self_s[i], self.total_s[i]

    def names_with_prefix(self, prefix: str) -> list:
        return [n for n in self.names if n.startswith(prefix)]

    def write(self, path: Path, header: dict) -> None:
        """Write the kept spans and the exact per-name totals as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header)
        doc["span_fields"] = ["id", "parent", "op", "name", "start", "end"]
        doc["spans_kept_per_name"] = KEEP_PER_NAME
        doc["spans_recorded"] = self._next_id
        doc["missing"] = self.missing
        doc["totals"] = {n: {"calls": self.calls[i], "self_s": self.self_s[i],
                             "total_s": self.total_s[i]}
                         for i, n in enumerate(self.names)}
        doc["spans"] = [[sid, parent, op, self.names[i], start, end]
                        for sid, parent, op, i, start, end in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
