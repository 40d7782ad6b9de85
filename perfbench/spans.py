"""Span recorder that wraps the package's public functions from outside.

`install` replaces each traced function, in the namespaces that look it
up at call time, by a wrapper that records a span: its name
(`<module>.<function>`), its parent span, start and end times, whether it
raised, and counters taken from its arguments and result.  Spans stay in
memory; `summarize` turns them into per-layer metrics, `check` verifies
the invariants of any traced run, and `nesting` counts which layer
called which.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

import numpy as np


def _size(_args, _kwargs, result):
    return {"items": int(np.size(result))}


def _length(_args, _kwargs, result):
    return {"items": len(result)}


def _rescale(args, _kwargs, result):
    return {"items": len(result), "offered": len(args[0]),
            "dropped_before": result.dropped_before,
            "dropped_after": result.dropped_after}


def _match(args, _kwargs, result):
    return {"items": len(args[0]), "matched": len(result)}


def _none(_args, _kwargs, _result):
    return {}


# traced function -> counters taken from (args, kwargs, result)
TRACED = {
    "config.resolve": _none,
    "rng.normal_at": _size,
    "timebase.local_time": _size,
    "timebase.reading_time": _size,
    "classical_link.prbs31_bits": _size,
    "classical_link.modulate_ook": _length,
    "classical_link.cdr_track": lambda a, k, r: {"items": len(r.edge_time_s)},
    "classical_link.derive_sync_pulses": _length,
    "classical_link.recovered_fractional_offset": _none,
    "classical_link.synthesize_sync_train": _length,
    "quantum_link.measure_polarization": _size,
    "quantum_link.time_tag": _length,
    "simulate.sample_detections": _length,
    "sync_recovery.rescale": _rescale,
    "sync_recovery.fold": _length,
    "sync_recovery.histogram": lambda a, k, r: {"items": r.total},
    "sync_recovery.fit_gaussian": _none,
    "qkd_analysis.recover_phase": _none,
    "qkd_analysis.refine_anchor": _none,
    "qkd_analysis.match_detections": _match,
    "qkd_analysis.sift": lambda a, k, r: {"items": len(a[0])},
}

# modules whose global names (or, for rng and config, module attributes)
# the package resolves at call time
CALLERS = ("config", "rng", "simulate", "qkd_analysis", "classical_link", "sync_recovery")

# result classes whose `write` method produces the scenario CSVs
WRITERS = ("ArrivalResult", "BlockingResult")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    failed: bool = False
    counters: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span list with the stack of currently open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self._open = []

    def wrap(self, fn, name, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, parent, time.perf_counter())
            index = len(self.spans)
            self.spans.append(span)
            if parent is not None:
                self.spans[parent].children.append(index)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            span.counters = counters(args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every traced function; returns a callable that undoes it."""
        wrappers = {}
        for name, counters in TRACED.items():
            module, func = name.split(".")
            original = getattr(importlib.import_module(f"qkdsync.{module}"), func)
            wrappers[original] = self.wrap(original, name, counters)
        patched = []
        for module in CALLERS:
            mod = importlib.import_module(f"qkdsync.{module}")
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        simulate = importlib.import_module("qkdsync.simulate")
        for cls_name in WRITERS:
            cls = getattr(simulate, cls_name)
            patched.append((cls, "write", cls.write))
            cls.write = self.wrap(cls.write, "simulate.write", _none)

        def uninstall():
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)
        return uninstall


def summarize(spans: list[Span]) -> dict:
    """Per-name totals: self_s, total_s, calls, failed and summed counters."""
    out: dict[str, dict] = {}
    for span in spans:
        child_s = sum(spans[c].total_s for c in span.children)
        row = out.setdefault(span.name, {"self_s": 0.0, "total_s": 0.0,
                                         "calls": 0, "failed": 0})
        row["self_s"] += span.total_s - child_s
        row["total_s"] += span.total_s
        row["calls"] += 1
        row["failed"] += int(span.failed)
        for key, value in span.counters.items():
            row[key] = row.get(key, 0) + value
    return out


def check(spans: list[Span]) -> list[str]:
    """Invariants of any traced run: every span closed and inside its
    parent, and every rescale call accounting for each detection offered."""
    problems = []
    for i, span in enumerate(spans):
        if span.end < span.start:
            problems.append(f"span {i} {span.name} never closed")
        if span.parent is not None:
            p = spans[span.parent]
            if not (p.start <= span.start <= span.end <= p.end):
                problems.append(f"span {i} {span.name} lies outside its parent {p.name}")
        if span.name == "sync_recovery.rescale" and not span.failed:
            c = span.counters
            if c["offered"] != c["items"] + c["dropped_before"] + c["dropped_after"]:
                problems.append(f"rescale span {i}: offered {c['offered']} != rescaled "
                                f"{c['items']} + dropped {c['dropped_before']}"
                                f" + {c['dropped_after']}")
    return problems


def nesting(spans: list[Span]) -> dict:
    """Count of calls per (caller layer, callee layer) edge."""
    edges: dict[str, int] = {}
    for span in spans:
        if span.parent is not None:
            key = f"{spans[span.parent].name} > {span.name}"
            edges[key] = edges.get(key, 0) + 1
    return edges
