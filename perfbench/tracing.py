"""Span recorder for the traced benchmark run.

``Tracer.install`` replaces each traced granvar function, in every module
that holds a reference to it (its defining module, the modules that import
it by name, and the benchmark's own modules), with a wrapper that records a
span: name, start, end and parent.  Spans stay in memory until the
operation ends.  Nothing inside the program is edited, so the untraced run
executes exactly the shipped code.

A span's self time is its duration minus the time its child spans cover.
Each traced function belongs to one bucket (a per-layer metric), so the
bucket self times plus the unattributed remainder add up to the traced
operation time.

Some spans also take counts (particles generated, window tests, transects
cast).  Counting runs after the span has ended and before control returns
to the caller; that interval is removed from the parent's self time too, so
counting shows up only in the unattributed remainder.
"""
from __future__ import annotations

import inspect
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

Counter = Callable[[tuple, dict, Any], dict]


def _generate_counts(args, kwargs, field_) -> dict:
    return {"fields.generate_calls": 1, "fields.particles": field_.n}


def _save_csv_counts(args, kwargs, result) -> dict:
    return {"fields.save_csv_bytes": os.path.getsize(args[1])}


def _window_counts(args, kwargs, member) -> dict:
    return {"selection.window_tests": member.size,
            "selection.window_hits": int(np.count_nonzero(member))}


def _enumerate_counts(args, kwargs, result) -> dict:
    return {"selection.subsets_enumerated": 2 ** args[0].n}


def _aggregate_counts(args, kwargs, result) -> dict:
    return {"selection.replicates": args[0].shape[0]}


def _compare_counts(args, kwargs, result) -> dict:
    stats = args[0]
    return {"selection.empty": stats.n_empty, "selection.compared": stats.replicates}


def _cast_counts(args, kwargs, records) -> dict:
    """Hits, plus the share of transect length inside the domain."""
    domain = args[0]
    inside = total = 0.0
    for rec in records:
        ux, uy = np.cos(rec.angle), np.sin(rec.angle)
        exits = [rec.length]
        for start, step, side in ((rec.start[0], ux, domain.width),
                                  (rec.start[1], uy, domain.height)):
            if step > 0:
                exits.append((side - start) / step)
            elif step < 0:
                exits.append(-start / step)
        inside += min(exits)
        total += rec.length
    return {"intercept.cast_calls": 1, "intercept.transects": len(records),
            "intercept.hits": sum(rec.n for rec in records),
            "intercept.in_domain_length": inside, "intercept.length": total}


def _call_counts(args, kwargs, result) -> dict:
    return {"estimators.calls": 1}


#: (module, function, bucket, counter).  ``_window_membership`` is private,
#: but it is the window test itself and the null ensemble calls it directly.
TARGETS: list[tuple[str, str, str, Counter | None]] = [
    ("granvar.cli", "cmd_simulate", "cli.self_s", None),
    ("granvar.cli", "cmd_intercept", "cli.self_s", None),
    ("granvar.scenario", "load_scenario", "scenario.self_s", None),
    ("granvar.scenario", "build_design", "scenario.self_s", None),
    ("granvar.fields", "generate_field", "fields.generate_s", _generate_counts),
    ("granvar.fields", "save_field_csv", "fields.save_csv_s", _save_csv_counts),
    ("granvar.selection", "run_replicates", "selection.draw_s", None),
    ("granvar.selection", "_window_membership", "selection.draw_s", _window_counts),
    ("granvar.selection", "enumerate_design", "selection.enumerate_s", _enumerate_counts),
    ("granvar.selection", "pair_fractions", "selection.aggregate_s", None),
    ("granvar.selection", "inclusion_from_fractions", "selection.aggregate_s",
     _aggregate_counts),
    ("granvar.selection", "empirical_dependence", "selection.aggregate_s", None),
    ("granvar.selection", "compare_estimators", "selection.compare_s", _compare_counts),
    ("granvar.intercept", "cast_transects", "intercept.cast_s", _cast_counts),
    ("granvar.intercept", "transition_counts", "intercept.counts_s", None),
    ("granvar.intercept", "markov_fit", "intercept.markov_s", None),
    ("granvar.intercept", "size_corrected_frequencies", "intercept.other_s", None),
    ("granvar.intercept", "c_from_adjacency", "intercept.other_s", None),
    ("granvar.intercept", "adjacency_dependence_for_field", "intercept.other_s", None),
    ("granvar.experiments", "gy_null_ensemble", "experiments.self_s", None),
]


def estimator_targets() -> list[tuple[str, str, str, Counter | None]]:
    """Every public function defined in ``granvar.estimators``."""
    module = sys.modules["granvar.estimators"]
    return [
        ("granvar.estimators", name, "estimators.s", _call_counts)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
        and not name.startswith("_")
    ]


BUCKETS = sorted({bucket for _, _, bucket, _ in TARGETS} | {"estimators.s"})


@dataclass
class Span:
    name: str
    bucket: str
    parent: int
    start: float
    end: float = 0.0
    # end of the counting that follows the call; equal to ``end`` without it
    released: float = 0.0
    counts: dict | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, name: str, bucket: str, fn, counter: Counter | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, bucket, stack[-1] if stack else -1, 0.0)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = span.released = clock()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
                span.released = clock()
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, extra_modules=()) -> None:
        """Wrap every target wherever a module holds a reference to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "granvar" or n.startswith("granvar.")]
        modules += list(extra_modules)
        for module_name, attr, bucket, counter in TARGETS + estimator_targets():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(f"{module_name.split('.')[-1]}.{attr}", bucket,
                                 original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def take(self) -> list[Span]:
        """Return the recorded spans and start a fresh record."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def reduce_spans(spans: list[Span]) -> tuple[dict[str, float], dict[str, float]]:
    """(self seconds per bucket, summed counts) of one operation's spans."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.released - span.start
    self_s = dict.fromkeys(BUCKETS, 0.0)
    counts: dict[str, float] = {}
    for span, child_time in zip(spans, covered):
        self_s[span.bucket] += (span.end - span.start) - child_time
        for key, value in (span.counts or {}).items():
            counts[key] = counts.get(key, 0) + value
    return self_s, counts
