"""In-memory span tracing of pulsecc layers, installed from outside the package.

The tracer replaces the module attributes through which the pipeline calls
each layer with timing wrappers and puts the originals back on exit.  Nothing
under src/ knows about it.  A span's self time is its duration minus the time
its child spans cover; calls are single-threaded, so child spans never
overlap and their durations simply add up.
"""
from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int | None          # index of the enclosing span, or None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0        # time covered by direct child spans
    error: str | None = None    # exception class name, when the call raised
    note: tuple = ()            # per-layer facts taken from the return value

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


def _grape_note(res) -> tuple:
    return (res.iterations, res.converged)


def _verify_note(report) -> tuple:
    return (len(report.checks),)


def layer_targets(pc) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, note) for every traced layer entry point.

    Each attribute is the one the pipeline looks up at call time: names that
    pipeline.py imports into its own namespace are wrapped there, names that
    other modules call as globals are wrapped in their home module.
    """
    pipe, opt = pc.pipeline, pc.optctrl
    return [
        (pc.asm, "parse_asm", "asm.parse", None),
        (pipe, "compile_circuit", "pipeline.compile", None),
        (pipe, "build_gdg", "gdg.build", None),
        (pc.commute, "detect_diagonal_blocks", "commute.diag", None),
        (pipe, "build_commutation_groups", "commute.groups", None),
        (pipe, "cls_schedule", "scheduler.cls", None),
        (pipe, "list_schedule", "scheduler.list", None),
        (pipe, "initial_mapping", "mapper.place", None),
        (pipe, "route_swaps", "mapper.route", None),
        (pipe, "aggregate_loop", "aggregator.loop", None),
        (pc.aggregator, "enumerate_actions", "aggregator.enumerate", None),
        (opt.OptimalControlUnit, "synthesize", "optctrl.synthesize", None),
        (opt, "min_time", "optctrl.min_time", None),
        (opt, "grape_optimize", "optctrl.grape", _grape_note),
        (pipe, "sample_verify", "verify.sample", _verify_note),
    ]


class Tracer:
    """Context manager that records spans while its wrappers are installed.

    clock() times the spans; run.py passes one that leaves out the host-speed
    sampling, as its own timings do."""

    def __init__(self, targets, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, note=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                span.error = type(e).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].child_s += span.seconds
            if note is not None:
                span.note = note(out)
            return out

        return traced

    def __enter__(self):
        for owner, attr, name, note in self.targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, note))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    # -- queries over the recorded spans -----------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        """Wall time inside `name`, counting a span nested in a span of the
        same name (a recursive call) only once."""
        total = 0.0
        for s in self.named(name):
            p = s.parent
            while p is not None and self.spans[p].name != name:
                p = self.spans[p].parent
            if p is None:
                total += s.seconds
        return total

    def self_s(self, name: str) -> float:
        return sum((s.self_s for s in self.named(name)), 0.0)

    def count(self, name: str) -> int:
        return len(self.named(name))

    def with_child(self, name: str, child: str) -> int:
        """Number of `name` spans that have a direct `child` span."""
        parents = {s.parent for s in self.named(child)}
        return sum(1 for i, s in enumerate(self.spans)
                   if s.name == name and i in parents)

    def nested_s(self, name: str) -> float:
        """Time in `name` spans whose direct parent is also a `name` span."""
        return sum(s.seconds for s in self.named(name)
                   if s.parent is not None and self.spans[s.parent].name == name)

    def dump(self) -> list:
        return [[s.name, s.parent, s.start, s.end, s.error] for s in self.spans]


def per_call_overhead_s(calls: int = 5000) -> float:
    """Measured cost one wrapper adds to one call, in seconds."""
    def noop():
        return None

    wrapped = Tracer([]).wrap(noop, "noop")
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
