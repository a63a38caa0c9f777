"""Outside-in layer spans: wrap each layer's public entry points.

:class:`Tracer` patches the entry points listed in :data:`ENTRY_POINTS`
with wrappers that record one span per call (layer, label, start, end,
parent span) using ``perf_counter_ns``.  Spans stay in memory and are
written as JSONL when the benchmark ends.  Nothing under ``src/`` knows
about the tracer: every name is patched where it is looked up.

Install before the first machine is built: a ``Machine`` binds
``GuestOS.native`` and ``TaintMap.on_guest_tag_store`` when it is
constructed, so machines built earlier keep the unwrapped methods.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (layer, label, "module[:Class]", attribute, kind).  ``kind`` is
#: "span" (timed), or "count" (counted only: called too often to time).
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("compiler", "", "repro.core.shift", "compile_program", "span"),
    ("compiler", "parse", "repro.compiler.pipeline", "parse", "span"),
    ("compiler", "codegen", "repro.compiler.pipeline", "lower_function",
     "span"),
    ("compiler", "instrument", "repro.compiler.pipeline",
     "instrument_function", "span"),
    ("compiler", "instrument", "repro.compiler.instrument:ShiftInstrumenter",
     "instrument", "span"),
    ("cpu.predecode", "", "repro.cpu.predecode", "predecode", "span"),
    ("cpu.predecode", "fused", "repro.cpu.predecode", "predecode_fused",
     "span"),
    ("runtime.machine", "build", "repro.runtime.machine:Machine", "__init__",
     "span"),
    ("runtime.machine", "run", "repro.runtime.machine:Machine", "run", "span"),
    ("cpu", "", "repro.cpu.core:CPU", "run", "span"),
    ("cpu", "", "repro.cpu.core:CPU", "run_slice", "span"),
    ("cpu", "supervised", "repro.resil.recovery:ResilienceSupervisor",
     "run_supervised", "span"),
    ("cpu", "tag_store", "repro.taint.bitmap:TaintMap", "on_guest_tag_store",
     "count"),
    ("runtime.guest_os", "", "repro.runtime.guest_os:GuestOS", "native",
     "span"),
    ("runtime.guest_os", "syscall", "repro.runtime.guest_os:GuestOS",
     "syscall", "span"),
    ("taint.bitmap", "", "repro.taint.bitmap:TaintMap", "set_range", "span"),
    ("taint.bitmap", "", "repro.taint.bitmap:TaintMap", "taint_flags", "span"),
    ("taint.bitmap", "", "repro.taint.bitmap:TaintMap", "any_tainted", "span"),
    ("taint.bitmap", "", "repro.taint.bitmap:TaintMap", "export_range",
     "span"),
    ("taint.bitmap", "", "repro.taint.bitmap:TaintMap", "import_range",
     "span"),
    ("taint.bitmap", "", "repro.taint.bitmap:TaintMap", "copy_taint", "span"),
    ("taint.engine", "", "repro.taint.engine:PolicyEngine",
     "check_use_point", "span"),
    ("taint.engine", "", "repro.taint.engine:PolicyEngine", "on_fault",
     "span"),
    ("resil", "capture", "repro.resil.checkpoint:DeltaCheckpoint", "capture",
     "span"),
    ("resil", "capture", "repro.resil.checkpoint:MachineCheckpoint",
     "capture", "span"),
    ("resil", "restore", "repro.resil.checkpoint:_SnapshotBase", "restore",
     "span"),
    ("resil", "checkpoint", "repro.resil.recovery:ResilienceSupervisor",
     "checkpoint_now", "span"),
    ("adaptive", "", "repro.adaptive.controller:AdaptiveController",
     "on_boundary", "span"),
    ("spec", "", "repro.spec.controller:SpeculationController",
     "before_native", "span"),
    ("spec", "", "repro.spec.controller:SpeculationController", "on_boundary",
     "span"),
    ("spec", "", "repro.spec.controller:SpeculationController", "handle_trip",
     "span"),
    ("spec", "", "repro.spec.controller:SpeculationController", "finalize",
     "span"),
    ("spec", "watch", "repro.spec.watch:TaintWatch", "build", "span"),
    ("fleet.frontend", "submit", "repro.fleet.frontend:FleetFrontend",
     "submit", "span"),
    ("fleet.frontend", "", "repro.fleet.frontend:FleetFrontend", "add_worker",
     "span"),
    ("fleet.frontend", "", "repro.fleet.frontend:FleetFrontend", "drain",
     "span"),
    ("fleet.frontend", "", "repro.fleet.frontend:FleetFrontend", "retire",
     "span"),
    ("fleet.frontend", "", "repro.fleet.frontend:FleetFrontend", "eject",
     "span"),
    ("serve", "loop", "repro.serve.simclock:ServeSim", "run", "span"),
    ("serve", "autoscaler", "repro.serve.autoscaler:Autoscaler", "observe",
     "span"),
    ("serve", "service_model", "repro.serve.simclock:ServiceModel", "cost",
     "span"),
    # The benchmark generates load through servebench's ``_workload``.
    ("serve", "loadgen", "repro.harness.servebench", "generate", "span"),
)


def _native_label(args) -> str:
    """Native name for a ``GuestOS.native(self, cpu, index)`` call."""
    names = args[0].machine.program.natives
    index = args[2]
    return names[index] if 0 <= index < len(names) else "?"


#: Span labels computed from the call's arguments, by qualified name.
LABELLERS = {"GuestOS.native": _native_label}

#: Counts read off a call's result, by qualified name: (key, measure).
RESULT_COUNTS = {
    "predecode": ("cpu.predecode.uops", len),
    "compile_program": ("compiler.static_instructions",
                        lambda compiled: len(compiled.program.code)),
}


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Span recorder for the entry points in :data:`ENTRY_POINTS`.

    ``spans`` holds ``[layer, label, start_ns, end_ns, parent]`` lists;
    ``parent`` is the index of the enclosing span or -1.  ``counts``
    holds the calls of count-only entry points and the counts of
    :data:`RESULT_COUNTS`.  :meth:`mark` stamps phase boundaries.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.marks: List[Tuple[str, int, Dict[str, int]]] = []
        self._stack: List[int] = []
        #: (owner, attribute, original value in the owner's namespace).
        self._patches: List[Tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point (once; :meth:`uninstall` undoes it)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, label, target, attr, kind in ENTRY_POINTS:
            owner = _resolve(target)
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    self._wrap(layer, label, original.__func__, kind))
            else:
                wrapped = self._wrap(layer, label, original, kind)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, label: str, fn: Callable, kind: str):
        counts = self.counts
        if kind == "count":
            key = f"{layer}.{label}"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted

        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        labeller = LABELLERS.get(fn.__qualname__)
        key, measure = RESULT_COUNTS.get(fn.__qualname__, (None, None))

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = len(spans)
            span = [layer, labeller(args) if labeller else label, clock(), 0,
                    stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if measure is not None:
                counts[key] += measure(result)
            return result
        return spanned

    # -- phases -----------------------------------------------------------

    def mark(self, name: str) -> None:
        """Stamp a phase boundary (with a snapshot of the counts)."""
        self.marks.append((name, time.perf_counter_ns(), dict(self.counts)))

    def window(self, start: str, end: str,
               seconds: Optional[float] = None) -> "Window":
        """Per-layer totals for spans that start between two marks.

        ``seconds`` replaces the marks' distance as the window's wall
        time when the window holds untraced work (calibration probes).
        """
        stamps = {name: (t, counts) for name, t, counts in self.marks}
        t0, c0 = stamps[start]
        t1, c1 = stamps[end]
        counts = Counter({k: v - c0.get(k, 0) for k, v in c1.items()})
        window = Window(self.spans, t0, t1, counts)
        if seconds is not None:
            window.seconds = seconds
        return window

    def export(self, path) -> None:
        """Write the spans as JSON lines (one object per span)."""
        with open(path, "w", encoding="utf-8") as out:
            for name, t, _counts in self.marks:
                out.write(json.dumps({"mark": name, "t_ns": t}) + "\n")
            for i, (layer, label, start, end, parent) in enumerate(
                    self.spans):
                out.write(json.dumps({
                    "id": i, "layer": layer, "label": label,
                    "start_ns": start, "end_ns": end,
                    "parent": parent}) + "\n")


class Window:
    """Span totals inside one phase: self time, span times, calls."""

    def __init__(self, spans: List[list], t0: int, t1: int,
                 counts: Counter) -> None:
        self.seconds = (t1 - t0) / 1e9
        self.counts = counts
        child_ns: Dict[int, int] = defaultdict(int)
        for span in spans:
            if span[4] >= 0:
                child_ns[span[4]] += span[3] - span[2]
        #: (layer, label) -> self seconds / calls.
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Inclusive seconds of individual spans, per (layer, label).
        self.durations: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        self.spans = 0
        for i, (layer, label, start, end, _parent) in enumerate(spans):
            if not t0 <= start < t1:
                continue
            key = (layer, label)
            self.self_s[key] += (end - start - child_ns.get(i, 0)) / 1e9
            self.calls[key] += 1
            self.durations[key].append((end - start) / 1e9)
            self.spans += 1

    def layer_self(self, layer: str, label: Optional[str] = None) -> float:
        """Self seconds of one layer (optionally of one label)."""
        return sum(v for (lay, lab), v in self.self_s.items()
                   if lay == layer and (label is None or lab == label))

    def layer_calls(self, layer: str, label: Optional[str] = None) -> int:
        """Span count of one layer (optionally of one label)."""
        return sum(v for (lay, lab), v in self.calls.items()
                   if lay == layer and (label is None or lab == label))

    @property
    def covered_s(self) -> float:
        """Self time summed over every layer span in the window."""
        return sum(self.self_s.values())
