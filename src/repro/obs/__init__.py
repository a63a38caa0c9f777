"""Observability: taint provenance, structured tracing, metrics, forensics.

The paper turns hardware faults into *security alerts*; this package
turns alerts into *evidence*.  It is strictly additive: with
``tracing=False`` (the default) a :class:`~repro.runtime.machine.Machine`
carries no tracer, no provenance table and emits nothing — the
execution hot loop is untouched and counters are bit-identical to the
untraced build.

Components
----------
* :mod:`repro.obs.events` — dataclass trace-event schema
* :mod:`repro.obs.tracer` — bounded ring-buffer tracer + JSONL export
* :mod:`repro.obs.provenance` — numbered taint origins + side table
* :mod:`repro.obs.metrics` — the metric catalogue, collectors and ``render``
* :mod:`repro.obs.report` — per-alert forensic incident reports
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import (
    EVENT_TYPES,
    AdaptiveSwitchEvent,
    AlertEvent,
    CheckpointEvent,
    Event,
    FaultEvent,
    InjectionEvent,
    QuarantineEvent,
    RollbackEvent,
    SyscallEvent,
    TaintSourceEvent,
    TaintStoreEvent,
    ThreadSwitchEvent,
)
from repro.obs.metrics import collect_machine
from repro.obs.provenance import ProvenanceTracker, TaintOrigin
from repro.obs.report import (
    IncidentReport,
    build_incident_report,
    incident_reports,
    render_incidents,
)
from repro.obs.tracer import DEFAULT_CAPACITY, Tracer


class Observability:
    """The per-machine bundle: one tracer plus one provenance tracker."""

    def __init__(self, granularity: int = 1,
                 trace_path: Optional[str] = None) -> None:
        self.tracer = Tracer()
        self.provenance = ProvenanceTracker(granularity=granularity)
        self.trace_path = trace_path

    def export(self) -> Optional[int]:
        """Write the trace to ``trace_path`` (None when no path is set)."""
        if self.trace_path is None:
            return None
        return self.tracer.export_jsonl(self.trace_path)


__all__ = [
    "AdaptiveSwitchEvent",
    "AlertEvent",
    "CheckpointEvent",
    "DEFAULT_CAPACITY",
    "EVENT_TYPES",
    "Event",
    "FaultEvent",
    "IncidentReport",
    "InjectionEvent",
    "Observability",
    "ProvenanceTracker",
    "QuarantineEvent",
    "RollbackEvent",
    "SyscallEvent",
    "TaintOrigin",
    "TaintSourceEvent",
    "TaintStoreEvent",
    "ThreadSwitchEvent",
    "Tracer",
    "build_incident_report",
    "collect_machine",
    "incident_reports",
    "render_incidents",
]
