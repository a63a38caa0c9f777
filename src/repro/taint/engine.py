"""The policy engine: turns taint events into security alerts.

Low-level policies (L1-L3) trigger on NaT-consumption faults raised by
the processor; high-level policies (H1-H5) are checked by the runtime at
semantic *use points* (``fopen``, ``system``, SQL execution, HTML
output) against the in-memory taint bitmap, exactly the split the paper
describes in sections 3.3.3 and 5.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from repro.obs.provenance import TaintOrigin
    from repro.obs.tracer import Tracer

from repro.cpu.faults import Fault, NaTConsumptionFault
from repro.taint.bitmap import TaintMap
from repro.taint.policy import (
    FAULT_KIND_POLICY,
    HIGH_LEVEL_CHECKS,
    POLICY_BY_ID,
    PolicyConfig,
    PolicyViolation,
    USE_POINT_POLICIES,
)


class SecurityAlert(Exception):
    """Raised when an enabled policy detects an exploit."""

    def __init__(self, violation: PolicyViolation, context: str = "") -> None:
        policy = POLICY_BY_ID[violation.policy_id]
        where = f" [{context}]" if context else ""
        super().__init__(
            f"SECURITY ALERT {violation.policy_id} ({policy.attack}): "
            f"{violation.message}{where}"
        )
        self.violation = violation
        self.context = context

    @property
    def policy_id(self) -> str:
        """Id of the policy that fired (e.g. 'L2')."""
        return self.violation.policy_id


@dataclass
class AlertRecord:
    """A logged alert (used when the engine runs in record mode).

    ``pc``/``instruction_count`` locate the detection in the execution;
    ``origins`` is the taint-provenance chain (populated when the
    machine runs with ``tracing=True``; see :mod:`repro.obs`).
    """

    policy_id: str
    message: str
    context: str = ""
    pc: Optional[int] = None
    instruction_count: int = 0
    origins: List["TaintOrigin"] = field(default_factory=list)


#: How :class:`PolicyEngine` handles an alert (see its ``mode``).
ENGINE_MODES = ("raise", "recover", "record")


@dataclass
class PolicyEngine:
    """Checks taint uses against the configured policies."""

    config: PolicyConfig
    taint_map: TaintMap
    #: 'raise' aborts the guest on the first alert (the paper's default
    #: handling); 'record' logs alerts and lets execution continue, which
    #: the experiment harness uses to count detections; 'recover' raises
    #: like 'raise' but the machine's resilience supervisor catches the
    #: alert, rolls back to the last checkpoint and quarantines the
    #: offending request (see :mod:`repro.resil.recovery`).
    mode: str = "raise"
    alerts: List[AlertRecord] = field(default_factory=list)
    #: Optional observability hooks, wired by the Machine when tracing
    #: is enabled; both stay None on the zero-overhead default path.
    tracer: Optional["Tracer"] = None
    cpu: Optional[object] = None

    def __post_init__(self) -> None:
        if self.mode not in ENGINE_MODES:
            raise ValueError(f"unknown engine mode {self.mode!r}; "
                             f"expected one of {ENGINE_MODES}")

    def _instruction_count(self) -> int:
        if self.cpu is None:
            return 0
        return self.cpu.counters.instructions

    def _report(self, violation: PolicyViolation, context: str,
                pc: Optional[int] = None,
                origins: Optional[List["TaintOrigin"]] = None) -> None:
        record = AlertRecord(
            violation.policy_id, violation.message, context,
            pc=pc,
            instruction_count=self._instruction_count(),
            origins=list(origins or ()),
        )
        self.alerts.append(record)
        if self.tracer is not None:
            from repro.obs.events import AlertEvent

            self.tracer.emit(AlertEvent(
                policy_id=record.policy_id,
                message=record.message,
                context=record.context,
                pc=-1 if record.pc is None else record.pc,
                instruction_count=record.instruction_count,
                origin_ids=tuple(o.origin_id for o in record.origins),
            ))
        if self.mode in ("raise", "recover"):
            alert = SecurityAlert(violation, context)
            # The terminal trace event for this abort was just emitted;
            # Machine.run's incident-report backstop checks this marker.
            alert._obs_traced = self.tracer is not None
            raise alert

    # -- Low-level policies (hardware fault path) -----------------------

    def on_fault(self, cpu: object, fault: Fault) -> None:
        """Fault hook installed on the CPU (L1/L2/L3)."""
        if not isinstance(fault, NaTConsumptionFault):
            return
        policy_id = FAULT_KIND_POLICY.get(fault.kind)
        if policy_id is None or not self.config.is_enabled(policy_id):
            return
        violation = PolicyViolation(policy_id, f"NaT consumption: {fault.kind} at pc={fault.pc}")
        # Register taint carries no per-byte attribution (exactly as the
        # hardware NaT bit does not), so the fault path reports every
        # origin whose taint is still live in memory — for an exploit
        # run that is the offending request/file.
        origins = None
        provenance = getattr(self.taint_map, "provenance", None)
        if provenance is not None:
            origins = provenance.live_origins()
        pc = fault.pc if fault.pc >= 0 else None
        self._report(violation, context=f"pc={fault.pc}", pc=pc, origins=origins)

    # -- High-level policies (semantic use points) ----------------------

    def check_use_point(self, use_point: str, addr: int, data: bytes, context: str = "") -> None:
        """Run every enabled policy registered for ``use_point``.

        ``addr`` locates ``data`` in guest memory so per-byte taint can
        be read from the bitmap.
        """
        policy_ids = USE_POINT_POLICIES.get(use_point)
        if not policy_ids:
            raise ValueError(f"unknown use point {use_point!r}")
        relevant = [pid for pid in policy_ids if self.config.is_enabled(pid)]
        if not relevant:
            return
        flags = self.taint_map.taint_flags(addr, len(data))
        if not any(flags):
            return
        provenance = getattr(self.taint_map, "provenance", None)
        for pid in relevant:
            violation = HIGH_LEVEL_CHECKS[pid](data, flags, self.config.settings)
            if violation is not None:
                origins = None
                if provenance is not None:
                    # Per-byte attribution when the checked buffer still
                    # carries side-table entries; when the guest rebuilt
                    # the data through instrumented stores (which track
                    # taint but not origins), fall back to every origin
                    # with live taint — the same coarsening as register
                    # taint on the fault path.
                    origins = (provenance.origins_in_range(addr, len(data))
                               or provenance.live_origins())
                pc = self.cpu.pc if self.cpu is not None else None
                self._report(violation, context, pc=pc, origins=origins)

    # --------------------------------------------------------------

    def detected(self, policy_id: Optional[str] = None) -> bool:
        """True if any (or the given) policy has alerted."""
        if policy_id is None:
            return bool(self.alerts)
        return any(a.policy_id == policy_id for a in self.alerts)

    def reset(self) -> None:
        """Clear recorded alerts."""
        self.alerts.clear()
