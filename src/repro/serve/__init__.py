"""repro.serve: production serving — open-loop load, latency, autoscaling.

Every earlier harness measured *closed-loop batch throughput*: queue a
batch, divide by cycles.  That number says nothing about what a
million-user deployment experiences, which is **tail latency under
open-loop arrivals** — requests show up on their own schedule, queue
when the fleet is busy, and the p99 is the product.  This package
makes that measurable, wall-clock-free:

* :mod:`repro.serve.loadgen` — seeded heavy-tailed arrival schedules:
  lognormal inter-arrivals, keep-alive sessions with consistent-hash
  affinity keys, phased offered load, optional attack mix.
* :mod:`repro.serve.simclock` — the event-driven serving loop.  Worker
  cycle budgets are *measured* (each distinct payload runs once, for
  real, on a recover-mode Machine) and replayed under a simulated
  clock; requests queue at the :class:`~repro.fleet.frontend
  .FleetFrontend` and record enqueue/dispatch/complete stamps, giving
  p50/p95/p99 latency and queue-depth series, bit-reproducible per
  seed.
* :mod:`repro.serve.autoscaler` — a deterministic EWMA queue-depth
  controller: spawn recover-mode workers past the high-water mark,
  drain (unroutable → queue empties → retire) below the low-water
  mark.

The same workload runs on real OS processes through the one process
runtime, :meth:`repro.fleet.supervised.SupervisedFleet.run`: paced in
wall time, routed by the same session-affinity key, and reported as
the same per-request records in wall seconds — the non-gated reality
check.

``python -m repro.harness.servebench`` sweeps offered load across the
knee and emits ``BENCH_serve.json``.
"""

from repro.serve.autoscaler import Autoscaler, AutoscalerConfig
from repro.serve.loadgen import (
    ATTACK_KINDS,
    LoadConfig,
    LoadPhase,
    ServeRequest,
    describe,
    generate,
    offered_duration,
)
from repro.serve.simclock import (
    RequestRecord,
    ServeResult,
    ServeSim,
    ServiceCost,
    ServiceModel,
    SimClock,
    percentile,
)

__all__ = [
    "ATTACK_KINDS",
    "Autoscaler",
    "AutoscalerConfig",
    "LoadConfig",
    "LoadPhase",
    "RequestRecord",
    "ServeRequest",
    "ServeResult",
    "ServeSim",
    "ServiceCost",
    "ServiceModel",
    "SimClock",
    "describe",
    "generate",
    "offered_duration",
    "percentile",
]
