"""repro.fleet: sharded multi-machine serving with taint on the wire.

The paper protects one machine; production serving is a *fleet*.  This
package scales the simulated SHIFT machine out: a deterministic load
balancer shards requests across N worker Machines
(:mod:`repro.fleet.frontend`), a driver executes the workers in-process
or across OS processes (:mod:`repro.fleet.driver`), and the
:class:`TaggedMessage` wire format (:mod:`repro.fleet.wire`) carries
payload bytes *and their taint tags* between machines so that policies
on an interior tier still see taint that entered the system tiers away
(:mod:`repro.fleet.tiers`).  Fleet-level metrics merging and incident
reporting live in :mod:`repro.fleet.observe`.

:class:`SupervisedFleet` (:mod:`repro.fleet.supervised`) is the one
process runtime: every run on real OS processes — the driver's
``processes=True`` batches and paced open-loop serving alike — goes
through its spawn, heartbeat, crash-detection, replay and join path.
"""

from repro.fleet.driver import (
    FleetConfig,
    FleetDriver,
    FleetResult,
    migrate_worker,
    run_worker,
)
from repro.fleet.frontend import ROUTING_POLICIES, FleetFrontend, WorkerSlot
from repro.fleet.supervised import SupervisedFleet
from repro.fleet.observe import (
    frontend_metrics,
    incident_report,
    merge_metric_dicts,
    merge_worker_metrics,
    render_incidents,
)
from repro.fleet.tiers import run_two_tier, two_tier_experiment
from repro.fleet.wire import TaggedMessage, WireFormatError

__all__ = [
    "FleetConfig",
    "FleetDriver",
    "FleetFrontend",
    "FleetResult",
    "ROUTING_POLICIES",
    "SupervisedFleet",
    "TaggedMessage",
    "WireFormatError",
    "WorkerSlot",
    "frontend_metrics",
    "incident_report",
    "merge_metric_dicts",
    "merge_worker_metrics",
    "migrate_worker",
    "render_incidents",
    "run_two_tier",
    "run_worker",
    "two_tier_experiment",
]
