"""Every metric name is declared exactly once in ``repro.obs.metrics``.

Five runs between them reach every collector and every conditional
name: a traced recover-mode webserver under an H2 and an L1 attack with
a bounded accept queue, a speculating specstore, a threaded guest, a
two-worker adaptive fleet that quarantines a request, and an autoscaled
``ServeSim`` that drains by migration, loses a worker and its wire
frames, and serves from workers that commit speculation epochs.  Each
name they emit must match exactly one catalogue row, and each row must
match a name one of them emits.
"""

import pytest

from repro.apps.specstore import contained_mix
from repro.apps.webserver import (
    make_request,
    overflow_request,
    traversal_request,
)
from repro.chaos import ChaosSchedule, RecoveryPolicy
from repro.compiler.instrument import UNINSTRUMENTED, ShiftOptions
from repro.core import build_machine
from repro.fleet.driver import FleetConfig, FleetDriver, build_worker
from repro.fleet.observe import frontend_metrics
from repro.harness.runners import specstore_policy
from repro.obs.metrics import CATALOGUE, render, row
from repro.serve import (
    AutoscalerConfig,
    LoadConfig,
    LoadPhase,
    ServeSim,
    ServiceCost,
    generate,
)
from tests.conftest import BYTE_STRICT
from tests.test_serve import StubModel

THREADED = """
native int thread_create(int fn, int arg);
native int thread_join(int tid);
int square(int x) { return x * x; }
int main() {
    int t = thread_create((int)&square, 12);
    return thread_join(t);
}
"""


def _webserver():
    machine = build_worker(FleetConfig(
        variant="resil", options=ShiftOptions(granularity=1),
        recover_watchdog=2_000_000, tracing=True, net_capacity=8))
    for payload in (make_request(4), overflow_request(), make_request(4),
                    traversal_request(), make_request(4)):
        machine.net.add_request(payload)
    machine.run(max_instructions=200_000_000)
    assert {a.policy_id for a in machine.alerts} >= {"L1", "H2"}
    return machine.metrics()


def _specstore():
    machine = build_worker(FleetConfig(
        variant="specstore", options=BYTE_STRICT,
        policy_config=specstore_policy(), files={}, engine_mode="record",
        adaptive="speculate"))
    for payload in contained_mix(2):
        machine.net.add_request(payload)
    machine.run(max_instructions=2_000_000_000)
    assert machine.spec.commits > 0
    return machine.metrics()


def _threaded():
    machine = build_machine(THREADED, UNINSTRUMENTED)
    assert machine.run(max_instructions=1_000_000) == 144
    return machine.metrics()


def _fleet():
    batch = [make_request(4) for _ in range(4)]
    batch.insert(2, traversal_request())
    result = FleetDriver(FleetConfig(adaptive="on"), workers=2,
                         seed=0).run(batch)
    assert result.quarantined == 1
    return result.metrics()


def _serve():
    workload = generate(LoadConfig(seed=13, phases=[
        LoadPhase(1_000_000.0, 120.0), LoadPhase(1_000_000.0, 4.0),
    ], attack_fraction=0.1))
    # Clean requests commit one speculation epoch each.
    overrides = {r.payload: ServiceCost(cycles=25_000.0, outcome="served",
                                        spec_commits=1)
                 if r.kind == "clean" else
                 ServiceCost(cycles=20_000.0, outcome="quarantined",
                             alerts=1, policy_ids=("H2",))
                 for r in workload}
    chaos = ChaosSchedule.campaign(6, workers=4, duration=2_000_000.0,
                                   crashes=2, corrupt_rate=0.2,
                                   drop_rate=0.1)
    result = ServeSim(
        workers=2, seed=4,
        service_model=StubModel(boot=40_000.0, overrides=overrides,
                                migration_cycles=15_000.0),
        autoscaler=AutoscalerConfig(min_workers=2, max_workers=4,
                                    interval=20_000.0, cooldown_ticks=1),
        chaos=chaos, recovery=RecoveryPolicy(), migrate_on_drain=True,
        queue_capacity=6).run(workload)
    flat = result.metrics()
    assert flat["serve.migrations"] and flat["serve.crashes"]
    return flat, frontend_metrics(result.frontend)


@pytest.fixture(scope="module")
def emitted():
    """Each collector's dict from the five runs, by run and collector."""
    serve, frontend = _serve()
    return {"webserver": _webserver(), "specstore": _specstore(),
            "threaded": _threaded(), "fleet": _fleet(), "serve": serve,
            "frontend": frontend}


def matching_rows(name):
    """Every catalogue row that declares ``name``."""
    return [key for key in CATALOGUE if key == name
            or key.endswith(".*") and name.startswith(key[:-1])]


def test_every_emitted_name_matches_exactly_one_row(emitted):
    bad = {name: matching_rows(name) for flat in emitted.values()
           for name in flat if len(matching_rows(name)) != 1}
    assert not bad


def test_every_row_is_emitted(emitted):
    names = {name for flat in emitted.values() for name in flat}
    unused = [key for key in CATALOGUE
              if not any(key in matching_rows(name) for name in names)]
    assert not unused


def test_machine_names_fold(emitted):
    """Every name a machine emits says how worker snapshots merge."""
    for run in ("webserver", "specstore", "threaded"):
        for name in emitted[run]:
            assert row(name)[1] is not None, name


def test_rows_are_well_formed():
    for key, (unit, fold, help_text) in CATALOGUE.items():
        assert unit and help_text, key
        if isinstance(fold, tuple):
            assert all(row(part)[1] == "sum" for part in fold), key
        else:
            assert fold in ("sum", "max", None), key


def test_render_shows_every_name_with_its_unit(emitted):
    for flat in emitted.values():
        lines = render(flat).splitlines()[2:]
        assert [line.split()[0] for line in lines] == sorted(flat)
        assert all(line.split()[-1] == row(line.split()[0])[0]
                   for line in lines)
