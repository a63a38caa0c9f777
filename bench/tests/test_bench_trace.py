"""The tracer patches cleanly and never changes what the guests do."""

import pytest

from bench.trace import ENTRY_POINTS, Tracer, _resolve
from bench.workloads import StoreSpeculate, WebRecover


def _current():
    return [vars(_resolve(target))[attr]
            for _layer, _label, target, attr, _kind in ENTRY_POINTS]


def test_uninstall_puts_back_every_original():
    originals = _current()
    tracer = Tracer()
    tracer.install()
    try:
        patched = _current()
        assert all(p is not o for p, o in zip(patched, originals))
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert all(now is before for now, before in zip(_current(), originals))


def _web_outcome(workload):
    machine = workload.serve()
    return {"responses": [bytes(c.outbound) for c in machine.net.completed],
            "quarantined": [c.index for c in machine.net.quarantined],
            "alerts": [(a.policy_id, a.pc) for a in machine.alerts],
            "cycles": machine.counters.cycles,
            "instructions": machine.counters.instructions}


def _store_outcome(workload):
    machine = workload.serve("speculate")
    return {**StoreSpeculate.observe(machine),
            "cycles": machine.counters.cycles,
            "rollbacks": machine.spec.rollbacks}


@pytest.mark.parametrize("make, outcome", [
    (lambda: WebRecover(3, batch=25), _web_outcome),
    (lambda: StoreSpeculate(3, mix=5), _store_outcome),
])
def test_traced_and_untraced_runs_agree(make, outcome):
    tracer = Tracer()
    tracer.install()
    try:
        traced = outcome(make())
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert traced == outcome(make())


def test_spans_nest_and_windows_split_self_time():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.mark("start")
        workload = WebRecover(4, batch=6)
        workload.reference()
        tracer.mark("rounds")
        workload.serve()
        tracer.mark("end")
    finally:
        tracer.uninstall()
    for layer, _label, start, end, parent in tracer.spans:
        assert start <= end
        if parent >= 0:
            p_start, p_end = tracer.spans[parent][2:4]
            assert p_start <= start and end <= p_end
    rounds = tracer.window("rounds", "end")
    assert rounds.layer_calls("runtime.machine", "build") == 1
    assert rounds.layer_calls("resil", "capture") >= 6
    assert 0 < rounds.covered_s <= rounds.seconds


def test_host_speed_sampling_changes_no_simulated_result(monkeypatch):
    from bench import run

    monkeypatch.setattr(run, "SAMPLE_EVERY_S", 0.005)
    workload = WebRecover(3, batch=25)
    workload.reference()
    plain = workload.run_round()
    calibration = run.Calibration()
    with calibration.sampling():
        sampled = workload.run_round()
    assert len(calibration.laps) > 10
    assert (sampled.sim, sampled.layers, sampled.failed) == (
        plain.sim, plain.layers, plain.failed)
