"""Wrong outputs are counted as failed operations."""

from types import SimpleNamespace

from bench import metrics, run
from bench.workloads import WORKLOADS, WebRecover, check_web, serve_failures
from repro.cpu.faults import Fault


def test_a_corrupted_expected_response_is_a_failure():
    workload = WebRecover(2, batch=25)
    workload.reference()
    assert workload.run_round().failed == 0
    net = workload.serve().net
    assert check_web(workload.kinds, net, workload.expected) == 0
    corrupted = list(workload.expected)
    corrupted[3] = corrupted[3][:-1] + bytes([corrupted[3][-1] ^ 1])
    assert check_web(workload.kinds, net, corrupted) == 1
    assert check_web(workload.kinds, net, workload.expected[:-2]) == 2
    workload.expected = corrupted
    assert workload.run_round().failed == 1


def test_an_unquarantined_attack_is_a_failure():
    workload = WebRecover(2, batch=25)
    workload.reference()
    net = workload.serve().net
    attack = workload.kinds.index("attack") + 1
    net.quarantined = [c for c in net.quarantined if c.index != attack]
    assert check_web(workload.kinds, net, workload.expected) == 1


def test_serving_failures_cover_drops_alerts_and_missed_attacks():
    def record(kind, outcome, alerts=0):
        return SimpleNamespace(kind=kind, outcome=outcome, alerts=alerts)

    good = [record("clean", "served"), record("overflow", "quarantined")]
    bad = [record("clean", "dropped"), record("clean", "rejected"),
           record("clean", "served", alerts=1),
           record("traversal", "served"), record("overflow", "dropped")]
    assert serve_failures(SimpleNamespace(records=good)) == 0
    assert serve_failures(SimpleNamespace(records=good + bad)) == len(bad)


class FaultingWebRecover(WebRecover):
    """A small shard whose first ``faulting`` rounds abort in the guest."""

    faulting = 1

    def __init__(self, seed: int) -> None:
        super().__init__(seed, batch=6)
        self.rounds = 0

    def serve(self):
        self.rounds += 1
        if self.rounds <= self.faulting:
            raise Fault("injected")
        return super().serve()


def _run_faulting(monkeypatch, tmp_path, faulting: int, seconds: float):
    monkeypatch.setattr(FaultingWebRecover, "faulting", faulting)
    monkeypatch.setitem(WORKLOADS, "web-recover", FaultingWebRecover)
    monkeypatch.setattr(run, "child_setup_seconds", lambda name, seed: 1.0)
    monkeypatch.setattr(run, "OUT", tmp_path)
    outcome = run.run_untraced("web-recover", 5, seconds)
    return run.report("web-recover", 5, False, outcome)


def test_an_aborted_first_round_is_reported_not_raised(monkeypatch,
                                                       tmp_path):
    result = _run_faulting(monkeypatch, tmp_path, faulting=1, seconds=1.0)
    assert not result["correct"]
    assert result["failed"] == 6
    assert result["attempted"] >= 6 + 6 + 6
    assert set(result["metrics"]) == set(metrics.units("end_to_end"))


def test_a_run_whose_every_round_aborts_reports_only_failures(monkeypatch,
                                                              tmp_path):
    result = _run_faulting(monkeypatch, tmp_path, faulting=99, seconds=0.0)
    assert not result["correct"]
    assert result["metrics"] == {}
    clean = FaultingWebRecover(5).kinds.count("clean")
    assert (result["attempted"], result["failed"]) == (clean + 6, 6)
