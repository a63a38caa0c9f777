"""The benchmark's four workloads: seeded inputs, set-up, rounds, checks.

A workload is a class.  Its constructor is the set-up a user pays
before any work is done: generate the inputs from the seed, compile and
instrument the guests, measure service budgets.  :meth:`reference` runs
the uninstrumented configuration once (and, for store-speculate, the
always-on one); its outputs are what every timed round is checked
against and its cycles are the base of ``sim_overhead``.
:meth:`run_round` is one repeatable unit of timed work.  The rounds of
one seed do identical work, so their simulated results must repeat
exactly; the runner counts a round that differs as failed.

Every simulated machine starts with empty caches.  All four workloads
are single-threaded and in-process.
"""

from __future__ import annotations

import random
import statistics
import string
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.spec import BENCHMARKS
from repro.apps.specstore import (
    SPECSTORE_SOURCE,
    exec_request,
    get_request,
    put_request,
    stor_request,
    sum_request,
)
from repro.apps.webserver import (
    RESIL_WEBSERVER_SOURCE,
    make_site,
    overflow_request,
    traversal_request,
)
from repro.compiler.instrument import ShiftOptions
from repro.core.shift import build_machine, compile_protected, run_machine
from repro.cpu.faults import Fault, RunawayError
from repro.fleet.driver import FleetConfig
from repro.harness.formatting import geomean
from repro.harness.runners import (
    PERF_OPTIONS,
    spec_policy,
    specstore_policy,
    webserver_policy,
)
from repro.harness.servebench import (
    ATTACK_OPTIONS,
    BASE_WORKERS,
    CURVE_SIZES,
    CURVE_WEIGHTS,
    P99_BOUND,
    SERVE_WATCHDOG,
    _mean_service,
    _workload,
)
from repro.harness.specbench import SPECSTORE_OPTIONS
from repro.isa.instruction import (
    ROLE_NATGEN,
    ROLE_RELAX,
    ROLE_TAG_COMPUTE,
    ROLE_TAG_MEM,
    ROLE_TAINT_SET,
)
from repro.serve import AutoscalerConfig, ServeSim, ServiceModel, percentile
from repro.taint.engine import SecurityAlert

UNINSTRUMENTED = ShiftOptions(mode="none")
ROLES = (ROLE_NATGEN, ROLE_RELAX, ROLE_TAG_COMPUTE, ROLE_TAG_MEM,
         ROLE_TAINT_SET)
#: Aborts a round survives by counting its operations as failed.
GUEST_ERRORS = (Fault, RunawayError, SecurityAlert)

#: Figure 7's byte-level, input-tainted average slowdown (paper 6.2).
PAPER_SPEC_SLOWDOWN = 2.81
#: Instructions each SHIFT kernel runs in specint's untimed warm-up.
WARMUP_INSTRUCTIONS = 500_000

#: Share of the web-recover shard that is overflow or traversal attacks.
WEB_ATTACK_SHARE = 0.08


@dataclass
class Round:
    """What one round did, and what it should repeat exactly."""

    ops: int  # work units behind host_ops_per_s
    attempted: int  # operations checked for correctness
    failed: int
    sim: Dict[str, float]  # end-to-end simulated metrics
    layers: Dict[str, float]  # per-layer simulated metrics and counts
    detail: Dict = field(default_factory=dict)


def machine_layers(machines: Sequence) -> Dict[str, float]:
    """Per-layer simulated metrics summed over a round's machines."""
    out: Counter = Counter()
    cache: Counter = Counter()
    spec_work: Counter = Counter()
    for m in machines:
        c = m.counters
        out["cpu.instructions"] += c.instructions
        out["cpu.cycles"] += c.cycles
        out["cpu.compute_cycles"] += c.compute_cycles
        out["cpu.io_cycles"] += c.io_cycles
        out["cpu.stall_cycles"] += c.stall_cycles
        out["cpu.branch_penalty_cycles"] += c.branch_penalty_cycles
        out["shift.instrumentation_cycles"] += c.instrumentation_cycles()
        for role in ROLES:
            out[f"shift.role_cycles.{role}"] += c.role_cycles(role)
        for level in ("l1", "l2", "l3"):
            stats = getattr(m.cpu.caches, level).stats
            cache[f"{level}.accesses"] += stats.accesses
            cache[f"{level}.misses"] += stats.misses
        out["taint.live_bytes"] += m.taint_map.live_bytes
        out["alerts.total"] += len(m.alerts)
        if m.resil is not None:
            out["resil.pages_captured"] += m.resil.pages_captured
            out["resil.bytes_captured"] += m.resil.bytes_captured
            out["resil.recoveries"] += m.resil.recoveries
        if m.adaptive is not None:
            out["adaptive.switches_to_fast"] += m.adaptive.switches_to_fast
            out["adaptive.switches_to_track"] += m.adaptive.switches_to_track
        if m.spec is not None:
            for name in ("epochs", "commits", "rollbacks", "deferred_bytes"):
                out[f"spec.{name}"] += getattr(m.spec, name)
            spec_work["useful"] += m.spec.committed_instructions
            spec_work["wasted"] += m.spec.wasted_instructions
    out["cpu.ipc"] = (out["cpu.instructions"] / out["cpu.cycles"]
                      if out["cpu.cycles"] else 0.0)
    for level in ("l1", "l2"):
        accesses = cache[f"{level}.accesses"]
        out[f"cache.{level}.miss_rate"] = (
            cache[f"{level}.misses"] / accesses if accesses else 0.0)
    out["cache.l3.misses"] = cache["l3.misses"]
    speculated = spec_work["useful"] + spec_work["wasted"]
    out["spec.useful_frac"] = (spec_work["useful"] / speculated
                               if speculated else 0.0)
    return dict(out)


def _split(total: int, weights: Sequence[float]) -> List[int]:
    """Integer counts proportional to ``weights`` that sum to ``total``."""
    exact = [total * w / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)),
                          key=lambda i: exact[i] - counts[i], reverse=True)
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def _word(rng: random.Random, lo: int, hi: int) -> str:
    return "".join(rng.choice(string.ascii_lowercase)
                   for _ in range(rng.randint(lo, hi)))


# -- specint ---------------------------------------------------------------


class SpecInt:
    """All Figure-7 SPEC kernels, byte-level SHIFT, disk input tainted.

    Set-up compiles every kernel twice (uninstrumented and byte-level
    SHIFT with permissive pointers, as ``PERF_OPTIONS``); the reference
    runs the uninstrumented builds, then warms up every SHIFT build.  A
    round runs every SHIFT build once and checks its checksum against
    the uninstrumented one.  Work units are guest instructions.
    """

    name = "specint"
    unit = "guest instructions"

    def __init__(self, seed: int, kernels: Optional[Sequence[str]] = None,
                 scale: str = "ref") -> None:
        self.benches = [BENCHMARKS[n] for n in (kernels or BENCHMARKS)]
        # Seeded per kernel from the bench seed alone.  SpecBenchmark
        # .make_input salts with hash(name), which changes per process.
        self.inputs = {
            b.name: b.input_maker(random.Random(f"specint/{seed}/{b.name}"),
                                  b.params[scale])
            for b in self.benches}
        self.programs = {
            (b.name, build): compile_protected(b.source(scale),
                                               PERF_OPTIONS[build])
            for b in self.benches for build in ("none", "byte")}
        self.base: Dict[str, Tuple[int, float]] = {}

    def _machine(self, bench, build: str):
        return build_machine(self.programs[(bench.name, build)],
                             policy_config=spec_policy(False),
                             files={"/data": self.inputs[bench.name]})

    def _run(self, bench, build: str):
        machine = self._machine(bench, build)
        result = run_machine(machine)
        return machine, result.fault is None and not result.detected

    def reference(self) -> Tuple[int, int]:
        failed = 0
        for bench in self.benches:
            machine, ok = self._run(bench, "none")
            failed += not ok
            self.base[bench.name] = (machine.read_global("result"),
                                     machine.counters.cycles)
        # The predecoder builds a program's blocks when they first run
        # and keeps them on the program, so the first run of a build
        # also compiles its hot blocks, at a cost that varies widely
        # from one process to the next.  Rounds measure the steady
        # state a long-running process reaches.
        for bench in self.benches:
            try:
                self._machine(bench, "byte").run(
                    max_instructions=WARMUP_INSTRUCTIONS)
            except RunawayError:
                pass
        return len(self.benches), failed

    def run_round(self) -> Round:
        machines, failed, slowdowns = [], 0, {}
        for bench in self.benches:
            machine, ok = self._run(bench, "byte")
            checksum, base_cycles = self.base[bench.name]
            failed += not ok or machine.read_global("result") != checksum
            slowdowns[bench.name] = machine.counters.cycles / base_cycles
            machines.append(machine)
        layers = machine_layers(machines)
        slowdown = geomean(slowdowns.values())
        return Round(
            ops=layers["cpu.instructions"], attempted=len(machines),
            failed=failed,
            sim={"sim_cycles_per_op": layers["cpu.cycles"] / len(machines),
                 "sim_overhead": slowdown},
            layers=layers,
            detail={"sim_slowdown": slowdown,
                    "paper_slowdown": PAPER_SPEC_SLOWDOWN,
                    "slowdown_error": slowdown / PAPER_SPEC_SLOWDOWN - 1,
                    "slowdown_by_kernel": slowdowns})


# -- web-recover -------------------------------------------------------------


def web_request(size_kb: int, host: str) -> bytes:
    """GET of the benchmark file of one size, with a given Host header."""
    return (f"GET /file{size_kb}k.bin HTTP/1.0\r\nHost: {host}\r\n\r\n"
            .encode())


def check_web(kinds: Sequence[str], net, expected: Sequence[bytes]) -> int:
    """Failed requests of one recover-mode batch.

    ``kinds`` gives each queued request's kind in arrival order and
    ``expected`` the reference response of each clean request, in order.
    A clean request fails unless it was answered byte for byte as the
    reference (a clean request the reference did not answer fails); an
    attack fails unless its connection was quarantined.
    """
    quarantined = {c.index for c in net.quarantined}
    answered = {c.index: bytes(c.outbound) for c in net.completed}
    clean = [index for index, kind in enumerate(kinds, start=1)
             if kind == "clean"]
    want = dict(zip(clean, expected))
    failed = 0
    for index, kind in enumerate(kinds, start=1):
        if kind == "clean":
            failed += (index in quarantined or index not in want
                       or answered.get(index) != want[index])
        else:
            failed += index not in quarantined
    return failed


class WebRecover:
    """The resil webserver in recover mode serving one pre-queued shard.

    A delta checkpoint is taken at every accept; overflow and traversal
    attacks roll back and are quarantined.  A round serves the seed's
    shard on a freshly built worker, as a fleet worker receives it.
    Work units are requests.
    """

    name = "web-recover"
    unit = "requests"

    def __init__(self, seed: int, batch: int = 2500) -> None:
        rng = random.Random(f"web-recover/{seed}")
        attacks = round(batch * WEB_ATTACK_SHARE)
        requests = [("clean", web_request(kb, _word(rng, 4, 24) + ".test"))
                    for kb, count in zip(CURVE_SIZES,
                                         _split(batch - attacks,
                                                CURVE_WEIGHTS))
                    for _ in range(count)]
        requests += [("attack", overflow_request() if i % 2 == 0
                      else traversal_request()) for i in range(attacks)]
        rng.shuffle(requests)
        self.kinds = [kind for kind, _ in requests]
        self.payloads = [payload for _, payload in requests]
        self.site = make_site(CURVE_SIZES)
        self.protected = compile_protected(RESIL_WEBSERVER_SOURCE,
                                           ATTACK_OPTIONS)
        self.plain = compile_protected(RESIL_WEBSERVER_SOURCE, UNINSTRUMENTED)
        self.expected: List[bytes] = []
        self.base_cycles = 0.0

    def reference(self) -> Tuple[int, int]:
        machine = build_machine(self.plain, policy_config=webserver_policy(),
                                files=self.site)
        for payload, kind in zip(self.payloads, self.kinds):
            if kind == "clean":
                machine.net.add_request(payload)
        machine.run(max_instructions=2_000_000_000)
        self.expected = [bytes(c.outbound) for c in machine.net.completed]
        self.base_cycles = machine.counters.cycles
        clean = self.kinds.count("clean")
        failed = sum(not r.startswith(b"HTTP/1.0 200") for r in self.expected)
        return clean, failed + max(0, clean - len(self.expected))

    def serve(self):
        """Serve the shard on a fresh recover-mode worker; the machine."""
        machine = build_machine(self.protected,
                                policy_config=webserver_policy(),
                                files=self.site, engine_mode="recover",
                                recover_watchdog=SERVE_WATCHDOG)
        for payload in self.payloads:
            machine.net.add_request(payload)
        machine.run(max_instructions=2_000_000_000)
        return machine

    def run_round(self) -> Round:
        try:
            machine = self.serve()
        except GUEST_ERRORS:
            n = len(self.kinds)
            return Round(ops=n, attempted=n, failed=n, sim={}, layers={})
        failed = check_web(self.kinds, machine.net, self.expected)
        cycles = machine.counters.cycles
        return Round(
            ops=len(self.kinds), attempted=len(self.kinds), failed=failed,
            sim={"sim_cycles_per_op": cycles / len(self.kinds),
                 "sim_overhead": cycles / self.base_cycles},
            layers=machine_layers([machine]))


# -- store-speculate ---------------------------------------------------------


class StoreSpeculate:
    """specstore under speculation: guard trips, rollback and replay.

    The request stream is ``STOR 0 <injection>``, ``PUT 1 <value>``, a
    seeded shuffle of 80% ``SUM`` / 10% ``GET 0`` (guard trip, rollback,
    replay in track) / 10% ``GET 1`` (no trip), then ``EXEC 0`` (H4).
    The reference runs the always-on build (``adaptive="track"``) and
    the uninstrumented floor; a round runs the speculate arm and checks
    its responses, alerts (with pcs) and taint origins against
    always-on.  Work units are requests.
    """

    name = "store-speculate"
    unit = "requests"

    def __init__(self, seed: int, mix: int = 10) -> None:
        rng = random.Random(f"store-speculate/{seed}")
        sums, gets = _split(mix, (0.8, 0.2))
        body = ([sum_request()] * sums + [get_request(1)] * (gets // 2)
                + [get_request(0)] * (gets - gets // 2))
        rng.shuffle(body)
        injection = f"report{rng.randrange(1000)}.txt;rm -rf /".encode()
        value = _word(rng, 8, 40).encode()
        self.requests = ([stor_request(0, injection), put_request(1, value)]
                         + body + [exec_request(0)])
        self.program = compile_protected(SPECSTORE_SOURCE, SPECSTORE_OPTIONS,
                                         adaptive=True)
        self.plain = compile_protected(SPECSTORE_SOURCE, UNINSTRUMENTED)
        self.always_on: Dict = {}
        self.track_cycles = 0.0
        self.track_s = 0.0
        self.floor_cycles = 0.0

    def serve(self, mode: str):
        """Serve the stream on one arm ('speculate', 'track' or 'none')."""
        machine = build_machine(
            self.plain if mode == "none" else self.program,
            policy_config=specstore_policy(), files={},
            engine_mode="record", tracing=mode != "none",
            adaptive_switching=mode == "speculate",
            speculative=mode == "speculate")
        for payload in self.requests:
            machine.net.add_request(payload)
        machine.run(max_instructions=2_000_000_000)
        return machine

    @staticmethod
    def observe(machine) -> Dict:
        """Externally visible outcome: responses, alerts, taint origins."""
        origins = ([] if machine.obs is None else
                   [(o.source, o.label, o.index, o.start, o.length)
                    for o in machine.obs.provenance.origins])
        return {"responses": [bytes(c.outbound)
                              for c in machine.net.completed],
                "alerts": [(a.policy_id, a.pc) for a in machine.alerts],
                "origins": origins}

    def reference(self) -> Tuple[int, int]:
        started = time.perf_counter()
        track = self.serve("track")
        self.track_s = time.perf_counter() - started
        self.always_on = self.observe(track)
        self.track_cycles = track.counters.cycles
        self.floor_cycles = self.serve("none").counters.cycles
        h4_only = [a[0] for a in self.always_on["alerts"]] == ["H4"]
        served = len(self.always_on["responses"]) == len(self.requests)
        return len(self.requests), int(not (h4_only and served))

    def run_round(self) -> Round:
        try:
            machine = self.serve("speculate")
        except GUEST_ERRORS:
            n = len(self.requests)
            return Round(ops=n, attempted=n, failed=n, sim={}, layers={})
        seen = self.observe(machine)
        want = self.always_on
        failed = sum(a != b for a, b in zip(seen["responses"],
                                            want["responses"]))
        failed += abs(len(seen["responses"]) - len(want["responses"]))
        failed += (seen["alerts"] != want["alerts"]
                   or seen["origins"] != want["origins"])
        cycles = machine.counters.cycles
        layers = machine_layers([machine])
        layers["spec.sim_speedup"] = self.track_cycles / cycles
        return Round(
            ops=len(self.requests), attempted=len(self.requests),
            failed=failed,
            sim={"sim_cycles_per_op": cycles / len(self.requests),
                 "sim_overhead": cycles / self.floor_cycles},
            layers=layers,
            detail={"sim_speedup": self.track_cycles / cycles})

    def host_layers(self, round_seconds: Sequence[float],
                    reference_scale: float = 1.0) -> Dict[str, float]:
        """Host-time speedup of speculate over the always-on arm.

        ``round_seconds`` are the rounds' times and ``reference_scale``
        converts the reference's wall time to the same host speed.
        """
        return {"spec.host_speedup": self.track_s * reference_scale
                / statistics.median(round_seconds)}


# -- serve-autoscale ---------------------------------------------------------


def serve_failures(result) -> int:
    """Requests a serving run got wrong.

    A clean request fails unless it was served with no alert; an attack
    fails unless it was quarantined.  Drops and rejections fail.
    """
    failed = 0
    for record in result.records:
        if record.kind == "clean":
            failed += record.outcome != "served" or record.alerts > 0
        else:
            failed += record.outcome != "quarantined"
    return failed


class ServeAutoscale:
    """Open-loop serving over an autoscaled fleet of resil workers.

    Set-up measures the worker service budgets (``ServiceModel``) and,
    at each multiple of the 2-worker capacity in :attr:`RATES`,
    generates :attr:`STREAMS` open-loop workloads of ``requests``
    arrivals with 5% of sessions ending in an attack.  A round serves
    each on a fresh fleet with servebench's queue-depth autoscaler (2 to
    8 workers).  How often the autoscaler churns workers, and so the
    host cost of a request, differs from one arrival stream to the next;
    three streams per rate keep ``host_ops_per_s`` steady from seed to
    seed.  Arrivals are stamped in simulated time, so the generator is
    never late.  Work units are simulated requests; no guest instruction
    executes in a round.
    """

    name = "serve-autoscale"
    unit = "simulated requests"
    RATES = (0.75, 1.1, 2.0, 3.0)
    KNEE = 1.1
    STREAMS = 3

    def __init__(self, seed: int, requests: int = 5000) -> None:
        self.service = ServiceModel(FleetConfig(
            variant="resil", options=ATTACK_OPTIONS, sizes=CURVE_SIZES,
            recover_watchdog=SERVE_WATCHDOG))
        self.mean = _mean_service(self.service, CURVE_SIZES, CURVE_WEIGHTS)
        self.capacity = BASE_WORKERS * 1e6 / self.mean
        #: (rate multiple, stream seed) -> arrivals.
        self.workloads = {
            (mult, stream): _workload(stream, mult * self.capacity, requests,
                                      sizes=CURVE_SIZES,
                                      weights=CURVE_WEIGHTS,
                                      attack_fraction=0.05)
            for mult in self.RATES
            for stream in range(seed * self.STREAMS,
                                (seed + 1) * self.STREAMS)}
        for workload in self.workloads.values():
            for request in workload:
                self.service.cost(request.payload)
        # As servebench's autoscale_run.
        self.autoscaler = AutoscalerConfig(
            min_workers=BASE_WORKERS, max_workers=8,
            interval=self.mean / 4.0, cooldown_ticks=3)
        self.overhead = 0.0

    def reference(self) -> Tuple[int, int]:
        plain = ServiceModel(FleetConfig(
            variant="resil", options=UNINSTRUMENTED, sizes=CURVE_SIZES,
            recover_watchdog=SERVE_WATCHDOG))
        clean = [r.payload for (mult, _), workload in self.workloads.items()
                 if mult == self.KNEE for r in workload if r.kind == "clean"]
        base = sum(plain.cost(p).cycles for p in clean)
        self.overhead = sum(self.service.cost(p).cycles for p in clean) / base
        sizes = {bytes(p) for p in clean}
        failed = sum(plain.cost(p).outcome != "served" for p in sizes)
        return len(sizes), failed

    def run_round(self) -> Round:
        by_rate: Dict[float, list] = {mult: [] for mult in self.RATES}
        for (mult, stream), workload in self.workloads.items():
            by_rate[mult].append(ServeSim(
                workers=BASE_WORKERS, seed=stream,
                service_model=self.service,
                autoscaler=self.autoscaler).run(workload))
        results = [r for runs in by_rate.values() for r in runs]
        records = [x for r in results for x in r.records]
        failed = sum(serve_failures(r) for r in results)
        p99 = {mult: percentile([x for r in runs for x in r.latencies()],
                                99.0)
               for mult, runs in by_rate.items()}
        max_rate = max(
            (mult * self.capacity for mult, runs in by_rate.items()
             if p99[mult] <= P99_BOUND * self.mean and all(
                 r.dropped == 0 and r.frontend.rejected == 0 for r in runs)),
            default=0.0)
        knee = by_rate[self.KNEE]
        done = [x for r in knee for x in r.records if x.complete >= 0.0]
        latency = [x.latency for x in done]
        layers = {
            "serve.latency_p50": percentile(latency, 50.0),
            "serve.latency_p99": percentile(latency, 99.0),
            "serve.queue_wait_p50": percentile([x.queue_wait for x in done],
                                               50.0),
            "serve.queue_wait_p99": percentile([x.queue_wait for x in done],
                                               99.0),
            "serve.service_p50": percentile([x.service for x in done], 50.0),
            "serve.peak_workers": max(r.peak_workers for r in knee),
            "serve.scale_events": sum(len(r.scale_events) for r in knee),
            "serve.utilization_mean": statistics.fmean(
                u for r in knee for u in r.utilization().values()),
            "serve.max_rate": max_rate,
            "frontend.spilled": sum(r.frontend.spilled for r in knee),
            "frontend.dropped": sum(r.frontend.dropped for r in knee),
            "frontend.workers_ever": sum(len(r.workers) for r in knee),
        }
        dispatched = [x.service for x in records if x.dispatch >= 0.0]
        return Round(
            ops=len(records), attempted=len(records), failed=failed,
            sim={"sim_cycles_per_op": statistics.fmean(dispatched),
                 "sim_overhead": self.overhead},
            layers=layers,
            detail={"sim_latency_p50": layers["serve.latency_p50"],
                    "sim_latency_p99": layers["serve.latency_p99"],
                    "sim_max_rate": max_rate,
                    "mean_service_cycles": self.mean,
                    "p99_by_rate": {str(m): v for m, v in p99.items()}})


WORKLOADS = {cls.name: cls for cls in (SpecInt, WebRecover, StoreSpeculate,
                                       ServeAutoscale)}
