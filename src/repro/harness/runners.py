"""Shared experiment runners: compile caches and measured runs."""

from __future__ import annotations

import gc
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.guestvm import (GUESTVM_KV_SOURCE, GUESTVM_PING_SOURCE,
                                GUESTVM_TMPL_SOURCE)
from repro.apps.spec import BENCHMARKS, SpecBenchmark
from repro.apps.specstore import SPECSTORE_SOURCE
from repro.apps.webserver import (
    BACKEND_SOURCE,
    FLEET_PROXY_SOURCE,
    RESIL_WEBSERVER_SOURCE,
    WEBSERVER_SOURCE,
    make_request,
)
from repro.compiler.instrument import ShiftOptions
from repro.compiler.pipeline import CompiledProgram
from repro.core.shift import compile_protected
from repro.cpu.perf import PerfCounters
from repro.fleet.driver import EncodedRequest, FleetConfig, run_worker
from repro.runtime.machine import Machine, MachineSpec
from repro.taint.policy import PolicyConfig

#: Instrumentation configurations used throughout the evaluation.
#: SPEC and server perf runs use the permissive pointer policy, exactly
#: because real programs index tables with input data (paper 3.2.2).
PERF_OPTIONS: Dict[str, ShiftOptions] = {
    "none": ShiftOptions(mode="none"),
    "byte": ShiftOptions(granularity=1, pointer_policy="permissive"),
    "word": ShiftOptions(granularity=8, pointer_policy="permissive"),
    "byte-set/clear": ShiftOptions(granularity=1, pointer_policy="permissive",
                                   enh_set_clear=True),
    "word-set/clear": ShiftOptions(granularity=8, pointer_policy="permissive",
                                   enh_set_clear=True),
    "byte-both": ShiftOptions(granularity=1, pointer_policy="permissive",
                              enh_set_clear=True, enh_nat_cmp=True),
    "word-both": ShiftOptions(granularity=8, pointer_policy="permissive",
                              enh_set_clear=True, enh_nat_cmp=True),
    "lift": ShiftOptions(mode="lift"),
}

_compile_cache: Dict[Tuple[str, ShiftOptions, bool], CompiledProgram] = {}


def compiled(source: str, options: ShiftOptions,
             adaptive: bool = False) -> CompiledProgram:
    """Compile a guest (with libc) once per (source, options, layout)."""
    key = (source, options, adaptive)
    if key not in _compile_cache:
        _compile_cache[key] = compile_protected(source, options,
                                                adaptive=adaptive)
    return _compile_cache[key]


def compiled_spec(bench: SpecBenchmark, options: ShiftOptions,
                  scale: str = "ref",
                  adaptive: bool = False) -> CompiledProgram:
    """Compile a kernel once per (benchmark, options, scale)."""
    return compiled(bench.source(scale), options, adaptive)


def paired_times(arms: Dict[str, Callable[[], float]],
                 pairs: int) -> Dict[str, List[float]]:
    """Host seconds of every arm, one call per arm in each pair.

    Each arm is a callable returning the seconds it timed.  Each pair
    rotates the arm order by one (two arms alternate which runs first),
    so every arm takes every position equally often and slow host drift
    (frequency boost decay, cache state) falls on every arm alike.
    Reversing the order instead would run the first and last arms
    twice in a row at the pair boundaries and never the middle one.
    The garbage collector runs before each call and stays off during
    it, so no collection lands inside a timed region.
    """
    names = list(arms)
    times: Dict[str, List[float]] = {name: [] for name in names}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for pair in range(pairs):
            shift = pair % len(names)
            for name in names[shift:] + names[:shift]:
                gc.collect()
                times[name].append(arms[name]())
    finally:
        if was_enabled:
            gc.enable()
    return times


def spec_policy(safe_input: bool) -> PolicyConfig:
    """Policy for SPEC runs: disk data tainted unless the run is 'safe'."""
    config = PolicyConfig()
    config.tainted_sources["file"] = not safe_input
    return config


@dataclass
class MeasuredRun:
    """One measured execution: its cycles, the kernel's ``result``
    checksum and every counter."""

    cycles: float
    checksum: int
    counters: PerfCounters


def spec_machine(bench: SpecBenchmark, options: ShiftOptions,
                 scale: str = "ref", safe_input: bool = False,
                 spec: MachineSpec = MachineSpec()) -> Machine:
    """One SPEC kernel's machine, with its input file at ``/data``.

    The policy is :func:`spec_policy` of ``safe_input``, in place of the
    spec's; an adaptive mode other than ``"none"`` loads the
    dual-version build.
    """
    return Machine(
        compiled_spec(bench, options, scale, adaptive=spec.adaptive != "none"),
        replace(spec, policy_config=spec_policy(safe_input)),
        files={"/data": bench.make_input(scale)})


def run_spec(
    bench: SpecBenchmark,
    options: ShiftOptions,
    scale: str = "ref",
    safe_input: bool = False,
    spec: MachineSpec = MachineSpec(),
) -> MeasuredRun:
    """Run one SPEC kernel under one configuration (:func:`spec_machine`)."""
    machine = spec_machine(bench, options, scale, safe_input, spec)
    machine.run()
    return MeasuredRun(cycles=machine.counters.cycles,
                       checksum=machine.read_global("result"),
                       counters=machine.counters)


class SpecTable:
    """The SPEC runs of one evaluation, each configuration run once.

    A configuration is a kernel, a :class:`ShiftOptions`, tainted or
    safe input and a :class:`MachineSpec`, at the table's scale.  Every
    slowdown goes through :meth:`measure`, which checks the
    instrumented checksum against the uninstrumented twin's on the
    same spec.  The table memoizes for as long as its owner keeps it;
    :func:`run_spec` itself always runs.
    """

    def __init__(self, scale: str) -> None:
        self.scale = scale
        self.runs: Dict[Tuple[str, ShiftOptions, bool, MachineSpec],
                        MeasuredRun] = {}

    def run(self, name: str, options: ShiftOptions,
            safe_input: bool = False,
            spec: MachineSpec = MachineSpec()) -> MeasuredRun:
        """One configuration's run, made on first request."""
        key = (name, options, safe_input, spec)
        if key not in self.runs:
            self.runs[key] = run_spec(BENCHMARKS[name], options, self.scale,
                                      safe_input, spec=spec)
        return self.runs[key]

    def measure(self, name: str, options: ShiftOptions,
                safe_input: bool = False, spec: MachineSpec = MachineSpec(),
                ) -> Tuple[MeasuredRun, MeasuredRun]:
        """(uninstrumented twin, run), after checking their checksums."""
        base = self.run(name, PERF_OPTIONS["none"], safe_input, spec)
        run = self.run(name, options, safe_input, spec)
        if run.checksum != base.checksum:
            raise AssertionError(
                f"{name}: checksum diverged under {options.label} "
                f"({run.checksum} != {base.checksum})"
            )
        return base, run

    def slowdown(self, name: str, options: ShiftOptions,
                 safe_input: bool = False) -> float:
        """Cycles of one configuration over its uninstrumented twin's."""
        base, run = self.measure(name, options, safe_input)
        return run.cycles / base.cycles


# -- web server (Figure 6) ------------------------------------------------


class ServerShortfallError(AssertionError):
    """The server answered fewer requests than the experiment sent.

    Carries the counts and any recorded security alerts so harnesses can
    report *why* the server fell short instead of a bare assertion text.
    """

    def __init__(self, served: int, requested: int, alerts=()) -> None:
        self.served = served
        self.requested = requested
        self.alerts = list(alerts)
        detail = ""
        if self.alerts:
            ids = ", ".join(a.policy_id for a in self.alerts)
            detail = f" (alerts: {ids})"
        super().__init__(
            f"server answered {served}/{requested} requests{detail}")


def webserver_policy() -> PolicyConfig:
    """Server policy: network tainted, static files trusted, H2 armed."""
    config = PolicyConfig()
    config.tainted_sources["network"] = True
    config.tainted_sources["file"] = False
    config.enable("H2")
    return config


def backend_policy() -> PolicyConfig:
    """Interior-tier policy: the frontend terminates the trust boundary.

    A backend behind a fleet frontend treats its own network ingress as
    *trusted* — taint arrives only via the wire-transported tag bits of
    :class:`~repro.fleet.wire.TaggedMessage` — while H2 still guards the
    document root.  This is what makes the two-tier experiment a proof:
    strip the tags and the same traversal bytes sail through.
    """
    config = PolicyConfig()
    config.tainted_sources["network"] = False
    config.tainted_sources["file"] = False
    config.enable("H2")
    return config


def guestvm_policy() -> PolicyConfig:
    """MiniScript VM policy: network tainted, H3 + H4 + H5 armed.

    The high-level Table-1 policies fire at the ``sql``, ``system`` and
    ``html_output`` use points *inside* the interpreter — the taint has
    to survive the VM's fetch/decode/dispatch loop, operand stack, and
    string arena to get there.
    """
    config = PolicyConfig()
    config.tainted_sources["network"] = True
    config.tainted_sources["file"] = False
    config.enable("H3")
    config.enable("H4")
    config.enable("H5")
    return config


def guest_backend_policy() -> PolicyConfig:
    """Interior-tier MiniScript policy: taint arrives only via wire tags.

    Mirrors :func:`backend_policy` for the guest VM: ingress is trusted,
    so detection behind a fleet frontend is load-bearing proof that
    :class:`~repro.fleet.wire.TaggedMessage` tag bits survived the hop.
    """
    config = PolicyConfig()
    config.tainted_sources["network"] = False
    config.tainted_sources["file"] = False
    config.enable("H3")
    config.enable("H4")
    config.enable("H5")
    return config


def specstore_policy() -> PolicyConfig:
    """Contained-taint store policy: interior-tier trust, H4 armed.

    Network ingress is trusted (requests are interior-tier traffic);
    taint enters only through the app's own ``taint_region`` trust
    boundary on stored values.  H4 catches tainted shell
    metacharacters at the ``system`` use point (``EXEC`` requests).
    """
    config = PolicyConfig()
    config.tainted_sources["network"] = False
    config.tainted_sources["file"] = False
    config.enable("H4")
    return config


#: The web applications the harnesses can build, by variant name.
WEB_VARIANTS: Dict[str, str] = {
    "standard": WEBSERVER_SOURCE,
    "resil": RESIL_WEBSERVER_SOURCE,
    "proxy": FLEET_PROXY_SOURCE,
    "backend": BACKEND_SOURCE,
    "guest-kv": GUESTVM_KV_SOURCE,
    "guest-tmpl": GUESTVM_TMPL_SOURCE,
    "guest-ping": GUESTVM_PING_SOURCE,
    "specstore": SPECSTORE_SOURCE,
}

def compiled_webserver(options: ShiftOptions,
                       variant: str = "standard",
                       adaptive: bool = False) -> CompiledProgram:
    """Compile a web-app variant once per (variant, configuration)."""
    if variant not in WEB_VARIANTS:
        raise ValueError(f"unknown web variant {variant!r}")
    return compiled(WEB_VARIANTS[variant], options, adaptive)


@dataclass
class WebRun:
    """One web-server measurement at a given file size."""

    label: str
    file_kb: int
    requests: int
    served: int
    total_cycles: float
    io_cycles: float

    @property
    def latency_cycles(self) -> float:
        """Average simulated cycles per request."""
        return self.total_cycles / max(self.requests, 1)

    @property
    def throughput(self) -> float:
        """Requests per billion cycles (arbitrary but consistent units)."""
        return self.requests / (self.total_cycles / 1e9)


def serve_requests(config: FleetConfig, requests: Sequence[EncodedRequest],
                   worker_id: Optional[str] = None) -> Tuple[Dict, Machine]:
    """Serve ``requests`` on one worker via :func:`run_worker`.

    Returns its ``(summary, machine)``.  A worker that dies (an alert
    in raise mode, a fault recovery did not absorb) raises
    :class:`RuntimeError`: an experiment fails rather than report a run
    that was cut short.
    """
    summary, machine = run_worker(config, worker_id, requests)
    error = summary["error"]
    if error is not None:
        raise RuntimeError(f"worker {summary['worker_id']} died "
                           f"({error['type']}): {error['message']}")
    return summary, machine


def arm_record(summary: Dict) -> Dict:
    """One bench arm's observables, from its worker run's summary.

    Alerts are ``[policy, pc, message]``; ``responses`` and ``metrics``
    are kept for comparisons, not for the report.
    """
    metrics = summary["metrics"]
    return {
        "served": summary["served"],
        "cycles": metrics["cpu.cycles"],
        "io_cycles": metrics["cpu.io_cycles"],
        "instructions": metrics["cpu.instructions"],
        "alerts": [[a["policy_id"], a["pc"], a["message"]]
                   for a in summary["alerts"]],
        "responses": summary["responses"],
        "live_bytes_final": metrics["taint.live_bytes"],
        "metrics": metrics,
    }


def switch_stats(metrics: Dict) -> Optional[Dict]:
    """Mode switches and final mode of one worker run's metrics; None
    when the machine ran without a mode controller."""
    if "adaptive.mode" not in metrics:
        return None
    return {"switches_to_fast": metrics["adaptive.switches_to_fast"],
            "switches_to_track": metrics["adaptive.switches_to_track"],
            "final_mode": "track" if metrics["adaptive.mode"] else "fast"}


def incident_rows(summary: Dict) -> List[Dict]:
    """One worker run's incidents as report rows: request, reason, policy."""
    return [{"request": inc["request_index"], "reason": inc["reason"],
             "policy": inc["policy_id"]} for inc in summary["incidents"]]


def run_webserver(options: ShiftOptions, file_kb: int, requests: int = 50,
                  engine: str = "predecoded") -> WebRun:
    """Serve ``requests`` identical requests for one file size."""
    summary, machine = serve_requests(
        FleetConfig(options=options, sizes=(file_kb,), engine=engine,
                    engine_mode="raise"),
        [(make_request(file_kb), None)] * requests)
    served = summary["served"]
    if served != requests:
        raise ServerShortfallError(served, requests, machine.alerts)
    return WebRun(
        label=options.label,
        file_kb=file_kb,
        requests=requests,
        served=served,
        total_cycles=summary["metrics"]["cpu.cycles"],
        io_cycles=summary["metrics"]["cpu.io_cycles"],
    )
