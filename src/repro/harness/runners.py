"""Shared experiment runners: compile caches and measured runs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.apps.guestvm import (GUESTVM_KV_SOURCE, GUESTVM_PING_SOURCE,
                                GUESTVM_TMPL_SOURCE)
from repro.apps.spec import SpecBenchmark
from repro.apps.specstore import SPECSTORE_SOURCE
from repro.apps.webserver import (
    BACKEND_SOURCE,
    FLEET_PROXY_SOURCE,
    RESIL_WEBSERVER_SOURCE,
    WEBSERVER_SOURCE,
    make_request,
    make_site,
)
from repro.compiler.instrument import ShiftOptions
from repro.compiler.pipeline import CompiledProgram
from repro.core.shift import build_machine, compile_protected
from repro.cpu.perf import PerfCounters
from repro.runtime.machine import Machine
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

_compile_cache: Dict[Tuple[str, str, ShiftOptions, bool], CompiledProgram] = {}


def compiled_spec(bench: SpecBenchmark, options: ShiftOptions,
                  scale: str = "ref",
                  adaptive: bool = False) -> CompiledProgram:
    """Compile a kernel once per (benchmark, options, scale)."""
    key = (bench.name, scale, options, adaptive)
    compiled = _compile_cache.get(key)
    if compiled is None:
        compiled = compile_protected(bench.source(scale), options,
                                     adaptive=adaptive)
        _compile_cache[key] = compiled
    return compiled


def spec_policy(safe_input: bool) -> PolicyConfig:
    """Policy for SPEC runs: disk data tainted unless the run is 'safe'."""
    config = PolicyConfig()
    config.tainted_sources["file"] = not safe_input
    return config


@dataclass
class MeasuredRun:
    """One measured execution."""

    label: str
    cycles: float
    compute_cycles: float
    io_cycles: float
    instructions: int
    exit_code: int
    checksum: int
    counters: PerfCounters


def run_spec(
    bench: SpecBenchmark,
    options: ShiftOptions,
    scale: str = "ref",
    safe_input: bool = False,
    label: str = "",
    engine: str = "predecoded",
    adaptive: str = "none",
) -> MeasuredRun:
    """Run one SPEC kernel under one configuration.

    ``adaptive`` is one of :data:`ADAPTIVE_MODES` (dual-version builds
    for the on-demand tracking experiments).
    """
    if adaptive not in ADAPTIVE_MODES:
        raise ValueError(f"unknown adaptive mode {adaptive!r}")
    compiled = compiled_spec(bench, options, scale,
                             adaptive=adaptive != "none")
    machine = build_machine(
        compiled,
        policy_config=spec_policy(safe_input),
        files={"/data": bench.make_input(scale)},
        engine=engine,
        adaptive_switching=adaptive in ("on", "speculate"),
        speculative=adaptive == "speculate",
    )
    exit_code = machine.run()
    counters = machine.counters
    return MeasuredRun(
        label=label or options.label,
        cycles=counters.cycles,
        compute_cycles=counters.compute_cycles,
        io_cycles=counters.io_cycles,
        instructions=counters.instructions,
        exit_code=exit_code,
        checksum=machine.read_global("result"),
        counters=counters,
    )


def spec_slowdown(bench: SpecBenchmark, options: ShiftOptions,
                  scale: str = "ref", safe_input: bool = False) -> float:
    """Slowdown of one configuration against the uninstrumented build."""
    base = run_spec(bench, PERF_OPTIONS["none"], scale, safe_input)
    run = run_spec(bench, options, scale, safe_input)
    if run.checksum != base.checksum:
        raise AssertionError(
            f"{bench.name}: checksum diverged under {options.label} "
            f"({run.checksum} != {base.checksum})"
        )
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

#: ``adaptive=`` values accepted by the web build path: ``"none"`` is a
#: plain single-version build, ``"on"`` a dual-version build with the
#: mode controller switching, ``"track"`` a dual-version build pinned in
#: track mode (the differential baseline — same code layout as "on"),
#: ``"speculate"`` the controller plus the repro.spec speculation layer
#: (fast-path execution under taint-range guards).
ADAPTIVE_MODES = ("none", "on", "track", "speculate")

_web_cache: Dict[Tuple[str, ShiftOptions, bool], CompiledProgram] = {}


def compiled_webserver(options: ShiftOptions,
                       variant: str = "standard",
                       adaptive: bool = False) -> CompiledProgram:
    """Compile a web-app variant once per (variant, configuration)."""
    if variant not in WEB_VARIANTS:
        raise ValueError(f"unknown web variant {variant!r}")
    key = (variant, options, adaptive)
    compiled = _web_cache.get(key)
    if compiled is None:
        compiled = compile_protected(WEB_VARIANTS[variant], options,
                                     adaptive=adaptive)
        _web_cache[key] = compiled
    return compiled


def build_web_machine(
    variant: str = "standard",
    options: Optional[ShiftOptions] = None,
    *,
    policy_config: Optional[PolicyConfig] = None,
    sizes: Sequence[int] = (4,),
    files: Optional[Dict[str, bytes]] = None,
    engine: str = "predecoded",
    engine_mode: str = "raise",
    recover_watchdog: Optional[int] = None,
    machine_id: Optional[str] = None,
    net_capacity: Optional[int] = None,
    tracing: bool = False,
    trace_path: Optional[str] = None,
    adaptive: str = "none",
) -> Machine:
    """The single parameterized build path for every web-serving guest.

    Used by the Figure-6 runner, resilbench's attack mix, the fleet
    driver/fleetbench and adaptivebench alike, so machine setup lives in
    exactly one place.  ``files`` overrides the default document root
    built from ``sizes``; ``policy_config`` defaults to
    :func:`webserver_policy`; ``adaptive`` is one of
    :data:`ADAPTIVE_MODES`.
    """
    if adaptive not in ADAPTIVE_MODES:
        raise ValueError(f"unknown adaptive mode {adaptive!r}")
    compiled = compiled_webserver(
        options if options is not None else PERF_OPTIONS["byte"], variant,
        adaptive=adaptive != "none")
    return build_machine(
        compiled,
        policy_config=(policy_config if policy_config is not None
                       else webserver_policy()),
        files=files if files is not None else make_site(tuple(sizes)),
        engine=engine,
        engine_mode=engine_mode,
        recover_watchdog=recover_watchdog,
        machine_id=machine_id,
        net_capacity=net_capacity,
        tracing=tracing,
        trace_path=trace_path,
        adaptive_switching=adaptive in ("on", "speculate"),
        speculative=adaptive == "speculate",
    )


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


def run_webserver(options: ShiftOptions, file_kb: int, requests: int = 50,
                  engine: str = "predecoded") -> WebRun:
    """Serve ``requests`` identical requests for one file size."""
    machine = build_web_machine(
        "standard", options, sizes=(file_kb,), engine=engine)
    for _ in range(requests):
        machine.net.add_request(make_request(file_kb))
    served = machine.run(max_instructions=1_000_000_000)
    if served != requests:
        raise ServerShortfallError(served, requests, machine.alerts)
    return WebRun(
        label=options.label,
        file_kb=file_kb,
        requests=requests,
        served=served,
        total_cycles=machine.counters.cycles,
        io_cycles=machine.counters.io_cycles,
    )
