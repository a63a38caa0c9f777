"""Deterministic fault-injection campaign (seeded, no wall-clock).

Four injection kinds probe the tracking core and the recovery story:

* ``tag_flip`` — flip a taint-bitmap bit under a *clean* buffer whose
  bytes feed load addresses (the victim kernel below), so the corrupted
  tag must surface as an L1 NaT-consumption at the next table lookup.
  This is the "spurious tag" half of the detection claim: a tag bit
  that feeds a sink is never silently dropped.
* ``nat_drop`` — set the NaT bit of a register about to be consumed as
  a load/store address in a strict-compiled SPEC kernel (the hardware
  bit-flip the paper's deferred-exception machinery must catch).  The
  injector scans a short straight-line window ahead of the paused pc
  for a plain (non-speculative) memory op whose address register is
  not rewritten first, so a NaT planted there is guaranteed to reach
  its consumption point.
* ``read_truncate`` — deliver file reads short (graceful-degradation
  probe: the guest must complete, with zero alerts).
* ``transient`` — fail individual device I/O attempts; the natives'
  bounded retry-with-backoff must absorb them.

Everything is driven by a small LCG stream seeded per trial, so every
campaign run replays bit-for-bit; the same machinery also backs the
differential checkpoint test (inject under both engines, compare).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from repro.compiler.instrument import BYTE_LEVEL
from repro.core.shift import build_machine
from repro.cpu.faults import Fault, NaTConsumptionFault
from repro.isa.instruction import OpKind
from repro.isa.operands import RegClass
from repro.resil.transient import CampaignRng, TransientErrorInjector
from repro.runtime.machine import MachineSpec
from repro.taint.engine import SecurityAlert
from repro.taint.policy import PolicyConfig

@dataclass
class TrialResult:
    """Outcome of one injection trial."""

    workload: str
    kind: str  # 'control' | 'tag_flip' | 'nat_drop' | 'read_truncate' | 'transient'
    seed: int
    armed: bool  # the injection demonstrably feeds a sink
    detected: bool  # a SecurityAlert / NaT fault surfaced
    completed: bool  # the guest ran to completion (degradation probes)
    false_alert: bool  # an alert fired when none should have
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


#: Tag-flip victim: a clean input buffer whose bytes index a table on
#: every pass, so a flipped tag bit under ``buf`` becomes a tainted
#: load address (policy L1) on the next pass.  Compiled strict.
VICTIM_PASSES = 6
VICTIM_BUF = 64
VICTIM_SOURCE = """
native int read(int fd, char *buf, int n);
char buf[64];
char table[512];
int result;
int main() {
    read(0, buf, 64);
    int acc = 0;
    for (int pass = 0; pass < 6; pass = pass + 1) {
        for (int i = 0; i < 64; i = i + 1) {
            acc = acc + table[buf[i]];
        }
    }
    result = acc;
    return acc & 255;
}
"""


def _victim_policy() -> PolicyConfig:
    """stdin is *trusted* here: control runs must carry zero taint."""
    config = PolicyConfig()
    config.tainted_sources["stdin"] = False
    return config


def victim_machine(engine: str = "predecoded"):
    """A fresh strict-compiled victim machine with clean 64-byte input."""
    from repro.harness import runners

    return build_machine(runners.compiled(VICTIM_SOURCE, BYTE_LEVEL),
                         policy_config=_victim_policy(),
                         stdin=bytes(range(VICTIM_BUF)), engine=engine)


def spec_machine(bench_name: str, scale: str = "test",
                 engine: str = "predecoded"):
    """A strict-compiled SPEC kernel with *trusted* file input."""
    from repro.apps.spec import BENCHMARKS
    from repro.harness import runners

    return runners.spec_machine(BENCHMARKS[bench_name], BYTE_LEVEL, scale,
                                safe_input=True,
                                spec=MachineSpec(engine=engine))


# -- injection primitives ------------------------------------------------

def _emit_injection(machine, kind: str, detail: str) -> None:
    if machine.obs is None:
        return
    from repro.obs.events import InjectionEvent

    machine.obs.tracer.emit(InjectionEvent(
        kind=kind, detail=detail,
        instruction_count=machine.cpu.counters.instructions))


def flip_tag(machine, addr: int) -> str:
    """Set the taint tag of one byte (a stuck/flipped bitmap bit)."""
    machine.taint_map.set_taint(addr, True)
    detail = f"tag bit set at {addr:#x}"
    _emit_injection(machine, "tag_flip", detail)
    return detail


#: Opcode families that end the straight-line nat-drop scan window.
_SCAN_STOP = (OpKind.BRANCH, OpKind.CHK, OpKind.SYS,
              OpKind.MOVBR, OpKind.MOVAR)


def _scan_nat_candidate(machine, window: int) -> Optional[Tuple[int, int]]:
    """(register, pc) of a guaranteed NaT consumption ahead of cpu.pc.

    Walks at most ``window`` instructions of unpredicated straight-line
    code for a plain load/store whose GR address register is not
    rewritten in between; stops at branches, checks, breaks and
    predicated instructions, and skips ``.s`` speculative loads (they
    defer a NaT address instead of faulting).
    """
    cpu = machine.cpu
    code = machine.program.code
    n = len(code)
    pc = cpu.pc
    written = set()
    for offset in range(window):
        idx = pc + offset
        if idx >= n:
            return None
        instr = code[idx]
        if instr.qp:
            return None
        kind = instr.kind
        if kind in _SCAN_STOP:
            return None
        if (kind in (OpKind.LOAD, OpKind.STORE)
                and not instr.op.endswith(".s")):
            addr_reg = instr.ins[0]
            if (addr_reg.cls is RegClass.GR and addr_reg.index != 0
                    and addr_reg.index not in written
                    and not cpu.nat[addr_reg.index]):
                return addr_reg.index, idx
        for out in instr.outs:
            if out.cls is RegClass.GR:
                written.add(out.index)
    return None


def arm_nat_drop(machine, rng: CampaignRng, *, window: int = 16,
                 attempts: int = 24) -> Optional[str]:
    """Drop a NaT on a register that must reach a memory consumption.

    Retries at nearby pause points (small forward slices) when the
    current pc has no guaranteed straight-line candidate.  Returns the
    injection detail, or None when the guest halted before a candidate
    was found (the trial is then unarmed).
    """
    cpu = machine.cpu
    for _ in range(attempts):
        if cpu.halted:
            return None
        found = _scan_nat_candidate(machine, window)
        if found is not None:
            reg, consume_pc = found
            cpu.nat[reg] = True
            detail = (f"NaT dropped on r{reg} at pc={cpu.pc}, "
                      f"consumed by pc={consume_pc}")
            _emit_injection(machine, "nat_drop", detail)
            return detail
        cpu.run_slice(50 + rng.randrange(200))
    return None


# -- trial runners -------------------------------------------------------

_calibration: Dict[str, Tuple[int, int]] = {}


def _calibrate(workload: str, make_machine) -> Tuple[int, int]:
    """(clean instruction count, clean result) for a workload, cached."""
    cached = _calibration.get(workload)
    if cached is None:
        machine = make_machine()
        machine.run(max_instructions=500_000_000)
        if machine.alerts:
            raise AssertionError(
                f"control run of {workload} raised alerts: {machine.alerts}")
        result = (machine.read_global("result")
                  if "result" in machine.symbols else 0)
        cached = (machine.counters.instructions, result)
        _calibration[workload] = cached
    return cached


def _resume_and_classify(machine, budget: int) -> Tuple[bool, bool, str]:
    """(detected, completed, detail) after resuming an injected run."""
    try:
        machine.run(max_instructions=budget)
    except SecurityAlert as exc:
        return True, False, f"alert {exc.policy_id}: {exc}"
    except NaTConsumptionFault as exc:
        return True, False, f"nat fault: {exc}"
    except Fault as exc:
        return False, False, f"crashed: {exc}"
    return bool(machine.alerts), True, ""


def tag_flip_trial(seed: int, engine: str = "predecoded") -> TrialResult:
    """Flip one tag bit under the victim's buffer mid-run."""
    rng = CampaignRng(seed)
    clean_count, _ = _calibrate(f"victim[{engine}]",
                                lambda: victim_machine(engine))
    # Pause somewhere with at least one full lookup pass still to run.
    pause = int(clean_count * (0.05 + 0.60 * rng.uniform()))
    machine = victim_machine(engine)
    machine.cpu.run_slice(max(pause, 1))
    armed = not machine.cpu.halted
    detail = ""
    if armed:
        addr = machine.address_of("buf") + rng.randrange(VICTIM_BUF)
        detail = flip_tag(machine, addr)
    detected, completed, why = _resume_and_classify(
        machine, clean_count * 4 + 1_000_000)
    return TrialResult(workload="victim", kind="tag_flip", seed=seed,
                       armed=armed, detected=detected, completed=completed,
                       false_alert=False, detail=detail or why)


def nat_drop_trial(bench_name: str, seed: int, scale: str = "test",
                   engine: str = "predecoded") -> TrialResult:
    """Drop a NaT bit on a consumed address register in a SPEC kernel."""
    rng = CampaignRng(seed)
    workload = f"{bench_name}[{scale},{engine}]"
    clean_count, _ = _calibrate(
        workload, lambda: spec_machine(bench_name, scale, engine))
    pause = int(clean_count * (0.05 + 0.85 * rng.uniform()))
    machine = spec_machine(bench_name, scale, engine)
    machine.cpu.run_slice(max(pause, 1))
    detail = arm_nat_drop(machine, rng)
    armed = detail is not None
    detected, completed, why = (False, True, "halted before arming")
    if armed:
        detected, completed, why = _resume_and_classify(
            machine, clean_count * 4 + 1_000_000)
    return TrialResult(workload=bench_name, kind="nat_drop", seed=seed,
                       armed=armed, detected=detected, completed=completed,
                       false_alert=False, detail=detail or why)


def read_truncate_trial(bench_name: str, seed: int, scale: str = "test",
                        engine: str = "predecoded") -> TrialResult:
    """Short file reads: the kernel must finish with zero alerts."""
    _, clean_result = _calibrate(
        f"{bench_name}[{scale},{engine}]",
        lambda: spec_machine(bench_name, scale, engine))
    machine = spec_machine(bench_name, scale, engine)
    machine.fs.faults = TransientErrorInjector(seed, truncate_rate=0.5)
    try:
        machine.run(max_instructions=500_000_000)
        completed = True
        detail = ""
    except (SecurityAlert, Fault) as exc:
        completed = False
        detail = f"died: {exc}"
    false_alert = bool(machine.alerts)
    if completed:
        result = (machine.read_global("result")
                  if "result" in machine.symbols else 0)
        cuts = machine.fs.faults.injected_truncations
        detail = (f"{cuts} short reads, result "
                  + ("unchanged" if result == clean_result else "degraded"))
    return TrialResult(workload=bench_name, kind="read_truncate", seed=seed,
                       armed=False, detected=False, completed=completed,
                       false_alert=false_alert, detail=detail)


def transient_trial(seed: int, engine: str = "predecoded",
                    requests: int = 4) -> TrialResult:
    """Transient net/file errors under the webserver's retry path."""
    from repro.apps.webserver import make_request
    from repro.fleet.driver import FleetConfig, build_worker

    machine = build_worker(FleetConfig(sizes=(2,), engine=engine,
                                       engine_mode="raise"))
    machine.net.faults = TransientErrorInjector(seed, fail_rate=0.25)
    machine.fs.faults = TransientErrorInjector(seed ^ 0x9E3779B9,
                                               fail_rate=0.25)
    for _ in range(requests):
        machine.net.add_request(make_request(2))
    try:
        served = machine.run(max_instructions=500_000_000)
        completed = True
    except (SecurityAlert, Fault) as exc:
        served, completed = 0, False
    failures = (machine.net.faults.injected_failures
                + machine.fs.faults.injected_failures)
    return TrialResult(
        workload="webserver", kind="transient", seed=seed,
        armed=failures > 0, detected=False, completed=completed,
        false_alert=bool(machine.alerts),
        detail=(f"served {served}/{requests}, {failures} transient errors, "
                f"{machine.os.io_retries} retries, "
                f"{machine.os.io_failures} gave up"))


# -- the campaign --------------------------------------------------------

def run_campaign(*, trials_per_kind: int = 10, seed: int = 12345,
                 engine: str = "predecoded", quick: bool = False,
                 nat_drop_benches: Tuple[str, ...] = ("gzip", "mcf"),
                 scale: str = "test") -> dict:
    """Run every injection kind; returns the aggregate summary dict."""
    if quick:
        trials_per_kind = min(trials_per_kind, 4)
        nat_drop_benches = nat_drop_benches[:1]
    trials: List[TrialResult] = []

    # Uninjected controls (calibration runs double as the zero-false-
    # alert baseline; _calibrate raises if a control run alerts).
    controls = []
    for workload, make in [
        (f"victim[{engine}]", lambda: victim_machine(engine)),
    ] + [(f"{b}[{scale},{engine}]",
          lambda b=b: spec_machine(b, scale, engine))
         for b in nat_drop_benches]:
        count, _ = _calibrate(workload, make)
        controls.append({"workload": workload, "instructions": count,
                         "false_alerts": 0})

    for i in range(trials_per_kind):
        trials.append(tag_flip_trial(seed + i, engine))
    for bench in nat_drop_benches:
        for i in range(trials_per_kind):
            trials.append(nat_drop_trial(bench, seed + 1000 + i,
                                         scale, engine))
    for i in range(max(2, trials_per_kind // 2)):
        trials.append(read_truncate_trial(nat_drop_benches[0],
                                          seed + 2000 + i, scale, engine))
    for i in range(max(2, trials_per_kind // 2)):
        trials.append(transient_trial(seed + 3000 + i, engine))

    summary: Dict[str, dict] = {}
    for kind in ("tag_flip", "nat_drop", "read_truncate", "transient"):
        subset = [t for t in trials if t.kind == kind]
        armed = [t for t in subset if t.armed]
        detected = [t for t in armed if t.detected]
        entry = {
            "trials": len(subset),
            "armed": len(armed),
            "detected": len(detected),
            "completed": sum(1 for t in subset if t.completed),
            "false_alerts": sum(1 for t in subset if t.false_alert),
        }
        if kind in ("tag_flip", "nat_drop"):
            entry["detection_rate"] = (
                len(detected) / len(armed) if armed else None)
        summary[kind] = entry

    return {
        "seed": seed,
        "engine": engine,
        "scale": scale,
        "controls": controls,
        "kinds": summary,
        "trials": [t.to_dict() for t in trials],
    }
