"""Differential tests: predecoded engine vs the reference step loop.

The predecoded engine (micro-op closures plus fused basic blocks, see
``repro.cpu.predecode``) must be *observably identical* to the
reference dispatch loop: same architectural results, bit-identical
``PerfCounters`` (including the creation order and contents of the
per-role cost buckets), the same cache statistics and set contents, the
same memory pages and dirty set, the same faults at the same pcs, the
same security alerts, and the same trace-event streams.  Every test here
runs one workload under both engines and compares.
"""

import itertools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.spec import BENCHMARKS
from repro.core.shift import build_machine, compile_protected
from repro.cpu import CPU, MASK64, IssueConfig, to_signed
from repro.cpu.faults import Fault, NaTConsumptionFault, RunawayError
from repro.cpu.predecode import MAX_BLOCK, _block, _shape
from repro.isa import assemble
from repro.mem import (
    IMPL_MASK,
    PAGE_SIZE,
    REGION_DATA,
    CacheConfig,
    CacheHierarchy,
    HierarchyConfig,
    SparseMemory,
    make_address,
)
from repro.harness.runners import (
    PERF_OPTIONS,
    compiled_spec,
    compiled_webserver,
    spec_policy,
    webserver_policy,
)
from repro.apps.webserver import make_request, make_site
from repro.taint.policy import PolicyConfig
from tests.conftest import BYTE_STRICT

ENGINES = ("reference", "predecoded")

READ = "native int read(int fd, char *buf, int n);\n"

THREAD_DECLS = """
native int thread_create(int fn, int arg);
native int thread_join(int tid);
native void thread_yield();
"""


def assert_counters_identical(ref, pre):
    """Bit-identical PerfCounters, including RoleCost bucket order."""
    assert ref.snapshot() == pre.snapshot()
    assert ref.groups == pre.groups
    assert ref.branches_taken == pre.branches_taken
    # Bucket creation order is observable (dict iteration order feeds
    # the Figure 9 breakdown tables), so compare keys as lists.
    assert list(ref.pair_costs) == list(pre.pair_costs)
    for key, a in ref.pair_costs.items():
        b = pre.pair_costs[key]
        assert (a.slots, a.issue_cycles, a.stall_cycles) == (
            b.slots, b.issue_cycles, b.stall_cycles), key


def _memory_state(cpu):
    """Every cache level's counters and occupied sets, every memory page
    and the dirty-page set: what generated loads and stores write.

    The pages and the dirty set are the live objects, so compare the
    result before the CPU runs again.
    """
    caches = cpu.caches
    levels = [(c.stats.accesses, c.stats.misses,
               {i: tuple(c._sets[i]) for i in c._occupied})
              for c in (caches.l1, caches.l2, caches.l3)]
    return levels, cpu.memory._pages, cpu.memory.dirty_pages()


def assert_memory_identical(ref_cpu, pre_cpu):
    assert _memory_state(ref_cpu) == _memory_state(pre_cpu)


#: Two sets of one 64-byte line each, with a one-cycle hit cost: misses,
#: evictions and non-zero hit stalls inside generated blocks.
TINY_L1 = HierarchyConfig(l1=CacheConfig(128, 1, hit_extra_cycles=1))


def assert_alerts_identical(ref_machine, pre_machine):
    def strip(alerts):
        return [(a.policy_id, a.message, a.context, a.pc,
                 a.instruction_count) for a in alerts]
    assert strip(ref_machine.alerts) == strip(pre_machine.alerts)


def assert_traces_identical(ref_machine, pre_machine):
    def strip(machine):
        return [(type(e).__name__, vars(e))
                for e in machine.obs.tracer.events()]
    assert strip(ref_machine) == strip(pre_machine)


class TestSpecKernels:
    @pytest.mark.parametrize("config", ["none", "byte", "word-both"])
    def test_gzip_bit_identical(self, config):
        bench = BENCHMARKS["gzip"]
        options = PERF_OPTIONS[config]
        compiled = compiled_spec(bench, options, "test")
        data = bench.make_input("test")
        results = {}
        for engine in ENGINES:
            machine = build_machine(
                compiled, policy_config=spec_policy(False),
                files={"/data": data}, engine=engine)
            machine.run()
            results[engine] = machine
        ref, pre = results["reference"], results["predecoded"]
        assert ref.read_global("result") == pre.read_global("result")
        assert_counters_identical(ref.counters, pre.counters)
        assert_memory_identical(ref.cpu, pre.cpu)
        assert_alerts_identical(ref, pre)

    def test_mcf_bit_identical(self):
        bench = BENCHMARKS["mcf"]
        compiled = compiled_spec(bench, PERF_OPTIONS["byte"], "test")
        data = bench.make_input("test")
        machines = {}
        for engine in ENGINES:
            machine = build_machine(
                compiled, policy_config=spec_policy(False),
                files={"/data": data}, engine=engine)
            machine.run()
            machines[engine] = machine
        ref, pre = machines["reference"], machines["predecoded"]
        assert_counters_identical(ref.counters, pre.counters)
        assert_memory_identical(ref.cpu, pre.cpu)


class TestWebserver:
    def test_served_and_counters_identical(self):
        compiled = compiled_webserver(PERF_OPTIONS["byte"])
        site = make_site((2,))
        machines = {}
        for engine in ENGINES:
            machine = build_machine(
                compiled, policy_config=webserver_policy(),
                files=dict(site), engine=engine)
            for _ in range(5):
                machine.net.add_request(make_request(2))
            served = machine.run(max_instructions=100_000_000)
            assert served == 5
            machines[engine] = machine
        ref, pre = machines["reference"], machines["predecoded"]
        assert_counters_identical(ref.counters, pre.counters)
        assert_memory_identical(ref.cpu, pre.cpu)
        assert_alerts_identical(ref, pre)


ATTACK = READ + """
char src[16];
int main() {
    read(0, src, 8);
    int *p = (int *)(src[0] * 65536);
    return *p;
}
"""


class TestSecurityDetection:
    def test_alert_records_identical(self):
        machines = {}
        faults = {}
        for engine in ENGINES:
            machine = build_machine(
                ATTACK, BYTE_STRICT, policy_config=PolicyConfig(),
                stdin=b"\x42", engine_mode="record", engine=engine)
            # Record mode logs the alert; the hardware fault still
            # terminates the guest on the fault path.
            with pytest.raises(NaTConsumptionFault) as excinfo:
                machine.run(max_instructions=5_000_000)
            machines[engine] = machine
            faults[engine] = excinfo.value
        assert faults["reference"].pc == faults["predecoded"].pc
        assert faults["reference"].kind == faults["predecoded"].kind
        ref, pre = machines["reference"], machines["predecoded"]
        assert len(ref.alerts) >= 1
        assert ref.alerts[0].policy_id == "L1"
        assert_alerts_identical(ref, pre)
        assert_counters_identical(ref.counters, pre.counters)

    def test_fault_pc_identical(self):
        faults = {}
        for engine in ENGINES:
            machine = build_machine(
                ATTACK, BYTE_STRICT, policy_config=PolicyConfig().disable("L1"),
                stdin=b"\x42", engine=engine)
            with pytest.raises(NaTConsumptionFault) as excinfo:
                machine.run(max_instructions=5_000_000)
            faults[engine] = (excinfo.value, machine)
        ref_fault, ref_machine = faults["reference"]
        pre_fault, pre_machine = faults["predecoded"]
        assert ref_fault.kind == pre_fault.kind
        assert ref_fault.pc == pre_fault.pc
        assert str(ref_fault.instr) == str(pre_fault.instr)
        assert ref_machine.cpu.pc == pre_machine.cpu.pc
        assert_counters_identical(ref_machine.counters,
                                  pre_machine.counters)


class TestTraceStreams:
    def test_taint_trace_events_identical(self):
        source = READ + """
        char buf[32];
        int main() {
            read(0, buf, 16);
            int acc = 0;
            for (int i = 0; i < 16; i = i + 1) { acc = acc + buf[i]; }
            return acc & 255;
        }
        """
        machines = {}
        for engine in ENGINES:
            machine = build_machine(
                source, PERF_OPTIONS["byte"], policy_config=PolicyConfig(),
                stdin=b"taint-me-please!", tracing=True, engine=engine)
            machine.exit_code = machine.run(max_instructions=5_000_000)
            machines[engine] = machine
        ref, pre = machines["reference"], machines["predecoded"]
        assert ref.exit_code == pre.exit_code
        assert len(ref.obs.tracer) > 0
        assert_traces_identical(ref, pre)
        assert_counters_identical(ref.counters, pre.counters)


EXIT = "break 0x100000"
_STORE_ADDR = make_address(REGION_DATA, 0x100)

#: One minimal trigger per NaTConsumptionFault kind (paper Table 1's
#: L1-L3 detection paths), asserted identical across both engines.
FAULT_PROGRAMS = {
    "load_addr": f"""
    func main:
        movl r14 = {_STORE_ADDR}
        settag r14
        ld8 r15 = [r14]
        {EXIT}
    endfunc
    """,
    "store_addr": f"""
    func main:
        movl r14 = {_STORE_ADDR}
        settag r14
        st8 [r14] = r0
        {EXIT}
    endfunc
    """,
    "store_value": f"""
    func main:
        movl r13 = {_STORE_ADDR}
        movl r14 = 7
        settag r14
        st8 [r13] = r14
        {EXIT}
    endfunc
    """,
    "branch_move": f"""
    func main:
        movl r14 = 16
        settag r14
        mov b6 = r14
        {EXIT}
    endfunc
    """,
    "ar_move": f"""
    func main:
        movl r14 = 255
        settag r14
        mov ar.unat = r14
        {EXIT}
    endfunc
    """,
}


def _exit_syscall(cpu):
    cpu.halted = True
    cpu.exit_code = cpu.read_gr(32)


def _asm_cpu(text, engine, syscall_handler=_exit_syscall):
    return CPU(assemble(text), SparseMemory(),
               syscall_handler=syscall_handler, engine=engine)


def _open_group(cpu):
    im = cpu.issue
    return (len(im._group), im._group_writes, im._group_pr_writes,
            im._group_mem, im._group_slots)


class TestFaultKindsDifferential:
    @pytest.mark.parametrize("kind", NaTConsumptionFault.KINDS)
    def test_every_kind_identical(self, kind):
        outcomes = {}
        cpus = {}
        for engine in ENGINES:
            cpu = _asm_cpu(FAULT_PROGRAMS[kind], engine)
            with pytest.raises(NaTConsumptionFault) as excinfo:
                cpu.run(max_instructions=1_000)
            fault = excinfo.value
            assert fault.kind == kind
            # Fault.at() attached the faulting pc and instruction.
            assert fault.pc >= 0
            assert fault.instr is not None
            outcomes[engine] = (fault.pc, str(fault.instr),
                                cpu.counters.snapshot())
            cpus[engine] = cpu
        assert outcomes["reference"] == outcomes["predecoded"]
        # The faulting member follows a certain group close, so the
        # group left open by the fault comes from a fixed issue schedule:
        # it must match, and closing it must charge the same members.
        ref, pre = cpus["reference"], cpus["predecoded"]
        assert _open_group(ref) == _open_group(pre)
        ref.issue.flush()
        pre.issue.flush()
        assert_counters_identical(ref.counters, pre.counters)

    def test_runaway_identical(self):
        text = f"""
        func main:
            movl r14 = 0
        loop:
            add r14 = r14, r14
            br loop
            {EXIT}
        endfunc
        """
        outcomes = {}
        for engine in ENGINES:
            cpu = _asm_cpu(text, engine)
            with pytest.raises(RunawayError):
                cpu.run(max_instructions=1_000)
            outcomes[engine] = cpu.counters.snapshot()
        assert outcomes["reference"] == outcomes["predecoded"]


#: Block terminators that run only as one-instruction blocks, each
#: with the outcome it must reach: (program, syscall handler, expected
#: fault message or None for a clean exit).
TERMINATOR_PROGRAMS = {
    "br_ind_invalid_slot": (f"""
    func main:
        movl r14 = 0x1000
        mov b6 = r14
        br.ind b6
        {EXIT}
    endfunc
    """, _exit_syscall, "indirect branch to invalid slot 255"),
    "br_call_ind_invalid_slot": (f"""
    func main:
        mov b6 = r0
        br.call b0 = b6
        {EXIT}
    endfunc
    """, _exit_syscall, "indirect branch to invalid slot -1"),
    "br_ind_predicated_off": (f"""
    func main:
        movl r14 = 0x1000
        mov b6 = r14
        cmp.eq p6, p7 = r14, r0
        (p6) br.ind b6
        movl r32 = 7
        {EXIT}
    endfunc
    """, _exit_syscall, None),
    "break_unknown_immediate": (f"""
    func main:
        movl r14 = 1
        break 0x1234
        {EXIT}
    endfunc
    """, _exit_syscall, "break 0x1234"),
    "break_syscall_without_handler": (f"""
    func main:
        movl r32 = 3
        {EXIT}
    endfunc
    """, None, "no syscall handler installed"),
}


#: An address whose first four bytes are implemented and whose last four
#: (of an 8-byte access) are not.
_EDGE_ADDRESS = make_address(REGION_DATA, IMPL_MASK - 3)


class TestSpeculativeLoadEdge:
    def test_ld8s_reaching_past_implemented_space_defers(self):
        """An ``ld8.s`` whose last bytes are unimplemented defers into
        NaT (value 0, no cache access) under both engines, as one whose
        first byte is unimplemented does."""
        cpus = []
        for engine in ENGINES:
            cpu = _asm_cpu(f"func main:\nld8.s r15 = [r14]\n{EXIT}\n"
                           "endfunc", engine)
            cpu.write_gr(14, _EDGE_ADDRESS)
            cpu.write_gr(15, 7)
            cpu.run(max_instructions=10)
            assert cpu.halted
            assert (cpu.read_gr(15), cpu.read_nat(15)) == (0, True)
            assert cpu.caches.l1.stats.accesses == 0
            cpus.append(cpu)
        assert _cpu_state(cpus[0]) == _cpu_state(cpus[1])


class TestTerminatorsDifferential:
    @pytest.mark.parametrize("name", sorted(TERMINATOR_PROGRAMS))
    def test_terminator_identical(self, name):
        text, handler, message = TERMINATOR_PROGRAMS[name]
        outcomes = {}
        for engine in ENGINES:
            cpu = _asm_cpu(text, engine, syscall_handler=handler)
            try:
                cpu.run(max_instructions=1_000)
                fault = None
            except Fault as exc:
                fault = (type(exc).__name__, str(exc), exc.pc)
            outcomes[engine] = (fault, cpu.pc, cpu.halted,
                                cpu.counters.snapshot())
        assert outcomes["reference"] == outcomes["predecoded"]
        fault = outcomes["reference"][0]
        if message is None:
            assert fault is None and outcomes["reference"][2]
        else:
            assert fault[:2] == ("IllegalInstructionFault", message)


#: One program per superblock shape, with the member count of the fused
#: block led by ``main``'s first instruction.
SUPERBLOCK_PROGRAMS = {
    "side_exit_not_taken": (f"""
    func main:
        movl r14 = 1
        cmp.eq p6, p7 = r14, r0
        (p6) br.cond out
        add r15 = r14, r14
        movl r32 = 3
    out:
        {EXIT}
    endfunc
    """, 5),
    "side_exit_taken": (f"""
    func main:
        movl r14 = 1
        cmp.ne p6, p7 = r14, r0
        (p6) br.cond out
        add r15 = r14, r14
        movl r32 = 3
    out:
        {EXIT}
    endfunc
    """, 5),
    "followed_br": (f"""
    func main:
        movl r14 = 1
        br next
        movl r14 = 2
    next:
        add r15 = r14, r14
        {EXIT}
    endfunc
    """, 3),
    "followed_br_call": (f"""
    func main:
        movl r14 = 1
        br.call b1 = twice
        add r16 = r15, r14
        {EXIT}
    twice:
        add r15 = r14, r14
        br.ret b1
    endfunc
    """, 3),
    "stops_at_held_pc": (f"""
    func main:
        movl r14 = 3
    top:
        adds r14 = -1, r14
        cmp.eq p6, p7 = r14, r0
        (p6) br.cond done
        br top
    done:
        {EXIT}
    endfunc
    """, 5),
    "cap_after_followed_branch": ("\n".join(
        ["func main:", "movl r14 = 1"]
        + ["add r15 = r15, r14"] * (MAX_BLOCK - 2)
        + ["br next", "movl r15 = 0", "next:", "add r16 = r15, r14", EXIT,
           "endfunc"]), MAX_BLOCK),
    "fault_after_followed_branch": (f"""
    func main:
        movl r14 = {_STORE_ADDR}
        settag r14
        movl r15 = 5
        br next
        movl r14 = 0
    next:
        ld8 r16 = [r14]
        {EXIT}
    endfunc
    """, 5),
}


class TestSuperblocks:
    @pytest.mark.parametrize("name", sorted(SUPERBLOCK_PROGRAMS))
    def test_shape_identical(self, name):
        """Each shape runs as one fused block and as single micro-ops:
        both match the reference down to the fault pc, the partial
        instruction count and the group left open."""
        text, members = SUPERBLOCK_PROGRAMS[name]
        program = assemble(text)
        shape = _shape(_asm_cpu(text, "predecoded"))
        assert len(_block(program, shape, 0, MAX_BLOCK)[1]) == members
        for budget in (1_000, 1):
            cpus = [_asm_cpu(text, engine) for engine in ENGINES]
            outcomes = []
            for cpu in cpus:
                outcome = None
                while not (cpu.halted or outcome):
                    outcome = _run_outcome(cpu, budget)[1]
                outcomes.append(outcome)
            assert outcomes[0] == outcomes[1]
            assert _issue_state(cpus[0]) == _issue_state(cpus[1])
            assert _cpu_state(cpus[0]) == _cpu_state(cpus[1])
            if name.startswith("fault"):
                assert outcomes[1] == ("NaTConsumptionFault",
                                       "NaT consumption fault (load_addr)",
                                       program.label_index("next"))
                assert cpus[1].counters.instructions == 4
            else:
                assert outcomes[1] is None


#: The boundaries of the signed 64-bit range, as unsigned register values.
_SIGNED_EDGES = (0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1)


class TestSignedOperations:
    @pytest.mark.parametrize("a, b", itertools.product(_SIGNED_EDGES,
                                                        repeat=2))
    def test_signed_forms_identical(self, a, b):
        """Signed compares, ``mul`` and ``shr`` at the range edges, with
        register, immediate and r0 operands, fused and single-stepped."""
        rels = {"lt": operator.lt, "le": operator.le, "gt": operator.gt,
                "ge": operator.ge}
        forms = ("r15", hex(b), "r0")
        # Predicate pairs p2/p3 ... p24/p25, one per relation and form.
        ops = [f"cmp.{rel} p{p}, p{p + 1} = r14, {src}"
               for p, (rel, src) in zip(itertools.count(2, 2),
                                        itertools.product(rels, forms))]
        ops += [f"{op} r{16 + k} = r14, {src}" for k, (op, src) in enumerate(
            itertools.product(("mul", "shr"), forms[:2]))]
        ops += ["cmp.lt p30, p31 = r0, r15", "shr r20 = r0, r15"]
        text = "\n".join(["func main:", f"movl r14 = {hex(a)}",
                          f"movl r15 = {hex(b)}", *ops, EXIT, "endfunc"])
        for budget in (1_000, 1):
            states = []
            for engine in ENGINES:
                cpu = _asm_cpu(text, engine)
                while not cpu.halted:
                    cpu.run_slice(budget)
                states.append(_cpu_state(cpu))
            assert states[0] == states[1]
        sa, sb = to_signed(a), to_signed(b)
        assert [cpu.pr[p] for p in range(2, 26, 2)] == [
            rel(sa, other) for rel in rels.values() for other in (sb, sb, 0)]
        assert cpu.pr[30] == (0 < sb)
        assert cpu.read_gr(16) == cpu.read_gr(17) == (sa * sb) & MASK64
        assert cpu.read_gr(18) == cpu.read_gr(19) == (
            (sa >> min(b, 63)) & MASK64)


class TestProgramSourceCache:
    def test_issue_model_does_not_leak_between_machines(self):
        """Generated sources are cached on the program: a narrow
        machine's issue limits must not reach a later default machine."""
        bench = BENCHMARKS["gzip"]
        options = PERF_OPTIONS["byte"]
        source = bench.source("test")
        data = bench.make_input("test")

        def counters(compiled, engine="predecoded", issue_config=None):
            machine = build_machine(
                compiled, policy_config=spec_policy(False),
                files={"/data": data}, issue_config=issue_config,
                engine=engine)
            machine.run()
            return machine.counters.snapshot()

        shared = compile_protected(source, options)
        counters(shared, issue_config=IssueConfig(width=1, mem_ports=1))
        after_narrow = counters(shared)
        assert after_narrow == counters(compile_protected(source, options))
        assert after_narrow == counters(shared, engine="reference")

    def test_l1_geometry_does_not_leak_between_machines(self):
        """Blocks embed the L1 geometry and hit cost: a tiny-L1 machine's
        blocks must not reach a later default machine on the program."""
        bench = BENCHMARKS["gzip"]
        options = PERF_OPTIONS["byte"]
        source = bench.source("test")
        data = bench.make_input("test")

        def run(compiled, engine="predecoded", cache_config=None):
            machine = build_machine(
                compiled, policy_config=spec_policy(False),
                files={"/data": data}, cache_config=cache_config,
                engine=engine)
            machine.run()
            return machine

        shared = compile_protected(source, options)
        tiny = run(shared, cache_config=TINY_L1)
        assert tiny.cpu.caches.l1.stats.misses > 0
        tiny_ref = run(shared, engine="reference", cache_config=TINY_L1)
        assert_counters_identical(tiny_ref.counters, tiny.counters)
        assert_memory_identical(tiny_ref.cpu, tiny.cpu)
        after_tiny = run(shared)
        fresh = run(compile_protected(source, options))
        reference = run(shared, engine="reference")
        for other in (fresh, reference):
            assert_counters_identical(other.counters, after_tiny.counters)
            assert_memory_identical(other.cpu, after_tiny.cpu)
        assert (after_tiny.counters.stall_cycles
                != tiny.counters.stall_cycles)


def _gzip_machine(engine):
    bench = BENCHMARKS["gzip"]
    return build_machine(
        compiled_spec(bench, PERF_OPTIONS["byte"], "test"),
        policy_config=spec_policy(False),
        files={"/data": bench.make_input("test")}, engine=engine)


def _webserver_machine(engine):
    machine = build_machine(
        compiled_webserver(PERF_OPTIONS["byte"]),
        policy_config=webserver_policy(), files=dict(make_site((2,))),
        engine=engine)
    for _ in range(3):
        machine.net.add_request(make_request(2))
    return machine


def _cpu_state(cpu):
    """Registers, counters, buckets, caches and memory (see
    :func:`_memory_state`: compare before the CPU runs again)."""
    counters = cpu.counters
    return (cpu.pc, list(cpu.gr), list(cpu.nat), list(cpu.pr), list(cpu.br),
            cpu.unat, cpu.halted, counters.snapshot(), counters.groups,
            [(key, c.slots, c.issue_cycles, c.stall_cycles)
             for key, c in counters.pair_costs.items()],
            list(cpu._recent_stores), _memory_state(cpu))


#: Slice budgets: single steps, values straddling MAX_BLOCK (the largest
#: block and the run loop's fused-block margin) and one block past it,
#: and long slices.
_BUDGETS = st.one_of(
    st.sampled_from((1, 2, MAX_BLOCK - 1, MAX_BLOCK, MAX_BLOCK + 1,
                     2 * MAX_BLOCK - 1, 2 * MAX_BLOCK, 2 * MAX_BLOCK + 1)),
    st.integers(min_value=1, max_value=4_000))


class TestSlicedExecution:
    @settings(max_examples=10, deadline=None)
    @given(budgets=st.lists(_BUDGETS, min_size=100, max_size=400))
    def test_every_slice_identical(self, budgets):
        """Slices enter blocks at arbitrary pcs and end in the exact
        per-micro-op tail; every slice must leave identical state."""
        for build in (_gzip_machine, _webserver_machine):
            cpus = [build(engine).cpu for engine in ENGINES]
            for budget in budgets:
                ran = [cpu.run_slice(budget) for cpu in cpus]
                assert ran[0] == ran[1]
                assert _cpu_state(cpus[0]) == _cpu_state(cpus[1])


#: ALU-chain registers; r20 alone may carry a NaT (for ``chk.s``), r28
#: and r29 hold data addresses, r30 the data base, r31 the trip count,
#: r27 an address with unimplemented bits set and r26 the edge address,
#: whose 8-byte access ends in unimplemented space.
_POOL = tuple(range(2, 10))
_DATA_BASE = make_address(REGION_DATA, 0x1000)
_BAD_ADDRESS = _DATA_BASE | 1 << 55
#: Offsets from the (page-aligned) data base: one line, the lines of
#: both sets of a two-set L1, accesses that cross into the next page (the
#: last into a page nothing else touches) and a page of its own.
_OFFSETS = (0, 8, 16, 24, 64, 128, 192,
            PAGE_SIZE - 4, PAGE_SIZE - 1, 2 * PAGE_SIZE - 4, 3 * PAGE_SIZE)
_ROLES = ((None, None), ("tag_compute", "load"), ("tag_mem", "store"),
          ("relax", "cmp"))
_RELS = ("eq", "ne", "lt", "ltu", "ge")


@st.composite
def _grid_member(draw):
    """One straight-line instruction line and its (role, origin)."""
    kind = draw(st.sampled_from(
        ("alu", "alu", "adds", "movl", "cmp", "addr", "addr", "addr",
         "load", "load", "store", "store", "spec_load", "tag")))
    d, a, b = (draw(st.sampled_from(_POOL)) for _ in range(3))
    qp = draw(st.sampled_from((0, 0, 0, 6, 7, 8, 11)))
    ptr = draw(st.sampled_from((28, 29)))
    size = draw(st.sampled_from((1, 2, 4, 8)))
    if kind == "alu":
        op = draw(st.sampled_from(("add", "sub", "xor", "and", "or")))
        line = f"{op} r{d} = r{a}, r{b}"
    elif kind == "adds":
        line = f"adds r{d} = {draw(st.integers(-8, 8))}, r{a}"
    elif kind == "movl":
        line = f"movl r{d} = {draw(st.integers(0, 1 << 40))}"
    elif kind == "cmp":
        p = draw(st.sampled_from((6, 8, 10)))
        line = (f"cmp.{draw(st.sampled_from(_RELS))} p{p}, p{p + 1}"
                f" = r{a}, r{b}")
    elif kind == "addr":
        line = f"movl r{ptr} = {_DATA_BASE + draw(st.sampled_from(_OFFSETS))}"
    elif kind == "load":
        line = f"ld{size} r{d} = [r{ptr}]"
    elif kind == "store":
        line = f"st{size} [r{ptr}] = r{a}"
    elif kind == "spec_load":
        line = f"ld8.s r{d} = [r{ptr}]"
    else:
        line = draw(st.sampled_from(("settag r20", "cleartag r20")))
    prefix = f"(p{qp}) " if qp else ""
    return prefix + line, draw(st.sampled_from(_ROLES))


@st.composite
def _grid_segment(draw, k, bad):
    """Straight-line members ending in ``chk.s``, ``br.cond`` or ``br``
    to ``L{k}`` (or, for a taken ``chk.s``, its recovery code).  With
    ``bad`` one member loads or stores through the unimplemented r27 or
    the edge address r26 (an ``ld8.s`` there defers instead).  The
    members may call ``sub{k}``, which returns through ``br.ret b1``,
    and may end in an unconditional back edge to the segment's start
    ``S{k}``, left through a side exit once r24 counts down."""
    lines = draw(st.lists(_grid_member(), max_size=30))
    if bad:
        a = draw(st.sampled_from(_POOL))
        lines.insert(draw(st.integers(0, len(lines))), (draw(st.sampled_from(
            (f"ld8 r{a} = [r27]", f"st4 [r27] = r{a}", f"ld8 r{a} = [r26]",
             f"st8 [r26] = r{a}", f"ld8.s r{a} = [r26]"))), (None, None)))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))),
                     (f"br.call b1 = sub{k}", draw(st.sampled_from(_ROLES))))
    if draw(st.booleans()):
        role = draw(st.sampled_from(_ROLES))
        loop = ("adds r24 = -1, r24", "cmp.eq p2, p3 = r24, r0",
                f"(p2) br.cond B{k}", f"br S{k}")
        lines = ([(f"movl r24 = {draw(st.integers(1, 2))}", role),
                  (f"S{k}:", None)] + lines
                 + [(ln, role) for ln in loop] + [(f"B{k}:", None)])
    term = draw(st.sampled_from(("chk", "chk", "cmp_br", "br_cond", "br")))
    if term == "chk":
        reg = draw(st.sampled_from((20, 2)))
        ends = [f"chk.s r{reg}, rec{k}"]
    elif term == "cmp_br":
        a, b = (draw(st.sampled_from(_POOL)) for _ in range(2))
        ends = [f"cmp.{draw(st.sampled_from(_RELS))} p12, p13 = r{a}, r{b}",
                f"(p12) br.cond L{k}"]
    elif term == "br_cond":
        qp = draw(st.sampled_from((6, 7, 9, 11)))
        ends = [f"(p{qp}) br.cond L{k}"]
    else:
        ends = [f"br L{k}"]
    role = draw(st.sampled_from(_ROLES))
    return lines + [(ln, role) for ln in ends]


@st.composite
def _grid_program(draw):
    """A loop over generated segments, with each member's role, then
    each segment's recovery code and subroutine."""
    prologue = [f"movl r30 = {_DATA_BASE}", "adds r29 = 0, r30",
                "adds r28 = 0, r30", f"movl r27 = {_BAD_ADDRESS}",
                f"movl r26 = {_EDGE_ADDRESS}",
                f"movl r31 = {draw(st.integers(2, 6))}"]
    prologue += [f"movl r{r} = {r * 3}" for r in _POOL]
    lines = [(ln, (None, None)) for ln in prologue] + [("top:", None)]
    segments = draw(st.integers(1, 3))
    # One program in three faults in the segment drawn here.
    bad = draw(st.sampled_from((None,) * 2 * segments
                               + tuple(range(segments))))
    for k in range(segments):
        lines += draw(_grid_segment(k, k == bad)) + [(f"L{k}:", None)]
    lines += [(ln, (None, None)) for ln in (
        "adds r31 = -1, r31", "cmp.ne p14, p15 = r31, r0",
        "(p14) br.cond top", EXIT)]
    for k in range(segments):
        lines += [(f"rec{k}:", None), ("cleartag r20", (None, None)),
                  (f"br L{k}", (None, None)), (f"sub{k}:", None)]
        lines += draw(st.lists(_grid_member(), max_size=6))
        lines += [("br.ret b1", draw(st.sampled_from(_ROLES)))]
    text = "\n".join(["func main:"] + [ln for ln, _ in lines]
                     + ["endfunc"])
    program = assemble(text)
    roles = [role for _, role in lines if role is not None]
    assert len(roles) == len(program.code)
    program.code[:] = [instr.with_role(*role)
                       for instr, role in zip(program.code, roles)]
    return program


def _issue_state(cpu):
    """The open issue group, members named by their cost bucket's key."""
    im = cpu.issue
    keys = {id(cost): key for key, cost in cpu.counters.pair_costs.items()}
    return ([keys[id(cost)] for cost in im._group], im._group_writes,
            im._group_pr_writes, im._group_mem, im._group_slots)


def _run_outcome(cpu, budget):
    """Instructions run by one slice, or the fault that ended it."""
    try:
        return cpu._run(budget, False), None
    except Fault as exc:
        return None, (type(exc).__name__, str(exc), exc.pc)


class TestIssueConfigGrid:
    @settings(max_examples=40, deadline=None)
    @given(program=_grid_program(),
           budgets=st.lists(st.integers(1, 200), min_size=1, max_size=20),
           window=st.sampled_from((1, 2, 4, 16)))
    def test_generated_blocks_identical(self, program, budgets, window):
        """Blocks compiled under every issue config and two L1s match the
        reference model, entered with whatever group a slice boundary, a
        not-taken branch or a block split left open, down to cache and
        memory state, and fault identically on an unimplemented address."""
        grid = itertools.product((1, 2, 6), (1, 2), (True, False),
                                 (None, TINY_L1))
        for width, mem_ports, same_group, l1 in grid:
            config = IssueConfig(width=width, mem_ports=mem_ports,
                                 cmp_branch_same_group=same_group,
                                 store_forward_window=window)
            cpus = [CPU(program, SparseMemory(), issue_config=config,
                        caches=CacheHierarchy(l1),
                        syscall_handler=_exit_syscall, engine=engine)
                    for engine in ENGINES]
            for budget in itertools.cycle(budgets):
                # _run leaves the open group for the next slice's blocks.
                outcomes = [_run_outcome(cpu, budget) for cpu in cpus]
                assert outcomes[0] == outcomes[1]
                assert cpus[0].pc == cpus[1].pc
                assert_counters_identical(cpus[0].counters,
                                          cpus[1].counters)
                assert _issue_state(cpus[0]) == _issue_state(cpus[1])
                assert _cpu_state(cpus[0]) == _cpu_state(cpus[1])
                fault = outcomes[1][1]
                if cpus[0].halted or fault:
                    break
            assert cpus[1].halted or fault[1].startswith(
                ("load fault: ", "store fault: "))


class TestStoreForwarding:
    @pytest.mark.parametrize("gap", [0, 1, 2, 3])
    def test_window_edge_identical(self, gap):
        """A load ``gap`` instructions after the store it reads pays the
        forwarding penalty exactly while it is inside the window: run as
        one fused block and as single micro-ops, against the reference."""
        config = IssueConfig(store_forward_window=2)
        text = "\n".join(
            ["func main:", f"movl r14 = {_STORE_ADDR}", "st8 [r14] = r0"]
            + ["add r15 = r15, r0"] * gap
            + ["ld8 r16 = [r14]", EXIT, "endfunc"])
        stalls = []
        for slice_budget in (1_000, 1):
            cpus = [CPU(assemble(text), SparseMemory(), issue_config=config,
                        syscall_handler=_exit_syscall, engine=engine)
                    for engine in ENGINES]
            for cpu in cpus:
                while not cpu.halted:
                    cpu.run_slice(slice_budget)
            assert_counters_identical(cpus[0].counters, cpus[1].counters)
            assert _cpu_state(cpus[0]) == _cpu_state(cpus[1])
            stalls.append(cpus[1].counters.stall_cycles)
        penalty = config.store_forward_penalty if gap + 1 <= 2 else 0
        # Cold misses on the store and the load's hit on the same line.
        assert stalls == [140.0 + penalty] * 2


class TestCheckpointDifferential:
    def test_rollback_resume_identical_across_engines(self):
        """checkpoint -> attack -> rollback -> resume, in lockstep across
        engines: registers, store window, caches, memory, taint pages,
        dirty set and PerfCounters after every step."""
        from repro.apps.webserver import (
            RESIL_WEBSERVER_SOURCE, make_request, make_site,
            overflow_request)
        from repro.core.shift import compile_protected
        from repro.taint.engine import SecurityAlert

        compiled = compile_protected(RESIL_WEBSERVER_SOURCE, BYTE_STRICT)
        site = make_site((2,))
        machines = [build_machine(compiled, policy_config=webserver_policy(),
                                  files=dict(site), engine=engine)
                    for engine in ENGINES]

        def both(step):
            results = [step(machine) for machine in machines]
            assert _cpu_state(machines[0].cpu) == _cpu_state(machines[1].cpu)
            return results

        def attack(machine):
            with pytest.raises(SecurityAlert):
                machine.cpu.run_slice(50_000_000)

        both(lambda m: m.net.add_request(make_request(2)))
        # Checkpoint mid-way through the clean request, then let a
        # late-arriving attack abort the run, roll back, drop the
        # attack, and drain the queue.
        both(lambda m: m.cpu.run_slice(1_000))
        assert not machines[0].cpu.halted
        snapshots = both(lambda m: m.checkpoint())
        both(lambda m: m.net.add_request(overflow_request()))
        both(attack)
        for machine, snapshot in zip(machines, snapshots):
            machine.restore(snapshot)
            machine.net.pending.clear()
        assert _cpu_state(machines[0].cpu) == _cpu_state(machines[1].cpu)
        both(lambda m: m.cpu.run_slice(50_000_000))
        for machine in machines:
            assert machine.cpu.halted
            assert machine.alerts and machine.alerts[0].policy_id == "L1"


class TestThreads:
    def test_threaded_run_identical(self):
        source = THREAD_DECLS + """
        int work(int x) {
            int acc = 0;
            for (int i = 0; i < 200; i = i + 1) { acc = acc + x; }
            return acc;
        }
        int main() {
            int a = thread_create((int)&work, 3);
            int b = thread_create((int)&work, 5);
            return thread_join(a) + thread_join(b);
        }
        """
        machines = {}
        for engine in ENGINES:
            machine = build_machine(source, thread_quantum=97, engine=engine)
            machine.exit_code = machine.run(max_instructions=50_000_000)
            machines[engine] = machine
        ref, pre = machines["reference"], machines["predecoded"]
        assert ref.exit_code == pre.exit_code == 1600
        assert_counters_identical(ref.counters, pre.counters)
