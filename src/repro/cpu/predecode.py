"""Predecoded micro-op engine: compile instructions to closures.

The reference interpreter pays a per-step tax that has nothing to do
with the guest's work: dict dispatch on the mnemonic, re-reading operand
``Reg`` objects, a ``getattr`` for cached issue metadata, and a method
call into :class:`~repro.cpu.perf.IssueModel` whose conflict masks and
config limits are re-fetched every instruction.  This module removes all
of it by *predecoding*.  One generator, :func:`_block`, turns a run of
instructions into the *source code* of one function: operand indices,
immediates, dependency bitmasks, branch-target pcs, the issue-model
limits and the memory geometry are embedded as literals, so the common
case calls no Python function, only builtins (the page dict's ``get``,
``struct`` codecs, set and deque appends).  ``counters.instructions`` is
batched into one store at each exit (members that need the live value —
store-buffer sequence numbers — use ``ci + j`` with the member's index
``j``).  So is every other increment whose amount is known when the
block is generated: the generator keeps a *tally* of the path it emits —
each member's ``cN.slots`` and ``counters.loads``/``stores``, each
certain close's ``counters.groups`` and ``counters.issue_cycles``, each
taken or followed branch's ``counters.branches_taken`` and
``counters.branch_penalty_cycles`` — and each exit writes it as one
``+= <literal>`` per counter beside that store.  Folding is exact: these
counters grow only by whole numbers (``issue_cycles`` by ``1.0`` per
close, the penalty by the integer ``branch_penalty``).

A block of more than one member is a *superblock*: its members run in
order from its leader, and the run goes on through branches:

* A guarded direct branch (``br``, ``br.cond``, ``br.call``) or a
  ``chk.s`` is a *side exit*.  Taken, it runs its taken accounting and
  the exit writeback and returns its target; not taken, the next member
  runs.
* An unguarded direct ``br`` or ``br.call`` is *followed*: the next
  member is the one at its target (a call writes its return link
  first).
* The block stops before an indirect branch, a return or a ``break``
  (each forms a block only as its sole member), before a member that
  cannot be fused, before a pc it already holds, and at ``MAX_BLOCK``
  members.

Members are not contiguous, so every exit returns an absolute pc, and a
faulting member's pc is found by its index in a literal tuple.

Issue groups are compiled in, the way an IA-64 compiler writes stop bits
(``;;``) into the binary.  While generating a block, :class:`_Schedule`
runs the reference ``IssueModel`` over its members; only the group open
at block entry is unknown, and ``r`` is the first member before which
the schedule closes a group whatever that entry group held:

* Members before ``r`` (the *dynamic prefix*) keep an inline replica of
  ``IssueModel.issue`` on plain locals (``gw``/``pw``/``mm``/``sl``):
  conflict test, ``group.append``, close loop.  Outside
  ``IssueModel.issue`` it is the only copy of the close rule.  Whether
  a prefix close happens is known only at runtime, so its counter lines
  stay in it.
* At ``r`` the open group closes unconditionally, by the generic loop
  over ``group`` (it may still hold the entry group's members) — unless
  a followed branch right before ``r`` closed it already: a taken
  branch closes its group, so ``r`` comes at the latest right after the
  block's first followed branch.  The close is certain, so its counts
  go to the tally.
* From ``r`` on the *fixed schedule* is literal: per close one share
  addition per member in issue order, never folded (the per-role sums
  are floats), and its counts in the tally; per member only its stall
  lines.
* Every exit, and the ``except Fault`` handler (by the faulting member's
  index ``d``), writes back the group ``IssueModel`` would hold there:
  the locals in the prefix, else ``group.extend`` of the open group's
  cells plus literal masks, memory count and slots.  Each also writes
  the tally of its path: a side exit with its taken accounting (the
  not-taken path carries on from the tally before it), the handler the
  tally of the members before the faulting one.

Guest loads and stores are compiled in too, as the common case of each
layer they pass through, with one call out when it does not hold:

* *Memory*: the page comes from the bound ``SparseMemory._pages.get``;
  one mask tests that the access stays inside its page and sets no
  unimplemented address bit, and a size-specific ``struct`` codec reads
  or writes it in place.  A store adds its page number to the bound
  dirty set that delta checkpoints read.  An unallocated page, a
  page-crossing access or an unimplemented address calls
  ``SparseMemory.load``/``store`` (through :func:`_faulting`, which
  turns ``MemoryError_`` into the guest ``Fault``).  ``ld8.s`` defers
  into NaT, as the reference executor does, when its first or last
  byte is unimplemented; it tests them only when the offset is not
  in-page, and its ``SparseMemory.load`` call never raises.
* *L1*: an access to the most recently used line of its set is a hit
  that true LRU leaves in place, so ``ways and ways[-1] == line`` on the
  bound set list, ``stats.accesses += 1`` and the literal hit cost are
  the whole access.  Anything else calls ``CacheHierarchy.access``.
* *Forwarding*: a load scans the store window (``CPU._recent_stores``,
  at most four stores) with the forwarding penalty and window as
  literals, the inline twin of ``CPU._forwarding_stall``.

The blocks bind the page dict, the dirty set, the L1 set lists, the L1
stats object and the store window by identity, so nothing may rebind
them: checkpoint restore rewrites their contents in place
(``repro.resil.checkpoint``), and ``CacheHierarchy`` never replaces a
level's stats.

Two tables index the generated functions.  Both are built lazily: every
entry starts as a trampoline that generates, installs and runs its
function on first execution, so a machine pays codegen only for the code
it runs.

* ``predecode(cpu)[pc]`` is the *micro-op* at ``pc``: the
  one-instruction block (``limit=1``), or, for an unusual shape, a
  fallback to ``CPU._execute``.  It runs budget tails, the thread
  scheduler's single steps, and every pc that leads no fused block.
* ``predecode_fused(cpu)[pc]`` is the superblock of up to
  ``MAX_BLOCK`` members led by ``pc``; None where fewer than two
  instructions would fuse.

Micro-op contract: ``uop(pc) -> next_pc``.  Only break micro-ops can
change ``halted``/``yield_requested`` (their handlers run the guest OS),
and those return ``~next_pc`` — a negative sentinel telling the run loop
to check the flags.  Every other micro-op returns the next pc directly,
so the hot loop carries no per-step flag loads.  A fault leaving a
micro-op belongs to the instruction at ``pc``; a fused block stores its
faulting member's pc in ``cpu._fault_pc`` before re-raising.  Indirect
branches and breaks only ever form one-instruction blocks.  The run
loop stops dispatching fused blocks ``MAX_BLOCK`` instructions short of
its budget (``repro.cpu.core`` defines the cap for both).

Code cache: each block is compiled once and its code object kept on the
program, keyed by ``(start, limit)`` and grouped by :class:`_Shape` —
everything besides the program's code that a block embeds: the
``IssueConfig``, the L1 line shift, set mask and hit cost, the tag-store
watch bound (or its absence), and which break handlers are installed.
Machines that share a program and a shape reuse the code objects and
only instantiate fresh closures; the source text is dropped once
compiled.

Equivalence rules (enforced by tests/test_engine_differential.py):

* The group open at block entry is read from the shared ``IssueModel``,
  and the group ``IssueModel`` would hold is written back at every exit
  (including the fault path), so blocks interleave exactly with
  reference ``step()`` calls — e.g. the thread scheduler's
  instrumentation drain.  The fixed schedule depends only on the code
  and the :class:`_Shape`, so it needs no extra cache key.  Nothing a
  block calls reads the tallied counters before the block leaves, and
  every way out (exit or ``Fault``, ``SpecGuardTrip`` included) writes
  them first.
* ``pair_costs`` buckets are created lazily on first execution, never at
  predecode time, so the set of (role, origin) keys matches the
  reference run bit-for-bit.
* r0 sources are folded to the constant 0 with a clear NaT — exactly
  the reference semantics (``_exec_alu`` appends a literal 0 and skips
  the NaT read; ``_exec_cmp`` goes through ``read_gr``/``read_nat``).
* Anything with an unusual shape (r0 destinations, unresolvable labels,
  malformed operand lists) ends a fused block before it and runs as a
  micro-op that delegates to ``CPU._execute`` — slower, but by
  construction identical, and safe to interleave because
  ``IssueModel.issue`` shares the same group state.
* Observability stays on the cold path: tracer/fault hooks are only
  consulted by the run loop's fault handler and the guest-OS handlers,
  exactly as in the reference loop.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional

from repro.cpu.core import (
    _ALU_FUNCS,
    BREAK_NATIVE_BASE,
    BREAK_SYSCALL,
    CODE_SLOT_BYTES,
    CPU,
    MASK64,
    MAX_BLOCK,
    code_address,
    to_signed,
)
from repro.cpu.faults import Fault, IllegalInstructionFault, NaTConsumptionFault
from repro.cpu.perf import (
    IssueConfig,
    IssueModel,
    PerfCounters,
    RoleCost,
    perf_meta,
)
from repro.isa.instruction import Instruction, LOAD_SIZES, OP_KIND, OpKind, STORE_SIZES
from repro.isa.program import Program
from repro.mem.address import IMPL_MASK
from repro.mem.memory import (
    _SCALAR,
    _UNIMPL_MASK,
    PAGE_BITS,
    PAGE_MASK,
    PAGE_SIZE,
    MemoryError_,
)

Uop = Callable[[int], int]

_M = hex(MASK64)

#: ``addr & _OFFSET`` is the in-page offset when no unimplemented bit is
#: set, and larger than any offset otherwise: one compare against
#: ``PAGE_SIZE - size`` tests both that the access stays inside its page
#: and that its address is implemented.
_OFFSET = hex(_UNIMPL_MASK | PAGE_MASK)

#: Shared objects every generated factory receives (becoming closure
#: variables of the block).  ``fns`` is per block: the reference ALU
#: function of each member, called by div/mod.
_PARAMS = ("gr, nats, pr, br, im, counters, pair_costs, RoleCost, "
           "pages_get, dirty_add, unpack2, unpack4, unpack8, pack2, pack4, "
           "pack8, mem_load, load, store, cache_access, l1_sets, l1_stats, "
           "recent, cpu, NaTConsumptionFault, "
           "Fault, IllegalInstructionFault, tag_watch, spec_ranges, "
           "spec_check, group, syscall, native, fns")

#: The ``struct`` codecs bound as ``unpack2`` ... ``pack8``.
_CODECS = (tuple(_SCALAR[n].unpack_from for n in (2, 4, 8))
           + tuple(_SCALAR[n].pack_into for n in (2, 4, 8)))

_PLAIN_KINDS = frozenset((OpKind.ALU, OpKind.CMP, OpKind.LOAD, OpKind.STORE,
                          OpKind.MOVBR, OpKind.MOVAR, OpKind.NOP))


class _Shape(NamedTuple):
    """Everything besides the program's code that block source embeds."""

    #: Issue limits, branch penalty, forwarding penalty and window.
    issue: IssueConfig
    #: L1 geometry and hit cost (``HierarchyConfig.l1``).
    l1_shift: int
    l1_mask: int
    l1_hit: int
    #: Bound of the tag-store watch, or None when no watch is set.
    tag_limit: Optional[int]
    syscall: bool
    native: bool


def _render(lines: List[str], cells) -> str:
    body = "".join(f"        {ln}\n" for ln in lines)
    decls = "".join(f"    {c} = None\n" for c in cells)
    return (
        f"def _f({_PARAMS}):\n"
        + decls +
        "    def uop(pc):\n"
        f"        nonlocal {', '.join(cells)}\n"
        + body +
        "    return uop\n"
    )


def _indent(lines: List[str]) -> List[str]:
    return ["    " + ln for ln in lines]


def _meta(instr: Instruction):
    meta = getattr(instr, "_perf_meta", None)
    if meta is None:
        meta = perf_meta(instr)
    return meta


def _resolve(program: Program, label) -> Optional[int]:
    try:
        return program.label_index(label)
    except Exception:
        return None  # fall back; the reference path reproduces the error


# -- operand descriptors ---------------------------------------------------
# A source operand is an int (a value known at predecode time: r0 or an
# immediate) or a str (a runtime expression like "gr[5]").

def _gr_src(i: int):
    return 0 if i == 0 else f"gr[{i}]"


def _s(d) -> str:
    return hex(d) if isinstance(d, int) else d


#: The sign bit of a 64-bit value.
_SIGN = hex(1 << 63)


def _flip(d) -> str:
    """``d`` with its sign bit flipped: unsigned order on flipped values
    is signed order on the originals, so signed compares need no call."""
    return hex(d ^ (1 << 63)) if isinstance(d, int) else f"({d} ^ {_SIGN})"


def _ts(d) -> str:
    """``d`` read as a signed 64-bit value, without a call."""
    return (str(to_signed(d)) if isinstance(d, int)
            else f"(({d} ^ {_SIGN}) - {_SIGN})")


_UNARY = {"mov", "sxt1", "sxt2", "sxt4", "zxt1", "zxt2", "zxt4"}
_SIMPLE1 = {
    "mov": "{a}",
    "zxt1": "{a} & 0xFF",
    "zxt2": "{a} & 0xFFFF",
    "zxt4": "{a} & 0xFFFFFFFF",
}
_SIMPLE2 = {
    "add": "({a} + {b}) & {m}",
    "adds": "({a} + {b}) & {m}",
    "sub": "({a} - {b}) & {m}",
    "and": "{a} & {b}",
    "andcm": "{a} & ~{b} & {m}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    # Equal modulo 2**64 to the product of the signed readings.
    "mul": "({a} * {b}) & {m}",
}
_SXT_BITS = {"sxt1": 8, "sxt2": 16, "sxt4": 32}

_REL_FMT = {
    "eq": "{a} == {b}",
    "ne": "{a} != {b}",
    "ltu": "{a} < {b}",
    "geu": "{a} >= {b}",
    "lt": "{fa} < {fb}",
    "le": "{fa} <= {fb}",
    "gt": "{fa} > {fb}",
    "ge": "{fa} >= {fb}",
}


def _alu_sem(op: str, dest: int, ins_idx, imm,
             fn_name: str) -> Optional[List[str]]:
    """Value + NaT lines for a generic ALU op, or None to fall back."""
    if op not in _ALU_FUNCS:
        return None
    srcs = [_gr_src(i) for i in ins_idx]
    if imm is not None:
        srcs.append(imm)
    if len(srcs) < (1 if op in _UNARY else 2):
        return None  # reference raises IndexError; fallback reproduces it
    if all(isinstance(d, int) for d in srcs):
        # Every source is known: fold through the reference ALU table.
        const = _ALU_FUNCS[op](srcs)
        val = [f"gr[{dest}] = {hex(const)}"]
    else:
        a = srcs[0]
        b = srcs[1] if len(srcs) > 1 else None
        if op in _SIMPLE1:
            val = [f"gr[{dest}] = " + _SIMPLE1[op].format(a=_s(a), m=_M)]
        elif op in _SIMPLE2:
            val = [f"gr[{dest}] = " + _SIMPLE2[op].format(
                a=_s(a), b=_s(b), m=_M)]
        elif op in _SXT_BITS:
            bits = _SXT_BITS[op]
            top, mask = 1 << (bits - 1), (1 << bits) - 1
            val = [
                f"v = {_s(a)} & {hex(mask)}",
                f"gr[{dest}] = (v - {hex(mask + 1)}) & {_M} "
                f"if v >= {hex(top)} else v",
            ]
        elif op == "shl":
            if isinstance(b, int):
                val = [f"gr[{dest}] = "
                       + (f"({_s(a)} << {b}) & {_M}" if b < 64 else "0")]
            else:
                val = [
                    f"b = {b}",
                    f"gr[{dest}] = ({_s(a)} << b) & {_M} if b < 64 else 0",
                ]
        elif op == "shr":
            if isinstance(b, int):
                val = [f"gr[{dest}] = ({_ts(a)} >> {b if b < 63 else 63})"
                       f" & {_M}"]
            else:
                val = [
                    f"b = {b}",
                    f"gr[{dest}] = ({_ts(a)} >> (b if b < 63 else 63))"
                    f" & {_M}",
                ]
        elif op == "shr.u":
            if isinstance(b, int):
                val = [f"gr[{dest}] = "
                       + (f"{_s(a)} >> {b}" if b < 64 else "0")]
            else:
                val = [
                    f"b = {b}",
                    f"gr[{dest}] = {_s(a)} >> b if b < 64 else 0",
                ]
        else:
            # div/mod (and anything new): call the reference lambda with
            # the full source tuple, exactly like _exec_alu.
            argsrc = ", ".join(_s(d) for d in srcs)
            if len(srcs) == 1:
                argsrc += ","
            val = [f"gr[{dest}] = {fn_name}(({argsrc}))"]
    terms = _nat_terms(ins_idx)
    if terms != [f"nats[{dest}]"]:  # a self-copy changes nothing
        val.append(f"nats[{dest}] = " + (" or ".join(terms) or "False"))
    return val


def _nat_terms(ins_idx) -> List[str]:
    """The NaT reads of the sources, once per register (r0 has none)."""
    return [f"nats[{i}]" for i in dict.fromkeys(ins_idx) if i]


def _tnat_sem(i0: int, pt: int, pf: int) -> List[str]:
    """Predicate-write lines for tnat (r0 source folds to a constant)."""
    if i0:
        if pt and pf:
            return [f"r = nats[{i0}]", f"pr[{pt}] = r", f"pr[{pf}] = not r"]
        if pt:
            return [f"pr[{pt}] = nats[{i0}]"]
        if pf:
            return [f"pr[{pf}] = not nats[{i0}]"]
        return []
    return [ln for ln in ((f"pr[{pt}] = False" if pt else None),
                          (f"pr[{pf}] = True" if pf else None)) if ln]


def _cmp_sem(op: str, pt: int, pf: int, ins_idx, imm) -> Optional[List[str]]:
    """Predicate-write lines for cmp/tcmp, or None to fall back."""
    if "." not in op:
        return None
    rel = op.split(".", 1)[1]
    if rel not in _REL_FMT:
        return None
    srcs = [_gr_src(i) for i in ins_idx]
    if imm is not None:
        srcs.append(imm)
    if len(srcs) < 2:
        return None
    a, b = srcs[0], srcs[1]
    if isinstance(a, int) and isinstance(b, int):
        rexpr = str(bool(CPU._RELOPS[rel](a, b)))
    else:
        rexpr = _REL_FMT[rel].format(a=_s(a), b=_s(b), fa=_flip(a),
                                     fb=_flip(b))
    if pt and pf:
        direct = [f"r = {rexpr}", f"pr[{pt}] = r", f"pr[{pf}] = not r"]
    elif pt:
        direct = [f"pr[{pt}] = {rexpr}"]
    elif pf:
        direct = [f"pr[{pf}] = not ({rexpr})"]
    else:
        direct = []
    terms = _nat_terms(ins_idx)
    if op.startswith("tcmp.") or not terms or not direct:
        return direct
    # Itanium behaviour: a NaT source clears both predicates.
    clear = [ln for ln in ((f"pr[{pt}] = False" if pt else None),
                           (f"pr[{pf}] = False" if pf else None)) if ln]
    return (["if " + " or ".join(terms) + ":"]
            + _indent(clear)
            + ["else:"]
            + _indent(direct))


#: The share attribution of ``IssueModel._close_group`` for a group
#: known to be non-empty, over the members it holds at runtime.
_SHARE_GROUP = [
    "share = 1.0 / len(group)",
    "for c_ in group:",
    "    c_.issue_cycles += share",
    "group.clear()",
]


def _close_local() -> List[str]:
    """Inline replica of ``IssueModel._close_group`` on block locals.

    Resetting the masks only when the group is non-empty matches the
    reference: an empty group always has zero masks (the invariant holds
    because masks are only set right after an append).
    """
    return (["if group:"]
            + _indent(["counters.groups += 1", "counters.issue_cycles += 1.0"]
                      + _SHARE_GROUP
                      + ["gw = 0", "pw = 0", "mm = 0", "sl = 0"]))


#: Flush block-local issue state back to the shared model.
_LOCAL_STATE = [
    "im._group_writes = gw",
    "im._group_pr_writes = pw",
    "im._group_mem = mm",
    "im._group_slots = sl",
]


def _fixed_shares(cells: List[str]) -> List[str]:
    """The share attribution of a group known at predecode time.

    One share addition per member in issue order, never folded: the
    per-role ``issue_cycles`` are float sums.
    """
    share = repr(1.0 / len(cells))
    return [f"{c}.issue_cycles += {share}" for c in cells]


def _fixed_state(cells: List[str], state) -> List[str]:
    """Store a group known at predecode time as the shared model's."""
    gw, pw, mm, sl = state
    if len(cells) == 1:
        out = [f"group.append({cells[0]})"]
    else:
        out = [f"group.extend(({', '.join(cells)}))"] if cells else []
    return out + [
        f"im._group_writes = {hex(gw)}",
        f"im._group_pr_writes = {hex(pw)}",
        f"im._group_mem = {mm}",
        f"im._group_slots = {sl}",
    ]


# -- guest memory accesses -------------------------------------------------
# Each returns the lines of one layer of a load or store at ``addr``:
# the common case inline, everything else one call to the layer itself.

def _page_load(size: int, slow: str) -> List[str]:
    """``value`` = the ``size``-byte load at ``addr``, given ``off``.

    The in-page path of ``SparseMemory.load`` on the bound page dict;
    ``slow(addr, size)`` allocates the page, crosses pages or raises.
    """
    read = "page[off]" if size == 1 else f"unpack{size}(page, off)[0]"
    return [f"page = pages_get(addr >> {PAGE_BITS})",
            f"if page is not None and off <= {PAGE_SIZE - size}:",
            f"    value = {read}",
            "else:",
            f"    value = {slow}(addr, {size})"]


def _page_store(size: int, value) -> List[str]:
    """Store operand ``value`` at ``addr``: the in-page path of
    ``SparseMemory.store``, dirty-page record included."""
    mask = (1 << (8 * size)) - 1
    low = (hex(value & mask) if isinstance(value, int)
           else f"{value} & {hex(mask)}")
    write = (f"page[off] = {low}" if size == 1
             else f"pack{size}(page, off, {low})")
    return [f"pno = addr >> {PAGE_BITS}",
            "page = pages_get(pno)",
            f"off = addr & {_OFFSET}",
            f"if page is not None and off <= {PAGE_SIZE - size}:",
            "    dirty_add(pno)",
            f"    {write}",
            "else:",
            f"    store(addr, {size}, {_s(value)})"]


def _l1_access(shape: _Shape, size: int) -> List[str]:
    """``stall`` = the hierarchy's stall cycles for an access at ``addr``.

    A hit on the most recently used line of its L1 set leaves true LRU
    unchanged, so it only counts the access and charges the hit cost.
    """
    return [f"line = addr >> {shape.l1_shift}",
            f"ways = l1_sets[line & {hex(shape.l1_mask)}]",
            "if ways and ways[-1] == line:",
            "    l1_stats.accesses += 1",
            f"    stall = {shape.l1_hit!r}",
            "else:",
            f"    stall = cache_access(addr, {size})"]


def _forwarding(shape: _Shape, j: int, size: int) -> List[str]:
    """``CPU._forwarding_stall`` added to ``stall``, for member ``j``."""
    config = shape.issue
    if not config.store_forward_penalty:
        return []
    # now - seq <= window, where now is ci + j.
    low = j - config.store_forward_window
    since = f"ci + {low}" if low >= 0 else f"ci - {-low}"
    return ["for sa, ss, sq in recent:",
            f"    if sq >= {since} and addr < sa + ss and sa < addr + {size}:",
            f"        stall += {float(config.store_forward_penalty)!r}",
            "        break"]


class _Schedule:
    """A block's issue groups, found by running the reference model.

    :meth:`add` issues the block's members, in order, into
    :class:`~repro.cpu.perf.IssueModel` runs that each start empty at a
    member where the group open at block entry could close: every
    member up to the first close of the run started at member 0 (an
    entry group only adds writes, slots and memory ops, so it closes no
    later than that).  ``r`` is the first member before which every run
    closes a group.  From ``r`` on the runs agree, so the groups no
    longer depend on the entry group and one run carries on alone.  A
    followed branch (:meth:`follow`) closes whatever group is open, so
    ``r`` comes at the latest right after the first one.
    """

    def __init__(self, shape: _Shape) -> None:
        self.config = shape.issue
        self.runs: List[IssueModel] = []
        self.entry_open = True
        #: Members added so far.
        self.n = 0
        self.r: Optional[int] = None
        #: First member of the group open after the last member added.
        self.first = 0
        #: From ``r`` on: member -> members of the group closed before it,
        #: or None at ``r`` when that group may hold the entry group's.
        self.closes: dict = {}
        #: From ``r`` on: member -> the open group after it issues (not
        #: taken): its members and (writes, pr_writes, mem, slots).
        self.after: dict = {}

    @staticmethod
    def _closes(model: IssueModel, instr: Instruction) -> bool:
        """Issue one member; True when a group closed before it."""
        groups = model.counters.groups
        model.issue(instr)
        return model.counters.groups != groups

    def add(self, instr: Instruction) -> None:
        j = self.n
        self.n += 1
        if self.r is None:
            closed = [self._closes(m, instr) for m in self.runs]
            if closed and all(closed):
                self.r = self.first = j
                self.closes[j] = None
                del self.runs[1:]
            elif self.entry_open:
                # The entry group may close before this member: start a
                # run here.  Once run 0 has closed, no later member can.
                model = IssueModel(PerfCounters(), self.config)
                model.issue(instr)
                self.runs.append(model)
                self.entry_open = not (closed and closed[0])
            if self.r is None:
                return
        elif self._closes(self.runs[0], instr):
            self.closes[j] = range(self.first, j)
            self.first = j
        m = self.runs[0]
        self.after[j] = (range(self.first, j + 1),
                         (m._group_writes, m._group_pr_writes, m._group_mem,
                          m._group_slots))

    def follow(self) -> None:
        """The member just added is a branch the block follows: taken,
        it closes the group open after it, so the next member starts an
        empty group whatever the entry group held."""
        j = self.n - 1
        del self.runs[1:]
        self.runs[0]._close_group()
        self.first = j + 1
        if self.r is None:
            self.r = j + 1
        else:
            self.after[j] = (range(j + 1, j + 1), (0, 0, 0, 0))


def _block(program: Program, shape: _Shape, start: int, limit: int):
    """Generate the block led by ``start``: ``(source, fns, conts)``.

    The block is a superblock of up to ``limit`` members, run in order
    from ``start``.  A direct branch or ``chk.s`` with a guard is a side
    exit; an unguarded direct branch is followed into its target.  The
    block stops before an indirect branch or a ``break`` (each runs only
    in a one-instruction block), before a member that cannot be fused
    and before a pc it already holds.  ``source`` is None when the
    first instruction needs the fallback micro-op, or when ``limit > 1``
    and fewer than two instructions fuse.  ``conts`` lists pcs past the
    block that may lead blocks the leader scan cannot see.
    """
    code = program.code
    n = len(code)
    cells: List[str] = []
    key_local: dict = {}
    fns: list = []
    #: The fixed-amount increments of the path being emitted, which its
    #: next exit writes: target -> amount.
    tally: dict = {}
    #: Member that may fault (each sets ``d`` to its index first) -> the
    #: lines adding the tally of the members before it.
    faults: dict = {}
    sched = _Schedule(shape)
    #: Member -> the local holding its RoleCost bucket.
    member_cell: List[str] = []

    def count(target: str, amount=1) -> None:
        tally[target] = tally.get(target, 0) + amount

    def count_close() -> None:
        """A group close the schedule makes certain."""
        count("counters.groups")
        count("counters.issue_cycles", 1.0)

    def tally_lines() -> List[str]:
        return [f"{t} += {a!r}" for t, a in tally.items() if a]

    def use_key(key):
        cname = key_local.get(key)
        if cname is not None:
            return cname, []
        idx = len(cells)
        cname = f"c{idx}"
        kname = f"k{idx}"
        cells.append(kname)
        key_local[key] = cname
        return cname, [
            f"{cname} = {kname}",
            f"if {cname} is None:",
            f"    {cname} = pair_costs.get({key!r})",
            f"    if {cname} is None:",
            f"        {cname} = pair_costs[{key!r}] = RoleCost()",
            f"    {kname} = {cname}",
        ]

    def acct_local(instr, j, taken=None, stall=False):
        """Issue accounting lines for member ``j``.

        Before ``sched.r`` they are an inline replica of
        ``IssueModel.issue`` on the block locals.  From ``sched.r`` on
        they are the fixed schedule: at ``sched.r`` a certain close of
        whatever group is open (the entry group may be in it), after it
        the closes the schedule found, with literal shares.  ``taken``
        is None for non-branch kinds, else the (static) taken flag;
        ``stall`` emits the mem-stall attribution lines (the runtime
        value must be in a local named ``stall``).  Increments of fixed
        amount go to the tally, not to the lines.
        """
        reads, writes, prw, is_mem, memkind, is_branch, slots = _meta(instr)
        cname, res = use_key((instr.role, instr.origin))
        if j == sched.n:  # a terminator asks again for its other path
            sched.add(instr)
            member_cell.append(cname)
        fixed = sched.r is not None and j >= sched.r
        if fixed:
            shut = sched.closes.get(j, ())
            if shut is None or shut:
                count_close()
            out = (list(_SHARE_GROUP) if shut is None
                   else _fixed_shares(cells_of(shut)) if shut else [])
            out += res
        else:
            rw = reads | writes
            conds = []
            if rw:
                if (taken is not None and is_branch
                        and shape.issue.cmp_branch_same_group):
                    # A branch conflicting only on predicate writes may
                    # issue in the same group as the compare that made
                    # them.
                    conds.append(f"gw & {hex(rw)} & ~pw")
                else:
                    conds.append(f"gw & {hex(rw)}")
            conds.append(f"sl + {slots} > {shape.issue.width}")
            if is_mem:
                conds.append(f"mm >= {shape.issue.mem_ports}")
            out = ["if " + " or ".join(conds) + ":"] + _indent(_close_local())
            out += res
            out += [f"group.append({cname})", f"sl += {slots}"]
            if writes:
                out.append(f"gw |= {hex(writes)}")
            if prw:
                out.append(f"pw |= {hex(prw)}")
            if is_mem:
                out.append("mm += 1")
        count(f"{cname}.slots")
        if memkind == 1:
            count("counters.loads")
        elif memkind == 2:
            count("counters.stores")
        if stall:
            out += ["if stall:",
                    "    counters.stall_cycles += stall",
                    f"    {cname}.stall_cycles += stall"]
        if taken:
            count("counters.branches_taken")
            count("counters.branch_penalty_cycles",
                  shape.issue.branch_penalty)
            if fixed:
                count_close()
                out += _fixed_shares(cells_of(sched.after[j][0]))
            else:
                out += _close_local()
        return out

    def cells_of(members) -> List[str]:
        return [member_cell[p] for p in members]

    def state_after(j, taken=None) -> List[str]:
        """Store the issue state after member ``j`` in the shared model."""
        if sched.r is None or j < sched.r:
            return _LOCAL_STATE
        if taken:
            return _fixed_state([], (0, 0, 0, 0))
        members, state = sched.after[j]
        return _fixed_state(cells_of(members), state)

    def exit_after(j, taken=None) -> List[str]:
        return (state_after(j, taken) + tally_lines()
                + [f"counters.instructions = ci + {j + 1}"])

    def plain_fragment(instr, j):
        op = instr.op
        kind = OP_KIND[op]
        qp = instr.qp
        sem = None
        stall = False
        if kind is OpKind.ALU:
            if not instr.outs:
                return None
            dest = instr.outs[0].index
            if op == "movl":
                imm = (instr.imm or 0) & MASK64
                sem = [f"gr[{dest}] = {hex(imm)}",
                       f"nats[{dest}] = False"]
            elif op == "settag":
                sem = [f"nats[{dest}] = True"]
            elif op == "cleartag":
                sem = [f"nats[{dest}] = False"]
            elif dest != 0:
                ins_idx = tuple(r.index for r in instr.ins)
                imm = (instr.imm & MASK64
                       if instr.imm is not None else None)
                sem = _alu_sem(op, dest, ins_idx, imm, f"fns[{j}]")
            if sem is None:
                return None
        elif kind is OpKind.CMP:
            if len(instr.outs) != 2 or not instr.ins:
                return None
            pt, pf = instr.outs[0].index, instr.outs[1].index
            if op == "tnat":
                sem = _tnat_sem(instr.ins[0].index, pt, pf)
            else:
                ins_idx = tuple(r.index for r in instr.ins)
                imm = (instr.imm & MASK64
                       if instr.imm is not None else None)
                sem = _cmp_sem(op, pt, pf, ins_idx, imm)
            if sem is None:
                return None
        elif kind is OpKind.LOAD:
            if not instr.ins or not instr.outs:
                return None
            size = LOAD_SIZES[op]
            ia = instr.ins[0].index
            dest = instr.outs[0].index
            if dest == 0:
                return None  # reference faults in write_gr
            addr = _s(_gr_src(ia))
            if op == "ld8.s":
                # Deferred into NaT when any byte is unimplemented.  An
                # in-page offset implies every byte is implemented, so
                # only the other offsets test the first and last bytes.
                defer = (f"off > {PAGE_SIZE - size} and (addr | addr + "
                         f"{size - 1}) & {hex(_UNIMPL_MASK)}")
                if ia:
                    defer = f"nats[{ia}] or {defer}"
                sem = [f"d = {j}",
                       f"addr = {addr}",
                       f"off = addr & {_OFFSET}",
                       f"if {defer}:",
                       f"    gr[{dest}] = 0",
                       f"    nats[{dest}] = True",
                       "    stall = 0.0",
                       "else:"]
                sem += _indent(["if spec_ranges:",
                                f"    spec_check(addr, {size})"]
                               + _page_load(size, "mem_load")
                               + _l1_access(shape, size)
                               + [f"gr[{dest}] = value",
                                  f"nats[{dest}] = False"])
            else:
                nat_dest = (
                    f"nats[{dest}] = bool((cpu.unat >> ((addr >> 3)"
                    " & 63)) & 1)"
                    if op == "ld8.fill" else f"nats[{dest}] = False")
                sem = [f"d = {j}", f"addr = {addr}"]
                if ia:
                    sem += [f"if nats[{ia}]:",
                            "    raise NaTConsumptionFault"
                            "(\"load_addr\")"]
                sem += (["if spec_ranges:",
                         f"    spec_check(addr, {size})",
                         f"off = addr & {_OFFSET}"]
                        + _page_load(size, "load")
                        + _l1_access(shape, size)
                        + _forwarding(shape, j, size)
                        + [f"gr[{dest}] = value", nat_dest])
            faults[j] = tally_lines()
            stall = True
        elif kind is OpKind.STORE:
            if len(instr.ins) < 2:
                return None
            size = STORE_SIZES[op]
            ia, iv = instr.ins[0].index, instr.ins[1].index
            sem = [f"d = {j}",
                   f"addr = {_s(_gr_src(ia))}"]
            if ia:
                sem += [f"if nats[{ia}]:",
                        "    raise NaTConsumptionFault"
                        "(\"store_addr\")"]
            if op == "st8.spill":
                sem.append("bit = (addr >> 3) & 63")
                if iv:
                    sem += [f"if nats[{iv}]:",
                            "    cpu.unat |= 1 << bit",
                            "else:",
                            "    cpu.unat &= ~(1 << bit)"]
                else:
                    sem.append("cpu.unat &= ~(1 << bit)")
            elif iv:
                sem += [f"if nats[{iv}]:",
                        "    raise NaTConsumptionFault"
                        "(\"store_value\")"]
            sem += ["if spec_ranges:",
                    f"    spec_check(addr, {size})"]
            if shape.tag_limit is not None:
                sem += [f"if addr < {shape.tag_limit}:",
                        f"    tag_watch(addr, {size}, "
                        f"{_s(_gr_src(iv))})"]
            sem += (_page_store(size, _gr_src(iv))
                    + [f"recent.append((addr, {size}, ci + {j}))"]
                    + _l1_access(shape, size))
            faults[j] = tally_lines()
            stall = True
        elif kind is OpKind.MOVBR:
            if not instr.ins or not instr.outs:
                return None
            if op == "mov.tobr":
                i0 = instr.ins[0].index
                ob = instr.outs[0].index
                if i0:
                    sem = [f"d = {j}",
                           f"if nats[{i0}]:",
                           "    raise NaTConsumptionFault"
                           "(\"branch_move\")",
                           f"br[{ob}] = gr[{i0}]"]
                    faults[j] = tally_lines()
                else:
                    sem = [f"br[{ob}] = 0"]
            else:
                dest = instr.outs[0].index
                if dest == 0:
                    return None
                sem = [f"gr[{dest}] = br[{instr.ins[0].index}] & {_M}",
                       f"nats[{dest}] = False"]
        elif kind is OpKind.MOVAR:
            if op == "mov.toar":
                if not instr.ins:
                    return None
                i0 = instr.ins[0].index
                if i0:
                    sem = [f"d = {j}",
                           f"if nats[{i0}]:",
                           "    raise NaTConsumptionFault(\"ar_move\")",
                           f"cpu.unat = gr[{i0}]"]
                    faults[j] = tally_lines()
                else:
                    sem = ["cpu.unat = 0"]
            else:
                if not instr.outs or instr.outs[0].index == 0:
                    return None
                dest = instr.outs[0].index
                sem = [f"gr[{dest}] = cpu.unat & {_M}",
                       f"nats[{dest}] = False"]
        else:  # NOP
            sem = []
        if qp:
            if kind is OpKind.LOAD or kind is OpKind.STORE:
                out = ([f"if pr[{qp}]:"] + _indent(sem)
                       + ["else:", "    stall = 0.0"])
            elif sem:
                out = [f"if pr[{qp}]:"] + _indent(sem)
            else:
                out = []
        else:
            out = sem
        return out + acct_local(instr, j, stall=stall)

    def control_fragment(instr, i, j):
        """``(lines, next_pc)`` for a branch, ``chk.s`` or ``break``
        member, or ``(None, None)`` to end the block before it.

        A guarded member is a side exit: taken, it runs its taken
        accounting, writes the exit state back and returns its target;
        not taken, the block goes on at ``i + 1``.  An unguarded direct
        branch is followed: the block goes on at its target.  Indirect
        branches and breaks run only in one-instruction blocks; unguarded
        they return on every path (``next_pc`` None).
        """
        op = instr.op
        kind = OP_KIND[op]
        qp = instr.qp
        # Taken (when ``guard`` holds), the member runs ``head``, its
        # accounting, ``flush``, the exit writeback and then returns its
        # direct ``target`` or runs ``tail``.
        guard = f"pr[{qp}]" if qp else None
        head: List[str] = []
        flush: List[str] = []
        taken = True
        target = None
        if op == "chk.s":
            if not instr.ins:
                return None, None
            i0 = instr.ins[0].index
            if i0 == 0:  # r0 has no NaT: never taken
                _, pre = use_key((instr.role, instr.origin))
                return pre + acct_local(instr, j, taken=False), i + 1
            target = _resolve(program, instr.target)
            if target is None:
                return None, None
            guard = f"{guard} and nats[{i0}]" if qp else f"nats[{i0}]"
        elif op in ("br", "br.cond", "br.call"):
            target = _resolve(program, instr.target)
            if target is None or (op == "br.call" and not instr.outs):
                return None, None
            if op == "br.call":
                head = [f"br[{instr.outs[0].index}] = "
                        f"{hex(code_address(i + 1))}"]
        elif limit > 1:
            return None, None  # indirect branches and breaks run alone
        elif op in ("br.call.ind", "br.ret", "br.ind"):
            if not instr.ins or (op == "br.call.ind" and not instr.outs):
                return None, None
            head = [f"t = (br[{instr.ins[0].index}] & {hex(IMPL_MASK)})"
                    f" // {CODE_SLOT_BYTES} - 1"]
            if op == "br.call.ind":
                head.append(f"br[{instr.outs[0].index}] = "
                            f"{hex(code_address(i + 1))}")
            tail = [f"if 0 <= t < {n}:",
                    "    return t",
                    "raise IllegalInstructionFault("
                    "f\"indirect branch to invalid slot {t}\")"]
        elif kind is OpKind.SYS:
            imm = instr.imm or 0
            taken = None
            if imm == BREAK_SYSCALL and shape.syscall:
                call = "syscall(cpu)"
            elif imm >= BREAK_NATIVE_BASE and shape.native:
                call = f"native(cpu, {imm - BREAK_NATIVE_BASE})"
            else:
                call = None
            if call is not None:
                # The handler runs the guest OS on a drained pipeline
                # and may halt or yield: return the flag-check sentinel.
                flush = _close_local()
                tail = [f"cpu.pc = {i}", call, f"return ~{i + 1}"]
            else:
                if imm == BREAK_SYSCALL:
                    msg = "no syscall handler installed"
                elif imm >= BREAK_NATIVE_BASE:
                    msg = "no native handler installed"
                else:
                    msg = f"break {imm:#x}"
                tail = [f"raise IllegalInstructionFault({msg!r})"]
        else:
            return None, None
        _, pre = use_key((instr.role, instr.origin))
        before = dict(tally)
        run = head + acct_local(instr, j, taken=taken) + flush
        if guard is None and target is not None:
            sched.follow()
            return pre + run, target
        run += exit_after(j, taken) + (
            tail if target is None else [f"return {target}"])
        if guard is None:
            return pre + run, None
        # Guard false: the slot is consumed, nothing else happens.
        tally.clear()
        tally.update(before)
        return (pre + [f"if {guard}:"] + _indent(run)
                + acct_local(instr, j, taken=False)), i + 1

    body: List[str] = []
    #: Member -> its pc.
    pcs: List[int] = []
    i = start
    #: The last member returns on every path.
    returns = False
    while len(pcs) < limit and i < n and i not in pcs:
        instr = code[i]
        j = len(pcs)
        if OP_KIND[instr.op] in _PLAIN_KINDS:
            frag, nxt = plain_fragment(instr, j), i + 1
        else:
            frag, nxt = control_fragment(instr, i, j)
        if frag is None:
            break
        body += frag
        pcs.append(i)
        fns.append(_ALU_FUNCS.get(instr.op))
        if nxt is None:
            returns = True
            break
        i = nxt
    # The pc the block stops at (and the pc after an unfusable member)
    # may lead a fusable run that the global leader scan cannot see.
    conts = () if returns else (i, i + 1)
    # Fusing one instruction gains nothing over its per-pc micro-op.
    if len(pcs) < min(limit, 2):
        return None, (), conts
    if not returns:
        body += exit_after(len(pcs) - 1) + [f"return {i}"]
    if faults:
        # A faulting member has not issued: store the group open after
        # the member before it and add the tally of the members before
        # it, both chosen by the faulting member's index.
        *arms, last = [state_after(f - 1) + counts
                       for f, counts in faults.items()]
        handler: List[str] = []
        for f, arm in zip(faults, arms):
            handler += [f"{'elif' if handler else 'if'} d == {f}:"]
            handler += _indent(arm)
        handler += ["else:"] + _indent(last) if handler else last
        body = (["try:"] + _indent(body)
                + ["except Fault:"] + _indent(handler)
                + ["    counters.instructions = ci + d",
                   f"    cpu._fault_pc = {tuple(pcs)!r}[d]",
                   "    raise"])
    body = (["gw = im._group_writes",
             "pw = im._group_pr_writes",
             "mm = im._group_mem",
             "sl = im._group_slots",
             "ci = counters.instructions"] + body)
    return _render(body, tuple(cells)), tuple(fns), conts


def _faulting(memory):
    """``(load, store)``: ``SparseMemory.load``/``store`` raising the
    guest ``Fault`` the reference executor raises for a bad address."""
    mem_load, mem_store = memory.load, memory.store

    def load(addr, size):
        try:
            return mem_load(addr, size)
        except MemoryError_ as exc:
            raise Fault(f"load fault: {exc}") from exc

    def store(addr, size, value):
        try:
            mem_store(addr, size, value)
        except MemoryError_ as exc:
            raise Fault(f"store fault: {exc}") from exc

    return load, store


def _shape(cpu: CPU) -> _Shape:
    """The :class:`_Shape` of the blocks ``cpu`` runs."""
    l1 = cpu.caches.l1
    return _Shape(cpu.issue.config, l1._line_shift, l1._set_mask,
                  l1.config.hit_extra_cycles,
                  cpu.tag_limit if cpu.tag_watch is not None else None,
                  cpu.syscall_handler is not None,
                  cpu.native_handler is not None)


def _blocks(cpu: CPU):
    """``make(start, limit) -> (block or None, conts)`` for one CPU.

    Code objects come from the program's cache group for this CPU's
    :class:`_Shape` and are generated and compiled on a miss; each call
    instantiates a fresh closure bound to this CPU's state.
    """
    l1 = cpu.caches.l1
    shape = _shape(cpu)
    program = cpu.program
    groups = getattr(program, "_block_code", None)
    if groups is None:
        groups = program._block_code = {}
    blocks = groups.get(shape)
    if blocks is None:
        blocks = groups[shape] = {}
    im = cpu.issue
    counters = cpu.counters
    memory = cpu.memory
    shared = (cpu.gr, cpu.nat, cpu.pr, cpu.br, im, counters,
              counters.pair_costs, RoleCost, memory._pages.get,
              memory._dirty.add, *_CODECS, memory.load, *_faulting(memory),
              cpu.caches.access, l1._sets, l1.stats, cpu._recent_stores,
              cpu, NaTConsumptionFault, Fault,
              IllegalInstructionFault, cpu.tag_watch, cpu.spec_ranges,
              cpu.spec_check, im._group, cpu.syscall_handler,
              cpu.native_handler)

    def make(start: int, limit: int):
        entry = blocks.get((start, limit))
        if entry is None:
            src, fns, conts = _block(program, shape, start, limit)
            code_obj = (None if src is None
                        else compile(src, "<predecode>", "exec"))
            entry = blocks[start, limit] = (code_obj, fns, conts)
        code_obj, fns, conts = entry
        if code_obj is None:
            return None, conts
        ns: dict = {}
        exec(code_obj, ns)
        return ns["_f"](*shared, fns), conts

    return make


def _make_fallback(cpu: CPU, instr: Instruction) -> Uop:
    """Delegate to the reference executor (identical by construction)."""
    execute = cpu._execute

    def fallback(pc):
        cpu.pc = pc
        execute(instr)
        return cpu.pc

    return fallback


def predecode(cpu: CPU) -> List[Uop]:
    """Per-pc micro-op table: ``uops[pc]`` runs the instruction at ``pc``.

    Every entry starts as a trampoline that installs the pc's
    one-instruction block (or the fallback) on first execution.
    """
    code = cpu.program.code
    make = _blocks(cpu)

    def trampoline(pc: int) -> int:
        uop = make(pc, 1)[0]
        if uop is None:
            uop = _make_fallback(cpu, code[pc])
        uops[pc] = uop
        return uop(pc)

    uops: List[Uop] = [trampoline] * len(code)
    return uops


def predecode_fused(cpu: CPU) -> List[Optional[Uop]]:
    """Fused-block table: ``fused[pc]`` runs the block led by ``pc``.

    Entries are ``None`` for pcs that do not lead a fusable block; the
    run loop falls back to the per-pc micro-op there, so correctness
    never depends on the leader analysis being complete (an unexpected
    indirect-branch target simply executes unfused).  Leaders start as
    trampolines that build and install their block on first execution.
    """
    program = cpu.program
    code = program.code
    n = len(code)
    leaders = set(program.labels.values())
    leaders.add(program.label_index(program.entry))
    for i, instr in enumerate(code):
        kind = OP_KIND[instr.op]
        if kind is OpKind.BRANCH or kind is OpKind.CHK or kind is OpKind.SYS:
            if i + 1 < n:
                leaders.add(i + 1)
            if instr.target is not None:
                t = _resolve(program, instr.target)
                if t is not None:
                    leaders.add(t)
    make = _blocks(cpu)
    fused: List[Optional[Uop]] = [None] * n
    seen = set(leaders)

    def trampoline(pc: int) -> int:
        blk, conts = make(pc, MAX_BLOCK)
        fused[pc] = blk
        for c in conts:
            if 0 <= c < n and c not in seen:
                seen.add(c)
                fused[c] = trampoline
        if blk is not None:
            return blk(pc)
        # Not fusable from here: run this pc's micro-op once so the
        # trampoline still makes progress (later visits go straight
        # to the per-pc path because fused[pc] is now None).
        cpu._fault_pc = pc
        return cpu._uops[pc](pc)

    for start in leaders:
        if 0 <= start < n:
            fused[start] = trampoline
    return fused
