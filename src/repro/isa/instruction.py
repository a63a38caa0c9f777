"""Instruction model for the IA-64-like ISA.

Instructions are plain data; execution semantics live in
:mod:`repro.cpu.core` and timing in :mod:`repro.cpu.perf`.  The opcode
set is the subset of Itanium that SHIFT's code generator and
instrumentation pass need, plus the paper's three proposed
architectural-enhancement instructions (``settag``, ``cleartag`` and the
NaT-aware compares ``tcmp.*``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.isa.operands import Reg


class OpKind(enum.Enum):
    """Broad opcode families used by the executor and the timing model."""

    ALU = "alu"  # register/immediate arithmetic and logic
    CMP = "cmp"  # compare writing two predicates
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    CHK = "chk"  # speculation check
    MOVBR = "movbr"  # moves to/from branch registers
    MOVAR = "movar"  # moves to/from application registers
    SYS = "sys"  # break (syscall / native / trap)
    NOP = "nop"


# Mnemonic -> (kind, base latency in cycles).
# Latencies are issue-to-use latencies for the in-order timing model;
# loads add cache-hierarchy stalls on top.
OPCODES = {
    # ALU
    "add": (OpKind.ALU, 1),
    "sub": (OpKind.ALU, 1),
    "and": (OpKind.ALU, 1),
    "andcm": (OpKind.ALU, 1),  # a & ~b
    "or": (OpKind.ALU, 1),
    "xor": (OpKind.ALU, 1),
    "shl": (OpKind.ALU, 1),
    "shr": (OpKind.ALU, 1),  # arithmetic shift right
    "shr.u": (OpKind.ALU, 1),  # logical shift right
    "mul": (OpKind.ALU, 3),  # pseudo (xma on real Itanium)
    "div": (OpKind.ALU, 20),  # pseudo (FP sequence on real Itanium)
    "mod": (OpKind.ALU, 20),  # pseudo
    "adds": (OpKind.ALU, 1),  # add 14-bit immediate
    "movl": (OpKind.ALU, 1),  # load 64-bit immediate
    "mov": (OpKind.ALU, 1),  # GR <- GR
    "sxt1": (OpKind.ALU, 1),
    "sxt2": (OpKind.ALU, 1),
    "sxt4": (OpKind.ALU, 1),
    "zxt1": (OpKind.ALU, 1),
    "zxt2": (OpKind.ALU, 1),
    "zxt4": (OpKind.ALU, 1),
    # Compares: write (p_true, p_false).  With a NaT source operand the
    # plain forms clear both predicates (Itanium behaviour the paper
    # works around); the tcmp.* forms are the proposed NaT-aware
    # compares that proceed normally.
    "cmp.eq": (OpKind.CMP, 1),
    "cmp.ne": (OpKind.CMP, 1),
    "cmp.lt": (OpKind.CMP, 1),
    "cmp.le": (OpKind.CMP, 1),
    "cmp.gt": (OpKind.CMP, 1),
    "cmp.ge": (OpKind.CMP, 1),
    "cmp.ltu": (OpKind.CMP, 1),
    "cmp.geu": (OpKind.CMP, 1),
    "tcmp.eq": (OpKind.CMP, 1),
    "tcmp.ne": (OpKind.CMP, 1),
    "tcmp.lt": (OpKind.CMP, 1),
    "tcmp.le": (OpKind.CMP, 1),
    "tcmp.gt": (OpKind.CMP, 1),
    "tcmp.ge": (OpKind.CMP, 1),
    "tcmp.ltu": (OpKind.CMP, 1),
    "tcmp.geu": (OpKind.CMP, 1),
    # NaT test: writes (p_nat, p_not_nat).
    "tnat": (OpKind.CMP, 1),
    # Memory
    "ld1": (OpKind.LOAD, 1),
    "ld2": (OpKind.LOAD, 1),
    "ld4": (OpKind.LOAD, 1),
    "ld8": (OpKind.LOAD, 1),
    "ld8.s": (OpKind.LOAD, 1),  # control-speculative load
    "ld8.fill": (OpKind.LOAD, 1),  # restore register + NaT from UNAT
    "st1": (OpKind.STORE, 1),
    "st2": (OpKind.STORE, 1),
    "st4": (OpKind.STORE, 1),
    "st8": (OpKind.STORE, 1),
    "st8.spill": (OpKind.STORE, 1),  # store register, NaT into UNAT
    # Control
    "br": (OpKind.BRANCH, 1),  # unconditional
    "br.cond": (OpKind.BRANCH, 1),  # predicated by qp
    "br.call": (OpKind.BRANCH, 1),  # direct call, writes out BR
    "br.call.ind": (OpKind.BRANCH, 1),  # indirect call through BR
    "br.ind": (OpKind.BRANCH, 1),  # indirect jump through BR
    "br.ret": (OpKind.BRANCH, 1),
    "chk.s": (OpKind.CHK, 1),  # branch to recovery if NaT set
    "mov.tobr": (OpKind.MOVBR, 1),  # BR <- GR (faults on NaT: policy L3)
    "mov.frombr": (OpKind.MOVBR, 1),  # GR <- BR
    "mov.toar": (OpKind.MOVAR, 1),  # AR <- GR
    "mov.fromar": (OpKind.MOVAR, 1),  # GR <- AR
    # Misc
    "break": (OpKind.SYS, 1),
    "nop": (OpKind.NOP, 1),
    # Proposed architectural enhancements (paper section 4.4 / 6.3)
    "settag": (OpKind.ALU, 1),  # set NaT bit of a register
    "cleartag": (OpKind.ALU, 1),  # clear NaT bit of a register
}

LOAD_SIZES = {"ld1": 1, "ld2": 2, "ld4": 4, "ld8": 8, "ld8.s": 8, "ld8.fill": 8}
STORE_SIZES = {"st1": 1, "st2": 2, "st4": 4, "st8": 8, "st8.spill": 8}

#: Flat mnemonic->kind and mnemonic->latency views of OPCODES, so hot
#: paths (dispatch table construction, the predecoder) can do one dict
#: lookup instead of tuple indexing through a property call.
OP_KIND = {op: kind for op, (kind, _lat) in OPCODES.items()}
OP_LATENCY = {op: lat for op, (_kind, lat) in OPCODES.items()}

# Roles attached to instrumentation-inserted instructions so the perf
# counters can attribute cycles (paper Fig. 9 breakdown).
ROLE_USER = None
ROLE_TAG_COMPUTE = "tag_compute"  # virtual->tag address arithmetic
ROLE_TAG_MEM = "tag_mem"  # bitmap load/store
ROLE_TAINT_SET = "taint_set"  # setting/clearing NaT on data registers
ROLE_RELAX = "relax"  # compare-relaxation code
ROLE_NATGEN = "natgen"  # per-function NaT-source generation
ROLE_LIFT = "lift"  # software tag propagation in the LIFT baseline


@dataclass
class Instruction:
    """One decoded instruction.

    ``outs``/``ins`` list register operands; for memory operations the
    address register is in ``ins`` (and the stored value too, for
    stores), while the loaded destination is in ``outs``.
    """

    op: str
    qp: int = 0  # qualifying predicate index (0 = always)
    outs: Tuple[Reg, ...] = ()
    ins: Tuple[Reg, ...] = ()
    imm: Optional[int] = None
    target: Optional[str] = None  # label for branches / chk recovery
    #: Relocation: the loader patches ``imm`` with the address of this
    #: data symbol (``"name"``) or function (``"&name"``) at load time.
    sym: Optional[str] = None
    role: Optional[str] = ROLE_USER  # instrumentation role (Fig. 9)
    origin: Optional[str] = None  # 'load'|'store'|'cmp'|'func' for roles
    comment: str = ""

    def __post_init__(self) -> None:
        if self.op not in OPCODES:
            raise ValueError(f"unknown opcode: {self.op}")

    @property
    def kind(self) -> OpKind:
        """Opcode family (ALU, load, branch, ...)."""
        return OP_KIND[self.op]

    @property
    def latency(self) -> int:
        """Base issue latency in cycles."""
        return OP_LATENCY[self.op]

    @property
    def access_size(self) -> int:
        """Memory access size in bytes (loads/stores only)."""
        if self.op in LOAD_SIZES:
            return LOAD_SIZES[self.op]
        if self.op in STORE_SIZES:
            return STORE_SIZES[self.op]
        raise ValueError(f"{self.op} is not a memory operation")

    @property
    def is_mem(self) -> bool:
        """True for loads and stores."""
        return self.kind in (OpKind.LOAD, OpKind.STORE)

    def with_role(self, role: str, origin: Optional[str] = None) -> "Instruction":
        """Copy of this instruction tagged with an instrumentation role."""
        return replace(self, role=role, origin=origin)

    def __str__(self) -> str:
        qp = f"(p{self.qp}) " if self.qp else ""
        parts = [self.op]
        operands = []
        if self.outs:
            operands.append(", ".join(str(r) for r in self.outs))
        rhs = []
        if self.ins:
            rhs.extend(str(r) for r in self.ins)
        if self.imm is not None:
            rhs.append(str(self.imm))
        if self.target is not None:
            rhs.append(self.target)
        if operands and rhs:
            return f"{qp}{parts[0]} {operands[0]} = {', '.join(rhs)}"
        if operands:
            return f"{qp}{parts[0]} {operands[0]}"
        if rhs:
            return f"{qp}{parts[0]} {', '.join(rhs)}"
        return f"{qp}{parts[0]}"


@dataclass
class Label:
    """A position marker in an instruction stream."""

    name: str

    def __str__(self) -> str:
        return f"{self.name}:"
