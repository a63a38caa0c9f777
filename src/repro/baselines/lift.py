"""LIFT-style software-only DIFT baseline (paper section 7.1).

LIFT is a dynamic-binary-translation taint tracker for x86-64 that the
paper compares against (4.6X slowdown on SPEC-INT2000 vs SHIFT's 2.81X).
Unlike SHIFT, LIFT has no hardware help for register tags: every
data-flow ALU instruction needs software tag propagation in shadow
registers, loads/stores consult a shadow map, and compares/branches need
explicit tag checks.

We model LIFT as an alternative instrumentation pass over the same
generated code.  The inserted instructions are *semantics-neutral* (they
only touch instrumentation scratch registers and the unused-in-this-mode
tag space), so guest behaviour is identical while the cost structure —
per-ALU shadow ORs, per-memory-access shadow-map traffic, per-branch
translation overhead — matches a DBT tracker.  LIFT-mode programs do
not detect attacks; the baseline exists for the performance comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

from repro.compiler.codegen import FunctionCode
from repro.isa.instruction import Instruction, Label, OpKind, ROLE_LIFT
from repro.isa.operands import GR, PR, R0
from repro.mem.address import IMPL_MASK

# Shadow scratch (the instrumentation-reserved registers).
S_A = GR(2)
S_T = GR(9)
S_U = GR(10)

_MEM_LOADS = {"ld1", "ld2", "ld4", "ld8"}
_MEM_STORES = {"st1", "st2", "st4", "st8"}

Item = Union[Label, Instruction]


@dataclass(frozen=True)
class LiftOptions:
    """Cost knobs for the LIFT model."""

    #: shadow-tag combine operations per user ALU instruction (x86-64
    #: is register starved: tags spill into memory-resident shadow state)
    alu_tag_ops: int = 3
    #: extra check instructions per compare/branch (fast-path check)
    cmp_check_ops: int = 3
    #: DBT translation overhead per taken branch (code-cache hash lookup
    #: and dispatch in the translated-code cache)
    branch_overhead_ops: int = 5

    @property
    def label(self) -> str:
        """Display name used by the harness."""
        return "lift"


class LiftInstrumenter:
    """Applies the LIFT cost model to one function's code."""

    def __init__(self, options: LiftOptions | None = None) -> None:
        self.options = options or LiftOptions()

    def instrument(self, func: FunctionCode) -> FunctionCode:
        """Rewrite one function with LIFT-style shadow operations."""
        out: List[Item] = []
        for item in func.items:
            if isinstance(item, Label):
                out.append(item)
                continue
            self._rewrite(item, out)
        return FunctionCode(name=func.name, items=out,
                            frame_size=func.frame_size, makes_calls=func.makes_calls)

    def _rewrite(self, instr: Instruction, out: List[Item]) -> None:
        if instr.role is not None:
            out.append(instr)
            return

        def emit(op: str, **kwargs) -> None:
            out.append(Instruction(op, role=ROLE_LIFT, origin=kwargs.pop("origin", "alu"), **kwargs))

        kind = instr.kind
        if instr.op in _MEM_LOADS:
            # Shadow-map lookup: address translation + shadow load + merge.
            addr = instr.ins[0]
            out.append(instr)
            emit("movl", origin="load", outs=(S_A,), imm=IMPL_MASK)
            emit("and", origin="load", outs=(S_A,), ins=(addr, S_A))
            emit("shr.u", origin="load", outs=(S_A,), ins=(S_A,), imm=3)
            emit("ld1", origin="load", outs=(S_T,), ins=(S_A,))
            emit("and", origin="load", outs=(S_T,), ins=(S_T,), imm=0xff)
            emit("or", origin="load", outs=(S_T,), ins=(S_T, S_U))
            emit("or", origin="load", outs=(S_U,), ins=(S_U, S_T))
            return
        if instr.op in _MEM_STORES:
            addr = instr.ins[0]
            out.append(instr)
            emit("movl", origin="store", outs=(S_A,), imm=IMPL_MASK)
            emit("and", origin="store", outs=(S_A,), ins=(addr, S_A))
            emit("shr.u", origin="store", outs=(S_A,), ins=(S_A,), imm=3)
            emit("or", origin="store", outs=(S_T,), ins=(S_T, S_U))
            emit("st1", origin="store", ins=(S_A, S_T))
            return
        if kind is OpKind.ALU and instr.op not in ("movl",):
            out.append(instr)
            for _ in range(self.options.alu_tag_ops):
                emit("or", outs=(S_T,), ins=(S_T, S_U))
            return
        if kind is OpKind.CMP:
            for _ in range(self.options.cmp_check_ops):
                emit("cmp.eq", origin="cmp", outs=(PR(8), PR(9)), ins=(S_T, R0))
            out.append(instr)
            return
        if kind is OpKind.BRANCH:
            for _ in range(self.options.branch_overhead_ops):
                emit("add", origin="branch", outs=(S_U,), ins=(S_U, S_T))
            out.append(instr)
            return
        out.append(instr)


def lift_instrument_function(func: FunctionCode,
                             options: LiftOptions | None = None) -> FunctionCode:
    """Apply the LIFT baseline model to one function."""
    return LiftInstrumenter(options).instrument(func)
