"""Register-transfer-level IR, the compiler's middle end.

This corresponds to GCC's RTL, the level at which the paper implements
SHIFT (between ``pass_leaf_regs`` and ``pass_sched2``): operations on
virtual registers plus explicit loads/stores, lowered to machine code
after register allocation, after which the instrumentation pass runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union


@dataclass(frozen=True)
class VReg:
    """A virtual register (64-bit value)."""

    id: int

    def __str__(self) -> str:
        return f"v{self.id}"


#: IR operands are virtual registers or immediate integers.
Operand = Union[VReg, int]


@dataclass
class IRInstr:
    """One IR operation.  Field use depends on ``op``:

    =========  =====================================================
    op         meaning
    =========  =====================================================
    const      dst = imm
    symaddr    dst = address of data symbol ``name``
    funcaddr   dst = code address of function ``name``
    frameaddr  dst = sp + imm (a frame-slot address)
    mov        dst = a
    bin        dst = a <rel-free binop ``sub_op``> b
    sext       dst = sign-extend low ``size`` bytes of a
    load       dst = mem[a] (``size`` bytes, ``signed`` extension)
    store      mem[a] = b (``size`` bytes)
    setrel     dst = (a ``rel`` b) ? 1 : 0
    cbr        if (a ``rel`` b) goto label else goto label2
    br         goto label
    label      defines ``name``
    call       dst? = ``name``(args)
    icall      dst? = (*a)(args)
    ret        return a (or nothing)
    =========  =====================================================
    """

    op: str
    dst: Optional[VReg] = None
    a: Optional[Operand] = None
    b: Optional[Operand] = None
    sub_op: Optional[str] = None  # binop kind for 'bin'
    rel: Optional[str] = None  # relation for 'setrel'/'cbr'
    size: int = 8  # bytes for load/store/sext
    signed: bool = True
    imm: int = 0
    name: Optional[str] = None  # symbol / function / label name
    label: Optional[str] = None
    label2: Optional[str] = None
    args: Tuple[Operand, ...] = ()

    def uses(self) -> List[VReg]:
        """Virtual registers read by this instruction."""
        used = [x for x in (self.a, self.b) if isinstance(x, VReg)]
        used.extend(arg for arg in self.args if isinstance(arg, VReg))
        return used

    def defines(self) -> Optional[VReg]:
        """Virtual register written by this instruction, if any."""
        return self.dst

    @property
    def is_call(self) -> bool:
        """True for call/icall instructions."""
        return self.op in ("call", "icall")

    @property
    def is_terminator(self) -> bool:
        """True for instructions that end a basic block."""
        return self.op in ("cbr", "br", "ret")

    def __str__(self) -> str:
        if self.op == "const":
            return f"{self.dst} = {self.imm}"
        if self.op == "symaddr":
            return f"{self.dst} = &{self.name}"
        if self.op == "funcaddr":
            return f"{self.dst} = &&{self.name}"
        if self.op == "frameaddr":
            return f"{self.dst} = sp+{self.imm}"
        if self.op == "mov":
            return f"{self.dst} = {self.a}"
        if self.op == "bin":
            return f"{self.dst} = {self.a} {self.sub_op} {self.b}"
        if self.op == "sext":
            return f"{self.dst} = sext{self.size}({self.a})"
        if self.op == "load":
            return f"{self.dst} = load{self.size} [{self.a}]"
        if self.op == "store":
            return f"store{self.size} [{self.a}] = {self.b}"
        if self.op == "setrel":
            return f"{self.dst} = ({self.a} {self.rel} {self.b})"
        if self.op == "cbr":
            return f"if ({self.a} {self.rel} {self.b}) goto {self.label} else {self.label2}"
        if self.op == "br":
            return f"goto {self.label}"
        if self.op == "label":
            return f"{self.name}:"
        if self.op == "call":
            args = ", ".join(str(a) for a in self.args)
            prefix = f"{self.dst} = " if self.dst else ""
            return f"{prefix}{self.name}({args})"
        if self.op == "icall":
            args = ", ".join(str(a) for a in self.args)
            prefix = f"{self.dst} = " if self.dst else ""
            return f"{prefix}(*{self.a})({args})"
        if self.op == "ret":
            return f"ret {self.a}" if self.a is not None else "ret"
        return self.op


@dataclass
class IRFunction:
    """IR for one function plus its frame layout."""

    name: str
    param_names: List[str] = field(default_factory=list)
    body: List[IRInstr] = field(default_factory=list)
    frame_size: int = 0  # bytes of locals (arrays, spilled-to-memory vars)
    vreg_count: int = 0
    param_vregs: List[VReg] = field(default_factory=list)
    returns_value: bool = True

    def new_vreg(self) -> VReg:
        """Allocate a fresh virtual register."""
        reg = VReg(self.vreg_count)
        self.vreg_count += 1
        return reg

    def alloc_frame(self, size: int, align: int = 8) -> int:
        """Reserve ``size`` bytes in the frame; returns the sp offset."""
        self.frame_size = (self.frame_size + align - 1) // align * align
        offset = self.frame_size
        self.frame_size += size
        return offset

    def listing(self) -> str:
        """Human-readable IR dump."""
        lines = [f"function {self.name}({', '.join(self.param_names)}) frame={self.frame_size}"]
        for instr in self.body:
            indent = "" if instr.op == "label" else "    "
            lines.append(f"{indent}{instr}")
        return "\n".join(lines)
