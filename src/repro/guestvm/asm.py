"""MiniScript: a tiny scripting language compiled to stack bytecode.

MiniScript is the guest-side scripting language of the interpreter-
under-DIFT experiments: request handlers for the MiniScript VM (a
stack-bytecode interpreter written in MiniC, see
:mod:`repro.apps.guestvm`).  This module is the *host-side* toolchain —
a compiler from MiniScript source text to the compact binary container
the VM executes.  The container is embedded into the VM's MiniC source
as a ``char code[]`` initialiser, so the script is ordinary static
guest data and the only tainted bytes in the system are the ones that
arrive over the simulated network at run time.

Language summary (one request handler per program)::

    # comments run to end of line
    let name = expr;          # declare a variable (global slot)
    name = expr;              # assign
    if expr { ... } else if expr { ... } else { ... }
    while expr { ... }
    emit(expr);               # append to the HTTP response body
    sql(expr);                # execute a SQL string     (H3 use point)
    sqlparam(query, param);   # parameterized query: the param is bound
                              # out of band and never enters the string
    system(expr);             # run a shell command   (H4 use point)
    kvset(key, value);        # persistent key-value store
    log(expr);                # guest console
    name();                   # call a `def` block
    def name { ... }          # zero-argument procedure

    expr := int | "string" | arg | variable | (expr)
          | expr + - * / % expr          # + concatenates strings
          | expr == != < <= > >= expr
          | -expr
          | len(s) | char(s, i) | find(s, sub) | slice(s, a, b)
          | int(s) | str(i) | escape(s) | kvget(key)

``arg`` is the raw request string.  ``+`` is polymorphic: two ints add,
anything involving a string concatenates (ints are rendered first).
``==``/``!=`` compare strings by bytes and ints by value.  ``escape``
is HTML entity escaping — the control arm of the XSS (H5) experiment.

The compiler is deliberately conventional — tokenizer, recursive
descent, single-pass codegen with jump backpatching — so the emphasis
stays on the system property being tested: taint flowing *through* the
VM's fetch/decode/dispatch loop with origins intact.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Container magic ("MiniScript Bytecode v1").
MAGIC = b"MSB1"
#: Container format version.
VERSION = 1

#: Capacity limits mirroring the MiniC VM's fixed tables
#: (:data:`repro.apps.guestvm.GUESTVM_TEMPLATE`).  The compiler enforces
#: them so a script that assembles is a script the VM can run.
MAX_CONSTS = 48
MAX_SLOTS = 32
MAX_FUNCS = 12
MAX_CODE = 60_000


class MiniScriptError(ValueError):
    """A MiniScript program that cannot be compiled."""

    def __init__(self, message: str, line: int = 0) -> None:
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class Op(enum.IntEnum):
    """The MiniScript VM's opcode set (one byte each)."""

    HALT = 0
    PUSHI = 1    # i32 immediate
    PUSHC = 2    # u8 constant-pool index
    ARG = 3      # push the request string
    LOAD = 4     # u8 slot
    STORE = 5    # u8 slot
    DUP = 6
    POP = 7
    ADD = 8      # polymorphic: int+int adds, otherwise concatenates
    SUB = 9
    MUL = 10
    DIV = 11
    MOD = 12
    EQ = 13      # polymorphic: string==string compares bytes
    NE = 14
    LT = 15
    LE = 16
    GT = 17
    GE = 18
    JMP = 19     # u16 absolute code offset
    JZ = 20      # u16 absolute code offset
    LEN = 21
    INDEX = 22   # char(s, i)
    FIND = 23
    SLICE = 24
    TOINT = 25
    TOSTR = 26
    ESCAPE = 27  # HTML entity escaping
    KVGET = 28
    KVSET = 29
    SQL = 30     # sql_exec use point (policy H3)
    SQLP = 31    # parameterized: executes the query, binds the param
    EMIT = 32    # append to the response body (policy H5 fires at send)
    LOG = 33
    CALL = 34    # u8 function index
    RET = 35
    SYSTEM = 36  # system() shell-out use point (policy H4)


#: Operand widths in bytes, for the disassembler and the VM's decoder.
OPERAND_WIDTH: Dict[Op, int] = {
    Op.PUSHI: 4,
    Op.PUSHC: 1,
    Op.LOAD: 1,
    Op.STORE: 1,
    Op.JMP: 2,
    Op.JZ: 2,
    Op.CALL: 1,
}

#: expression builtins: name -> (opcode, arity).
_EXPR_BUILTINS: Dict[str, Tuple[Op, int]] = {
    "len": (Op.LEN, 1),
    "char": (Op.INDEX, 2),
    "find": (Op.FIND, 2),
    "slice": (Op.SLICE, 3),
    "int": (Op.TOINT, 1),
    "str": (Op.TOSTR, 1),
    "escape": (Op.ESCAPE, 1),
    "kvget": (Op.KVGET, 1),
}

#: statement builtins: name -> (opcode, arity).  They leave an int on
#: the stack that the statement form pops.
_STMT_BUILTINS: Dict[str, Tuple[Op, int]] = {
    "emit": (Op.EMIT, 1),
    "sql": (Op.SQL, 1),
    "sqlparam": (Op.SQLP, 2),
    "kvset": (Op.KVSET, 2),
    "log": (Op.LOG, 1),
    "system": (Op.SYSTEM, 1),
}

_KEYWORDS = ("let", "if", "else", "while", "def", "arg")

_BINOPS = {
    "==": Op.EQ, "!=": Op.NE, "<": Op.LT, "<=": Op.LE,
    ">": Op.GT, ">=": Op.GE,
    "+": Op.ADD, "-": Op.SUB, "*": Op.MUL, "/": Op.DIV, "%": Op.MOD,
}

#: Precedence tiers, loosest first.
_PREC: Tuple[Tuple[str, ...], ...] = (
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("+", "-"),
    ("*", "/", "%"),
)


@dataclass
class _Token:
    kind: str  # 'ident' | 'number' | 'string' | 'op' | 'eof'
    value: object
    line: int


def _tokenize(source: str) -> List[_Token]:
    tokens: List[_Token] = []
    i, line = 0, 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            continue
        if c == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("ident", source[i:j], line))
            i = j
            continue
        # ASCII digits only: str.isdigit also accepts digits int() rejects
        # ('¹') and digits of other scripts int() reads as ASCII ('٣').
        if "0" <= c <= "9":
            j = i
            while j < n and "0" <= source[j] <= "9":
                j += 1
            tokens.append(_Token("number", int(source[i:j]), line))
            i = j
            continue
        if c == '"':
            j = i + 1
            out = []
            while j < n and source[j] != '"':
                if source[j] == "\\" and j + 1 < n:
                    esc = source[j + 1]
                    out.append({"n": "\n", "t": "\t", '"': '"',
                                "\\": "\\"}.get(esc, esc))
                    j += 2
                    continue
                out.append(source[j])
                j += 1
            if j >= n:
                raise MiniScriptError("unterminated string literal", line)
            tokens.append(_Token("string", "".join(out), line))
            i = j + 1
            continue
        two = source[i:i + 2]
        if two in ("==", "!=", "<=", ">="):
            tokens.append(_Token("op", two, line))
            i += 2
            continue
        if c in "+-*/%<>=(){},;":
            tokens.append(_Token("op", c, line))
            i += 1
            continue
        raise MiniScriptError(f"unexpected character {c!r}", line)
    tokens.append(_Token("eof", None, line))
    return tokens


@dataclass
class Assembled:
    """A compiled MiniScript program."""

    blob: bytes
    consts: List[bytes]
    code: bytes
    funcs: Dict[str, int]          # name -> code offset
    slots: Dict[str, int]          # variable name -> slot index

    @property
    def entry_length(self) -> int:
        """Bytes of top-level (handler) code before the first def."""
        return min(self.funcs.values(), default=len(self.code))


class _Compiler:
    def __init__(self, source: str) -> None:
        self.tokens = _tokenize(source)
        self.pos = 0
        self.code = bytearray()
        self.consts: List[bytes] = []
        self._const_index: Dict[bytes, int] = {}
        self.slots: Dict[str, int] = {}
        self.func_order: List[str] = []        # index -> name
        self.func_addr: Dict[str, int] = {}    # name -> code offset
        self._call_sites: List[Tuple[int, str, int]] = []  # offset, name, line

    # -- token plumbing --------------------------------------------------

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.current
        self.pos += 1
        return token

    def at_op(self, op: str) -> bool:
        return self.current.kind == "op" and self.current.value == op

    def expect_op(self, op: str) -> None:
        if not self.at_op(op):
            raise MiniScriptError(
                f"expected {op!r}, got {self.current.value!r}",
                self.current.line)
        self.advance()

    def expect_ident(self) -> str:
        if self.current.kind != "ident":
            raise MiniScriptError(
                f"expected a name, got {self.current.value!r}",
                self.current.line)
        return self.advance().value

    # -- emission ----------------------------------------------------------

    def emit(self, op: Op) -> None:
        self.code.append(int(op))

    def emit_u8(self, op: Op, value: int) -> None:
        self.code.append(int(op))
        self.code.append(value & 0xFF)

    def emit_i32(self, op: Op, value: int) -> None:
        self.code.append(int(op))
        self.code.extend(struct.pack("<i", value))

    def emit_jump(self, op: Op, target: int = 0) -> int:
        """Emit a jump; returns the operand offset for backpatching."""
        self.code.append(int(op))
        site = len(self.code)
        self.code.extend(struct.pack("<H", target))
        return site

    def patch(self, site: int, target: Optional[int] = None) -> None:
        value = len(self.code) if target is None else target
        self.code[site:site + 2] = struct.pack("<H", value)

    def intern_const(self, data: bytes, line: int) -> int:
        index = self._const_index.get(data)
        if index is None:
            if len(self.consts) >= MAX_CONSTS:
                raise MiniScriptError(
                    f"too many string constants (max {MAX_CONSTS})", line)
            index = len(self.consts)
            self.consts.append(data)
            self._const_index[data] = index
        return index

    def slot_of(self, name: str, line: int, declare: bool = False) -> int:
        slot = self.slots.get(name)
        if slot is None:
            if not declare:
                raise MiniScriptError(f"undeclared variable {name!r}", line)
            if len(self.slots) >= MAX_SLOTS:
                raise MiniScriptError(
                    f"too many variables (max {MAX_SLOTS})", line)
            slot = len(self.slots)
            self.slots[name] = slot
        elif declare:
            raise MiniScriptError(f"variable {name!r} already declared", line)
        return slot

    # -- program structure ----------------------------------------------

    def compile(self) -> Assembled:
        deferred: List[Tuple[str, int]] = []  # (name, token position)
        # First pass over top-level statements; defs are deferred so the
        # handler body is a contiguous prefix ending in HALT.
        while self.current.kind != "eof":
            if self.current.kind == "ident" and self.current.value == "def":
                line = self.current.line
                self.advance()
                name = self.expect_ident()
                if name in self.func_addr or name in (
                        n for n, _ in deferred):
                    raise MiniScriptError(
                        f"function {name!r} already defined", line)
                if len(self.func_order) + len(deferred) >= MAX_FUNCS:
                    raise MiniScriptError(
                        f"too many functions (max {MAX_FUNCS})", line)
                deferred.append((name, self.pos))
                self._skip_block(line)
                continue
            self.statement()
        self.emit(Op.HALT)
        for name, pos in deferred:
            self.func_order.append(name)
            self.func_addr[name] = len(self.code)
            saved = self.pos
            self.pos = pos
            self.block()
            self.pos = saved
            self.emit(Op.RET)
        self._resolve_calls()
        if len(self.code) > MAX_CODE:
            raise MiniScriptError(f"program too large (max {MAX_CODE} bytes)")
        return Assembled(
            blob=_pack(self.consts, self.func_order, self.func_addr,
                       bytes(self.code)),
            consts=list(self.consts),
            code=bytes(self.code),
            funcs=dict(self.func_addr),
            slots=dict(self.slots),
        )

    def _skip_block(self, line: int) -> None:
        """Skip a brace-balanced block without compiling it."""
        if not self.at_op("{"):
            raise MiniScriptError("expected '{' after def name", line)
        depth = 0
        while True:
            token = self.current
            if token.kind == "eof":
                raise MiniScriptError("unterminated def block", line)
            self.advance()
            if token.kind == "op" and token.value == "{":
                depth += 1
            elif token.kind == "op" and token.value == "}":
                depth -= 1
                if depth == 0:
                    return

    def _resolve_calls(self) -> None:
        for offset, name, line in self._call_sites:
            if name not in self.func_addr:
                raise MiniScriptError(f"call to undefined def {name!r}", line)
            self.code[offset] = self.func_order.index(name)

    # -- statements -----------------------------------------------------------

    def block(self) -> None:
        self.expect_op("{")
        while not self.at_op("}"):
            if self.current.kind == "eof":
                raise MiniScriptError("unterminated block", self.current.line)
            self.statement()
        self.advance()

    def statement(self) -> None:
        token = self.current
        if token.kind != "ident":
            raise MiniScriptError(
                f"expected a statement, got {token.value!r}", token.line)
        name = token.value
        if name == "let":
            self.advance()
            var = self.expect_ident()
            self.expect_op("=")
            self.expression()
            self.emit_u8(Op.STORE, self.slot_of(var, token.line, declare=True))
            self.expect_op(";")
            return
        if name == "if":
            self._if_statement()
            return
        if name == "while":
            self.advance()
            top = len(self.code)
            self.expression()
            exit_site = self.emit_jump(Op.JZ)
            self.block()
            self.emit_jump(Op.JMP, top)
            self.patch(exit_site)
            return
        if name == "def":
            raise MiniScriptError("def blocks must be at top level",
                                  token.line)
        if name in _STMT_BUILTINS:
            self.advance()
            op, arity = _STMT_BUILTINS[name]
            self._call_args(name, arity, token.line)
            self.emit(op)
            self.emit(Op.POP)
            self.expect_op(";")
            return
        # assignment or user call
        self.advance()
        if self.at_op("("):
            self.advance()
            self.expect_op(")")
            self.expect_op(";")
            site = len(self.code) + 1
            self.emit_u8(Op.CALL, 0)
            self._call_sites.append((site, name, token.line))
            return
        self.expect_op("=")
        self.expression()
        self.emit_u8(Op.STORE, self.slot_of(name, token.line))
        self.expect_op(";")

    def _if_statement(self) -> None:
        self.advance()  # if
        self.expression()
        false_site = self.emit_jump(Op.JZ)
        self.block()
        if self.current.kind == "ident" and self.current.value == "else":
            self.advance()
            end_site = self.emit_jump(Op.JMP)
            self.patch(false_site)
            if self.current.kind == "ident" and self.current.value == "if":
                self._if_statement()
            else:
                self.block()
            self.patch(end_site)
        else:
            self.patch(false_site)

    def _call_args(self, name: str, arity: int, line: int) -> None:
        self.expect_op("(")
        for i in range(arity):
            self.expression()
            if i + 1 < arity:
                self.expect_op(",")
        if not self.at_op(")"):
            raise MiniScriptError(
                f"{name}() takes exactly {arity} argument(s)", line)
        self.advance()

    # -- expressions -------------------------------------------------------

    def expression(self, tier: int = 0) -> None:
        if tier >= len(_PREC):
            self._unary()
            return
        self.expression(tier + 1)
        while self.current.kind == "op" and self.current.value in _PREC[tier]:
            op = self.advance().value
            self.expression(tier + 1)
            self.emit(_BINOPS[op])

    def _unary(self) -> None:
        if self.at_op("-"):
            line = self.advance().line
            self.emit_i32(Op.PUSHI, 0)
            self._unary()
            self.emit(Op.SUB)
            return
        self._primary()

    def _primary(self) -> None:
        token = self.current
        if token.kind == "number":
            if token.value >= 1 << 31:
                raise MiniScriptError(
                    f"integer literal {token.value} does not fit 32 bits",
                    token.line)
            self.advance()
            self.emit_i32(Op.PUSHI, token.value)
            return
        if token.kind == "string":
            try:
                data = token.value.encode("latin-1")
            except UnicodeEncodeError:
                raise MiniScriptError(
                    "string literal is not latin-1", token.line) from None
            self.advance()
            index = self.intern_const(data, token.line)
            self.emit_u8(Op.PUSHC, index)
            return
        if token.kind == "op" and token.value == "(":
            self.advance()
            self.expression()
            self.expect_op(")")
            return
        if token.kind == "ident":
            name = token.value
            if name == "arg":
                self.advance()
                self.emit(Op.ARG)
                return
            if name in _EXPR_BUILTINS:
                self.advance()
                op, arity = _EXPR_BUILTINS[name]
                self._call_args(name, arity, token.line)
                self.emit(op)
                return
            if name in _STMT_BUILTINS or name in _KEYWORDS:
                raise MiniScriptError(
                    f"{name!r} cannot be used in an expression", token.line)
            self.advance()
            self.emit_u8(Op.LOAD, self.slot_of(name, token.line))
            return
        raise MiniScriptError(
            f"expected an expression, got {token.value!r}", token.line)


def _pack(consts: List[bytes], func_order: List[str],
          func_addr: Dict[str, int], code: bytes) -> bytes:
    """Serialize the bytecode container the MiniC VM boots from."""
    out = bytearray()
    out += MAGIC
    out.append(VERSION)
    out.append(len(consts))
    out.append(len(func_order))
    out.append(0)  # reserved
    out += struct.pack("<H", len(code))
    for const in consts:
        out += struct.pack("<H", len(const))
        out += const
    for name in func_order:
        out += struct.pack("<H", func_addr[name])
    out += code
    return bytes(out)


def assemble(source: str) -> Assembled:
    """Compile MiniScript source into its bytecode container."""
    return _Compiler(source).compile()


def disassemble(blob: bytes) -> str:
    """Human-readable listing of a bytecode container (for tests/docs).

    Raises :class:`MiniScriptError` for a container that is truncated
    anywhere or holds an unknown opcode.
    """
    if blob[:4] != MAGIC:
        raise MiniScriptError("not a MiniScript container")
    pos = 4

    def take(size: int, what: str) -> bytes:
        nonlocal pos
        if pos + size > len(blob):
            raise MiniScriptError(f"container truncated in its {what}")
        pos += size
        return blob[pos - size:pos]

    version, nconsts, nfuncs, _ = take(4, "header")
    (code_len,) = struct.unpack("<H", take(2, "header"))
    consts: List[bytes] = []
    for _ in range(nconsts):
        (length,) = struct.unpack("<H", take(2, "const table"))
        consts.append(take(length, "const table"))
    funcs = [struct.unpack("<H", take(2, "function table"))[0]
             for _ in range(nfuncs)]
    code = take(code_len, "code")
    lines = [f"; MSB v{version}: {nconsts} consts, {nfuncs} funcs, "
             f"{code_len} code bytes"]
    for i, const in enumerate(consts):
        lines.append(f"; const[{i}] = {const!r}")
    entries = {addr: f"func{idx}" for idx, addr in enumerate(funcs)}
    i = 0
    while i < len(code):
        if i in entries:
            lines.append(f"{entries[i]}:")
        try:
            op = Op(code[i])
        except ValueError:
            raise MiniScriptError(
                f"unknown opcode {code[i]:#04x} at {i}") from None
        width = OPERAND_WIDTH.get(op, 0)
        if i + 1 + width > len(code):
            raise MiniScriptError(f"{op.name} at {i} is missing its operand")
        operand = ""
        if width == 1:
            operand = f" {code[i + 1]}"
        elif width == 2:
            operand = f" {struct.unpack_from('<H', code, i + 1)[0]}"
        elif width == 4:
            operand = f" {struct.unpack_from('<i', code, i + 1)[0]}"
        lines.append(f"  {i:5d}  {op.name}{operand}")
        i += 1 + width
    return "\n".join(lines)
