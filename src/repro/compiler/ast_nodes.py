"""AST node definitions for MiniC."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.compiler.ctypes_ import CType


@dataclass
class Node:
    """Base class for all AST nodes; carries the source line."""

    line: int = 0


# --- Expressions -------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expression nodes."""


@dataclass
class NumberLit(Expr):
    """Integer or character literal."""

    value: int = 0


@dataclass
class StringLit(Expr):
    """String literal (interned into static data)."""

    value: bytes = b""


@dataclass
class Ident(Expr):
    """A variable or function name."""

    name: str = ""


@dataclass
class Unary(Expr):
    """Prefix operator: -, ~, !, * (deref), &."""

    op: str = ""  # '-', '~', '!', '*', '&'
    operand: Expr = None


@dataclass
class Binary(Expr):
    """Infix binary operator."""

    op: str = ""
    left: Expr = None
    right: Expr = None


@dataclass
class Assign(Expr):
    """Assignment, plain (=) or compound (+= ...)."""

    op: str = "="  # '=', '+=', '-=', ...
    target: Expr = None
    value: Expr = None


@dataclass
class IncDec(Expr):
    """++/--, prefix or postfix."""

    op: str = "++"
    prefix: bool = True
    target: Expr = None


@dataclass
class Call(Expr):
    """Direct function call name(args)."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class Index(Expr):
    """Array/pointer subscript base[index]."""

    base: Expr = None
    index: Expr = None


@dataclass
class Member(Expr):
    """Struct member access: ``base.name`` or ``base->name`` (arrow)."""

    base: Expr = None
    name: str = ""
    arrow: bool = False


@dataclass
class Cast(Expr):
    """C-style cast (type)expr."""

    target_type: CType = None
    operand: Expr = None


@dataclass
class SizeOf(Expr):
    """sizeof(type) -- a compile-time constant."""

    target_type: CType = None


# --- Statements ---------------------------------------------------------


@dataclass
class Stmt(Node):
    """Base class for statement nodes."""


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for its side effects."""

    expr: Expr = None


@dataclass
class DeclStmt(Stmt):
    """Local declaration with optional initialiser."""

    ctype: CType = None
    name: str = ""
    init: Optional[Expr] = None


@dataclass
class Block(Stmt):
    """{ ... } -- a new lexical scope."""

    statements: List[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    """if/else statement."""

    cond: Expr = None
    then: Stmt = None
    otherwise: Optional[Stmt] = None


@dataclass
class While(Stmt):
    """while loop."""

    cond: Expr = None
    body: Stmt = None


@dataclass
class For(Stmt):
    """for loop; any clause may be absent."""

    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None


@dataclass
class Return(Stmt):
    """return with optional value."""

    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    """break out of the innermost loop."""


@dataclass
class Continue(Stmt):
    """continue with the innermost loop's next iteration."""


# --- Top level -----------------------------------------------------------


@dataclass
class Param(Node):
    """One function parameter."""

    ctype: CType = None
    name: str = ""


@dataclass
class FunctionDef(Node):
    """Function definition, prototype (body=None) or native decl."""

    ret: CType = None
    name: str = ""
    params: List[Param] = field(default_factory=list)
    body: Optional[Block] = None  # None for prototypes
    is_native: bool = False


@dataclass
class GlobalDef(Node):
    """Global variable with optional static initialiser."""

    ctype: CType = None
    name: str = ""
    init: Optional[object] = None  # NumberLit, StringLit, or list of NumberLit


@dataclass
class TranslationUnit(Node):
    """One parsed source file: functions plus globals."""

    functions: List[FunctionDef] = field(default_factory=list)
    globals: List[GlobalDef] = field(default_factory=list)
