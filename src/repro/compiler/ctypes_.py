"""MiniC type system.

``char`` is 1 byte (signed), ``int``/``long`` are 8 bytes (a *word* in
the paper's terminology), pointers are 8 bytes.  Arrays decay to
pointers in expression context, as in C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class StructField:
    """One member of a struct: name, type and byte offset."""

    name: str
    ctype: "CType"
    offset: int


@dataclass(frozen=True)
class CType:
    """A MiniC type: base kind plus pointer depth or array length."""

    kind: str  # 'char' | 'int' | 'void' | 'ptr' | 'array' | 'struct' | 'func'
    pointee: Optional["CType"] = None  # for 'ptr' and 'array'
    length: int = 0  # for 'array'
    params: Tuple["CType", ...] = ()  # for 'func'
    ret: Optional["CType"] = None  # for 'func'
    tag: str = ""  # for 'struct': the struct name
    fields: Tuple[StructField, ...] = ()  # for 'struct'
    struct_size: int = 0  # for 'struct' (computed at definition)

    @property
    def size(self) -> int:
        """Size in bytes of a value of this type."""
        if self.kind == "char":
            return 1
        if self.kind == "int":
            return 8
        if self.kind == "ptr":
            return 8
        if self.kind == "array":
            return self.pointee.size * self.length
        if self.kind == "struct":
            return self.struct_size
        if self.kind == "void":
            return 0
        raise ValueError(f"{self} has no size")

    @property
    def is_struct(self) -> bool:
        """True for struct types."""
        return self.kind == "struct"

    def field(self, name: str) -> StructField:
        """Look up a struct member by name (KeyError if absent)."""
        for member in self.fields:
            if member.name == name:
                return member
        raise KeyError(f"struct {self.tag} has no field {name!r}")

    @property
    def is_pointer(self) -> bool:
        """True for pointer types."""
        return self.kind == "ptr"

    @property
    def is_array(self) -> bool:
        """True for array types."""
        return self.kind == "array"

    @property
    def is_integer(self) -> bool:
        """True for char/int types."""
        return self.kind in ("char", "int")

    @property
    def is_void(self) -> bool:
        """True for void."""
        return self.kind == "void"

    def decay(self) -> "CType":
        """Array-to-pointer decay (expression context)."""
        if self.is_array:
            return pointer_to(self.pointee)
        return self

    @property
    def load_size(self) -> int:
        """Bytes moved when loading/storing a value of this type."""
        return self.decay().size

    @property
    def signed(self) -> bool:
        """True when loads of this type sign-extend."""
        return self.kind in ("char", "int")

    def __str__(self) -> str:
        if self.kind == "ptr":
            return f"{self.pointee}*"
        if self.kind == "array":
            return f"{self.pointee}[{self.length}]"
        if self.kind == "struct":
            return f"struct {self.tag}"
        if self.kind == "func":
            params = ", ".join(str(p) for p in self.params)
            return f"{self.ret}({params})"
        return self.kind


CHAR = CType("char")
INT = CType("int")
VOID = CType("void")


def pointer_to(pointee: CType) -> CType:
    """Pointer type to ``pointee``."""
    return CType("ptr", pointee=pointee)


def array_of(element: CType, length: int) -> CType:
    """Array type of ``length`` elements."""
    return CType("array", pointee=element, length=length)


def struct_type(tag: str, members) -> CType:
    """Lay out a struct: members are (name, CType) pairs.

    Every member is aligned to 8 bytes except trailing chars/char
    arrays, which pack naturally; total size rounds up to 8.
    """
    fields = []
    offset = 0
    for name, ctype in members:
        align = 1 if ctype.kind == "char" or (
            ctype.kind == "array" and ctype.pointee.kind == "char") else 8
        offset = (offset + align - 1) // align * align
        fields.append(StructField(name=name, ctype=ctype, offset=offset))
        offset += ctype.size
    total = (offset + 7) // 8 * 8
    return CType("struct", tag=tag, fields=tuple(fields),
                 struct_size=max(total, 8))
