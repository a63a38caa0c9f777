"""Table 3: impact of the instrumentation on code size.

The paper reports original size, word-level size (+132-223%) and
byte-level size (+160-288%) for the SPEC binaries, and a smaller
expansion for glibc (36%/45%) — the library contains much non-memory
code, and its hand-summarised assembly routines are not instrumented.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from repro.apps.spec import BENCHMARKS
from repro.compiler.codesize import instructions_to_bytes
from repro.compiler.instrument import (BYTE_LEVEL, UNINSTRUMENTED,
                                       WORD_LEVEL, ShiftOptions)
from repro.compiler.parser import parse
from repro.compiler.pipeline import compile_program
from repro.harness.formatting import format_table
from repro.runtime.libc_src import LIBC_SOURCE

_DUMMY_MAIN = "int main() { return 0; }"


def libc_function_names() -> Set[str]:
    """Names of the functions defined by the MiniC libc."""
    unit = parse(LIBC_SOURCE)
    return {f.name for f in unit.functions if f.body is not None}


@dataclass
class Table3Row:
    """Code sizes of one application across compile modes."""
    name: str
    orig_bytes: int
    word_bytes: int
    word_overhead_percent: float
    byte_bytes: int
    byte_overhead_percent: float


def _sizes(sources: List[str], functions: Optional[Set[str]],
           options: ShiftOptions) -> int:
    """Code bytes of the selected functions under one compile mode."""
    compiled = compile_program(sources, options)
    total = 0
    for name, count in compiled.function_sizes.items():
        if functions is None or name in functions:
            total += instructions_to_bytes(count)
    return total


def run_table3(benchmarks: Optional[Sequence[str]] = None,
               scale: str = "ref") -> List[Table3Row]:
    """Measure code-size expansion (Table 3).

    Sizes are of the protection configuration (``BYTE_LEVEL`` and
    ``WORD_LEVEL``, strict pointer policy); the permissive SPEC-perf
    mode adds out-of-line pointer-laundering blocks that the paper's
    binaries do not contain.
    """
    rows: List[Table3Row] = []
    libc_names = libc_function_names()

    # The libc row (the paper's glibc entry).
    libc_sources = [LIBC_SOURCE, _DUMMY_MAIN]
    orig = _sizes(libc_sources, libc_names, UNINSTRUMENTED)
    word = _sizes(libc_sources, libc_names, WORD_LEVEL)
    byte = _sizes(libc_sources, libc_names, BYTE_LEVEL)
    rows.append(Table3Row(
        name="libc", orig_bytes=orig,
        word_bytes=word, word_overhead_percent=100.0 * (word - orig) / orig,
        byte_bytes=byte, byte_overhead_percent=100.0 * (byte - orig) / orig,
    ))

    for name in (benchmarks or list(BENCHMARKS)):
        bench = BENCHMARKS[name]
        sources = [LIBC_SOURCE, bench.source(scale)]
        compiled_none = compile_program(sources, UNINSTRUMENTED)
        own = {fn for fn in compiled_none.function_sizes if fn not in libc_names}
        orig = _sizes(sources, own, UNINSTRUMENTED)
        word = _sizes(sources, own, WORD_LEVEL)
        byte = _sizes(sources, own, BYTE_LEVEL)
        rows.append(Table3Row(
            name=name, orig_bytes=orig,
            word_bytes=word, word_overhead_percent=100.0 * (word - orig) / orig,
            byte_bytes=byte, byte_overhead_percent=100.0 * (byte - orig) / orig,
        ))
    return rows


def format_table3(rows: List[Table3Row]) -> str:
    """Render the Table 3 table."""
    return format_table(
        ["app", "orig (B)", "word (B)", "word ovh", "byte (B)", "byte ovh"],
        [
            [row.name, row.orig_bytes, row.word_bytes,
             f"{row.word_overhead_percent:.0f}%",
             row.byte_bytes, f"{row.byte_overhead_percent:.0f}%"]
            for row in rows
        ],
        title=("Table 3: code-size expansion (paper: glibc 36%/45%, "
               "SPEC word 132-223%, byte 160-288%)"),
    )
