"""Static code-size accounting (paper Table 3).

Instructions are packed three to a 16-byte Itanium bundle; code size is
measured in bundle bytes.  Natives and ``_start`` are excluded so that
only the compiled (and instrumented) application code is compared.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.pipeline import CompiledProgram

BUNDLE_SLOTS = 3
BUNDLE_BYTES = 16


def instructions_to_bytes(count: int) -> int:
    """Code bytes for ``count`` instructions (3 slots per 16-byte bundle)."""
    return (count + BUNDLE_SLOTS - 1) // BUNDLE_SLOTS * BUNDLE_BYTES


@dataclass(frozen=True)
class CodeSize:
    """Code size of one compiled program."""

    instructions: int
    bytes: int

    @staticmethod
    def of(compiled: CompiledProgram) -> "CodeSize":
        """Measure a compiled program's instrumented code size."""
        count = compiled.total_instructions
        return CodeSize(instructions=count, bytes=instructions_to_bytes(count))


def expansion_percent(base: CodeSize, instrumented: CodeSize) -> float:
    """Size growth of instrumented code over the original, in percent."""
    if base.bytes == 0:
        return 0.0
    return 100.0 * (instrumented.bytes - base.bytes) / base.bytes
