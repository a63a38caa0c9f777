"""Shared infrastructure for the SPEC-INT2000-like kernels.

Each kernel is a MiniC program that reads its workload from ``/data``
(so that "all data read from disk" can be marked tainted, as in the
paper's SPEC measurements, section 6.2), processes it in a loop whose
instruction mix mirrors the corresponding SPEC benchmark, and leaves a
checksum in the global ``result`` — identical across instrumentation
modes, which the tests use as a strong correctness check.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict

#: Scale factors: 'test' keeps unit tests fast; 'ref' is used by the
#: experiment harness for the paper figures.
SCALES = ("test", "ref")


@dataclass(frozen=True)
class SpecBenchmark:
    """One SPEC-like kernel: source template + input generator."""

    name: str
    spec_name: str  # e.g. "164.gzip"
    description: str
    source_template: str
    params: Dict[str, Dict[str, int]]  # scale -> {placeholder: value}
    input_maker: Callable[[random.Random, Dict[str, int]], bytes]

    def source(self, scale: str = "ref") -> str:
        """MiniC source with the scale's parameters substituted."""
        text = self.source_template
        for key, value in self.params[scale].items():
            text = text.replace(f"@{key}@", str(value))
        if "@" in text:
            start = text.index("@")
            raise ValueError(
                f"{self.name}: unreplaced placeholder near {text[start:start + 20]!r}"
            )
        return text

    def make_input(self, scale: str = "ref", seed: int = 12345) -> bytes:
        """Deterministic workload bytes for /data.

        Salted with a CRC of the kernel name, never ``hash()``: string
        hashes change from one process to the next, and so would every
        input and cycle count derived from them.
        """
        rng = random.Random(seed + zlib.crc32(self.name.encode()) % 1000)
        return self.input_maker(rng, self.params[scale])


#: MiniC preamble shared by every kernel: natives + input loading.
KERNEL_PRELUDE = """
native int open(char *path, int flags);
native int read(int fd, char *buf, int n);
native int close(int fd);

int result;

int load_input(char *buf, int limit) {
    int fd = open("/data", 0);
    if (fd < 0) {
        return 0;
    }
    int total = 0;
    int n = read(fd, buf, limit);
    while (n > 0) {
        total += n;
        n = read(fd, buf + total, limit - total);
    }
    close(fd);
    return total;
}
"""


def text_input(rng: random.Random, size: int) -> bytes:
    """Compressible text-like bytes (words with repetition)."""
    words = [b"the", b"quick", b"brown", b"fox", b"jumps", b"over", b"lazy",
             b"dog", b"pack", b"my", b"box", b"with", b"five", b"dozen",
             b"liquor", b"jugs", b"state", b"machine", b"taint", b"track"]
    out = bytearray()
    while len(out) < size:
        out += rng.choice(words) + b" "
    return bytes(out[:size])


def binary_input(rng: random.Random, size: int) -> bytes:
    """Uniformly random bytes (incompressible data)."""
    return bytes(rng.randrange(256) for _ in range(size))


def skewed_input(rng: random.Random, size: int) -> bytes:
    """Byte stream with a skewed distribution (good for MTF coding)."""
    alphabet = b"eetaoinshrdlucc  "
    return bytes(rng.choice(alphabet) for _ in range(size))
