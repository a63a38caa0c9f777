"""Decoder fuzzing: every untrusted decoder decodes or raises its typed error.

Each decoder gets one valid seed input and a fixed number of seeded
mutations (byte flips, truncations, insertions and deletions).  A
mutated input must either decode or raise that decoder's typed error;
any other exception is a crash.  The input counts, not a time budget,
fix the work, so a run does the same on any host; each decoder's count
is sized to about one second.
"""

import random

import pytest

from repro.core.shift import build_machine
from repro.fleet.wire import TaggedMessage, WireFormatError
from repro.guestvm.asm import MiniScriptError, assemble, disassemble
from repro.resil.migrate import MigrationError, pack_worker, unpack_blob
from repro.taint.policy import PolicyConfigError, parse_policy_config

SCRIPT = """
# greet: RAW <name> | ESC <name>
let req = arg;
let sp = find(req, " ");
if sp < 0 {
  emit("ERR bad request");
} else {
  let verb = slice(req, 0, sp);
  let who = slice(req, sp + 1, len(req));
  while len(who) > 32 { who = slice(who, 0, 32); }
  if verb == "RAW" { emit("<p>" + who + "</p>"); }
  else if verb == "ESC" { emit(escape(who)); greet(); }
  else { sql("SELECT v FROM kv WHERE k='" + str(-len(who) * 3 % 7) + "'"); }
}

def greet {
  log("greeted " + who);
}
"""

POLICY = """
# a server's policy file
[sources]
network = tainted
file = trusted

[policies]
H1 = on
H5 = on
L1 = off

[settings]
document_root = /srv/www
"""


def _frame() -> bytes:
    payload = b"GET /index.html HTTP/1.0\r\n\r\n"
    return TaggedMessage.from_flags(
        payload, [i % 3 == 0 for i in range(len(payload))],
        request_id=7, origin="tier1:w0").to_bytes()


def _blob() -> bytes:
    machine = build_machine("int main() { return 3; }", include_libc=False)
    machine.run()
    return pack_worker(machine)


def _text(data: bytes) -> str:
    return data.decode("latin-1")


#: name -> (seed input, decoder, typed error, mutated inputs).
DECODERS = {
    "wire-frame": (_frame, TaggedMessage.from_bytes, WireFormatError,
                   65_000),
    "SHFTMIG1": (_blob, unpack_blob, MigrationError, 50_000),
    "MSB1": (lambda: assemble(SCRIPT).blob, disassemble, MiniScriptError,
             15_000),
    "policy-file": (POLICY.encode,
                    lambda data: parse_policy_config(_text(data)),
                    PolicyConfigError, 32_000),
    "MiniScript": (SCRIPT.encode, lambda data: assemble(_text(data)),
                   MiniScriptError, 3_800),
}


def mutate(rng: random.Random, data: bytes) -> bytes:
    """One to four byte flips, truncations, insertions or deletions."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        kind = rng.randrange(4)
        at = rng.randrange(len(out) + 1)
        if kind == 0 and at < len(out):
            out[at] ^= rng.randrange(1, 256)
        elif kind == 1:
            del out[at:]
        elif kind == 2:
            out[at:at] = bytes(rng.randrange(256)
                               for _ in range(rng.randint(1, 8)))
        else:
            del out[at:at + rng.randint(1, 8)]
    return bytes(out)


@pytest.mark.parametrize("name", DECODERS)
def test_mutated_inputs_decode_or_raise_the_typed_error(name):
    seed_input, decode, error, count = DECODERS[name]
    valid = seed_input()
    decode(valid)
    rng = random.Random(name)
    rejected = 0
    for _ in range(count):
        data = mutate(rng, valid)
        try:
            decode(data)
        except error:
            rejected += 1
        except Exception as exc:
            raise AssertionError(f"{name} crashed on {data!r}") from exc
    # The mutations reach the decoder's checks, not just its happy path.
    assert rejected > 0
