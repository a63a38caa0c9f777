"""Shared test helpers."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.compiler.instrument import ShiftOptions, UNINSTRUMENTED
from repro.core.shift import build_machine
from repro.taint.policy import PolicyConfig

BYTE_STRICT = ShiftOptions(granularity=1, pointer_policy="strict")
WORD_STRICT = ShiftOptions(granularity=8, pointer_policy="strict")
BYTE_PERMISSIVE = ShiftOptions(granularity=1, pointer_policy="permissive")
WORD_PERMISSIVE = ShiftOptions(granularity=8, pointer_policy="permissive")

#: Fresh examples on every run, no example database, and a reproduction
#: blob printed with any failure: ``pytest --hypothesis-profile=explore``.
#: Hypothesis's built-in ``ci`` profile, which it loads when the ``CI``
#: variable is set, is derandomized: it replays the same examples.
settings.register_profile("explore", derandomize=False, database=None,
                          print_blob=True)

ALL_MODES = [UNINSTRUMENTED, BYTE_PERMISSIVE, WORD_PERMISSIVE]
MODE_IDS = ["none", "byte", "word"]


def run_minic(source, options=UNINSTRUMENTED, *, stdin=b"", files=None,
              policy_config=None, include_libc=True, max_instructions=20_000_000):
    """Compile, load and run a MiniC program; returns the Machine."""
    machine = build_machine(
        source,
        options,
        policy_config=policy_config or PolicyConfig(),
        include_libc=include_libc,
        files=files,
        stdin=stdin,
    )
    machine.exit_code = machine.run(max_instructions=max_instructions)
    return machine


def minic_result(source, options=UNINSTRUMENTED, **kwargs):
    """Run a MiniC program and return its exit code."""
    return run_minic(source, options, **kwargs).exit_code


@pytest.fixture(params=ALL_MODES, ids=MODE_IDS)
def any_mode(request):
    """Parametrise a test over uninstrumented / byte / word compilation."""
    return request.param
