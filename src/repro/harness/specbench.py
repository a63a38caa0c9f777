"""Speculative fast-path benchmark: speedup, equivalence and replay.

Three experiments over the contained-taint store
(:mod:`repro.apps.specstore`), one report (``BENCH_spec.json``):

1. **Contained-taint mix** — one tainted ``STOR`` seeds the value
   slab, then clean ``SUM`` compute requests dominate.  The slab never
   drains, so plain on-demand tracking (``adaptive="on"``) collapses
   to always-on; speculation (``adaptive="speculate"``) runs every
   clean request on the fast copy under taint-range guards.  Four arms
   over identical traffic: speculate / on / track (always-on pin) /
   uninstrumented floor: the cycle speedup of speculate over always-on
   with responses, alerts and taint origins compared — under **both**
   interpreter engines, which are also compared with each other.
2. **Misspeculation mix** — seeded guard trips (``GET`` of a watched
   slot) plus one real H4 command injection (``EXEC``).  Every trip
   rolls back to the epoch checkpoint and replays under tracking; the
   replayed run is compared (responses, alerts with pcs, origins) to a
   straight always-on run, and its rollbacks counted.
3. **Word granularity** — the contained mix at word tags (8-byte
   granules), showing the watch construction is granularity-blind.

The report's ``metrics`` holds the contained mix's speculate-arm
machine metrics (``adaptive.spec.*`` included).  Run and gated as the
``spec`` suite of :mod:`repro.harness.suites`, whose gate table holds
the conditions::

    PYTHONPATH=src python -m repro.harness.suites spec --quick --gate
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.compiler.instrument import (BYTE_LEVEL, UNINSTRUMENTED,
                                       WORD_LEVEL, ShiftOptions)
from repro.fleet.driver import FleetConfig
from repro.harness.runners import (arm_record, serve_requests,
                                   specstore_policy)
from repro.apps.specstore import contained_mix, misspec_mix

#: Strict byte-granularity tracking: speculation's claim is full
#: detection strength with fast-path cycles, so the track half carries
#: the strongest configuration.
SPECSTORE_OPTIONS = BYTE_LEVEL

#: Both engines: cross-engine identity is part of the gate.
ENGINES = ("predecoded", "reference")

#: Expected guard trips in the misspeculation mix: one benign ``GET``
#: of the watched slot, one ``EXEC`` command injection.
EXPECTED_ROLLBACKS = 2


def _run_arm(adaptive: str, requests: Sequence[bytes], engine: str,
             options: ShiftOptions) -> Dict:
    """One specstore arm over one request stream; raw observables.

    The full taint-origin list and ``entry_failures`` are not in the
    metric catalogue, so they are read off the machine.
    """
    summary, machine = serve_requests(FleetConfig(
        variant="specstore",
        options=options if adaptive != "uninstrumented" else UNINSTRUMENTED,
        policy_config=specstore_policy(),
        files={},
        engine=engine,
        engine_mode="record",
        adaptive=adaptive if adaptive != "uninstrumented" else "none",
        tracing=True,
        max_instructions=2_000_000_000,
    ), [(payload, None) for payload in requests])
    arm = arm_record(summary)
    arm["origins"] = [(o.source, o.label, o.index, o.start, o.length)
                      for o in machine.obs.provenance.origins]
    metrics = arm["metrics"]
    if machine.spec is not None:
        arm["spec"] = {name: metrics[f"adaptive.spec.{name}"] for name in (
            "epochs", "commits", "rollbacks", "committed_instructions",
            "wasted_instructions", "deferred_sends", "deferred_bytes")}
        arm["spec"]["entry_failures"] = machine.spec.entry_failures
    return arm


def _public(arm: Dict) -> Dict:
    """An arm record without its responses, origins and metrics."""
    return {k: v for k, v in arm.items()
            if k not in ("metrics", "responses", "origins")}


def _digest_equal(a: Dict, b: Dict) -> bool:
    """Externally visible equality: responses, alerts, origins, count."""
    return (a["responses"] == b["responses"]
            and a["alerts"] == b["alerts"]
            and a["origins"] == b["origins"]
            and a["served"] == b["served"])


def contained_experiment(requests: Sequence[bytes], engine: str,
                         options: ShiftOptions,
                         name: str = "contained") -> Dict:
    """Speculate / on / track / floor arms over the contained mix."""
    speculate = _run_arm("speculate", requests, engine, options)
    on = _run_arm("on", requests, engine, options)
    track = _run_arm("track", requests, engine, options)
    floor = _run_arm("uninstrumented", requests, engine, options)
    entry = {
        "name": name,
        "engine": engine,
        "granularity": options.granularity,
        "requests": len(requests),
        "speculate": _public(speculate),
        "adaptive_on": _public(on),
        "always_on": _public(track),
        "uninstrumented": _public(floor),
        "speedup": track["cycles"] / speculate["cycles"],
        "speedup_vs_on": on["cycles"] / speculate["cycles"],
        "overhead_vs_floor": speculate["cycles"] / floor["cycles"],
        "identical_to_always_on": _digest_equal(speculate, track),
        "rollbacks": speculate["spec"]["rollbacks"],
    }
    entry["_speculate"] = speculate
    return entry


def misspec_experiment(requests: Sequence[bytes], engine: str) -> Dict:
    """Seeded guard trips: rollback + replay must equal straight track."""
    speculate = _run_arm("speculate", requests, engine, SPECSTORE_OPTIONS)
    track = _run_arm("track", requests, engine, SPECSTORE_OPTIONS)
    return {
        "name": "misspec",
        "engine": engine,
        "requests": len(requests),
        "speculate": _public(speculate),
        "always_on": _public(track),
        "rollbacks": speculate["spec"]["rollbacks"],
        "expected_rollbacks": EXPECTED_ROLLBACKS,
        "replay_digest_equal": _digest_equal(speculate, track),
        "h4_detected": [a[0] for a in speculate["alerts"]] == ["H4"],
    }


def run_suite(quick: bool) -> Dict:
    """All experiments under both engines; returns the report body."""
    sums = 8 if quick else 24
    mis_sums = 4 if quick else 10
    contained: List[Dict] = []
    misspec: List[Dict] = []
    metrics: Dict = {}
    for engine in ENGINES:
        print(f"specbench: contained-taint mix ({engine})", flush=True)
        entry = contained_experiment(contained_mix(sums), engine,
                                     SPECSTORE_OPTIONS)
        speculate = entry.pop("_speculate")
        print(f"  speedup {entry['speedup']:.2f}x over always-on "
              f"({entry['speedup_vs_on']:.2f}x over adaptive-on), "
              f"identical={entry['identical_to_always_on']}, "
              f"rollbacks={entry['rollbacks']}", flush=True)
        contained.append(entry)
        if not metrics:
            metrics = speculate["metrics"]

        print(f"specbench: misspeculation mix ({engine})", flush=True)
        mis = misspec_experiment(misspec_mix(mis_sums), engine)
        print(f"  rollbacks {mis['rollbacks']}/{mis['expected_rollbacks']}, "
              f"replay_digest_equal={mis['replay_digest_equal']}, "
              f"H4={mis['h4_detected']}", flush=True)
        misspec.append(mis)

    print("specbench: word granularity (contained mix)", flush=True)
    word = contained_experiment(contained_mix(sums), ENGINES[0],
                                WORD_LEVEL, name="contained_word")
    word.pop("_speculate")
    print(f"  speedup {word['speedup']:.2f}x, "
          f"identical={word['identical_to_always_on']}", flush=True)

    def _engine_key(arm: Dict) -> Tuple:
        return (arm["cycles"], arm["served"], arm["alerts"],
                arm["spec"]["epochs"], arm["spec"]["rollbacks"])

    cross_engine_identical = all(
        _engine_key(c["speculate"]) == _engine_key(contained[0]["speculate"])
        for c in contained[1:]) and all(
        _engine_key(m["speculate"]) == _engine_key(misspec[0]["speculate"])
        for m in misspec[1:])

    return {
        "contained": contained,
        "misspec": misspec,
        "word": word,
        "cross_engine_identical": cross_engine_identical,
        "metrics": metrics,
    }
