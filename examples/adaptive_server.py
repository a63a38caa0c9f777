"""On-demand taint tracking: pay for tracking only while taint exists.

The paper's instrumentation is always on. This demo runs the same
compute-heavy backend three ways over identical wire-tagged traffic —
always-on tracking, uninstrumented (the floor), and *adaptive*
(``repro.adaptive``): dual-version code whose runtime controller runs
the clean copy while the machine is taint-quiescent and hot-switches to
the instrumented copy the instant a tainted request arrives.

The punchline: the adaptive server runs within a fraction of a percent
of the uninstrumented floor, yet catches the tainted traversal probe at
exactly the same pc with exactly the same policy as always-on tracking.

Run:  python examples/adaptive_server.py
"""

from repro.apps.webserver import make_request, traversal_request
from repro.compiler.instrument import ShiftOptions
from repro.fleet.driver import FleetConfig, build_worker
from repro.harness.runners import backend_policy
from repro.taint.bitmap import pack_flags

STRICT = ShiftOptions(granularity=1)


def run_arm(adaptive, traffic):
    machine = build_worker(FleetConfig(
        variant="backend",
        options=STRICT if adaptive != "floor" else ShiftOptions(mode="none"),
        policy_config=backend_policy(),
        sizes=(4, 8),
        engine_mode="record",
        adaptive="none" if adaptive == "floor" else adaptive,
    ))
    for payload, tainted in traffic:
        machine.net.add_request(
            payload, taint_mask=pack_flags([tainted] * len(payload)))
    served = machine.run(max_instructions=500_000_000)
    return machine, served


def main():
    traffic = [(make_request(8), False)] * 12
    traffic.insert(6, (traversal_request(), True))

    print("Identical traffic (12 clean requests + 1 tainted traversal)")
    print("served by three builds of the same backend:\n")

    results = {}
    for arm, label in (("track", "always-on tracking"),
                       ("floor", "uninstrumented floor"),
                       ("on", "adaptive (on-demand)")):
        machine, served = run_arm(arm, traffic)
        alerts = [(a.policy_id, a.pc) for a in machine.alerts]
        results[arm] = (machine, served, alerts)
        print(f"  {label:22s} {machine.counters.cycles:>12,.0f} cycles, "
              f"served {served}, alerts {alerts}")

    track, floor, on = results["track"], results["floor"], results["on"]
    ctrl = on[0].adaptive
    speedup = track[0].counters.cycles / on[0].counters.cycles
    vs_floor = on[0].counters.cycles / floor[0].counters.cycles

    print(f"\nAdaptive vs always-on: {speedup:.2f}x faster "
          f"({vs_floor:.4f}x the uninstrumented floor).")
    print(f"Mode switches: {ctrl.switches_to_fast} to fast, "
          f"{ctrl.switches_to_track} back to track "
          f"(final mode: {ctrl.mode}).")

    assert on[2] == track[2], "adaptive must detect exactly like always-on"
    print("\nSame alert, same policy, same pc as the always-on build —")
    print("tracking switched on exactly while the tainted request lived.")


if __name__ == "__main__":
    main()
