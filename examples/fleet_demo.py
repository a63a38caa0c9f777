"""A sharded fleet of SHIFT machines, with taint on the wire.

Three acts:

1. A four-worker fleet serves a burst of requests with an attack mixed
   in — the frontend shards deterministically, the victim worker rolls
   back and quarantines the attack, and the fleet's merged metrics and
   incident report name exactly who caught what.
2. The same run again: the result digest is bit-identical for a fixed
   routing seed.
3. The two-tier proof: requests pass through a tier-1 reverse-proxy
   fleet onto a tier-2 backend whose own network ingress is *trusted*.
   With the taint transported in the ``TaggedMessage`` frames, the
   backend's H2 policy catches a directory traversal injected two hops
   away; with the tags stripped, the identical bytes leak a planted
   secret without a single alert.

Run:  python examples/fleet_demo.py
"""

from repro.apps.webserver import make_request, traversal_request
from repro.fleet import (
    FleetConfig,
    FleetDriver,
    render_incidents,
    two_tier_experiment,
)


def main():
    print("=== 1. a four-worker fleet under attack " + "=" * 24)
    driver = FleetDriver(FleetConfig(tracing=True), workers=4,
                         routing="round_robin", seed=0)
    burst = [make_request(4) for _ in range(10)]
    burst.insert(3, traversal_request())
    result = driver.run(burst)
    print(f"routed {result.routed} | served {result.served}, "
          f"quarantined {result.quarantined}, ejected {result.ejected}")
    print(render_incidents(result))
    flat = result.metrics()
    print(f"fleet sim cycles (slowest worker): "
          f"{flat['fleet.sim_cycles']:.0f}; "
          f"throughput {flat['fleet.sim_throughput']:.0f} req/Gcycle")

    print()
    print("=== 2. determinism " + "=" * 45)
    again = driver.run(burst)
    digest = result.digest()
    print(f"digest      {digest[:32]}...")
    print(f"re-run      {again.digest()[:32]}...")
    print("bit-identical!" if digest == again.digest()
          else "DIVERGED (bug)")

    print()
    print("=== 3. taint crosses the wire " + "=" * 34)
    exp = two_tier_experiment(clean=3, attacks=1, proxy_workers=2, seed=0)
    tagged, control = exp["tagged"], exp["control"]
    print(f"tags transported : backend detected "
          f"{tagged['tier2']['detected_h2']} traversal via H2, "
          f"served {tagged['tier2']['served']} clean, "
          f"secret leaked: {tagged['tier2']['secret_leaked']}")
    print(f"tags stripped    : backend detected "
          f"{control['tier2']['detected_h2']}, "
          f"served {control['tier2']['served']}, "
          f"secret leaked: {control['tier2']['secret_leaked']}")
    print("the wire transport is load-bearing" if exp["proof"]
          else "proof FAILED")


if __name__ == "__main__":
    main()
