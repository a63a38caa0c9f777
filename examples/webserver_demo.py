"""Serve HTTP traffic under SHIFT: protection at ~1% overhead.

Reproduces the spirit of the paper's Apache experiment (Figure 6): the
server is I/O bound, so instrumenting every load and store barely
shows — while a directory-traversal attack on the same server is caught
by policy H2.

Run:  python examples/webserver_demo.py
"""

from repro.apps.webserver import make_request, make_site
from repro.core.shift import build_machine
from repro.harness.runners import (
    PERF_OPTIONS,
    compiled_webserver,
    run_webserver,
    webserver_policy,
)
from repro.taint.engine import SecurityAlert


def measure_overhead(requests=20):
    print("Serving requests at each file size (byte-level tracking):\n")
    print(f"{'file':>8}  {'baseline cycles/req':>20}  {'SHIFT cycles/req':>18}  overhead")
    for kb in (4, 8, 16):
        base = run_webserver(PERF_OPTIONS["none"], kb, requests)
        byte = run_webserver(PERF_OPTIONS["byte"], kb, requests)
        overhead = (byte.latency_cycles / base.latency_cycles - 1) * 100
        print(f"{kb:>6}KB  {base.latency_cycles:>20,.0f}  "
              f"{byte.latency_cycles:>18,.0f}  {overhead:>7.2f}%")
    print("\nThe request path is dominated by device time (accept/recv/"
          "read/send),\nso the instrumentation overhead is in the noise "
          "-- the paper's ~1% result.\n")


def demonstrate_protection():
    print("The same protected server under attack:")
    files = dict(make_site((4,)))
    files["/etc/shadow"] = b"root:$1$secret:19000::"
    machine = build_machine(
        compiled_webserver(PERF_OPTIONS["byte"]),
        policy_config=webserver_policy(),
        files=files,
        tracing=True,
    )
    machine.net.add_request(make_request(4))  # benign first
    machine.net.add_request(b"GET /../etc/shadow HTTP/1.0\r\n\r\n")
    try:
        machine.run()
        print("    no alert (unexpected)")
    except SecurityAlert as alert:
        print(f"    {alert}")
    print(f"    requests completed before the alert: {len(machine.net.completed) - 1}")
    print("\nIncident report (tracing was on):")
    for report in machine.incident_reports():
        print(report.render())
    metrics = machine.metrics()
    print(f"\nMetrics: {metrics['alerts.total']} alert(s), "
          f"{metrics['taint.bitmap_population']:,} tainted granules, "
          f"{metrics['cpu.instructions']:,} instructions, "
          f"{metrics['trace.events.total']} trace events")


def main():
    print("SHIFT web-server demo (paper Figure 6)\n")
    measure_overhead()
    demonstrate_protection()


if __name__ == "__main__":
    main()
