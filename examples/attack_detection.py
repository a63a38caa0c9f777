"""The paper's Figure 1 demo plus a tour of the Table 2 attacks.

Reproduces the qwik-smtpd buffer overflow end to end: the exploit
succeeds against the unprotected build and is caught by taint tracking
in the SHIFT build.  Then it runs a selection of the Table 2 CVE
analogues through the security harness.

Run:  python examples/attack_detection.py
"""

from repro.apps.vulnerable import (BFTPD, FIGURE1_APP, QWIKIWIKI, TABLE2_APPS,
                                   unprotected_config)
from repro.compiler.instrument import BYTE_LEVEL, UNINSTRUMENTED
from repro.core.shift import build_machine, compile_protected
from repro.cpu.faults import Fault
from repro.harness.paper import table2
from repro.obs.report import render_incidents
from repro.taint.engine import SecurityAlert


def figure1_demo():
    app = FIGURE1_APP
    print("=" * 70)
    print("Figure 1: qwik-smtpd 0.3 buffer overflow -> open mail relay")
    print("=" * 70)
    print("""
The server checks `strcasecmp(clientip, localip)` before relaying, but
never checks the length of the HELO argument (Fig. 1 line 5).  A long
argument overflows clientHELO[32] straight into localip[64].
""")

    print("[1] Attack against the UNPROTECTED server:")
    machine = app.run(UNINSTRUMENTED, unprotected_config(), app.attack)
    print(f"    localip after overflow: {machine.read_string('localip')!r}")
    print(f"    mail relayed: {bool(machine.read_global('relayed'))}  <- exploit works\n")

    print("[2] Same attack against the SHIFT-protected server (byte level):")
    machine = app.run(BYTE_LEVEL, app.policy_config(), app.attack)
    localip = machine.address_of("localip")
    print(f"    taint bitmap at localip: tainted={machine.taint_map.is_tainted(localip)}")
    print(f"    guest console: {machine.console.text.strip()!r}")
    print(f"    mail relayed: {bool(machine.read_global('relayed'))}  <- attack defeated\n")

    print("[3] Benign session against the SHIFT-protected server:")
    machine = app.run(BYTE_LEVEL, app.policy_config(), app.benign)
    print(f"    alerts: {machine.alerts or 'none'} (no false positive)\n")


def table2_tour(names=("tar", "qwikiwiki", "phpmyfaq", "bftpd")):
    print("=" * 70)
    print("Table 2 attacks (unprotected vs SHIFT-protected)")
    print("=" * 70)
    by_name = {app.name: app for app in TABLE2_APPS}
    for name in names:
        app = by_name[name]
        row = table2([app])["apps"][0]
        print(f"\n{app.name} ({app.cve}) -- {app.attack_type}")
        print(f"    exploit succeeds unprotected: {row['attack_succeeds_unprotected']}")
        print(f"    detected byte/word: {row['detected_byte']}/{row['detected_word']} "
              f"(policy {row['alert_policy_byte']})")
        print(f"    false positives: "
              f"{row['false_positive_byte'] or row['false_positive_word']}")


def incident_forensics():
    print("=" * 70)
    print("Incident forensics (repro.obs): tracing alerts back to their input")
    print("=" * 70)
    print("""
Rerunning one low-level (L2, NaT-consumption fault) and one high-level
(H2, use-point) detection with tracing=True: the incident report shows
the policy, the faulting pc with disassembly, and the taint origin
chain — which bytes of which input stream caused the alert.
""")
    for app in (BFTPD, QWIKIWIKI):
        compiled = compile_protected(app.source, BYTE_LEVEL)
        machine = build_machine(compiled, policy_config=app.policy_config(),
                                engine_mode="record", tracing=True)
        scenario = app.attack(machine) if callable(app.attack) else app.attack
        app.prepare(machine, scenario)
        try:
            machine.run(max_instructions=50_000_000)
        except (SecurityAlert, Fault):
            pass
        print(f"{app.name} ({app.cve}) under attack:")
        print(render_incidents(machine))
        summary = machine.obs.tracer.summary()
        print(f"    trace: {summary['events.total']} events "
              f"({summary.get('events.taint_source', 0)} taint sources, "
              f"{machine.obs.tracer.counts.get('syscall', 0)} native calls)\n")


def main():
    figure1_demo()
    table2_tour()
    print()
    incident_forensics()
    print("\nAll attacks detected; benign runs clean (paper Table 2).")


if __name__ == "__main__":
    main()
