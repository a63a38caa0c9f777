"""One seeded, two-clock benchmark of the SHIFT reproduction.

::

    python3 bench/run.py --workload specint --seed 1 --seconds 10 --trace 0
    PYTHONPATH=src python -m bench.run --seed 1            # every workload
    PYTHONPATH=src python -m bench.run --seed 1 --trace    # layer breakdown

With ``--workload`` one workload runs in this process: set-up, its
reference, then timed rounds until ``--seconds`` have passed (at least
one round).  Without it every workload runs in a fresh child process,
one after another.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: every end-to-end metric of ``BENCHMARK.json``, or with
``--trace 1`` every per-layer metric.  A traced run spends half of
``--seconds`` on traced rounds, then runs the other half untraced in a
fresh process; the two give the tracing overhead.  Details and spans
are written to ``bench/out/``.
"""

import time

#: Set-up is timed from here, before anything imports ``repro``.
STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: Cold set-ups per run: this process's own and fresh child processes.
SETUP_SAMPLES = 3
#: Per-child limit, well inside the 180 s a whole run may take.
CHILD_TIMEOUT_S = 120
#: Time of one :meth:`Calibration.probe` on an unloaded 2.1 GHz x86-64
#: core.
PROBE_REFERENCE_S = 0.015
#: Seconds of timed work between two probes.
SAMPLE_EVERY_S = 0.25


class Calibration:
    """Host speed, sampled by a fixed probe while work runs.

    A shared host can run the same work at very different speeds from
    one second to the next.  Inside :meth:`sampling` a timer interrupts
    the work every :data:`SAMPLE_EVERY_S` to run the probe, and each
    step between two probes is divided by how much slower they ran than
    :data:`PROBE_REFERENCE_S`.  The probe is shaped like the simulator's
    hot path (register-file list updates, byte loads from a 4 MiB memory
    image, lookups in a 16 Ki-entry dict), so it slows down with the
    host about as much as the simulator does.  It touches no simulated
    state, so interrupting a guest with it changes no simulated result.
    """

    def __init__(self) -> None:
        started = time.perf_counter()
        self._memory = random.Random(0).randbytes(1 << 22)
        self._table = {i: 3 * i for i in range(1 << 14)}
        self._probing = False
        #: (start, end, probe seconds) per lap.
        self.laps = []
        #: Wall time spent in this object, probes included.
        self.spent = time.perf_counter() - started

    def probe(self) -> float:
        """Seconds this host takes for the fixed loop."""
        started = time.perf_counter()
        memory, table, regs, h = self._memory, self._table, [0] * 128, 0
        for i in range(40_000):
            value = memory[(h * 2654435761 + i) & 0x3FFFFF]
            regs[i & 127] = value + table[(h ^ i) & 0x3FFF]
            h = (h + value + regs[(i * 5) & 127]) & 0xFFFFFFFF
        return time.perf_counter() - started

    def lap(self) -> None:
        """Probe now; the work since the previous lap is one step."""
        if self._probing:  # the timer fired during a probe
            return
        self._probing = True
        try:
            started = time.perf_counter()
            seconds = self.probe()
            self.laps.append((started, time.perf_counter(), seconds))
            self.spent += time.perf_counter() - started
        finally:
            self._probing = False

    @contextlib.contextmanager
    def sampling(self):
        """Lap every :data:`SAMPLE_EVERY_S` seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.lap())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def steps(self):
        """(wall seconds, seconds at reference speed) between laps."""
        for (_, end, before), (start, _, after) in zip(self.laps,
                                                       self.laps[1:]):
            wall = start - end
            yield wall, wall * 2 * PROBE_REFERENCE_S / (before + after)


def timed_rounds(workload, seconds: float, calibration: Calibration,
                 sample: bool = True):
    """Rounds until ``seconds`` have passed (at least one).

    Returns the rounds, each round's wall time and its time at the
    reference host speed.  Every round starts from a collected heap;
    the collection and the probes are not counted.  Without ``sample``
    the host speed is probed only between rounds (traced rounds, whose
    spans must not contain probes).
    """
    rounds, walls, calibrated = [], [], []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        gc.collect()
        calibration.lap()
        opening = len(calibration.laps) - 1
        with calibration.sampling() if sample else contextlib.nullcontext():
            rounds.append(workload.run_round())
        calibration.lap()
        steps = list(calibration.steps())[opening:]
        walls.append(sum(wall for wall, _ in steps))
        calibrated.append(sum(norm for _, norm in steps))
    return rounds, walls, calibrated


def host_rate(rounds, calibrated) -> float:
    """Work units per second at the reference host speed, median over
    rounds (a round whose probes missed a slow spell is an outlier)."""
    return statistics.median(r.ops / t for r, t in zip(rounds, calibrated))


def timed_setup(name: str, seed: int):
    """Set up one workload in this fresh process.

    Returns the workload, its set-up seconds since process start at the
    reference host speed (scaled by the mean of the probes sampled
    through the set-up), and the calibration, to be used for the rest
    of the run.
    """
    from bench.workloads import WORKLOADS

    calibration = Calibration()
    calibration.lap()
    with calibration.sampling():
        workload = WORKLOADS[name](seed)
    calibration.lap()
    elapsed = time.perf_counter() - STARTED - calibration.spent
    probes = [seconds for _, _, seconds in calibration.laps]
    return (workload, elapsed * PROBE_REFERENCE_S / statistics.fmean(probes),
            calibration)


def first_measured(rounds):
    """The first round with simulated results; None if every round
    aborted on a guest error."""
    return next((r for r in rounds if r.sim), None)


def tally(references, rounds):
    """(attempted, failed) over references and rounds.

    A round whose simulated results differ from the first measured
    round's fails as a whole: rounds of one seed repeat identical work.
    """
    attempted = sum(a for a, _ in references)
    failed = sum(f for _, f in references)
    first = first_measured(rounds)
    for r in rounds:
        attempted += r.attempted
        same = (first is not None and r.sim == first.sim
                and r.layers == first.layers)
        failed += min(r.failed, r.attempted) if same else r.attempted
    return attempted, failed


def child_setup_seconds(name: str, seed: int) -> float:
    """Set-up time of a fresh process, from its start to ready."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    from bench import metrics

    workload, setup_s, calibration = timed_setup(name, seed)
    reference = workload.reference()
    rounds, walls, calibrated = timed_rounds(workload, seconds, calibration)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = [setup_s] + [child_setup_seconds(name, seed)
                           for _ in range(SETUP_SAMPLES - 1)]
    attempted, failed = tally([reference], rounds)
    first = first_measured(rounds)
    # With no measured round there is nothing to report but the failures.
    values = {} if first is None else metrics.end_to_end(
        statistics.median(samples), host_rate(rounds, calibrated),
        peak_rss_mb, first.sim)
    return {
        "values": values,
        "units": metrics.units("end_to_end"),
        "attempted": attempted, "failed": failed,
        "detail": {"setup_samples_s": samples, "round_s": walls,
                   "round_calibrated_s": calibrated,
                   "round_ops": [r.ops for r in rounds],
                   **(first.detail if first else {})},
    }


def run_traced(name: str, seed: int, seconds: float) -> dict:
    from bench import metrics
    from bench.trace import Tracer
    from bench.workloads import WORKLOADS

    calibration = Calibration()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.mark("setup")
        workload = WORKLOADS[name](seed)
        calibration.lap()
        reference = workload.reference()
        calibration.lap()
        tracer.mark("rounds")
        rounds, walls, calibrated = timed_rounds(
            workload, seconds / 2, calibration, sample=False)
        tracer.mark("end")
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.export(OUT / f"{name}-s{seed}.spans.jsonl")
    # The untraced half runs in a fresh process, so that both halves
    # start with the same cold caches.
    plain = json.loads(subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds / 2), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        check=True).stdout.splitlines()[-1])
    first = first_measured(rounds)
    untraced = plain["metrics"]
    attempted, failed = tally([reference], rounds)
    # Tracing must not change any simulated result.
    same = first is not None and all(
        untraced.get(k, {}).get("value") == v for k, v in first.sim.items())
    attempted += plain["attempted"]
    failed += plain["failed"] if same else plain["attempted"]
    values = {}
    if first is not None and untraced:
        round_layers = dict(first.layers)
        host_layers = getattr(workload, "host_layers", None)
        if host_layers is not None:
            wall, scaled = list(calibration.steps())[0]  # the reference
            round_layers.update(host_layers(calibrated, scaled / wall))
        values = metrics.per_layer(
            tracer.window("setup", "rounds"),
            tracer.window("rounds", "end", seconds=sum(walls)),
            len(rounds), round_layers,
            traced_rate=host_rate(rounds, calibrated),
            untraced_rate=untraced["host_ops_per_s"]["value"])
    return {
        "values": values,
        "units": metrics.units("per_layer"),
        "attempted": attempted, "failed": failed,
        "detail": {"traced_round_s": walls, "traced_round_calibrated_s":
                   calibrated, **(first.detail if first else {})},
    }


def report(name: str, seed: int, trace: bool, outcome: dict) -> dict:
    """Print the run by metric name, write its details; the result line."""
    from bench.metrics import CATALOGUE
    from bench.workloads import WORKLOADS

    values, units = outcome["values"], outcome["units"]
    print(f"{name} seed {seed}{' traced' if trace else ''}: "
          f"{outcome['attempted'] - outcome['failed']}/"
          f"{outcome['attempted']} operations correct; work units are "
          f"{WORKLOADS[name].unit}")
    for metric, value in values.items():
        clock = CATALOGUE[metric][0]
        print(f"  {metric:30s} {value:>16.6g} {units[metric]:10s} {clock}")
    detail = outcome["detail"]
    if "sim_slowdown" in detail:
        print(f"  SPEC slowdown {detail['sim_slowdown']:.3f}x vs the "
              f"paper's {detail['paper_slowdown']}x byte average "
              f"(error {detail['slowdown_error']:+.1%})")
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in values.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-s{seed}{'-trace' if trace else ''}.json"
    path.write_text(json.dumps({
        "workload": name, "seed": seed, "trace": trace,
        "python": platform.python_version(), **result,
        "detail": detail}, indent=1, default=str) + "\n")
    return result


def run_all(args) -> dict:
    """Every declared workload, each in its own fresh process."""
    from bench.metrics import declared

    results = {}
    for workload in declared()["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"),
             "--workload", workload["name"], "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            timeout=600)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[workload["name"]] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def main(argv=None) -> int:
    from bench.metrics import declared

    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[
        w["name"] for w in declared()["workloads"]],
        help="run one workload in this process (default: all, one "
             "child process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=declared()["run_seconds"],
                        help="timed seconds per run (default: %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and exit (used for the "
                             "setup_s samples)")
    args = parser.parse_args(argv)

    if args.workload is None:
        result = run_all(args)
    elif args.setup_only:
        result = {"setup_s": timed_setup(args.workload, args.seed)[1]}
    else:
        run = run_traced if args.trace else run_untraced
        outcome = run(args.workload, args.seed, args.seconds)
        result = report(args.workload, args.seed, bool(args.trace), outcome)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
