"""The benchmark's trajectory: record runs, compare recorded entries.

::

    python3 bench/history.py record --runs 5 --seed 1 [--workload W ...]
    python3 bench/history.py compare [--base -2] [--head -1]

``record`` runs ``bench/run.py`` ``--runs`` times per workload, each in
a fresh process, and appends one JSON line to ``bench/history.jsonl``:
for every (workload, end-to-end metric) the median, quartiles and run
count, with the host, Python version and git commit.  ``compare``
prints every metric of two entries side by side and exits 1 when a
median got worse than its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
HISTORY = BENCH / "history.jsonl"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.metrics import declared  # noqa: E402


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count of one metric's runs."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def host() -> Dict:
    return {"node": platform.node(), "machine": platform.machine(),
            "cpus": os.cpu_count()}


def record(args) -> int:
    spec = declared()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    workloads = {}
    for name in names:
        runs: Dict[str, List[float]] = {}
        for i in range(args.runs):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
                timeout=600)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{name} run {i}: {result['failed']} of "
                      f"{result['attempted']} operations failed",
                      file=sys.stderr)
                return 1
            for metric, entry in result["metrics"].items():
                runs.setdefault(metric, []).append(entry["value"])
            print(f"{name} run {i + 1}/{args.runs} done", flush=True)
        workloads[name] = {m: summarize(v) for m, v in runs.items()}
    entry = {"time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "commit": git_commit(), "host": host(),
             "python": platform.python_version(), "seed": args.seed,
             "seconds": seconds, "runs": args.runs, "note": args.note,
             "workloads": workloads}
    with HISTORY.open("a", encoding="utf-8") as out:
        out.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"appended to {HISTORY}")
    return 0


def compare(args) -> int:
    entries = [json.loads(line) for line in
               HISTORY.read_text(encoding="utf-8").splitlines() if line]
    base, head = entries[args.base], entries[args.head]
    if base["host"] != head["host"]:
        print("warning: the entries come from different hosts",
              file=sys.stderr)
    metrics = {m["name"]: m for m in declared()["end_to_end"]}
    regressions = 0
    for workload, values in head["workloads"].items():
        for name, now in values.items():
            before = base["workloads"].get(workload, {}).get(name)
            if before is None or name not in metrics:
                continue
            change = now["median"] / before["median"] - 1
            worse = change if metrics[name]["better"] == "lower" else -change
            flag = worse > metrics[name]["bound"]
            regressions += flag
            print(f"{workload:16s} {name:18s} {before['median']:>14.6g} -> "
                  f"{now['median']:<14.6g} {change:+8.2%}"
                  f"{'  REGRESSION' if flag else ''}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/history.py",
                                     description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run and append one entry")
    rec.add_argument("--runs", type=int, default=5)
    rec.add_argument("--seed", type=int, default=1)
    rec.add_argument("--seconds", type=int, default=None)
    rec.add_argument("--workload", action="append")
    rec.add_argument("--note", default="")
    cmp_ = sub.add_parser("compare", help="compare two recorded entries")
    cmp_.add_argument("--base", type=int, default=-2,
                      help="entry index (default: second to last)")
    cmp_.add_argument("--head", type=int, default=-1,
                      help="entry index (default: last)")
    args = parser.parse_args(argv)
    return record(args) if args.command == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
