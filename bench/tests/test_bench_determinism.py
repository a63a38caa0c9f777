"""Inputs and simulated results depend on the bench seed alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

REDUCED_SPECINT = """
import hashlib, json
from bench.workloads import SpecInt
w = SpecInt(3, kernels=["gzip", "mcf"], scale="test")
print(json.dumps({
    "reference": w.reference(),
    "round": vars(w.run_round()),
    "inputs": {k: hashlib.sha256(v).hexdigest() for k, v in w.inputs.items()},
}, sort_keys=True))
"""


def _run(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run([sys.executable, "-c", REDUCED_SPECINT], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=300)
    return json.loads(proc.stdout)


def test_specint_is_identical_across_string_hash_seeds():
    first, second = _run("1"), _run("2")
    assert first["round"]["failed"] == 0
    assert first == second
