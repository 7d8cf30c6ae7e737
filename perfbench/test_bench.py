"""Self-test of the benchmark: per-layer counts repeat, and a held-out seed passes.

    python3 -m pytest -q perfbench/test_bench.py

Each case starts ``run.py`` in a fresh process with a one-second pass, which
still runs one whole round (one untraced and one traced round with tracing).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("small-corpus", "wide-electorate", "lp-heavy")
DEFAULT_SEED, HELD_OUT_SEED = 1, 2


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    assert result["failed"] == 0, proc.stderr
    return result


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat_across_runs(workload):
    first = counts(run(workload, DEFAULT_SEED, trace=1))
    assert first["distortion.calls"] + first["lotteries.calls"] > 0
    assert counts(run(workload, DEFAULT_SEED, trace=1)) == first


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_passes_every_check(workload):
    result = run(workload, HELD_OUT_SEED, trace=0)
    assert result["attempted"] > 0
