"""Checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_counts.py -q

The traced run of one seed must give identical exact counts every time, and
the metric lists in run.py must be the ones BENCHMARK.json declares.  The
convergence workload's set-up takes about 45 s, so this file takes about
three minutes.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_exact_counts_repeat(workload):
    first, second = traced(workload, 11), traced(workload, 11)
    assert first["correct"] and second["correct"]
    for name in run.EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOAD_NAMES
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_tail_percentile_is_the_highest_with_ten_ops_beyond():
    for n in (20, 21, 55, 100, 1000):
        value, p, beyond = run.tail_percentile(list(range(n)))
        assert beyond >= 10 and value == n - 1 - beyond
        assert n - math.ceil((p + 1) * n / 100) < 10
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100, 0)
