"""Smoke test of the benchmark: quick mode on tiny inputs, both trace modes.

    python -m pytest perfbench/tests -q

Asserts that every metric named in BENCHMARK.json is printed with its unit
for every workload, that the output checks ran and every gated op passed,
and that the known-defect probe of queries-mixed was checked apart.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(trace: int) -> tuple[dict, str, list[dict]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--quick",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    per_workload = [json.loads((ROOT / ".perfbench" / w / "result.json").read_text())
                    for w in WORKLOADS]
    return last, proc.stdout, per_workload


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_mode_reports_every_metric(trace, group):
    last, stdout, results = _run(trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= len(WORKLOADS)
    assert last["correct"] and last["failed"] == 0, stdout[-4000:]
    for res in results:
        assert res["checks_run"] > 0, res["workload"]
        has_probe = res["workload"] == "queries-mixed"
        assert (res["probe_attempted"] > 0) == has_probe, res["workload"]
        assert res["environment"]["threads"] <= res["environment"]["nproc"]
        for m in SPEC[group]:
            got = res["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
            key = f"{res['workload']}.{m['name']}"
            assert last["metrics"][key] == got
            assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                       for line in stdout.splitlines()), m["name"]
    if trace:
        assert "dominant layer:" in stdout
