"""Tier-1 smoke for the benchmark harness in this directory.

Runs ``bench.py --smoke --trace`` (tiny inputs, 1-second rounds, all
four workloads, about 30 s) into a temporary results directory and
checks the harness's contract, not its numbers: every metric
``BENCHMARK.json`` names is emitted with its unit for every workload,
every output check passed with zero mismatched responses, and the trace
and findings were written. No absolute time or ratio is gated.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("keystroke", "script-shards", "script-fleet", "offline")


def test_bench_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--smoke", "--trace", "--results", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] >= 1

    # --trace: the result line carries every per-layer metric, per workload
    expected = {f"{wl}/{m['name']}": m["unit"] for wl in WORKLOADS for m in contract["per_layer"]}
    assert set(line["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert line["metrics"][name]["unit"] == unit, name
        assert isinstance(line["metrics"][name]["value"], (int, float)), name

    report = json.loads((tmp_path / "latest.json").read_text())
    assert set(report["workloads"]) == set(WORKLOADS)
    for wl, entry in report["workloads"].items():
        for metric in contract["end_to_end"]:
            summary = entry["end_to_end"][metric["name"]]
            assert summary["unit"] == metric["unit"], (wl, metric["name"])
            assert summary["median"] > 0, (wl, metric["name"])
        assert entry["traced"]["tracing_overhead"], wl
        for run in entry["rounds"]:
            assert run["failed"] == 0, (wl, run["checks"])
            assert all(run["checks"].values()), (wl, run["checks"])
        assert all(entry["traced"]["checks"].values()), wl

    # the like-for-like pair answered the same requests with the same bodies
    shards, fleet = (report["workloads"][wl]["rounds"][0]["extras"]
                     for wl in ("script-shards", "script-fleet"))
    assert shards["bodies_digest"] == fleet["bodies_digest"]

    spans = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert spans and all(json.loads(s)["end"] is not None for s in spans)
    assert report["self_time"]
    assert len(report["findings"]) == 2
