#!/usr/bin/env python3
"""Tiny-size smoke run of the benchmark of record.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at `--size tiny`, plain and traced,
and fails (exit 1) unless each run passes its output checks with no failed
operation and emits exactly the metrics BENCHMARK.json names: the
end-to-end metrics with `--trace 0`, every per-layer metric with
`--trace 1`. Takes about a minute.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    problems = []
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    if run.END_TO_END != end_to_end:
        problems.append("run.py's end-to-end metrics or units differ from BENCHMARK.json's")
    if run.LAYERS != per_layer:
        problems.append("run.py's per-layer metrics or units differ from BENCHMARK.json's")
    if sorted(w["name"] for w in manifest["workloads"]) != sorted(run.WORKLOADS):
        problems.append("workload names differ between run.py and BENCHMARK.json")

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit code {done.returncode}: {done.stderr.strip()[-400:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct {result['correct']}, failed {result['failed']}, "
                                f"attempted {result['attempted']}")
            want = list(run.LAYERS if trace else run.END_TO_END)
            units = per_layer if trace else end_to_end
            if list(result["metrics"]) != want:
                problems.append(f"{label}: metrics {list(result['metrics'])}, expected {want}")
            for name, m in result["metrics"].items():
                if m.get("unit") != units.get(name):
                    problems.append(f"{label}: {name} has unit {m.get('unit')}, expected {units.get(name)}")
                if not isinstance(m.get("value"), (int, float)):
                    problems.append(f"{label}: {name} has no numeric value")
            print(f"{label}: ok ({result['attempted']} operations)", flush=True)
    for p in problems:
        print("FAIL " + p)
    print("smoke: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
