#!/usr/bin/env python3
"""Benchmark of record for DBG4ETH: one workload per invocation.

    python3 perfbench/run.py --workload train|serve-bulk|stream-live \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Builds `perfbench/` (a Cargo package of its own that drives the
repository's crates from outside), runs the workload in a fresh process
with every `DBG4ETH_*` variable removed from its environment, and prints
every metric by name with its unit, the run's environment and the output
checks. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

`--trace 0` reports the end-to-end metrics, which every workload reports,
and prints the figures only this workload has beside them. `--trace 1`
runs the workload twice with the same seed: plain, then with
`DBG4ETH_METRICS` and `DBG4ETH_TRACE` set, and reports the per-layer
metrics of the second run, the attribution report, and
`obs.trace_overhead_pct` between the two.

Build output goes to `$CARGO_TARGET_DIR` (default `.bench_build`); model
files, run-reports and traces go to `.bench_out/`. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["train", "serve-bulk", "stream-live"]

# End-to-end metrics every workload reports, as BENCHMARK.json lists them.
# Both times are CPU time of the whole process (see perfbench/README.md);
# `cpu_ms_per_op` is per operation of the workload: one training, one
# 8-account request, one write step. Wall-clock figures of each workload
# are printed beside them.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_ms_per_op": "ms",
}

# Per-layer metrics every workload reports in a traced run, as
# BENCHMARK.json lists them. Layers only some workloads call (eth-graph
# ingest, the serve request path) are printed with the attribution report
# but are not in the result line.
LAYERS = {
    "eth-sim.generate_ms": "ms",
    "gnn.lower_ms_per_account": "ms",
    "features.lower_ms": "ms",
    "gnn.gsg.score_ms_per_account": "ms",
    "gnn.ldg.score_ms_per_account": "ms",
    "gnn.train.gsg.forward_ms": "ms",
    "gnn.train.gsg.backward_ms": "ms",
    "gnn.train.ldg.forward_ms": "ms",
    "gnn.train.ldg.backward_ms": "ms",
    "gnn.encode_batch_ms": "ms",
    "tensor.gsg.pool_bytes": "bytes",
    "tensor.ldg.pool_bytes": "bytes",
    "tensor.ldg.pool_high_water_buffers": "count",
    "tensor.gsg.tape_ops": "count",
    "tensor.ldg.tape_ops": "count",
    "calib.fit_ms": "ms",
    "boost.fit_ms": "ms",
    "calib.apply_us_per_account": "us",
    "boost.predict_us_per_account": "us",
    "core.infer_ms_p50": "ms",
    "core.unattributed_pct": "%",
    "core.holdout_score_ms": "ms",
    "model-io.save_ms": "ms",
    "model-io.open_ms": "ms",
    "par.tasks": "count",
    "par.tasks_per_worker_max_over_mean": "ratio",
    "obs.trace_overhead_pct": "%",
}

BUILD_TIMEOUT_S = 840
# Every run must end within 180 s; a traced run starts two processes.
CHILD_TIMEOUT_S = {0: 170, 1: 87}


def log(msg):
    print(msg, flush=True)


def build(target_dir):
    """Build the workload binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"run.py: build failed with exit code {done.returncode}", file=sys.stderr)
        return None
    return os.path.join(target_dir, "release", "perfbench")


def run_child(binary, args, traced, out_dir):
    """Run one workload process; returns its parsed result or None."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DBG4ETH_")}
    cmd = [
        binary,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--size",
        args.size,
        "--out-dir",
        out_dir,
    ]
    if traced:
        stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
        env["DBG4ETH_METRICS"] = stem + "-report.json"
        env["DBG4ETH_TRACE"] = stem + "-trace.json"
        cmd.append("--layers")
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S[args.trace], stdout=subprocess.PIPE, text=True
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {args.workload} did not finish: {e}", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"run.py: {args.workload} exited with code {done.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError as e:
        print(f"run.py: unreadable result from {args.workload}: {e}", file=sys.stderr)
        return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for base in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unavailable"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def overhead_pct(plain, traced):
    """Tracing cost on `cpu_ms_per_op`, in %."""
    a = plain["metrics"]["cpu_ms_per_op"]["value"]
    b = traced["metrics"]["cpu_ms_per_op"]["value"]
    return 100.0 * (b / a - 1.0)


def print_metrics(title, metrics, samples):
    log(title)
    for name, m in metrics.items():
        n = samples.get(name)
        count = f"  (n={n['n']}, {n['beyond']} beyond)" if n else ""
        log(f"  {name:<40} {m['value']!s:>22} {m['unit']}{count}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--size", default="full", choices=["full", "tiny"])
    args = p.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        p.error("--seconds must be positive and --seed non-negative")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(target)
    if binary is None:
        return 1
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    plain = run_child(binary, args, False, out_dir)
    if plain is None:
        return 1
    results = [plain]
    if args.trace:
        traced = run_child(binary, args, True, out_dir)
        if traced is None:
            return 1
        results.append(traced)
    last = results[-1]

    if args.trace:
        found = dict(last["layers"])
        found["obs.trace_overhead_pct"] = {"value": overhead_pct(plain, last), "unit": "%"}
        expected = LAYERS
    else:
        found = last["metrics"]
        expected = END_TO_END
    wrong = [n for n, unit in expected.items() if n not in found or found[n]["unit"] != unit]
    extra = sorted(set(last["metrics"]) - set(END_TO_END))
    if wrong or extra:
        print(f"run.py: metrics missing or in the wrong unit: {wrong}; "
              f"unexpected end-to-end metrics: {extra}", file=sys.stderr)
        return 1
    metrics = {n: found[n] for n in expected}

    info = last["info"]
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": commit(),
        "source_digest": source_digest(),
        "par_threads": info.get("par_threads", info.get("model_threads")),
        "serve_workers": info.get("serve_workers", 0),
        "numerics": info.get("numerics"),
    }
    log("environment " + json.dumps(env))
    log("run " + json.dumps(info))
    for r in results:
        label = "plain" if r is plain else "traced"
        log(f"{label}: correct {r['correct']}, attempted {r['attempted']}, failed {r['failed']}, "
            f"failures {json.dumps(r['failures'])}, score digest {r['digest']}")
    print_metrics("end-to-end metrics" + (" (plain run)" if args.trace else ""), plain["metrics"], plain["samples"])
    print_metrics("figures of this workload (not in the result line)", plain["figures"], plain["samples"])
    if args.trace:
        print_metrics("per-layer metrics (traced run)", metrics, {})
        own = {n: m for n, m in last["layers"].items() if n not in LAYERS}
        print_metrics("layer metrics of this workload (not in the result line)", own, {})
        log("attribution")
        for line in last["report"]:
            log("  " + line)
        log(f"  obs.trace_overhead_pct {metrics['obs.trace_overhead_pct']['value']:.2f} % on cpu_ms_per_op")

    def finite(m):
        v = m["value"]
        return isinstance(v, (int, float)) and math.isfinite(v)

    result = {
        "correct": all(r["correct"] for r in results) and all(finite(m) for m in metrics.values()),
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
