#!/usr/bin/env python3
"""The tcsim benchmark: one seeded experiment per invocation.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds tcsim_perf from the checkout's sources (CMake, RelWithDebInfo, into
$CARGO_TARGET_DIR/perfbench or .bench_build/perfbench), runs the workload in
a fresh process, checks its outputs and prints two lines: a detail object
(machine fingerprint, the workload's named metrics with sample counts, any
failed checks) and, last, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 the per_layer list, from a traced process plus an untraced one of
the same seed (their ratio is obs.trace_overhead). README.md describes the
workloads and the layer table.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from metrics import e2e_metrics, layer_metrics, named_metrics
from stats import count_failures, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# ha_failover is runnable but not a BENCHMARK.json workload (README.md says
# why).
WORKLOADS = ("fattree_kernel", "epoch_spill", "ha_protect", "swap_cycles",
             "ha_failover")
# Everything, the traced pair included, ends within this many seconds (the
# first run of a checkout also builds, which is not counted).
RUN_BUDGET_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", jobs, "--target", "tcsim_perf"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "tcsim_perf"


def run_once(binary, args, workdir, deadline, spans=None):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_BUDGET_S} s")
    if proc.returncode != 0:
        fail(f"tcsim_perf exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("tcsim_perf printed nothing")
    return json.loads(lines[-1])


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in [1, 600]")

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_dir()
    binary = build(out)
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = out / f"work-{os.getpid()}"
    try:
        raw = run_once(binary, args, workdir / "untraced", deadline)
        if args.trace:
            spans_path = workdir / "spans.jsonl"
            traced = run_once(binary, args, workdir / "traced", deadline,
                              spans=spans_path)
            values = layer_metrics(traced, raw, read_spans(spans_path))
            checked = [raw, traced]
        else:
            values = e2e_metrics(raw)
            checked = [raw]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = failed = 0
    failures = []
    for r in checked:
        a, f_ = count_failures(r["op_ok"], r["failures"])
        attempted += a
        failed += f_
        failures += r["failures"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"no value for {', '.join(missing)}")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "fingerprint": raw["fingerprint"],
        "named": named_metrics(raw),
        "op_ms": summarize(raw["samples"].get("op_ms", [])),
        "op_cpu_ms": summarize(raw["samples"].get("op_cpu_ms", [])),
        "failures": failures,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
