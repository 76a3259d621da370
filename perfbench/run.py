"""sqdepth benchmark: one workload, one seed, one cold process.

    python3 perfbench/run.py --workload analyze-stream --seed 1 --seconds 10 --trace 0

Run from anywhere inside a source checkout; the program is imported from
``src/`` and the depth and sdepth oracles from ``tests/oracles.py``.

Each run is closed-loop: one operation at a time, in this single fresh
interpreter, with no threads or process pools. The workload's input list is
generated from the seed and sized to take about ``--seconds`` at the
benchmark's reference commit; every output is checked after the timed pass.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
wall time of the input list, per-operation latency percentiles, the start-up
time of a fresh ``import sqdepth.cli`` (median of several), peak RSS and the
share of operations that succeeded. Metric names and units are those of
``BENCHMARK.json``. With ``--trace 1`` it reports per-layer
metrics from a traced pass in a second fresh interpreter, and writes that
pass's spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import workloads

SETUP_SAMPLES = 9
OUT_DIR = workloads.HERE / "out"
SPEC = workloads.ROOT / "BENCHMARK.json"


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile: the smallest sample with pct percent of all at or below it."""
    ordered = sorted(values)
    return ordered[max(1, -(-len(ordered) * pct // 100)) - 1]


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(workloads.SRC)
    return env


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing the CLI module.

    One unmeasured import first writes the bytecode cache, as an installed
    package would have it.
    """
    cmd = [sys.executable, "-c", "import sqdepth.cli"]
    env = program_env()
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=workloads.ROOT, check=True)
        if i:
            samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "process": "one cold interpreter per run, no threads or process pools",
    }


def traced_layers(args) -> dict:
    """Per-layer metrics from a traced pass in a fresh interpreter."""
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    cmd = [sys.executable, str(workloads.HERE / "tracing.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--spans", str(spans)]
    done = subprocess.run(cmd, env=program_env(), cwd=workloads.ROOT, check=True,
                          stdout=subprocess.PIPE, text=True)
    print(f"spans written to {spans}", file=sys.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sqdepth benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=workloads.REFERENCE_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    missing = [p for p in (workloads.SRC / "sqdepth" / "__init__.py", workloads.ORACLES)
               if not p.is_file()]
    if missing:
        print(f"not a sqdepth checkout: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))

    print("machine: " + json.dumps(machine_info()))
    workload = workloads.WORKLOADS[args.workload]
    setup = None if args.trace else setup_seconds()
    ops = workload.make_ops(args.seed, args.seconds)
    workloads.import_program()
    outputs, latencies, wall = workloads.timed_pass(workload, ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t_check = time.perf_counter()
    failed, reasons = workloads.count_failures(workload, args.seed, ops, outputs)
    print(f"timed pass {wall:.2f} s, checks {time.perf_counter() - t_check:.2f} s",
          file=sys.stderr)
    for reason in reasons:
        print(f"FAILED {reason}", file=sys.stderr)

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.trace:
        values = traced_layers(args)
        values["bench.untraced_wall_s"] = wall
        values["bench.trace_overhead_s"] = values["bench.traced_wall_s"] - wall
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": wall,
            "latency_p50_ms": percentile(latencies, 50) * 1000,
            "latency_p99_ms": percentile(latencies, 99) * 1000,
            "setup_s": setup,
            "peak_rss_mb": peak_rss_mb,
            "ok_share": (len(ops) - failed) / len(ops),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"workload {args.workload}, seed {args.seed}: {len(ops)} operations, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
