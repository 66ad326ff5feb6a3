"""Benchmark runner: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {figures,validation,service} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (with the tracing overhead measured
against an untraced run in the same invocation).  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it record the environment and a readable report.  See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    SETUP_SAMPLES,
    BenchError,
    check_checkout,
    child_env,
    make_work_dir,
    median,
    remove_work_dir,
    stop_process,
    tail_percentile,
)

BENCHMARK = BENCH_DIR.parent / "BENCHMARK.json"

#: Working launches per sweep run (each runs at least one cold pass:
#: ~13 s for the figure grids, ~10 s for the validation grid); the rest
#: of the ``SETUP_SAMPLES`` launches only set up.
SWEEP_WORKERS = {"figures": 2, "validation": 3}
#: Every end-to-end figure a run prints.  ``BENCHMARK.json`` gates the
#: ones that stay steady from run to run on a shared 2-vCPU host
#: (set-up time, memory, throughput at the reference host speed); the
#: wall-clock throughput, the latencies and the knee rate are printed
#: but not gated.
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cells_per_s": "1/s",
    "cells_per_s_wall": "1/s",
    "cold_p50_ms": "ms",
    "cold_p90_ms": "ms",
    "hot_p50_ms": "ms",
    "hot_p99_ms": "ms",
    "hot_max_rps": "1/s",
}
#: The whole invocation must end well inside the 180 s run limit.
DEADLINE_S = 170


def metric_units(kind: str) -> dict[str, str]:
    if not BENCHMARK.is_file():
        raise BenchError(f"missing {BENCHMARK}")
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[kind]}


def run_sweeps(args, work: Path, started: list) -> dict:
    """Launch sweep workers one after another and pool their results."""
    workers = 1 if (args.trace or args.tiny) else SWEEP_WORKERS[args.workload]
    setup_only = 0 if (args.trace or args.tiny) else max(0, SETUP_SAMPLES - workers)
    budget = args.seconds / workers
    setups, results = [], []
    for index in range(setup_only + workers):
        cmd = [
            sys.executable, str(BENCH_DIR / "sweeps.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--budget", str(budget), "--trace", str(args.trace),
            "--work", str(work),
        ] + (["--tiny"] if args.tiny else []) + (
            ["--setup-only"] if index < setup_only else []
        )
        log_path = work / f"worker-{index}.log"
        log = open(log_path, "w")
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=log, text=True, cwd=work,
            env=child_env(work, work / f"cprobe-worker-{index}"),
        )
        started.append(proc)
        ready = proc.stdout.readline()
        setups.append(time.perf_counter() - start)
        line = proc.stdout.readline() if index >= setup_only else "{}"
        rc = proc.wait()
        started.remove(proc)
        proc.stdout.close()
        log.close()
        if not ready.startswith("{") or not line.startswith("{") or rc != 0:
            tail = log_path.read_text()[-2000:]
            raise BenchError(f"sweep worker failed (rc={rc}):\n{tail}")
        if index >= setup_only:
            result = json.loads(line)
            result["env"] = json.loads(ready)["env"]
            results.append(result)

    cold = [p for r in results for p in r["cold"] if p["mode"] == "untraced"]
    hot = [p for r in results for p in r["hot"] if p["mode"] == "untraced"]
    cells = results[0]["cells"]
    hot_ms = [ms for p in hot for ms in p["latency_ms"]]
    _, hot_p99 = tail_percentile(hot_ms, 0.99)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.workload == "validation":
        # rows must repeat exactly for a seed: across passes and workers
        first = results[0]["digests"][0]
        for r in results:
            for digests in r["digests"][1:] if r is results[0] else r["digests"]:
                attempted += len(digests)
                failed += sum(a != b for a, b in zip(digests, first))
    out = {
        "attempted": attempted,
        "failed": failed,
        "env": results[0]["env"],
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": median([r["rss_mb"] for r in results]),
            "cells_per_s": median([cells / p["scaled_s"] for p in cold]),
            "cells_per_s_wall": median([cells / p["seconds"] for p in cold]),
            "cold_p50_ms": median([median(p["latency_ms"]) for p in cold]),
            "cold_p90_ms": median(
                [tail_percentile(p["latency_ms"], 0.9)[1] for p in cold]
            ),
            "hot_p50_ms": median(hot_ms),
            "hot_p99_ms": hot_p99,
            "hot_max_rps": median([p["cells"] / p["seconds"] for p in hot]),
        },
        "notes": {
            "cells_per_pass": cells,
            "cold_passes": len(cold),
            "cold_wall_s": [round(p["seconds"], 3) for p in cold],
            "cold_scaled_s": [round(p["scaled_s"], 3) for p in cold],
            "hot_passes": len(hot),
            "workers": workers,
        },
        "loadgen": {
            "loadgen.late_p99_ms": 0.0,
            "loadgen.connections": 0,
            "loadgen.behind": 0,
        },
    }
    if args.trace:
        r = results[0]
        traced_cold = [p for p in r["cold"] if p["mode"] == "traced"]
        traced_hot = [p for p in r["hot"] if p["mode"] == "traced"]
        out["layers"] = r["layers"]
        out["table"] = r["table"]
        out["overhead"] = {
            "trace.overhead_pct": 100.0 * (
                traced_cold[0]["seconds"] / cold[0]["seconds"] - 1.0
            ),
            "trace.hot_overhead_pct": 100.0 * (
                median([ms for p in traced_hot for ms in p["latency_ms"]])
                / median(hot_ms) - 1.0
            ),
        }
    return out


def run_service(args, work: Path, started: list) -> dict:
    import service
    import spans

    out = service.run(args.seed, args.seconds, bool(args.trace), args.tiny, work, started)
    from repro.network import cprobe  # importable once service.run re-solved
    import numpy

    out["env"] = {
        "cprobe": "c" if cprobe.available() else "python",
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }
    if args.trace:
        traced = out.pop("traced")
        out["layers"], out["table"] = spans.summarize(
            traced["spans"], traced["client_s"]
        )
        out["overhead"] = traced["overhead"]
    return out


def report(args, out: dict) -> dict:
    """Print the readable report; returns the metrics of the result line."""
    env = out["env"]
    print("env " + json.dumps(env, sort_keys=True))
    if env["cprobe"] != "c":
        print("WARNING: C probe kernel unavailable, bounds use the ~4.5x slower "
              "Python fallback")
    error_rate = out["failed"] / out["attempted"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"  error_rate {error_rate:.6g} ({out['failed']} of {out['attempted']} "
          "operations failed)")
    for key, value in out["notes"].items():
        print(f"  {key} {value}")
    for key, value in out["loadgen"].items():
        print(f"  {key} {value:.4g}")
    if out["loadgen"]["loadgen.behind"]:
        print("WARNING: the load generator fell behind its own schedule")
    if not args.trace:
        gated = metric_units("end_to_end")
        for name, value in out["metrics"].items():
            state = "gated" if name in gated else "reported only"
            print(f"  {name:<14} {value:>14.6g} {UNITS[name]:<4} ({state})")
        return {
            name: {"value": out["metrics"][name], "unit": unit}
            for name, unit in gated.items()
        }

    import spans

    print(spans.format_table(args.workload, out["table"]))
    for key, value in out["overhead"].items():
        print(f"  {key} {value:+.2f}")
    values = {
        **out["layers"],
        **out["loadgen"],
        **out["overhead"],
        "env.cprobe_c": int(env["cprobe"] == "c"),
        "env.nproc": env["nproc"],
    }
    units = metric_units("per_layer")
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"per-layer metrics not produced: {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "validation", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    def deadline(signum, frame):
        raise BenchError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, deadline)
    signal.alarm(DEADLINE_S)
    started: list = []
    work = None
    try:
        check_checkout()
        work = make_work_dir()
        if args.workload == "service":
            out = run_service(args, work, started)
        else:
            out = run_sweeps(args, work, started)
        metrics = report(args, out)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        for item in started:
            stop_process(getattr(item, "proc", item))
        if work is not None:
            remove_work_dir(work)
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
