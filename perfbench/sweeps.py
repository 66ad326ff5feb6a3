"""Worker process of the ``figures`` and ``validation`` workloads.

Started by ``perfbench/run.py``, once per set-up sample::

    python3 perfbench/sweeps.py --workload figures --seed 1 --budget 10 \
        --trace 0 --work DIR

It prints ``{"ready": ...}`` as soon as the program is imported and the
C probe kernel is compiled (the runner times set-up up to that line),
then runs cold passes -- every cell computed, into a fresh
``CellCache`` -- for about ``--budget`` seconds, each sweep followed by
warm passes that serve it again from that cache, and prints one JSON
result line.  With ``--trace 1`` it runs one untraced and one traced
pass and adds the per-layer summary.

``python3 perfbench/sweeps.py record`` re-records the figure reference
rows in ``perfbench/reference/figures.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import sys
import time
from pathlib import Path

from common import (
    REFERENCE,
    REL_TOL,
    SpeedClock,
    emit,
    peak_rss_mb_self,
    same_value,
)

# Imported before "ready": set-up covers the program's imports and the
# C probe compile.
import numpy as np
from repro.experiments import config, example1, example2, example3
from repro.experiments import sweep, validation
from repro.experiments.cache import CellCache
from repro.network import cprobe

#: Warm passes of each sweep run for at least this many times and,
#: over all sweeps of a pass, this long (a traced run makes exactly
#: ``HOT_PASSES``, so that the cold work dominates its per-layer table).
HOT_SECONDS = 1.0
HOT_PASSES = 2


def figure_specs(tiny: bool = False) -> list:
    """The full-fidelity Figs. 2-4 grids (186 cells)."""
    specs = [
        example1.fig2_spec(quick=False),
        example2.fig3_spec(quick=False),
        example3.fig4_spec(quick=False),
    ]
    if tiny:
        specs = [
            sweep.SweepSpec(s.name, s.cells[::9], s.settings, s.x_label)
            for s in specs
        ]
    return specs


def shuffled(spec, rng: random.Random):
    """``spec`` with each scheduler's cells in seeded order.

    Schedulers keep their first-appearance order, so the batch planner
    forms its lane groups in the same order as for the unshuffled grid.
    """
    groups: dict[str, list] = {}
    for cell in spec.cells:
        groups.setdefault(str(cell.kwargs["scheduler"]), []).append(cell)
    cells = []
    for members in groups.values():
        members = list(members)
        rng.shuffle(members)
        cells.extend(members)
    return sweep.SweepSpec(spec.name, tuple(cells), spec.settings, spec.x_label)


def validation_specs(seed: int, tiny: bool = False) -> list:
    """FIFO/BMUX/EDF x H in {1,2,5,10}, 8 trials per point (108 cells)."""
    if tiny:
        return [
            validation.validation_spec(
                hops=(1, 2), n_trials=2, slots=2_000, engine="vectorized",
                seed=seed,
            )
        ]
    return [
        validation.validation_spec(
            hops=(1, 2, 5, 10), n_trials=8, slots=20_000,
            engine="vectorized", seed=seed,
        )
    ]


def timed_sweep(
    spec, cache: CellCache, probing: bool
) -> tuple[SpeedClock, list[float], object]:
    """One ``run_sweep``: ``(clock, per-cell latency ms, result)``.

    A cell's latency runs from the start of the sweep (when all its
    cells are asked for) to the moment ``run_sweep`` delivers it; the
    clock's host-speed probes (none when ``probing`` is false) are left
    out of it.
    """
    latencies: list[float] = []

    def delivered(index, payload, cached):
        latencies.append(clock.elapsed() * 1e3)

    with SpeedClock(probing) as clock:
        result = sweep.run_sweep(spec, batch=True, cache=cache, on_cell=delivered)
    return clock, latencies, result


def rows_digest(rows) -> str:
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()
    ).hexdigest()


def check_figures(results, reference: dict) -> tuple[int, int]:
    """Rows within 1e-9 relative of the reference, EDF flags exact."""
    attempted = failed = 0
    for result in results:
        for cell in result.cells:
            attempted += 1
            ref = reference.get(cell.key)
            if (
                ref is None
                or not same_value([dict(r) for r in cell.rows], ref["rows"], REL_TOL)
                or cell.diagnostics.get("edf_converged") != ref["edf_converged"]
            ):
                failed += 1
    return attempted, failed


def check_validation(results) -> tuple[int, int]:
    """Every point sound: its bound dominates all of its trials."""
    attempted = failed = 0
    for result in results:
        points = validation.rows_to_validation(result.rows)
        unsound = {(p.scheduler, p.hops) for p in points if not p.sound}
        for cell in result.cells:
            attempted += 1
            params = cell.cell.kwargs
            if (params["scheduler"], params["hops"]) in unsound:
                failed += 1
    return attempted, failed


def check_same(results, baseline) -> tuple[int, int]:
    """Warm rows must be bitwise the rows computed cold."""
    attempted = failed = 0
    for result, base in zip(results, baseline):
        for cell, ref in zip(result.cells, base.cells):
            attempted += 1
            if not same_value(list(cell.rows), list(ref.rows)):
                failed += 1
    return attempted, failed


def work(args) -> dict:
    tiny = args.tiny
    if args.workload == "figures":
        rng = random.Random(args.seed)
        specs = [shuffled(s, rng) for s in figure_specs(tiny)]
        reference = json.loads(REFERENCE.read_text())["cells"]

        def check(results):
            return check_figures(results, reference)
    else:
        specs = validation_specs(args.seed, tiny)
        check = check_validation

    out = {
        "cold": [], "hot": [], "attempted": 0, "failed": 0, "digests": [],
        "cells": sum(len(s.cells) for s in specs),
    }
    modes = ["untraced", "traced"] if args.trace else ["untraced"]
    recorder = restore = None
    start = time.perf_counter()
    for mode in modes:
        if mode == "traced":
            import spans

            recorder = spans.Recorder()
            restore = spans.install(recorder)
        n_pass = 0
        while True:
            n_pass += 1
            cache = CellCache(Path(args.work) / f"cache-{os.getpid()}-{mode}-{n_pass}")
            cold = {"seconds": 0.0, "scaled_s": 0.0, "latency_ms": [], "mode": mode}
            results = []
            for spec in specs:
                clock, latencies, result = timed_sweep(spec, cache, mode == "untraced")
                cold["seconds"] += clock.wall
                cold["scaled_s"] += clock.scaled
                cold["latency_ms"] += latencies
                results.append(result)
                # warm passes right after each sweep, so that hot and
                # cold figures sample the host at the same times
                hot_start = time.perf_counter()
                n_hot = 0
                while n_hot < HOT_PASSES or (
                    not args.trace
                    and time.perf_counter() - hot_start < HOT_SECONDS / len(specs)
                ):
                    n_hot += 1
                    clock, latencies, warm = timed_sweep(spec, cache, mode == "untraced")
                    attempted, failed = check_same([warm], [result])
                    out["attempted"] += attempted
                    out["failed"] += failed
                    out["hot"].append({
                        "seconds": clock.wall, "cells": len(spec.cells),
                        "latency_ms": latencies, "mode": mode,
                    })
            attempted, failed = check(results)
            out["attempted"] += attempted
            out["failed"] += failed
            out["cold"].append(cold)
            out["digests"].append(
                [rows_digest([dict(r) for r in c.rows]) for r in results for c in r.cells]
            )
            elapsed = time.perf_counter() - start
            if args.trace or elapsed + cold["seconds"] > args.budget:
                break
    if recorder is not None:
        restore()
        metrics, table = spans.summarize(recorder.spans)
        out["layers"] = metrics
        out["table"] = table
    out["rss_mb"] = peak_rss_mb_self()
    return out


def environment() -> dict:
    return {
        "cprobe": "c" if cprobe.available() else "python",
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def record() -> None:
    """Recompute the figure grids in grid order and store their rows."""
    cells = {}
    for spec in figure_specs():
        result = sweep.run_sweep(spec, batch=True)
        for cell in result.cells:
            cells[cell.key] = {
                "rows": [dict(r) for r in cell.rows],
                "edf_converged": cell.diagnostics.get("edf_converged"),
            }
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(
        json.dumps(
            {"schema": "perfbench.figures/1", "grids": config.FULL_GRIDS, "cells": cells},
            indent=1, sort_keys=True,
        )
        + "\n"
    )
    print(f"recorded {len(cells)} cells into {REFERENCE}")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["record"]:
        record()
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("figures", "validation"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    env = environment()  # compiles the C probe kernel
    emit({"ready": True, "env": env})
    if args.setup_only:
        return 0
    out = work(args)
    out["env"] = env
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
