"""Gate of the cross-cell lane engine: fused lanes beat single lanes.

The gate grid is the Fig. 3 EDF H=10 slice — both deadline-weight
variants over the full mix range, the most expensive cells of the
figure (each pays a full deadline fixed point).  The numpy backend
runs every cell through the lane engine, so the gate compares the two
ways of using it: one fused lane group for the whole grid against one
single-lane batch per cell (``plan_batches(max_lanes=1)``, what a
per-cell run does).  Fusing must be at least ``SPEEDUP_FLOOR`` times
faster end to end on the same machine, with bitwise-identical rows.
A second benchmark times the batched full Fig. 3 sweep so the
regression baseline watches the batched pipeline itself.
"""

import time

from repro.experiments.batch import execute_batch, plan_batches
from repro.experiments.example2 import fig3_spec
from repro.experiments.sweep import run_sweep

#: Fused over single-lane speedup floor.  Eighteen alternating runs of
#: each path on a shared 2-vCPU x86-64 host measured 1.12x-1.47x (single
#: lanes 0.59-1.07 s, fused 0.43-0.73 s; 1.33x-1.44x on a quiet host);
#: the floor sits below the slowest of them for that host's speed
#: swings.  Fusion saves per-call cost only, and with every probe in
#: the C kernel that cost is small.
SPEEDUP_FLOOR = 1.1

#: The gate grid: every Fig. 3 EDF cell at H = 10 (2 variants x 5 mixes).
GATE_SPEC = fig3_spec(
    mixes=(0.1, 0.3, 0.5, 0.7, 0.9),
    hops=(10,),
    schedulers=("EDF short", "EDF long"),
    quick=True,
)


def run_planned(max_lanes=None):
    """Execute the gate grid's batch plan; returns the cell payloads."""
    payloads = [None] * len(GATE_SPEC.cells)
    for batch in plan_batches(GATE_SPEC, max_lanes=max_lanes):
        for index, payload in zip(batch.indices, execute_batch(batch)):
            payloads[index] = payload
    return payloads


def test_batched_fig3_edf_gate(benchmark):
    """Fused lanes >= SPEEDUP_FLOOR x single lanes on the Fig. 3 EDF H=10
    grid, bitwise-equal."""
    t0 = time.perf_counter()
    single = run_planned(max_lanes=1)
    single_s = time.perf_counter() - t0

    fused_times = []

    def run_fused():
        start = time.perf_counter()
        payloads = run_planned()
        fused_times.append(time.perf_counter() - start)
        return payloads

    fused = benchmark.pedantic(run_fused, rounds=1, iterations=1)
    fused_s = fused_times[-1]

    for want, got in zip(single, fused):
        assert got["rows"] == want["rows"]
        assert got["diagnostics"] == want["diagnostics"]

    speedup = single_s / fused_s
    benchmark.extra_info["single_lane_s"] = round(single_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= SPEEDUP_FLOOR, (
        f"fused lanes only {speedup:.2f}x faster than single lanes "
        f"({fused_s:.2f}s vs {single_s:.2f}s); need >= {SPEEDUP_FLOOR}x"
    )


def test_fig3_full_sweep_batched(benchmark):
    """The whole Fig. 3 grid through ``run_sweep(batch=True)``."""
    spec = fig3_spec(quick=True)

    def compute():
        return run_sweep(spec, batch=True)

    result = benchmark.pedantic(compute, rounds=1, iterations=1)
    assert len(result.rows) == len(spec.cells)
    benchmark.extra_info["cells"] = len(spec.cells)
