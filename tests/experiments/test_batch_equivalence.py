"""Batched execution is bitwise-equal to per-cell execution.

Randomized grids over the schedulers (FIFO / BMUX / EDF / SP), path
lengths ``H in {1, 2, 10, 30}``, and both numeric backends must produce
*bitwise identical* results through the fused lane engine — same
delay/gamma/alpha/sigma doubles, and for EDF the same fixed-point
iteration counts, residuals, and convergence flags per cell.  Checked
at two levels: the lane API (:mod:`repro.network.lanes` vs. the
per-cell entry points) and the full sweep pipeline
(``run_sweep(batch=True)`` vs. the per-cell path, including cache
interchangeability).

With ``backend="scalar"`` the per-cell entry points run the independent
point-by-point search of :mod:`repro.network.e2e`.  With
``backend="numpy"`` they run a single-lane batch of the lane engine
itself, so the numpy cases check that fused lanes equal single lanes;
the numpy reference values are the frozen fixture of
``tests/network/test_numpy_reference.py``.
"""

import math
import random

import pytest

from repro import obs
from repro.arrivals.mmoo import MMOOParameters
from repro.experiments.config import SCHEDULER_MAP
from repro.experiments.example1 import fig2_spec
from repro.experiments.example2 import fig3_spec
from repro.experiments.example3 import fig4_spec
from repro.experiments.sweep import run_sweep
from repro.experiments.validation import validation_spec
from repro.network.e2e import e2e_delay_bound_edf, e2e_delay_bound_mmoo
from repro.network.lanes import (
    EDFLaneSpec,
    LaneSpec,
    edf_bound_lanes,
    mmoo_bound_lanes,
)

HOPS = (1, 2, 10, 30)
BACKENDS = ("numpy", "scalar")

#: Analysis Delta per scheduler (FIFO=0, BMUX=+inf, SP=-inf; EDF runs
#: through its own fixed-point driver below).
DELTA_SCHEDULERS = {
    name: delta
    for name, (_, delta, _) in SCHEDULER_MAP.items()
    if name != "EDF"
}


def _random_case(rng):
    traffic = MMOOParameters(
        peak=rng.uniform(1.2, 1.8),
        p11=rng.uniform(0.97, 0.995),
        p22=rng.uniform(0.85, 0.95),
    )
    n_through = rng.randint(1, 300)
    n_cross = rng.randint(0, 300)
    epsilon = rng.choice((1e-3, 1e-6, 1e-9))
    return traffic, n_through, n_cross, epsilon


def _assert_results_equal(got, want, context):
    assert got.delay == want.delay, context
    assert got.gamma == want.gamma, context
    assert got.alpha == want.alpha, context
    assert got.sigma == want.sigma, context
    assert got.x == want.x, context
    assert got.thetas == want.thetas, context
    assert got.method == want.method, context


@pytest.mark.parametrize("backend", BACKENDS)
def test_mmoo_lanes_match_scalar_randomized(backend):
    rng = random.Random(42 if backend == "numpy" else 43)
    specs, wants, contexts = [], [], []
    for scheduler, delta in DELTA_SCHEDULERS.items():
        for hops in HOPS:
            traffic, n_through, n_cross, epsilon = _random_case(rng)
            specs.append(
                LaneSpec(
                    traffic, n_through, n_cross, hops, 100.0, delta,
                    epsilon, s_grid=8, gamma_grid=8, backend=backend,
                )
            )
            wants.append(
                e2e_delay_bound_mmoo(
                    traffic, n_through, n_cross, hops, 100.0, delta,
                    epsilon, s_grid=8, gamma_grid=8, backend=backend,
                )
            )
            contexts.append((scheduler, hops, n_through, n_cross))
    results = mmoo_bound_lanes(specs)
    assert len(results) == len(wants)
    for got, want, context in zip(results, wants, contexts):
        _assert_results_equal(got, want, context)


@pytest.mark.parametrize("backend", BACKENDS)
def test_edf_lanes_match_scalar_randomized(backend):
    rng = random.Random(1 if backend == "numpy" else 2)
    specs, wants, contexts = [], [], []
    for hops in HOPS:
        traffic, n_through, n_cross, epsilon = _random_case(rng)
        w_through = rng.choice((1.0, 2.0))
        w_cross = rng.choice((1.0, 10.0))
        kwargs = dict(
            deadline_weight_through=w_through,
            deadline_weight_cross=w_cross,
            s_grid=8, gamma_grid=8, backend=backend,
            on_nonconvergence="ignore",
        )
        specs.append(
            EDFLaneSpec(
                traffic, n_through, n_cross, hops, 100.0, epsilon,
                **kwargs,
            )
        )
        wants.append(
            e2e_delay_bound_edf(
                traffic, n_through, n_cross, hops, 100.0, epsilon,
                **kwargs,
            )
        )
        contexts.append((hops, w_through, w_cross))
    results = edf_bound_lanes(specs)
    for got, want, context in zip(results, wants, contexts):
        _assert_results_equal(got.result, want.result, context)
        assert got.delta == want.delta, context
        assert got.diagnostics.iterations == want.diagnostics.iterations, (
            context
        )
        assert got.diagnostics.residual == want.diagnostics.residual, context
        assert got.diagnostics.converged == want.diagnostics.converged, (
            context
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_edf_lanes_share_runs_across_deadline_weights(backend):
    """Specs differing only in deadline weights share their FIFO
    bootstrap (one lane run saved) and still equal their own runs."""
    traffic = MMOOParameters.paper_defaults()
    specs = [
        EDFLaneSpec(
            traffic, 120, 150, 3, 100.0, 1e-6,
            deadline_weight_through=w_through,
            deadline_weight_cross=w_cross,
            s_grid=6, gamma_grid=6, backend=backend,
            on_nonconvergence="ignore",
        )
        for w_through, w_cross in ((1.0, 2.0), (2.0, 1.0))
    ]
    with obs.scoped(enabled=True) as registry:
        fused = edf_bound_lanes(specs)
    assert registry.counter("lanes.bootstrap_dedup") == 1
    for spec, got in zip(specs, fused):
        (want,) = edf_bound_lanes([spec])
        _assert_results_equal(got.result, want.result, spec)
        assert got.delta == want.delta
        assert got.diagnostics.iterations == want.diagnostics.iterations
        assert got.diagnostics.residual == want.diagnostics.residual
        assert got.diagnostics.converged == want.diagnostics.converged


def test_mmoo_lanes_infeasible_lane():
    """An overloaded lane returns the infeasible sentinel, like scalar."""
    traffic = MMOOParameters.paper_defaults()
    spec = LaneSpec(traffic, 400, 400, 2, 100.0, 0.0, 1e-9,
                    s_grid=8, gamma_grid=8)
    (got,) = mmoo_bound_lanes([spec])
    want = e2e_delay_bound_mmoo(
        traffic, 400, 400, 2, 100.0, 0.0, 1e-9, s_grid=8, gamma_grid=8
    )
    assert math.isinf(got.delay) and math.isinf(want.delay)
    assert not got.feasible


def _strip(payload):
    out = dict(payload)
    out.pop("wall_time_s", None)
    out.pop("metrics", None)
    return out


@pytest.mark.parametrize(
    "spec",
    [
        fig2_spec(utilizations=(0.35, 0.80), hops=(2,)),
        fig2_spec(utilizations=(0.5,), hops=(2,), backend="scalar"),
        fig3_spec(mixes=(0.3,), hops=(5,)),
        fig3_spec(mixes=(0.5,), hops=(2,), backend="scalar"),
        # includes the "BMUX additive" cell its planner declines
        fig4_spec(hops=(2,), utilizations=(0.5,)),
        validation_spec(
            schedulers=("FIFO", "BMUX", "EDF", "SP"), hops=(1,), slots=500
        ),
    ],
    ids=[
        "fig2", "fig2-scalar", "fig3", "fig3-scalar", "fig4",
        "validation-sp",
    ],
)
def test_run_sweep_batched_matches_per_cell(spec):
    plain = run_sweep(spec)
    batched = run_sweep(spec, batch=True)
    assert plain.rows == batched.rows
    for a, b in zip(plain.cells, batched.cells):
        assert a.rows == b.rows
        assert dict(a.diagnostics) == dict(b.diagnostics)


def test_batched_run_populates_per_cell_cache(tmp_path):
    """Cache entries stay content-keyed per cell across both paths."""
    from repro.experiments.cache import CellCache

    spec = fig3_spec(mixes=(0.1,), hops=(2,))
    cache = CellCache(tmp_path / "cache")
    batched = run_sweep(spec, cache=cache, batch=True)
    assert batched.cached_cells == 0
    # the per-cell path must now be fully served from the batched run
    plain = run_sweep(spec, cache=cache)
    assert plain.cached_cells == len(spec.cells)
    assert plain.rows == batched.rows
