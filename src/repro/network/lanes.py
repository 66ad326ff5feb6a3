"""Cross-cell batched execution of the MMOO (s, gamma) bound searches.

One sweep cell pays a deeply nested free-parameter search: the EDF
deadline fixed point iterates ``bound_at(delta)``, each of which runs a
golden-section search over ``s``, each step of which runs a
grid-then-golden search over ``gamma``, each probe of which solves the
Eq. (38) theta optimization.  Per cell that is tens of thousands of
*sequential* scalar probes.  Across a sweep grid, however, the cells
are independent — so the searches of many cells can advance in
lockstep, pooling every pending ``(lane, s)`` point of every cell into
one batched kernel call per engine round.

This module implements that as a tiny round-based scheduler over
*s-search chains*:

* a chain is the s-search of one lane, the generator
  :func:`~repro.utils.numeric.grid_then_golden_steps` of
  :mod:`repro.utils.numeric` — the very loop behind
  ``grid_then_golden`` — which yields its ``s`` points instead of
  evaluating them, so the loop exists once;
* the engine gathers the pending ``s`` points of all live chains each
  round and evaluates them in one
  :func:`repro.network.cprobe.mmoo_gamma_values` call: the generated-C
  kernel builds each lane's EBB pair at ``s`` and runs its whole gamma
  search (log grid, first argmin, golden-section refinement) in C, so
  one ``(lane, s)`` point is one kernel request;
* :func:`edf_bound_lanes` drives the whole grid's EDF deadline vector
  through one such engine pass per fixed-point iteration, with
  per-lane convergence masking: a converged lane stops spawning
  chains (its diagnostics freeze at its own iteration count) while
  stragglers keep iterating.

This is *the* numpy search: ``backend="numpy"`` of
:func:`~repro.network.e2e.e2e_delay_bound`,
:func:`~repro.network.e2e.e2e_delay_bound_mmoo` and
:func:`~repro.network.e2e.e2e_delay_bound_edf` runs a single-lane batch
of this engine (:func:`optimal_gamma` is the single gamma search of a
fixed EBB pair).  Both backends search the same way, on probe values;
they differ only in how a lane materializes the bound at the optimal
``s`` (:meth:`_Lane.at_s`): a numpy lane remembers the gamma the kernel
found at each ``s`` and finishes with
:func:`~repro.network.e2e.e2e_delay_bound_at_gamma` there, a scalar
lane re-runs the scalar reference search.

Bitwise contract
----------------
A lane's results — bounds, gammas, iteration counts, residuals,
convergence flags — do not depend on which other lanes share its
batch: the kernel calls evaluate every request on its own.  Numpy
lanes are pinned bit for bit by the frozen reference of
``tests/network/test_numpy_reference.py``; scalar lanes
(``backend="scalar"``) equal the independent point-by-point search of
:mod:`repro.network.e2e` bitwise, which the equivalence suite checks
per scheduler and path length.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable

from repro import obs
from repro.arrivals.ebb import EBB
from repro.arrivals.mmoo import MMOOParameters
from repro.network import cprobe
from repro.network.e2e import (
    _INFEASIBLE,
    _max_feasible_s,
    E2EResult,
    EDFBound,
    NonConvergence,
    check_backend,
    check_nonconvergence_policy,
    e2e_delay_bound,
    e2e_delay_bound_at_gamma,
    mmoo_ebb_pair,
    report_nonconvergence,
)
from repro.utils.numeric import grid_then_golden_steps
from repro.utils.validation import check_int, check_positive, check_probability

__all__ = [
    "LaneSpec",
    "EDFLaneSpec",
    "mmoo_bound_lanes",
    "edf_bound_lanes",
]

@dataclass(frozen=True)
class LaneSpec:
    """One mmoo bound computation (one sweep cell) in a batched group."""

    traffic: MMOOParameters
    n_through: int
    n_cross: int
    hops: int
    capacity: float
    delta: float
    epsilon: float
    method: str = "exact"
    s_grid: int = 24
    gamma_grid: int = 24
    backend: str = "numpy"


@dataclass(frozen=True)
class EDFLaneSpec:
    """One EDF fixed-point computation in a batched group."""

    traffic: MMOOParameters
    n_through: int
    n_cross: int
    hops: int
    capacity: float
    epsilon: float
    deadline_weight_through: float = 1.0
    deadline_weight_cross: float = 10.0
    method: str = "exact"
    tol: float = 1e-4
    max_iter: int = 40
    s_grid: int = 24
    gamma_grid: int = 24
    backend: str = "numpy"
    on_nonconvergence: NonConvergence = "warn"


class _Lane:
    """Mutable per-lane state: the lane's row in the kernel's lane table
    and the gamma its s-search found at each ``s``."""

    __slots__ = ("spec", "delta", "index", "gammas", "_s_max")

    def __init__(self, spec: LaneSpec | EDFLaneSpec, delta: float,
                 table: cprobe.LaneTable):
        self.spec = spec
        self.delta = delta
        self.index = table.add(
            spec.traffic, spec.n_through, spec.n_cross, spec.hops,
            spec.capacity, delta, spec.epsilon, spec.gamma_grid,
        )
        self.gammas: dict[float, float] = {}  # s -> optimal gamma
        self._s_max: float | None = None

    def s_max(self) -> float:
        # delta-independent, so cached across EDF fixed-point iterations
        # (the scalar search recomputes the identical bisection result)
        if self._s_max is None:
            spec = self.spec
            self._s_max = _max_feasible_s(
                spec.traffic,
                spec.n_through + max(spec.n_cross, 1),
                spec.capacity,
            )
        return self._s_max

    def at_s(self, s: float) -> E2EResult:
        """Materialize the bound at the optimal ``s``.

        numpy: :func:`~repro.network.e2e.e2e_delay_bound_at_gamma` at the
        gamma the s-search found there.  scalar: the reference re-runs
        its own search through :func:`~repro.network.e2e.e2e_delay_bound`.
        """
        spec = self.spec
        through, cross = mmoo_ebb_pair(
            spec.traffic, spec.n_through, spec.n_cross, s
        )
        if spec.backend == "scalar":
            return e2e_delay_bound(
                through, cross, spec.hops, spec.capacity, self.delta,
                spec.epsilon, method=spec.method,
                gamma_grid=spec.gamma_grid, backend="scalar",
            )
        gamma = self.gammas.get(s)
        if gamma is None:  # no rate headroom at s: nothing was searched
            return _INFEASIBLE
        return e2e_delay_bound_at_gamma(
            through, cross, spec.hops, spec.capacity, self.delta,
            spec.epsilon, gamma,
        )


# --------------------------------------------------------------------- #
# the engine: run s-search chains, one kernel request per (lane, s)
# --------------------------------------------------------------------- #


def _mmoo_chain(lane: _Lane):
    """The s-search of one mmoo bound; yields lists of ``s`` points,
    is sent their objective values (the optimal delay over gamma)."""
    spec = lane.spec
    if (spec.n_through + spec.n_cross) * spec.traffic.mean_rate >= spec.capacity:
        return _INFEASIBLE
    s_max = lane.s_max()
    s_best, _ = yield from grid_then_golden_steps(
        s_max * 1e-4, s_max * (1.0 - 1e-9),
        grid_points=spec.s_grid, log_spaced=True,
    )
    return lane.at_s(s_best)


def _run_lanes(table: cprobe.LaneTable, lanes: list[_Lane]) -> list:
    """Run the lanes' s-searches concurrently; returns their results in
    order.

    Each engine round evaluates every pending ``(lane, s)`` point in
    one :func:`repro.network.cprobe.mmoo_gamma_values` call and keeps
    the gamma found at each ``s`` for :meth:`_Lane.at_s`.
    """
    results: list = [None] * len(lanes)
    pending: list = []  # (slot, lane, chain, s points)

    def step(slot, lane, chain, values):
        try:
            points = chain.send(values)
        except StopIteration as stop:
            results[slot] = stop.value
            return
        pending.append((slot, lane, chain, points))

    for slot, lane in enumerate(lanes):
        step(slot, lane, _mmoo_chain(lane), None)
    rounds = 0
    requests = 0
    while pending:
        batch, pending = pending, []
        gammas, delays = cprobe.mmoo_gamma_values(
            table,
            [lane.index for _, lane, _, points in batch for _ in points],
            [s for _, _, _, points in batch for s in points],
        )
        gammas, delays = gammas.tolist(), delays.tolist()
        rounds += 1
        pos = 0
        for slot, lane, chain, points in batch:
            end = pos + len(points)
            for s, gamma in zip(points, gammas[pos:end]):
                if not math.isnan(gamma):  # NaN: no headroom, not searched
                    lane.gammas[s] = gamma
            values, pos = delays[pos:end], end
            step(slot, lane, chain, values)
        requests += pos

    if obs.enabled():
        obs.add("lanes.engine_rounds", rounds)
        # one kernel request per (lane, s) point
        obs.add("lanes.engine_probes", requests)
        if rounds:
            obs.observe("lanes.round_occupancy", requests / rounds)
    return results


# --------------------------------------------------------------------- #
# public entry points
# --------------------------------------------------------------------- #


def _check_grid(points: int, field: str) -> int:
    """A search grid needs a bracket around its best point; checked
    here because the kernel runs the gamma grid out of Python's sight."""
    points = check_int(points, field)
    if points < 3:
        raise ValueError(f"{field}: grid_points must be >= 3, got {points}")
    return points


def _check_lane(spec: LaneSpec | EDFLaneSpec) -> None:
    _check_grid(spec.s_grid, "s_grid")
    _check_grid(spec.gamma_grid, "gamma_grid")
    check_int(spec.n_through, "n_through", minimum=1)
    check_int(spec.n_cross, "n_cross", minimum=0)
    check_int(spec.hops, "hops", minimum=1)
    check_positive(spec.capacity, "capacity")
    check_probability(spec.epsilon, "epsilon")
    check_backend(spec.backend)
    if spec.method != "exact":
        raise ValueError(
            f"batched lanes support method='exact', got {spec.method!r}"
        )


def optimal_gamma(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    gamma_grid: int,
) -> float:
    """The delay-optimal ``gamma`` of one fixed EBB pair: one kernel
    gamma search, the numpy search of
    :func:`~repro.network.e2e.e2e_delay_bound` (which checks its
    arguments and the rate headroom first)."""
    grid = _check_grid(gamma_grid, "gamma_grid")
    table = cprobe.ProbeTable()
    index = table.add(through, cross, hops, capacity, delta, epsilon)
    gammas, _ = cprobe.gamma_values(table, [index], grid)
    return float(gammas[0])


def mmoo_bound_lanes(specs: Iterable[LaneSpec]) -> list[E2EResult]:
    """Batched :func:`~repro.network.e2e.e2e_delay_bound_mmoo`.

    Runs all lanes' (s, gamma) searches concurrently; every lane's
    result is bitwise-identical to its per-cell computation.
    """
    specs = list(specs)
    for spec in specs:
        _check_lane(spec)
    table = cprobe.LaneTable()
    lanes = [_Lane(spec, spec.delta, table) for spec in specs]
    with obs.trace("lanes.mmoo_batch"):
        results = _run_lanes(table, lanes)
    if obs.enabled():
        obs.add("lanes.mmoo_lanes", len(specs))
    return results


def edf_bound_lanes(specs: Iterable[EDFLaneSpec]) -> list[EDFBound]:
    """Batched :func:`~repro.network.e2e.e2e_delay_bound_edf`.

    One engine pass per fixed-point iteration iterates the whole
    group's deadline vector together; per-lane convergence masking
    freezes finished lanes while stragglers keep iterating, so each
    lane sees exactly the per-cell iteration sequence (identical
    bounds, iteration counts, residuals, and convergence flags).  The
    shared FIFO bootstrap (``delta = 0``) is computed once per distinct
    lane geometry — deadline weights do not enter it — and reused.
    """
    specs = list(specs)
    for spec in specs:
        _check_lane(spec)
        check_positive(
            spec.deadline_weight_through, "deadline_weight_through"
        )
        check_positive(spec.deadline_weight_cross, "deadline_weight_cross")
        check_nonconvergence_policy(spec.on_nonconvergence)
    n = len(specs)
    start = time.perf_counter()
    table = cprobe.LaneTable()

    def bootstrap_key(spec: EDFLaneSpec):
        return (
            spec.traffic, spec.n_through, spec.n_cross, spec.hops,
            spec.capacity, spec.epsilon, spec.method, spec.s_grid,
            spec.gamma_grid, spec.backend,
        )

    bounds: list[EDFBound | None] = [None] * n
    deltas = [0.0] * n
    residuals = [math.inf] * n
    results: list[E2EResult | None] = [None] * n
    active = list(range(n))

    def finish(i, *state):
        bounds[i] = EDFBound.finish(*state, start)

    with obs.trace("lanes.edf_batch"):
        # FIFO bootstrap, deduplicated across lanes sharing a geometry
        # (EDF variants differing only in deadline weights)
        unique: dict = {}
        for i in active:
            unique.setdefault(bootstrap_key(specs[i]), []).append(i)
        lane_groups = list(unique.values())
        boot = _run_lanes(
            table, [_Lane(specs[group[0]], 0.0, table) for group in lane_groups]
        )
        if obs.enabled() and n:
            obs.add("lanes.bootstrap_dedup", n - len(lane_groups))
        still = []
        for group, current in zip(lane_groups, boot):
            for i in group:
                if not current.feasible:
                    finish(i, current, 0.0, 0, 0.0, True)
                else:
                    spec = specs[i]
                    weight_gap = (
                        spec.deadline_weight_through
                        - spec.deadline_weight_cross
                    )
                    deltas[i] = weight_gap * current.delay / spec.hops
                    still.append(i)
        active = still

        iteration = 0
        while active:
            iteration += 1
            over = [i for i in active if iteration > specs[i].max_iter]
            for i in over:
                spec = specs[i]
                report_nonconvergence(
                    spec.on_nonconvergence, spec.max_iter, spec.tol,
                    residuals[i],
                )
                finish(
                    i, results[i], deltas[i], specs[i].max_iter,
                    residuals[i], False,
                )
            active = [i for i in active if iteration <= specs[i].max_iter]
            if not active:
                break
            lanes = [_Lane(specs[i], deltas[i], table) for i in active]
            if obs.enabled():
                obs.add("lanes.edf_rounds")
                obs.observe("lanes.edf_round_lanes", len(active))
            step_results = _run_lanes(table, lanes)
            still = []
            for i, result in zip(active, step_results):
                results[i] = result
                spec = specs[i]
                if not result.feasible:
                    # an infinite bound cannot move: at rest
                    finish(i, result, deltas[i], iteration, 0.0, True)
                    continue
                weight_gap = (
                    spec.deadline_weight_through - spec.deadline_weight_cross
                )
                new_delta = weight_gap * result.delay / spec.hops
                step = abs(new_delta - deltas[i])
                scale = max(1.0, abs(deltas[i]))
                residuals[i] = step / scale
                if step <= spec.tol * scale:
                    finish(i, result, new_delta, iteration, residuals[i], True)
                    continue
                deltas[i] = 0.5 * (deltas[i] + new_delta)  # damping
                still.append(i)
            active = still

    if obs.enabled():
        obs.add("lanes.edf_lanes", n)
        for bound in bounds:
            obs.observe(
                "lanes.edf_lane_iterations", bound.diagnostics.iterations
            )
    return [bound for bound in bounds]

