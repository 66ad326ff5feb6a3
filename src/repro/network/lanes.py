"""Cross-cell batched execution of the MMOO (s, gamma) bound searches.

One sweep cell pays a deeply nested free-parameter search: the EDF
deadline fixed point iterates ``bound_at(delta)``, each of which runs a
search over ``s``, each step of which runs a grid-then-golden search
over ``gamma``, each probe of which solves the Eq. (38) theta
optimization.  Across a sweep grid the cells are independent, so the
searches of many cells can advance in lockstep, pooling every pending
``(lane, s)`` point of every cell into one kernel call per engine round.

The engine runs the same step generators as the per-cell reference in
:mod:`repro.network.e2e`, so every loop exists once:

* a chain is the s-search of one lane,
  :func:`~repro.network.e2e.mmoo_s_steps` (the grid-then-golden search
  of :mod:`repro.utils.numeric` on the bracket below
  :func:`~repro.network.e2e.mmoo_s_max`), which yields its ``s`` points
  instead of evaluating them;
* each round gathers the pending ``s`` points of all live chains and
  evaluates them in one :func:`repro.network.cprobe.mmoo_gamma_values`
  call: the generated-C kernel builds each lane's EBB pair at ``s`` and
  runs its whole gamma search in C, so one ``(lane, s)`` point is one
  kernel request;
* :func:`edf_bound_lanes` drives one
  :func:`~repro.network.e2e.edf_fixed_point_steps` per lane in
  lockstep, one engine pass per round over every unfinished lane's next
  ``Delta``; a lane leaves when its own fixed point returns.

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
    E2EResult,
    EDFBound,
    NonConvergence,
    check_backend,
    check_edf_settings,
    e2e_delay_bound,
    e2e_delay_bound_at_gamma,
    edf_fixed_point_steps,
    mmoo_ebb_pair,
    mmoo_s_max,
    mmoo_s_steps,
)
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
    """Mutable per-lane state: the lane's row in the kernel's lane table,
    the top of its s bracket, and the gamma its s-search found at each
    ``s``."""

    __slots__ = ("spec", "delta", "index", "s_max", "gammas")

    def __init__(self, spec: LaneSpec | EDFLaneSpec, delta: float,
                 table: cprobe.LaneTable, s_max: float | None):
        self.spec = spec
        self.delta = delta
        self.index = table.add(
            spec.traffic, spec.n_through, spec.n_cross, spec.hops,
            spec.capacity, delta, spec.epsilon, spec.gamma_grid,
        )
        self.s_max = s_max
        self.gammas: dict[float, float] = {}  # s -> optimal gamma

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


def _s_max(spec: LaneSpec | EDFLaneSpec) -> float | None:
    return mmoo_s_max(spec.traffic, spec.n_through, spec.n_cross, spec.capacity)


# --------------------------------------------------------------------- #
# the engine: run s-search chains, one kernel request per (lane, s)
# --------------------------------------------------------------------- #


def _mmoo_chain(lane: _Lane):
    """The s-search of one lane; yields lists of ``s`` points, is sent
    their objective values (the optimal delay over gamma)."""
    s_best = yield from mmoo_s_steps(lane.s_max, lane.spec.s_grid)
    return _INFEASIBLE if s_best is None else lane.at_s(s_best)


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
    lanes = [_Lane(spec, spec.delta, table, _s_max(spec)) for spec in specs]
    with obs.trace("lanes.mmoo_batch"):
        results = _run_lanes(table, lanes)
    if obs.enabled():
        obs.add("lanes.mmoo_lanes", len(specs))
    return results


def _geometry(spec: EDFLaneSpec) -> tuple:
    """What enters an EDF lane's bound at a given ``Delta`` (the deadline
    weights and the fixed-point settings do not)."""
    return (
        spec.traffic, spec.n_through, spec.n_cross, spec.hops,
        spec.capacity, spec.epsilon, spec.method, spec.s_grid,
        spec.gamma_grid, spec.backend,
    )


def edf_bound_lanes(specs: Iterable[EDFLaneSpec]) -> list[EDFBound]:
    """Batched :func:`~repro.network.e2e.e2e_delay_bound_edf`.

    Drives one :func:`~repro.network.e2e.edf_fixed_point_steps` per
    spec in lockstep: each round gathers every unfinished fixed point's
    next ``Delta`` and runs them as one engine pass, so each lane sees
    exactly its per-cell iteration sequence (identical bounds, iteration
    counts, residuals, and convergence flags).  Lanes of one geometry
    at the same ``Delta`` run once per round — in practice the shared
    FIFO bootstrap (``Delta = 0``) of specs that differ only in deadline
    weights (counted as ``lanes.bootstrap_dedup``) — and ``s_max`` is
    computed once per geometry.
    """
    specs = list(specs)
    start = time.perf_counter()
    fixed_points = []
    for spec in specs:
        _check_lane(spec)
        max_iter = check_edf_settings(
            spec.deadline_weight_through, spec.deadline_weight_cross,
            spec.tol, spec.max_iter, spec.on_nonconvergence,
        )
        fixed_points.append(edf_fixed_point_steps(
            spec.deadline_weight_through - spec.deadline_weight_cross,
            spec.hops, spec.tol, max_iter, spec.on_nonconvergence, start,
        ))
    table = cprobe.LaneTable()
    geometries = [_geometry(spec) for spec in specs]
    s_maxes = {
        geometry: _s_max(spec)
        for geometry, spec in dict(zip(geometries, specs)).items()
    }
    bounds: list = [None] * len(specs)
    pending: list = []  # (slot, fixed point, delta)

    def step(slot, fixed_point, values):
        try:
            (delta,) = fixed_point.send(values)
        except StopIteration as stop:
            bounds[slot] = stop.value
            return
        pending.append((slot, fixed_point, delta))

    with obs.trace("lanes.edf_batch"):
        for slot, fixed_point in enumerate(fixed_points):
            step(slot, fixed_point, None)
        shared = 0
        while pending:
            batch, pending = pending, []
            lanes: dict = {}  # (geometry, delta) -> lane
            for slot, _, delta in batch:
                geometry = geometries[slot]
                if (geometry, delta) not in lanes:
                    lanes[geometry, delta] = _Lane(
                        specs[slot], delta, table, s_maxes[geometry]
                    )
            shared += len(batch) - len(lanes)
            if obs.enabled():
                obs.add("lanes.edf_rounds")
                obs.observe("lanes.edf_round_lanes", len(lanes))
            results = dict(zip(lanes, _run_lanes(table, list(lanes.values()))))
            for slot, fixed_point, delta in batch:
                step(slot, fixed_point, [results[geometries[slot], delta]])

    if obs.enabled():
        obs.add("lanes.edf_lanes", len(specs))
        obs.add("lanes.bootstrap_dedup", shared)
        for bound in bounds:
            obs.observe(
                "lanes.edf_lane_iterations", bound.diagnostics.iterations
            )
    return bounds
