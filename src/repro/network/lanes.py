"""Cross-cell batched execution of the MMOO (s, gamma) bound searches.

One sweep cell pays a deeply nested free-parameter search: the EDF
deadline fixed point iterates ``bound_at(delta)``, each of which runs a
golden-section search over ``s``, each step of which runs a
grid-then-golden search over ``gamma``, each probe of which solves the
Eq. (38) theta optimization.  Per cell that is tens of thousands of
*sequential* scalar probes.  Across a sweep grid, however, the cells
are independent — so the searches of many cells can advance in
lockstep, pooling every pending probe of every cell into one batched
kernel call per engine round.

This module implements that as a tiny cooperative scheduler over
*search chains*:

* a chain is a Python generator that yields its probe requests
  instead of evaluating them.  The s-search and the gamma refinement
  are the search generators of :mod:`repro.utils.numeric`
  (``grid_then_golden_steps``, ``refine_grid_steps``) — the very loops
  behind ``grid_then_golden`` and ``golden_section_min`` — driven with
  engine requests, so each search loop exists once;
* the engine gathers the pending requests of all live chains each
  round and executes them together through the generated-C kernel of
  :mod:`repro.network.cprobe`: objective probes — gamma-grid points
  and refinement probes alike — in one ``probe_values`` call, whole
  golden-section refinements in one ``golden_values`` call;
* :func:`edf_bound_lanes` drives the whole grid's EDF deadline vector
  through one such engine pass per fixed-point iteration, with
  per-lane convergence masking: a converged lane stops spawning
  chains (its diagnostics freeze at its own iteration count) while
  stragglers keep iterating.

This is *the* numpy search: ``backend="numpy"`` of
:func:`~repro.network.e2e.e2e_delay_bound`,
:func:`~repro.network.e2e.e2e_delay_bound_mmoo` and
:func:`~repro.network.e2e.e2e_delay_bound_edf` runs a single-lane batch
of this engine.  Both backends search gamma the same way, on probe
values; they differ only in how a lane materializes the bound at the
optimal ``s`` (:meth:`_Lane.at_s`): a numpy lane remembers the gamma
its s-search found at each ``s`` and finishes with
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

import functools
import math
import time
from collections import deque
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
from repro.utils.numeric import (
    grid_then_golden_steps,
    refine_grid_steps,
    search_grid,
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
    """Mutable per-lane state shared by the chains of one bound."""

    __slots__ = ("spec", "delta", "table", "gammas", "_s_max")

    def __init__(self, spec: LaneSpec | EDFLaneSpec, delta: float,
                 table: cprobe.ProbeTable):
        self.spec = spec
        self.delta = delta
        self.table = table
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

    def register(self, through: EBB, cross: EBB) -> int:
        """Add the probe context of one ``s``; returns its table index."""
        spec = self.spec
        return self.table.add(
            through, cross, spec.hops, spec.capacity, self.delta,
            spec.epsilon,
        )

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
# search chains: the numeric search generators, driven with engine requests
# --------------------------------------------------------------------- #


def _requests(steps, request):
    """Drive a :mod:`repro.utils.numeric` search generator through the
    engine: each probe point ``x`` it yields becomes ``request(x)``."""
    values = None
    while True:
        try:
            points = steps.send(values)
        except StopIteration as stop:
            return stop.value
        values = yield [request(x) for x in points]


def _kernel_golden(index: int, low: float, high: float, *, tol: float):
    """The golden-section pass of :func:`refine_grid_steps` as one
    in-kernel request (:func:`repro.network.cprobe.golden_values` runs
    :func:`~repro.utils.numeric.golden_section_min` at its default
    ``tol``, the one ``refine_grid_steps`` passes here)."""
    ((x, f),) = yield [("go", index, low, high)]
    return x, f


def _gamma_chain(index: int, headroom: float, hops: int, gamma_grid: int):
    """The gamma search of probe context ``index`` (one fixed ``s``),
    whose rate headroom is ``headroom``.

    A log-spaced grid, one probe request per point (probe values equal
    the scalar objective bitwise), then
    :func:`~repro.utils.numeric.refine_grid_steps` with its
    golden-section pass run in the kernel.  Returns
    ``(gamma_best, delay_at_gamma_best)``, the delay being the probe
    value at ``gamma_best``.
    """
    gamma_max = headroom / (hops + 1)
    xs = search_grid(
        gamma_max * 1e-6, gamma_max * (1.0 - 1e-9), gamma_grid,
        log_spaced=True,
    )
    fs = yield [("p", index, x) for x in xs]
    return (
        yield from refine_grid_steps(
            xs, fs, golden=functools.partial(_kernel_golden, index)
        )
    )


def _s_objective_chain(lane: _Lane, s: float):
    """The mmoo ``s``-search objective at one ``s``."""
    spec = lane.spec
    through, cross = mmoo_ebb_pair(
        spec.traffic, spec.n_through, spec.n_cross, s
    )
    headroom = spec.capacity - cross.rate - through.rate
    if headroom <= 0:
        return math.inf
    g_best, f_best = yield from _gamma_chain(
        lane.register(through, cross), headroom, spec.hops, spec.gamma_grid
    )
    lane.gammas[s] = g_best  # where a numpy lane's at_s materializes
    return f_best


def _mmoo_chain(lane: _Lane):
    """The (s, gamma) search of one mmoo bound."""
    spec = lane.spec
    if (spec.n_through + spec.n_cross) * spec.traffic.mean_rate >= spec.capacity:
        return _INFEASIBLE
    s_max = lane.s_max()
    steps = grid_then_golden_steps(
        s_max * 1e-4, s_max * (1.0 - 1e-9),
        grid_points=spec.s_grid, log_spaced=True,
    )
    s_best, _ = yield from _requests(
        steps, lambda s: ("c", _s_objective_chain(lane, s))
    )
    return lane.at_s(s_best)


# --------------------------------------------------------------------- #
# the engine: run chains to completion, batching their probe requests
# --------------------------------------------------------------------- #


class _Task:
    __slots__ = ("gen", "values", "pending", "parent", "slot")

    def __init__(self, gen, parent, slot):
        self.gen = gen
        self.values = None
        self.pending = 0
        self.parent = parent
        self.slot = slot


def _run_chains(table: cprobe.ProbeTable, chains: list) -> list:
    """Run top-level chains concurrently; returns their results in order.

    Each engine round flushes every pending probe as one batched
    :func:`repro.network.cprobe.probe_values` call and every pending
    golden-section refinement as one
    :func:`repro.network.cprobe.golden_values` call.
    """
    results = [None] * len(chains)
    probe_reqs: list = []  # (task, slot, ctx_index, gamma)
    golden_reqs: list = []  # (task, slot, ctx_index, lo, hi)
    ready: deque = deque()
    rounds = 0
    n_probes = 0

    def deliver(task, value):
        parent = task.parent
        if parent is None:
            results[task.slot] = value
        else:
            fulfill(parent, task.slot, value)

    def fulfill(task, slot, value):
        task.values[slot] = value
        task.pending -= 1
        if task.pending == 0:
            ready.append(task)

    def start(gen, parent, slot):
        step(_Task(gen, parent, slot), None)

    def step(task, send_values):
        try:
            requests = task.gen.send(send_values)
        except StopIteration as stop:
            deliver(task, stop.value)
            return
        task.values = [None] * len(requests)
        task.pending = len(requests)
        for slot, request in enumerate(requests):
            kind = request[0]
            if kind == "p":
                probe_reqs.append((task, slot, request[1], request[2]))
            elif kind == "go":
                golden_reqs.append(
                    (task, slot, request[1], request[2], request[3])
                )
            else:  # "c": sub-chain
                start(request[1], task, slot)

    for slot, gen in enumerate(chains):
        start(gen, None, slot)

    while True:
        while ready:
            task = ready.popleft()
            values, task.values = task.values, None
            step(task, values)
        if not probe_reqs and not golden_reqs:
            break
        rounds += 1
        if probe_reqs:
            batch, probe_reqs = probe_reqs, []
            out = cprobe.probe_values(
                table,
                [b[2] for b in batch],
                [b[3] for b in batch],
            )
            n_probes += len(batch)
            for (task, slot, _, _), value in zip(batch, out):
                fulfill(task, slot, float(value))
        if golden_reqs:
            batch, golden_reqs = golden_reqs, []
            out_x, out_f = cprobe.golden_values(
                table,
                [b[2] for b in batch],
                [b[3] for b in batch],
                [b[4] for b in batch],
            )
            n_probes += len(batch)
            for (task, slot, _, _, _), x, f in zip(batch, out_x, out_f):
                fulfill(task, slot, (float(x), float(f)))

    if obs.enabled():
        obs.add("lanes.engine_rounds", rounds)
        obs.add("lanes.engine_probes", n_probes)
        if rounds:
            obs.observe("lanes.round_occupancy", n_probes / rounds)
    return results


# --------------------------------------------------------------------- #
# public entry points
# --------------------------------------------------------------------- #


def _check_lane(spec: LaneSpec | EDFLaneSpec) -> None:
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
    """The delay-optimal ``gamma`` of one fixed EBB pair: a single gamma
    chain, the numpy search of :func:`~repro.network.e2e.e2e_delay_bound`
    (which checks its arguments and the rate headroom first)."""
    table = cprobe.ProbeTable()
    index = table.add(through, cross, hops, capacity, delta, epsilon)
    chain = _gamma_chain(
        index, capacity - cross.rate - through.rate, hops, gamma_grid
    )
    ((gamma, _),) = _run_chains(table, [chain])
    return gamma


def mmoo_bound_lanes(specs: Iterable[LaneSpec]) -> list[E2EResult]:
    """Batched :func:`~repro.network.e2e.e2e_delay_bound_mmoo`.

    Runs all lanes' (s, gamma) searches concurrently; every lane's
    result is bitwise-identical to its per-cell computation.
    """
    specs = list(specs)
    for spec in specs:
        _check_lane(spec)
    table = cprobe.ProbeTable()
    lanes = [_Lane(spec, spec.delta, table) for spec in specs]
    with obs.trace("lanes.mmoo_batch"):
        results = _run_chains(table, [_mmoo_chain(lane) for lane in lanes])
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
    table = cprobe.ProbeTable()

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
        chains = []
        for group in lane_groups:
            lane = _Lane(specs[group[0]], 0.0, table)
            chains.append(_mmoo_chain(lane))
        boot = _run_chains(table, chains)
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
            chains = [
                _mmoo_chain(_Lane(specs[i], deltas[i], table))
                for i in active
            ]
            if obs.enabled():
                obs.add("lanes.edf_rounds")
                obs.observe("lanes.edf_round_lanes", len(active))
            step_results = _run_chains(table, chains)
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

