"""The service's sweep cell: one bound query as a pure, cacheable cell.

Every service query is normalized into a
:class:`~repro.experiments.sweep.Cell` naming :func:`bound_query_cell`,
so a query's canonical identity — and with it the key of the in-memory
LRU *and* of the on-disk content-keyed cell cache — is exactly
:func:`repro.experiments.sweep.cell_key` of its parameters.  A bound
computed by the service warms the same cache entries a sweep run would
read, and vice versa.

:func:`bound_query_plan` is the cell's batch planner (registered in
:mod:`repro.experiments.batch`), and delay queries are defined by it:
they plan onto the :mod:`repro.network.lanes` engine (``"mmoo"`` for
FIFO/BMUX/SP, ``"edf"`` for the deadline fixed point), so concurrent
queries fuse into one kernel sweep, and the cell answers a lone query
with :func:`~repro.experiments.batch.solve_plan` of the same plan.
Backlog queries have no lane family yet: the planner declines them
(counted under ``batch.fallback_cells.planner_declined``) and the cell
solves them itself, as singleton batches.

Either way the answer comes from the same solver entry points as a
direct call into :mod:`repro.network.e2e` / :mod:`repro.network.backlog`,
so a served answer is bitwise-identical to the direct computation.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.batch import CellPlan, edf_diagnostics, solve_plan
from repro.experiments.config import DEFAULT_BACKEND, SCHEDULER_MAP
from repro.network.backlog import BacklogResult, e2e_backlog_bound_mmoo
from repro.network.e2e import E2EResult, EDFBound
from repro.network.lanes import EDFLaneSpec, LaneSpec
from repro.arrivals.mmoo import MMOOParameters

__all__ = [
    "SERVICE_CELL_FN",
    "bound_query_cell",
    "bound_query_plan",
]

#: The registered cell function of every service query.
SERVICE_CELL_FN = "repro.service.api.cells:bound_query_cell"


def _delay_row(
    scheduler: str, hops: int, result: E2EResult, delta: float
) -> dict:
    return {
        "kind": "delay",
        "scheduler": scheduler,
        "hops": hops,
        "delta": delta,
        "delay": result.delay,
        "sigma": result.sigma,
        "gamma": result.gamma,
        "alpha": result.alpha,
        "x": result.x,
        "thetas": list(result.thetas),
        "feasible": result.feasible,
        "method": result.method,
    }


def _edf_payload(scheduler: str, hops: int, bound: EDFBound) -> dict:
    """The EDF answer payload."""
    row = _delay_row(scheduler, hops, bound.result, bound.delta)
    row["edf"] = edf_diagnostics(bound)
    return {"rows": [row], "diagnostics": dict(row["edf"])}


def _mmoo_payload(
    scheduler: str, hops: int, delta: float, result: E2EResult
) -> dict:
    """The FIFO/BMUX/SP answer payload."""
    return {"rows": [_delay_row(scheduler, hops, result, delta)], "diagnostics": {}}


def _backlog_payload(
    scheduler: str, hops: int, delta: float, result: BacklogResult
) -> dict:
    return {
        "rows": [
            {
                "kind": "backlog",
                "scheduler": scheduler,
                "hops": hops,
                "delta": delta,
                "backlog": result.backlog,
                "sigma": result.sigma,
                "gamma": result.gamma,
                "alpha": result.alpha,
                "feasible": result.feasible,
            }
        ],
        "diagnostics": {},
    }


def bound_query_cell(
    *,
    kind: str,
    scheduler: str,
    hops: int,
    n_through: int,
    n_cross: int,
    epsilon: float,
    traffic: tuple,
    capacity: float,
    deadline_weight_through: float,
    deadline_weight_cross: float,
    s_grid: int,
    gamma_grid: int,
    backend: str = DEFAULT_BACKEND,
) -> dict:
    """One bound query — pure in its params, hence cacheable and batchable.

    ``kind`` selects the bound (``"delay"`` or ``"backlog"``);
    ``scheduler`` is a :data:`~repro.experiments.config.SCHEDULER_MAP`
    name (FIFO/BMUX/EDF/SP).  The deadline weights only enter for EDF
    (queries normalize them to the paper defaults otherwise, keeping
    the cache key canonical).
    """
    plan = bound_query_plan(locals())
    if plan is not None:
        return solve_plan(plan)
    # a backlog query: the one kind with no lane family
    _, delta, _ = SCHEDULER_MAP[scheduler]
    backlog = e2e_backlog_bound_mmoo(
        MMOOParameters(*traffic), n_through, n_cross, hops, capacity, delta,
        epsilon, s_grid=s_grid, gamma_grid=gamma_grid, backend=backend,
    )
    return _backlog_payload(scheduler, hops, delta, backlog)


def bound_query_plan(params: dict) -> CellPlan | None:
    """The plan of one delay query, shared by :func:`bound_query_cell`
    and the batched path (see :mod:`repro.experiments.batch`).

    Returns ``None`` for backlog queries — there is no backlog lane
    family yet, so :func:`bound_query_cell` solves them itself.
    """
    if params["kind"] != "delay":
        return None
    scheduler = params["scheduler"]
    hops = params["hops"]
    peak, p11, p22 = params["traffic"]
    mmoo = MMOOParameters(peak, p11, p22)
    _, delta, _ = SCHEDULER_MAP[scheduler]
    grid: dict[str, Any] = {
        "s_grid": params["s_grid"],
        "gamma_grid": params["gamma_grid"],
        "backend": params.get("backend", DEFAULT_BACKEND),
    }
    if scheduler == "EDF":
        return CellPlan(
            kind="edf",
            spec=EDFLaneSpec(
                mmoo, params["n_through"], params["n_cross"], hops,
                params["capacity"], params["epsilon"],
                deadline_weight_through=params["deadline_weight_through"],
                deadline_weight_cross=params["deadline_weight_cross"],
                **grid,
            ),
            build=lambda bound: _edf_payload(scheduler, hops, bound),
        )
    return CellPlan(
        kind="mmoo",
        spec=LaneSpec(
            mmoo, params["n_through"], params["n_cross"], hops,
            params["capacity"], delta, params["epsilon"], **grid,
        ),
        build=lambda result: _mmoo_payload(scheduler, hops, delta, result),
    )
