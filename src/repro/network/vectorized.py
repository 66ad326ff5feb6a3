"""Fast kernels for the Section IV analytic bounds.

The scalar analysis stack evaluates the free-parameter search of the
end-to-end bounds one probe at a time: for every candidate ``gamma`` (and
``s`` for MMOO workloads) it recomputes ``sigma`` from the combined
bounding functions and solves the theta-optimization of Eq. (38) by
enumerating O(H) breakpoints with O(H) work each — thousands of
interpreter-level evaluations per curve point.  This module holds the
cheaper evaluations of the same mathematics:

* :func:`_e2e_probe` — the end-to-end objective at one ``gamma``: the
  Eq. (33) sigma chain, the closed forms for BMUX (Eq. (43)) and FIFO
  (Eq. (44)), otherwise an O(H log H) slope sweep
  (:func:`_sweep_homogeneous`).  It is the reference the generated C
  kernel of :mod:`repro.network.cprobe` mirrors and that kernel's
  no-compiler fallback; the lane engine of :mod:`repro.network.lanes`
  (the numpy end-to-end search) evaluates every gamma-grid point and
  refinement probe through that kernel;
* :func:`e2e_delay_grid_rows` — the probe over the ``gamma`` grids of
  many lanes at once, one :func:`repro.network.cprobe.probe_values`
  call;
* :func:`additive_delay_grid` / :func:`optimize_gamma_additive` — the
  node-by-node additive bound's numpy grid and grid-then-refine search;
* :func:`solve_exact_fast` — a drop-in O(H log H) replacement for
  :func:`~repro.network.optimization.solve_exact` built on the same
  slope sweep over the sorted breakpoints (used by the backlog probes).

Equivalence contract with the scalar path
-----------------------------------------
Every kernel mirrors the scalar code's floating-point expression trees
(same operations, same association order, sequential hop sums), so
values agree with the scalar objective to the last few ulps and the
grid-then-refine searches follow the same trajectory as
:func:`repro.utils.numeric.grid_then_golden` except at exact
floating-point ties.  The optimized ``gamma``/``s`` is then re-evaluated
through the *scalar* ``..._at_gamma`` functions, so the numpy backend's
returned bounds match the scalar backend's to well within 1e-9 relative
(the randomized cross-validation suite pins this).  One deliberate
semantic difference: where the scalar constructors *raise* (a saturated
hop, ``sigma`` underflow) the kernels return ``inf`` for the affected
lanes, matching the infeasible-result convention of the callers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro import obs
from repro.arrivals.ebb import EBB
from repro.network import cprobe
from repro.network.optimization import (
    HopParameters,
    ThetaSolution,
    theta_for_x,
)
from repro.utils.numeric import refine_grid_minimum, safe_exp, search_grid
from repro.utils.validation import check_non_negative

__all__ = [
    "e2e_delay_grid_rows",
    "additive_delay_grid",
    "optimize_gamma_additive",
    "solve_exact_fast",
]

#: Relative half-width of the window of near-minimal sweep candidates that
#: are re-evaluated exactly.  Must exceed the slope-sweep's accumulation
#: drift (~H ulps) by a wide margin so the exact re-evaluation always sees
#: the scalar argmin among its candidates.
_SWEEP_WINDOW = 1e-9


# --------------------------------------------------------------------- #
# sigma at one gamma (the probe's Eq. (33) chain)
# --------------------------------------------------------------------- #


def _sigma_fast(
    through: EBB, cross: EBB, hops: int, gamma: float, epsilon: float
) -> float:
    """The homogeneous-path ``sigma_for_epsilon`` chain of the probe
    (``inf`` on underflow, where the scalar constructors raise) —
    bitwise-equal to :func:`~repro.network.e2e.sigma_for_epsilon` and
    to the row-stacked sigma of :func:`e2e_delay_grid_rows`."""
    geo_t = -math.expm1(-through.decay * gamma)
    geo_c = -math.expm1(-cross.decay * gamma)
    if geo_t <= 0.0 or geo_c <= 0.0:
        return math.inf
    w = 1.0 / through.decay
    for _ in range(hops):
        w += 1.0 / cross.decay
    log_m = math.log(w)
    log_m += math.log(
        (through.prefactor / geo_t) * through.decay
    ) / (through.decay * w)
    last = cross.prefactor / geo_c
    inflated = last / geo_c
    term_inflated = math.log(inflated * cross.decay) / (cross.decay * w)
    for _ in range(hops - 1):
        log_m += term_inflated
    log_m += math.log(last * cross.decay) / (cross.decay * w)
    prefactor = safe_exp(log_m)
    alpha = 1.0 / w
    return max(0.0, math.log(prefactor / epsilon) / alpha)


# --------------------------------------------------------------------- #
# slope-sweep exact solve (scalar fast path)
# --------------------------------------------------------------------- #


def _hop_objective(hops_rrd, sigma: float, x: float) -> float:
    """``d(X) = X + sum_h theta_h(X)`` — bitwise mirror of the scalar
    ``solve_exact`` objective (sequential sum, same per-hop formulas)."""
    total = 0.0
    for r_svc, r_cross, delta in hops_rrd:
        if delta == -math.inf:
            total += max(0.0, sigma / r_svc - x)
        elif delta == math.inf:
            total += max(0.0, sigma / (r_svc - r_cross) - x)
        elif delta <= 0:
            clipped = max(0.0, x + delta)
            total += max(0.0, (sigma + r_cross * clipped) / r_svc - x)
        else:
            denom = r_svc - r_cross
            theta_low = (sigma - denom * x) / denom
            if theta_low <= delta:
                total += max(0.0, theta_low)
            else:
                total += max((sigma + r_cross * (x + delta)) / r_svc - x, delta)
    return x + total


def _sweep_solve(hops_rrd, sigma: float) -> tuple[float, float]:
    """Exact min of the piecewise-linear ``d(X)`` in O(H log H).

    Builds the slope-change events of every hop, sweeps the sorted
    breakpoints accumulating ``d``, then re-evaluates the near-minimal
    candidates exactly (ascending, strict ``<``) so the returned
    ``(delay, x)`` reproduces the scalar solver's value *and* argmin
    tie-breaking.  Returns ``(inf, 0.0)`` for a saturated hop, where the
    scalar path raises instead.
    """
    events: list[tuple[float, float]] = []
    d0 = 0.0
    slope = 1.0
    for r_svc, r_cross, delta in hops_rrd:
        if delta == -math.inf:
            k1 = sigma / r_svc
            if k1 > 0.0:
                d0 += k1
                slope -= 1.0
                events.append((k1, 1.0))
        elif delta == math.inf:
            denom = r_svc - r_cross
            if denom <= 0.0:
                return math.inf, 0.0
            k1 = sigma / denom
            if k1 > 0.0:
                d0 += k1
                slope -= 1.0
                events.append((k1, 1.0))
        elif delta <= 0:
            a = -delta
            k1 = sigma / r_svc
            denom = r_svc - r_cross
            if k1 <= 0.0:
                continue
            if k1 < a:
                # theta dies before the cross bracket activates
                d0 += k1
                slope -= 1.0
                events.append((k1, 1.0))
                # non-kink scalar candidates, kept for tie parity
                events.append((a, 0.0))
                if denom > 0.0:
                    k2 = (sigma + r_cross * delta) / denom
                    if k2 > 0.0 and math.isfinite(k2):
                        events.append((k2, 0.0))
            else:
                if denom <= 0.0:
                    return math.inf, 0.0
                ratio = r_cross / r_svc
                k2 = (sigma + r_cross * delta) / denom
                d0 += k1
                if a > 0.0:
                    slope -= 1.0
                    events.append((a, ratio))
                    events.append((k2, 1.0 - ratio))
                else:
                    slope += ratio - 1.0
                    if k2 > 0.0:
                        events.append((k2, 1.0 - ratio))
                events.append((k1, 0.0))  # non-kink scalar candidate
        else:
            denom = r_svc - r_cross
            if denom <= 0.0:
                return math.inf, 0.0
            z = sigma / denom
            if z <= 0.0:
                continue
            ratio = r_cross / r_svc
            bp = z - delta
            aux = (sigma + r_cross * (0.0 + delta)) / r_svc
            if bp <= 0.0:
                d0 += z
                slope -= 1.0
                events.append((z, 1.0))
            else:
                d0 += (sigma + r_cross * delta) / r_svc
                slope += ratio - 1.0
                events.append((bp, -ratio))
                events.append((z, 1.0))
            if aux > 0.0 and math.isfinite(aux):
                events.append((aux, 0.0))  # non-kink scalar candidate

    events.sort()
    candidates: list[tuple[float, float]] = [(0.0, d0)]
    acc = d0
    acc_min = d0
    cur = slope
    prev = 0.0
    for x, change in events:
        acc += cur * (x - prev)
        prev = x
        candidates.append((x, acc))
        if acc < acc_min:
            acc_min = acc
        cur += change

    window = acc_min + _SWEEP_WINDOW * max(1.0, abs(acc_min))
    best_d = math.inf
    best_x = 0.0
    for x, acc in candidates:
        if acc <= window:
            d = _hop_objective(hops_rrd, sigma, x)
            if d < best_d:
                best_d, best_x = d, x
    return best_d, best_x


def _objective_homogeneous(
    capacity: float,
    r: float,
    delta: float,
    sigma: float,
    hops: int,
    gamma: float,
    x: float,
) -> float:
    """:func:`_hop_objective` on a homogeneous path (same expressions,
    case dispatch hoisted out of the hop loop)."""
    total = 0.0
    if delta == -math.inf:
        for k in range(hops):
            t = sigma / (capacity - k * gamma) - x
            if t > 0.0:
                total += t
    elif delta == math.inf:
        for k in range(hops):
            t = sigma / ((capacity - k * gamma) - r) - x
            if t > 0.0:
                total += t
    elif delta <= 0:
        clipped = x + delta
        if clipped < 0.0:
            clipped = 0.0
        numerator = sigma + r * clipped
        for k in range(hops):
            t = numerator / (capacity - k * gamma) - x
            if t > 0.0:
                total += t
    else:
        for k in range(hops):
            r_svc = capacity - k * gamma
            denom = r_svc - r
            theta_low = (sigma - denom * x) / denom
            if theta_low <= delta:
                if theta_low > 0.0:
                    total += theta_low
            else:
                t = (sigma + r * (x + delta)) / r_svc - x
                total += t if t > delta else delta
    return x + total


def _sweep_homogeneous(
    capacity: float,
    r: float,
    delta: float,
    sigma: float,
    hops: int,
    gamma: float,
) -> tuple[float, float]:
    """:func:`_sweep_solve` on a homogeneous path.

    Generates the identical event multiset (``r_svc = capacity - k gamma``,
    shared ``r``/``delta``), so the candidate accumulation, window and
    re-evaluation reproduce the general sweep bitwise — the per-hop case
    dispatch and triple construction are just hoisted out of the hot
    per-probe loop.
    """
    events: list[tuple[float, float]] = []
    d0 = 0.0
    slope = 1.0
    if delta == -math.inf:
        for k in range(hops):
            k1 = sigma / (capacity - k * gamma)
            if k1 > 0.0:
                d0 += k1
                slope -= 1.0
                events.append((k1, 1.0))
    elif delta == math.inf:
        for k in range(hops):
            denom = (capacity - k * gamma) - r
            if denom <= 0.0:
                return math.inf, 0.0
            k1 = sigma / denom
            if k1 > 0.0:
                d0 += k1
                slope -= 1.0
                events.append((k1, 1.0))
    elif delta <= 0:
        a = -delta
        for k in range(hops):
            r_svc = capacity - k * gamma
            k1 = sigma / r_svc
            denom = r_svc - r
            if k1 <= 0.0:
                continue
            if k1 < a:
                d0 += k1
                slope -= 1.0
                events.append((k1, 1.0))
                events.append((a, 0.0))
                if denom > 0.0:
                    k2 = (sigma + r * delta) / denom
                    if k2 > 0.0 and math.isfinite(k2):
                        events.append((k2, 0.0))
            else:
                if denom <= 0.0:
                    return math.inf, 0.0
                ratio = r / r_svc
                k2 = (sigma + r * delta) / denom
                d0 += k1
                if a > 0.0:
                    slope -= 1.0
                    events.append((a, ratio))
                    events.append((k2, 1.0 - ratio))
                else:
                    slope += ratio - 1.0
                    if k2 > 0.0:
                        events.append((k2, 1.0 - ratio))
                events.append((k1, 0.0))
    else:
        for k in range(hops):
            r_svc = capacity - k * gamma
            denom = r_svc - r
            if denom <= 0.0:
                return math.inf, 0.0
            z = sigma / denom
            if z <= 0.0:
                continue
            ratio = r / r_svc
            bp = z - delta
            aux = (sigma + r * (0.0 + delta)) / r_svc
            if bp <= 0.0:
                d0 += z
                slope -= 1.0
                events.append((z, 1.0))
            else:
                d0 += (sigma + r * delta) / r_svc
                slope += ratio - 1.0
                events.append((bp, -ratio))
                events.append((z, 1.0))
            if aux > 0.0 and math.isfinite(aux):
                events.append((aux, 0.0))

    events.sort()
    acc = d0
    acc_min = d0
    cur = slope
    prev = 0.0
    candidates: list[tuple[float, float]] = [(0.0, d0)]
    for x, change in events:
        acc += cur * (x - prev)
        prev = x
        candidates.append((x, acc))
        if acc < acc_min:
            acc_min = acc
        cur += change

    window = acc_min + _SWEEP_WINDOW * max(1.0, abs(acc_min))
    best_d = math.inf
    best_x = 0.0
    for x, acc in candidates:
        if acc <= window:
            d = _objective_homogeneous(capacity, r, delta, sigma, hops, gamma, x)
            if d < best_d:
                best_d, best_x = d, x
    return best_d, best_x


def solve_exact_fast(
    hop_params: Sequence[HopParameters], sigma: float
) -> ThetaSolution:
    """O(H log H) drop-in for :func:`~repro.network.optimization.solve_exact`.

    Same candidate set, same objective arithmetic, same first-minimum
    tie-breaking — validated value- and argmin-equal in the test suite —
    but via a slope sweep instead of the O(H^2) candidate enumeration.
    """
    check_non_negative(sigma, "sigma")
    hops = list(hop_params)
    if not hops:
        raise ValueError("need at least one hop")
    triples = [(h.service_rate, h.cross_rate, h.delta) for h in hops]
    delay, x_best = _sweep_solve(triples, sigma)
    thetas = tuple(theta_for_x(hop, sigma, x_best) for hop in hops)
    return ThetaSolution(delay, x_best, thetas)


# --------------------------------------------------------------------- #
# end-to-end delay: whole-grid evaluation + fast probes
# --------------------------------------------------------------------- #


def _fifo_closed_form(
    hops: int, capacity: float, rho_cross: float, gamma: float, sigma: float
) -> float:
    """Scalar Eq. (44) mirror of :func:`~repro.network.optimization.fifo_delay`."""
    r = rho_cross + gamma
    tails = [0.0] * (hops + 1)
    for k in range(hops - 1, -1, -1):
        r_svc = capacity - k * gamma
        tails[k] = tails[k + 1] + (r_svc - r) / r_svc
    k = next((kk for kk in range(hops + 1) if tails[kk] < 1.0), hops)
    if k == 0:
        return sum(
            sigma / (capacity - (h - 1) * gamma) for h in range(1, hops + 1)
        )
    denom = capacity - rho_cross - k * gamma
    if denom <= 0:
        return math.inf
    x = sigma / denom
    total = x
    for h in range(k + 1, hops + 1):
        total += (h - k) * gamma * x / (capacity - (h - 1) * gamma)
    return total


def e2e_delay_grid_rows(
    throughs: Sequence[EBB],
    crosses: Sequence[EBB],
    hops: int,
    capacity: float,
    deltas: Sequence[float],
    epsilon: float,
    gammas,
) -> np.ndarray:
    """The :func:`~repro.network.e2e.e2e_delay_bound_at_gamma` objective
    over a ``(lanes, grid)`` array of ``gamma`` values, one lane per row.

    Row ``i`` evaluates ``throughs[i]``/``crosses[i]``/``deltas[i]`` over
    ``gammas[i]`` with the probe kernel of :mod:`repro.network.cprobe`
    (one batched call; :func:`_e2e_probe` without a C compiler), so every
    value is the probe bitwise and independent of the rows stacked with
    it.  Infeasible points (Eq. (32) violated, ``sigma`` underflow) are
    ``inf``, matching the scalar ``_INFEASIBLE`` convention.
    """
    g = np.asarray(gammas, dtype=float)
    if g.ndim != 2:
        raise ValueError("gammas must be (lanes, grid)")
    lanes, grid = g.shape
    table = cprobe.ProbeTable()
    indices = [
        table.add(through, cross, hops, capacity, delta, epsilon)
        for through, cross, delta in zip(throughs, crosses, deltas)
    ]
    values = cprobe.probe_values(
        table, [i for i in indices for _ in range(grid)], g.ravel().tolist()
    )
    return values.reshape(lanes, grid)


def _e2e_probe(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    gamma: float,
) -> float:
    """Fast scalar mirror of the ``e2e_delay_bound_at_gamma`` objective.

    The reference of the generated-C probe of :mod:`repro.network.cprobe`
    and its fallback when no C compiler is available."""
    if (hops + 1) * gamma >= capacity - cross.rate - through.rate:
        return math.inf
    sigma = _sigma_fast(through, cross, hops, gamma, epsilon)
    if not math.isfinite(sigma):
        return math.inf
    if delta == math.inf:
        denom = (capacity - (hops - 1) * gamma) - (cross.rate + gamma)
        return sigma / denom if denom > 0.0 else math.inf
    if delta == 0.0:
        return _fifo_closed_form(hops, capacity, cross.rate, gamma, sigma)
    r = cross.rate + gamma
    return _sweep_homogeneous(capacity, r, delta, sigma, hops, gamma)[0]


# --------------------------------------------------------------------- #
# additive per-node bound: whole-grid evaluation + fast probe
# --------------------------------------------------------------------- #


def additive_delay_grid(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    epsilon: float,
    gammas,
) -> np.ndarray:
    """The node-by-node additive objective
    (:func:`~repro.network.pernode.additive_pernode_delay_bound_at_gamma`)
    over a whole ``gamma`` grid.

    The per-hop decay recursion is gamma-independent (harmonic updates of
    scalar decays), so only the prefactors are carried as arrays.
    """
    g = np.asarray(gammas, dtype=float)
    n = len(g)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        service_rate = capacity - cross.rate - g
        ok = service_rate > 0.0
        ok &= np.minimum(through.decay, cross.decay) * g >= 1e-15
        geo_c = -np.expm1(-cross.decay * g)
        cross_m = cross.prefactor / geo_c  # cross sample-path prefactor

        prefactor = np.full(n, through.prefactor)
        decay = through.decay  # scalar: identical across lanes
        rate = through.rate + 0.0 * g
        node_ms: list[np.ndarray] = []
        node_as: list[float] = []
        for _ in range(hops):
            ok &= rate + g <= service_rate
            geo_t = -np.expm1(-decay * g)
            through_m = prefactor / geo_t
            # combine_bounds([through_sp, cross_sp]), Eq. (33) order
            w = 1.0 / decay + 1.0 / cross.decay
            log_m = math.log(w)
            log_m = log_m + np.log(through_m * decay) / (decay * w)
            log_m = log_m + np.log(cross_m * cross.decay) / (cross.decay * w)
            node_m = np.exp(log_m)
            node_a = 1.0 / w
            node_ms.append(node_m)
            node_as.append(node_a)
            prefactor = np.maximum(1.0, node_m)
            decay = node_a
            rate = rate + g

        if hops == 1:  # combine_bounds single-member shortcut
            comb_m, comb_a = node_ms[0], node_as[0]
        else:
            w = 0.0
            for a in node_as:
                w += 1.0 / a
            log_m = math.log(w)
            for m, a in zip(node_ms, node_as):
                log_m = log_m + np.log(m * a) / (a * w)
            comb_m, comb_a = np.exp(log_m), 1.0 / w
        sigma_total = np.maximum(0.0, np.log(comb_m / epsilon) / comb_a)
        delays = np.where(ok, sigma_total / service_rate, np.inf)
    return delays


def _additive_probe(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    epsilon: float,
    gamma: float,
) -> float:
    """Fast scalar mirror of ``additive_pernode_delay_bound_at_gamma``."""
    service_rate = capacity - cross.rate - gamma
    if service_rate <= 0:
        return math.inf
    if min(through.decay, cross.decay) * gamma < 1e-15:
        return math.inf
    geo_c = -math.expm1(-cross.decay * gamma)
    cross_m = cross.prefactor / geo_c

    prefactor, decay, rate = through.prefactor, through.decay, through.rate
    node_ms: list[float] = []
    node_as: list[float] = []
    for _ in range(hops):
        if rate + gamma > service_rate:
            return math.inf
        geo_t = -math.expm1(-decay * gamma)
        through_m = prefactor / geo_t
        w = 1.0 / decay + 1.0 / cross.decay
        log_m = math.log(w)
        log_m += math.log(through_m * decay) / (decay * w)
        log_m += math.log(cross_m * cross.decay) / (cross.decay * w)
        node_m = safe_exp(log_m)
        node_a = 1.0 / w
        node_ms.append(node_m)
        node_as.append(node_a)
        prefactor, decay = max(1.0, node_m), node_a
        rate += gamma

    if hops == 1:
        comb_m, comb_a = node_ms[0], node_as[0]
    else:
        w = 0.0
        for a in node_as:
            w += 1.0 / a
        log_m = math.log(w)
        for m, a in zip(node_ms, node_as):
            log_m += math.log(m * a) / (a * w)
        comb_m, comb_a = safe_exp(log_m), 1.0 / w
    sigma_total = max(0.0, math.log(comb_m / epsilon) / comb_a)
    return sigma_total / service_rate


def optimize_gamma_additive(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    epsilon: float,
    *,
    gamma_grid: int = 48,
    tol: float = 1e-9,
) -> tuple[float, float]:
    """Grid-then-refine search for the additive bound's ``gamma``.

    The grid stage is one :func:`additive_delay_grid` call; the
    refinement is the same golden-section pass as the scalar path,
    driven by the cheap :func:`_additive_probe`.  Returns
    ``(gamma, delay)``; the delay equals the scalar objective at
    ``gamma`` (callers wanting the full result re-evaluate through the
    scalar path).
    """
    with obs.trace("vectorized.optimize_gamma_additive"):
        headroom = capacity - cross.rate - through.rate
        gamma_max = headroom / (hops + 1)
        xs = search_grid(
            gamma_max * 1e-6, gamma_max * (1.0 - 1e-9), gamma_grid,
            log_spaced=True,
        )
        fs = additive_delay_grid(
            through, cross, hops, capacity, epsilon, np.asarray(xs)
        )
        return refine_grid_minimum(
            lambda g: _additive_probe(
                through, cross, hops, capacity, epsilon, g
            ),
            xs,
            fs.tolist(),
            tol=tol,
        )
