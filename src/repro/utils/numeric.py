"""Scalar numeric optimization helpers.

The end-to-end delay bound of Section IV is minimized numerically over the
per-hop rate degradation ``gamma`` and the EBB envelope parameter ``alpha``
(the paper: "Since there is no explicit term for gamma, we optimize
numerically over gamma").  The objective is smooth but expensive, and we do
not need high-order methods: a coarse grid scan followed by golden-section
refinement around the best grid cell is robust and derivative-free.

Each search loop is written once, as a generator that yields its probe
points (:func:`golden_section_steps`, :func:`refine_grid_steps`,
:func:`grid_then_golden_steps`); the familiar callable-taking functions
are thin :func:`drive` calls on those generators.  The cross-cell lane
engine of :mod:`repro.network.lanes` drives the same generators (inside
:func:`repro.network.e2e.mmoo_s_steps`, the s-search) with batched
requests, and the generated-C kernel of
:mod:`repro.network.cprobe` mirrors :func:`grid_then_golden` for the
gamma search inside each request (its Python fallback is this
function).

:func:`minimize_piecewise_linear` is the exact minimizer used by the
theta-optimization of Eq. (38): the objective there is piecewise linear in
the single remaining variable, so evaluating it at all region breakpoints
yields the exact optimum.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Callable, Generator, Iterable, Sequence

from repro import obs

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # ~0.618

#: Largest exponent ``math.exp`` accepts without overflowing a double
#: (``log(sys.float_info.max)`` ~ 709.78).
EXP_OVERFLOW = math.log(sys.float_info.max)

#: A derivative-free search written as a generator: it yields lists of
#: probe points, is sent the list of their objective values, and
#: returns ``(x_min, f_min)``.  The plain-callable searches below drive
#: these generators point by point; the lane engine of
#: :mod:`repro.network.lanes` drives the same generators in batches.
SearchSteps = Generator[list, list, tuple]


def safe_exp(exponent: float) -> float:
    """Overflow-safe ``math.exp``: saturates to ``inf`` instead of raising.

    Below the overflow knee this is exactly ``math.exp`` (bitwise —
    underflow to 0.0 included); at ``exponent > EXP_OVERFLOW`` it
    returns ``inf`` where ``math.exp`` would raise :class:`OverflowError`.
    A saturated exponent means the bound (or likelihood ratio) being
    computed is vacuous, and ``inf`` propagates that honestly through
    the surrounding min/argmin searches.  Hot kernels must route every
    unbounded exponent through this helper — enforced by lint rule
    RPR006 (``python -m repro.lint --explain RPR006``).
    """
    if exponent > EXP_OVERFLOW:
        return math.inf
    return math.exp(exponent)


def bisect_increasing(
    func: Callable[[float], float],
    target: float,
    low: float,
    high: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Solve ``func(x) == target`` for a nondecreasing ``func`` on [low, high].

    Returns the smallest ``x`` with ``func(x) >= target`` up to ``tol``.
    Raises :class:`ValueError` if the target is not bracketed.
    """
    f_low = func(low)
    f_high = func(high)
    if f_low >= target:
        return low
    if f_high < target:
        raise ValueError(
            f"target {target} not reached on [{low}, {high}]: "
            f"f(high) = {f_high}"
        )
    steps = 0
    for _ in range(max_iter):
        mid = 0.5 * (low + high)
        if high - low <= tol * max(1.0, abs(mid)):
            break
        steps += 1
        if func(mid) >= target:
            high = mid
        else:
            low = mid
    if obs.enabled():
        obs.add("numeric.bisect_calls")
        obs.add("numeric.bisect_steps", steps)
    return high


def drive(steps: Generator[list, list, Any], func: Callable) -> Any:
    """Run a step generator (a :data:`SearchSteps` search, or the s-search
    and EDF fixed point of :mod:`repro.network.e2e`), evaluating ``func``
    point by point; returns the generator's return value."""
    values: list | None = None
    while True:
        try:
            points = steps.send(values)
        except StopIteration as stop:
            return stop.value
        values = [func(x) for x in points]


def golden_section_steps(
    low: float, high: float, *, tol: float = 1e-9, max_iter: int = 200
) -> SearchSteps:
    """Generator form of :func:`golden_section_min`."""
    if high < low:
        raise ValueError(f"empty bracket [{low}, {high}]")
    a, b = low, high
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = yield [x1, x2]
    iterations = 0
    for _ in range(max_iter):
        if b - a <= tol * max(1.0, abs(a) + abs(b)):
            break
        iterations += 1
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            (f1,) = yield [x1]
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            (f2,) = yield [x2]
    if obs.enabled():
        obs.add("numeric.golden_calls")
        obs.add("numeric.golden_iterations", iterations)
    if f1 <= f2:
        return x1, f1
    return x2, f2


def golden_section_min(
    func: Callable[[float], float],
    low: float,
    high: float,
    *,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Minimize a unimodal ``func`` on [low, high] by golden-section search.

    Returns ``(x_min, f_min)``.  If ``func`` is not unimodal the result is a
    local minimum inside the bracket, which is acceptable for the refinement
    step after a grid scan.
    """
    return drive(
        golden_section_steps(low, high, tol=tol, max_iter=max_iter), func
    )


def refine_grid_steps(
    xs: Sequence[float],
    fs: Sequence[float],
    *,
    tol: float = 1e-9,
) -> SearchSteps:
    """Generator form of :func:`refine_grid_minimum`."""
    if len(xs) != len(fs):
        raise ValueError("xs and fs must have equal length")
    if not xs:
        raise ValueError("need at least one grid point")
    if obs.enabled():
        obs.add("numeric.refine_calls")
    best = min(range(len(xs)), key=lambda i: fs[i])
    if not math.isfinite(fs[best]):
        return xs[best], fs[best]
    lo = xs[max(0, best - 1)]
    hi = xs[min(len(xs) - 1, best + 1)]
    x_ref, f_ref = yield from golden_section_steps(lo, hi, tol=tol)
    if f_ref <= fs[best]:
        return x_ref, f_ref
    return xs[best], fs[best]


def refine_grid_minimum(
    func: Callable[[float], float],
    xs: Sequence[float],
    fs: Sequence[float],
    *,
    tol: float = 1e-9,
) -> tuple[float, float]:
    """Golden-section refinement around the argmin of a pre-evaluated grid.

    ``fs[i]`` must equal ``func(xs[i])`` (up to floating-point noise when
    the grid was evaluated by a vectorized twin of ``func``).  Picks the
    first grid minimum, refines within its bracketing cells, and keeps the
    grid point when refinement does not improve on it — exactly the tail
    of :func:`grid_then_golden`, shared so the batched (numpy) grid sweeps
    reuse the scalar refinement verbatim.
    """
    return drive(refine_grid_steps(xs, fs, tol=tol), func)


def search_grid(
    low: float, high: float, grid_points: int, *, log_spaced: bool = False
) -> list[float]:
    """The scan grid of :func:`grid_then_golden` (``grid_points >= 3``)."""
    if high < low:
        raise ValueError(f"empty bracket [{low}, {high}]")
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    if log_spaced:
        if low <= 0:
            raise ValueError("log-spaced grid requires low > 0")
        return logspace(low, high, grid_points)
    step = (high - low) / (grid_points - 1)
    return [low + i * step for i in range(grid_points)]


def grid_then_golden_steps(
    low: float,
    high: float,
    *,
    grid_points: int = 32,
    tol: float = 1e-9,
    log_spaced: bool = False,
) -> SearchSteps:
    """Generator form of :func:`grid_then_golden`: yields the whole scan
    grid as one batch, then the refinement probes."""
    xs = search_grid(low, high, grid_points, log_spaced=log_spaced)
    fs = yield xs
    if obs.enabled():
        obs.add("numeric.grid_evals", len(xs))
    return (yield from refine_grid_steps(xs, fs, tol=tol))


def grid_then_golden(
    func: Callable[[float], float],
    low: float,
    high: float,
    *,
    grid_points: int = 32,
    tol: float = 1e-9,
    log_spaced: bool = False,
) -> tuple[float, float]:
    """Minimize ``func`` on [low, high]: coarse grid scan, then refine.

    The grid scan makes the search robust to multiple local minima; the
    golden-section pass refines within the bracketing cells of the best grid
    point (see :func:`refine_grid_minimum`).  ``func`` may return
    ``math.inf`` for infeasible points.
    """
    steps = grid_then_golden_steps(
        low, high, grid_points=grid_points, tol=tol, log_spaced=log_spaced
    )
    return drive(steps, func)


def minimize_piecewise_linear(
    func: Callable[[float], float],
    breakpoints: Iterable[float],
    *,
    lower: float = 0.0,
    upper: float | None = None,
) -> tuple[float, float]:
    """Exactly minimize a piecewise-linear ``func`` given its breakpoints.

    A piecewise-linear function attains its minimum at a breakpoint (or at a
    boundary of the feasible interval), so it suffices to evaluate ``func``
    at every candidate.  Candidates outside ``[lower, upper]`` are clipped
    out; ``lower`` (and ``upper`` when given) are always included.
    """
    candidates = {lower}
    if upper is not None:
        candidates.add(upper)
    for point in breakpoints:
        if not math.isfinite(point):
            continue
        if point < lower:
            continue
        if upper is not None and point > upper:
            continue
        candidates.add(point)
    best_x = lower
    best_f = math.inf
    for x in sorted(candidates):
        f = func(x)
        if f < best_f:
            best_x, best_f = x, f
    return best_x, best_f


def logspace(low: float, high: float, count: int) -> list[float]:
    """Return ``count`` log-spaced points on [low, high] (both > 0)."""
    if low <= 0 or high <= 0:
        raise ValueError("logspace requires positive endpoints")
    if count < 2:
        return [low]
    ratio = (high / low) ** (1.0 / (count - 1))
    return [low * ratio**i for i in range(count)]


def weighted_union_bound_constant(
    prefactors: Sequence[float], rates: Sequence[float]
) -> tuple[float, float]:
    """Optimal combination of exponential bounding functions (paper Eq. (33)).

    Given bounding functions ``eps_j(sigma) = M_j * exp(-alpha_j * sigma)``,
    the infimum of ``sum_j eps_j(sigma_j)`` over all splits
    ``sum_j sigma_j = sigma`` is again exponential::

        inf = w * prod_j (M_j * alpha_j)^(1 / (alpha_j * w)) * exp(-sigma / w)

    with ``w = sum_j 1 / alpha_j``.  (The formula as printed in the paper's
    Eq. (33) is garbled by typesetting; this is the correct statement from
    Ciucu, Burchard, Liebeherr, IEEE Trans. IT 2006, and it reproduces the
    paper's Eq. (34) exactly — verified in the test suite.)

    Returns ``(M_combined, alpha_combined)`` with
    ``inf = M_combined * exp(-alpha_combined * sigma)``.
    """
    if len(prefactors) != len(rates):
        raise ValueError("prefactors and rates must have equal length")
    if not prefactors:
        raise ValueError("need at least one bounding function")
    w = 0.0
    for rate in rates:
        if rate <= 0:
            raise ValueError(f"exponential decay rates must be > 0, got {rate}")
        w += 1.0 / rate
    log_m = math.log(w)
    for m, rate in zip(prefactors, rates):
        if m <= 0:
            raise ValueError(f"prefactors must be > 0, got {m}")
        log_m += math.log(m * rate) / (rate * w)
    return math.exp(log_m), 1.0 / w
