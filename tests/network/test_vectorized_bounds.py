"""Randomized cross-validation of the vectorized bound kernels.

Every kernel in :mod:`repro.network.vectorized` mirrors the scalar
implementation's floating-point expression trees; these tests pin that
equivalence on seeded randomized grids covering every ``Delta`` case
(``-inf``, ``< 0``, ``0``, ``> 0``, ``+inf``), path lengths up to 32,
and mixed rates — plus the infeasible edges, where the kernels return
``inf`` for lanes on which the scalar constructors raise.
"""

import math
import random

import numpy as np
import pytest

from repro.arrivals.ebb import EBB
from repro.arrivals.mmoo import MMOOParameters
from repro.network.backlog import e2e_backlog_bound, e2e_backlog_bound_mmoo
from repro.network.e2e import (
    check_backend,
    e2e_delay_bound,
    e2e_delay_bound_at_gamma,
    e2e_delay_bound_mmoo,
    sigma_for_epsilon,
)
from repro.network.optimization import HopParameters, solve_exact
from repro.network.pernode import (
    additive_pernode_delay_bound,
    additive_pernode_delay_bound_mmoo,
)
from repro.network.vectorized import (
    _e2e_probe,
    _sigma_fast,
    e2e_delay_grid_rows,
    solve_exact_fast,
)

REL_TOL = 1e-9
DELTA_CASES = (-math.inf, -2.5, 0.0, 0.7, math.inf)


def delay_grid(through, cross, hops, capacity, delta, epsilon, gammas):
    """One-row :func:`e2e_delay_grid_rows`: the objective over a grid."""
    return e2e_delay_grid_rows(
        [through], [cross], hops, capacity, [delta], epsilon,
        np.asarray(gammas, dtype=float)[None, :],
    )[0]


def rel_diff(a: float, b: float) -> float:
    if math.isinf(a) and math.isinf(b):
        return 0.0
    return abs(a - b) / max(1.0, abs(b))


def random_hops(
    rng: random.Random, hops: int, delta: float
) -> list[HopParameters]:
    """Well-posed heterogeneous hop parameters (no saturation)."""
    return [
        HopParameters(
            service_rate=(r := rng.uniform(0.5, 20.0)) + rng.uniform(0.5, 50.0),
            cross_rate=r,
            delta=delta,
        )
        for _ in range(hops)
    ]


class TestSolveExactFast:
    def test_bitwise_equal_to_solve_exact(self):
        rng = random.Random(7)
        for _ in range(300):
            delta = rng.choice(DELTA_CASES)
            lane = random_hops(rng, rng.randint(1, 32), delta)
            sigma = rng.choice([0.0, rng.uniform(0.01, 60.0)])
            fast = solve_exact_fast(lane, sigma)
            exact = solve_exact(lane, sigma)
            assert fast.delay == exact.delay
            assert fast.x == exact.x
            assert fast.thetas == exact.thetas


class TestBatchedSigma:
    def test_matches_scalar_chain(self):
        # the probe's homogeneous sigma chain (shared by the grid rows and
        # the C kernel) against the general Eq. (33) combination
        rng = random.Random(303)
        for hops in (1, 2, 5, 17):
            through = EBB(rng.uniform(1.0, 40.0), rng.uniform(0.5, 4.0),
                          rng.uniform(0.2, 3.0))
            cross = EBB(rng.uniform(1.0, 40.0), rng.uniform(0.5, 4.0),
                        rng.uniform(0.2, 3.0))
            for g in [rng.uniform(1e-4, 2.0) for _ in range(12)]:
                got = _sigma_fast(through, cross, hops, g, 1e-9)
                expected = sigma_for_epsilon(
                    through, [cross] * hops, g, 1e-9
                )
                assert rel_diff(got, expected) <= REL_TOL

    def test_underflow_lane_is_inf(self):
        # decay * gamma underflows to 0: scalar sample_path_bound raises,
        # the grid row returns inf for the affected point only
        through = EBB(2.0, 1.0, 1e-200)
        cross = EBB(2.0, 1.0, 1e-200)
        assert math.isinf(_sigma_fast(through, cross, 3, 1e-200, 1e-9))
        with pytest.raises(ValueError):
            sigma_for_epsilon(through, [cross] * 3, 1e-200, 1e-9)
        row = delay_grid(through, cross, 3, 10.0, 0.0, 1e-9, [1e-200, 1.0])
        assert math.isinf(float(row[0]))
        assert math.isinf(
            e2e_delay_bound_at_gamma(through, cross, 3, 10.0, 0.0, 1e-9,
                                     1e-200).delay
        )
        # the second point does not underflow — the scalar chain returns
        # inf (vanishing decay) rather than raising, and the point matches
        assert math.isinf(float(row[1]))
        assert math.isinf(sigma_for_epsilon(through, [cross] * 3, 1.0, 1e-9))


class TestE2EGridAgainstScalar:
    def test_grid_matches_at_gamma_objective(self):
        rng = random.Random(404)
        for delta in DELTA_CASES:
            through = EBB(3.0, 2.0, 1.1)
            cross = EBB(4.0, 5.0, 0.9)
            capacity = 40.0
            hops = rng.randint(1, 12)
            gmax = (capacity - cross.rate - through.rate) / (hops + 1)
            gammas = np.array(
                [rng.uniform(gmax * 1e-5, gmax * 0.999) for _ in range(20)]
            )
            grid = delay_grid(
                through, cross, hops, capacity, delta, 1e-9, gammas
            )
            for g, got in zip(gammas, grid):
                expected = e2e_delay_bound_at_gamma(
                    through, cross, hops, capacity, delta, 1e-9, float(g)
                ).delay
                assert rel_diff(float(got), expected) <= REL_TOL, (delta, g)

    def test_stacked_rows_are_the_probe_bitwise(self):
        # rows of every Delta case in one call; each value is the probe
        rng = random.Random(505)
        capacity, hops = 40.0, 6
        throughs, crosses, rows = [], [], []
        for _ in DELTA_CASES:
            through = EBB(rng.uniform(1.0, 5.0), rng.uniform(1.0, 3.0), 1.1)
            cross = EBB(rng.uniform(1.0, 5.0), rng.uniform(2.0, 6.0), 0.9)
            gmax = (capacity - cross.rate - through.rate) / (hops + 1)
            throughs.append(through)
            crosses.append(cross)
            rows.append([rng.uniform(gmax * 1e-5, gmax * 1.2) for _ in range(7)])
        grid = e2e_delay_grid_rows(
            throughs, crosses, hops, capacity, DELTA_CASES, 1e-9,
            np.asarray(rows),
        )
        assert grid.shape == (len(DELTA_CASES), 7)
        for i, delta in enumerate(DELTA_CASES):
            for g, got in zip(rows[i], grid[i]):
                assert float(got) == _e2e_probe(
                    throughs[i], crosses[i], hops, capacity, delta, 1e-9, g
                ), (delta, g)

    def test_rejects_a_flat_grid(self):
        with pytest.raises(ValueError, match="lanes, grid"):
            e2e_delay_grid_rows(
                [EBB(3.0, 2.0, 1.1)], [EBB(4.0, 5.0, 0.9)], 2, 40.0, [0.0],
                1e-9, [0.1, 0.2],
            )

    def test_infeasible_cells_are_inf_on_both_paths(self):
        through = EBB(3.0, 2.0, 1.1)
        cross = EBB(4.0, 5.0, 0.9)
        # gamma beyond the Eq. (32) headroom: scalar returns _INFEASIBLE
        grid = delay_grid(through, cross, 4, 10.0, 0.0, 1e-9, [5.0])
        assert math.isinf(float(grid[0]))
        scalar = e2e_delay_bound_at_gamma(
            through, cross, 4, 10.0, 0.0, 1e-9, 5.0
        )
        assert math.isinf(scalar.delay)


class TestBackendsAgree:
    def test_e2e_delay_bound_sweep(self):
        for hops in (1, 2, 4, 8, 16, 32):
            for delta in DELTA_CASES:
                through = EBB(3.0, 2.0, 1.1)
                cross = EBB(4.0, 5.0, 0.9)
                scalar = e2e_delay_bound(
                    through, cross, hops, 60.0, delta, 1e-9,
                    gamma_grid=16, backend="scalar",
                )
                vec = e2e_delay_bound(
                    through, cross, hops, 60.0, delta, 1e-9,
                    gamma_grid=16, backend="numpy",
                )
                assert rel_diff(vec.delay, scalar.delay) <= REL_TOL
                # at a flat minimum the two searches may settle on gammas
                # a few ulps apart; the bound agrees to 1e-9, sigma looser
                assert rel_diff(vec.sigma, scalar.sigma) <= 1e-6

    def test_e2e_overloaded_is_infeasible_on_both(self):
        through = EBB(3.0, 8.0, 1.1)
        cross = EBB(4.0, 5.0, 0.9)
        for backend in ("scalar", "numpy"):
            result = e2e_delay_bound(
                through, cross, 3, 10.0, 0.0, 1e-9, backend=backend
            )
            assert not result.feasible

    def test_mmoo_cells(self):
        traffic = MMOOParameters(peak=1.5, p11=0.989, p22=0.9)
        for delta in (0.0, math.inf, -2.5):
            scalar = e2e_delay_bound_mmoo(
                traffic, 20, 40, 3, 20.0, delta, 1e-6,
                s_grid=8, gamma_grid=8, backend="scalar",
            )
            vec = e2e_delay_bound_mmoo(
                traffic, 20, 40, 3, 20.0, delta, 1e-6,
                s_grid=8, gamma_grid=8, backend="numpy",
            )
            assert rel_diff(vec.delay, scalar.delay) <= REL_TOL, delta

    def test_additive(self):
        through = EBB(3.0, 2.0, 1.1)
        cross = EBB(4.0, 5.0, 0.9)
        for hops in (1, 3, 8):
            scalar = additive_pernode_delay_bound(
                through, cross, hops, 60.0, 1e-9, backend="scalar"
            )
            vec = additive_pernode_delay_bound(
                through, cross, hops, 60.0, 1e-9, backend="numpy"
            )
            assert rel_diff(vec.delay, scalar.delay) <= REL_TOL

    def test_additive_mmoo(self):
        traffic = MMOOParameters(peak=1.5, p11=0.989, p22=0.9)
        scalar = additive_pernode_delay_bound_mmoo(
            traffic, 20, 20, 3, 20.0, 1e-6,
            s_grid=6, gamma_grid=6, backend="scalar",
        )
        vec = additive_pernode_delay_bound_mmoo(
            traffic, 20, 20, 3, 20.0, 1e-6,
            s_grid=6, gamma_grid=6, backend="numpy",
        )
        assert rel_diff(vec.delay, scalar.delay) <= REL_TOL

    def test_backlog(self):
        through = EBB(3.0, 2.0, 1.1)
        cross = EBB(4.0, 5.0, 0.9)
        for delta in (0.0, math.inf):
            scalar = e2e_backlog_bound(
                through, cross, 3, 60.0, delta, 1e-9,
                gamma_grid=8, backend="scalar",
            )
            vec = e2e_backlog_bound(
                through, cross, 3, 60.0, delta, 1e-9,
                gamma_grid=8, backend="numpy",
            )
            assert rel_diff(vec.backlog, scalar.backlog) <= REL_TOL

    def test_backlog_mmoo(self):
        traffic = MMOOParameters(peak=1.5, p11=0.989, p22=0.9)
        scalar = e2e_backlog_bound_mmoo(
            traffic, 20, 40, 2, 20.0, 0.0, 1e-6,
            s_grid=4, gamma_grid=4, backend="scalar",
        )
        vec = e2e_backlog_bound_mmoo(
            traffic, 20, 40, 2, 20.0, 0.0, 1e-6,
            s_grid=4, gamma_grid=4, backend="numpy",
        )
        assert rel_diff(vec.backlog, scalar.backlog) <= REL_TOL


class TestBackendValidation:
    def test_check_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            check_backend("cupy")

    def test_entry_points_reject_unknown_backend(self):
        through = EBB(3.0, 2.0, 1.1)
        cross = EBB(4.0, 5.0, 0.9)
        with pytest.raises(ValueError, match="unknown backend"):
            e2e_delay_bound(
                through, cross, 2, 60.0, 0.0, 1e-9, backend="bogus"
            )
        with pytest.raises(ValueError, match="unknown backend"):
            additive_pernode_delay_bound(
                through, cross, 2, 60.0, 1e-9, backend="bogus"
            )
        with pytest.raises(ValueError, match="unknown backend"):
            e2e_backlog_bound(
                through, cross, 2, 60.0, 0.0, 1e-9, backend="bogus"
            )
