"""Frozen numpy-backend results, compared bit for bit.

The numpy backend of :func:`~repro.network.e2e.e2e_delay_bound`,
:func:`~repro.network.e2e.e2e_delay_bound_mmoo` and
:func:`~repro.network.e2e.e2e_delay_bound_edf` runs the lane engine of
:mod:`repro.network.lanes`.  This suite pins its results — delay,
gamma, alpha, sigma, x and every theta as ``float.hex``, plus the EDF
deadline gap and fixed-point diagnostics — over the seeded random
cases of ``tests/experiments/test_batch_equivalence.py``: every
``Delta`` case (FIFO, BMUX, SP, finite positive and negative) at
``H in {1, 2, 10, 30}``.  The fixture was recorded from the per-cell
numpy search the lane engine replaced, so it is the numpy reference.

A second group of cases sits on the paper's Section V setting, chosen
where the old numpy gamma grid and the scalar probe disagree by an ulp
at some grid point, so a grid-value change that flips a comparison in
the search shows up here: FIFO lanes at ``H in {2, 5, 10}`` over the
Fig. 2 utilizations, ``Delta < 0`` and ``Delta = +inf`` lanes, and the
EDF lanes of the quick Fig. 3 grid.

Regenerate only for an intentional numeric change, and review the diff::

    PYTHONPATH=src python tests/network/test_numpy_reference.py --regen
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

from repro.arrivals.mmoo import MMOOParameters
from repro.experiments import example2
from repro.experiments.config import FULL_GRIDS, QUICK_GRIDS, paper_setting
from repro.network.e2e import (
    e2e_delay_bound,
    e2e_delay_bound_edf,
    e2e_delay_bound_mmoo,
    mmoo_ebb_pair,
)

FIXTURE = Path(__file__).parent / "golden" / "numpy_reference.json"

HOPS = (1, 2, 10, 30)
CAPACITY = 100.0
#: Delta per scheduler of the mmoo cases (the non-EDF schedulers).
MMOO_DELTAS = {"FIFO": 0.0, "BMUX": math.inf, "SP": -math.inf}
#: Delta values of the fixed-EBB cases: one per Eq. (38) case, with
#: both sides of zero for the finite ones.
EBB_DELTAS = (0.0, math.inf, -math.inf, -2.5, 1.5)

#: Section V lanes: N_0 = 100 through flows, cross flows up to the
#: utilization.  (label, Delta, H, utilization, grids); every H = 5 and
#: H = 10 FIFO lane and each listed Delta < 0 / +inf lane has grid
#: points where the numpy grid and the probe differ by an ulp.
PAPER_LANES = tuple(
    ("FIFO", 0.0, hops, utilization, FULL_GRIDS)
    for hops in (2, 5, 10)
    for utilization in (0.35, 0.5, 0.65, 0.8, 0.95)
) + (
    ("BMUX", math.inf, 2, 0.35, FULL_GRIDS),
    ("BMUX", math.inf, 5, 0.55, FULL_GRIDS),
    ("BMUX", math.inf, 2, 0.6, QUICK_GRIDS),
    ("BMUX", math.inf, 10, 0.6, QUICK_GRIDS),
    ("D-9", -9.0, 2, 0.65, FULL_GRIDS),
    ("D-9", -9.0, 10, 0.2, FULL_GRIDS),
    ("D-2.5", -2.5, 2, 0.65, FULL_GRIDS),
    ("D-2.5", -2.5, 5, 0.35, QUICK_GRIDS),
    ("D-2.5", -2.5, 10, 0.5, QUICK_GRIDS),
)


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


def _cases():
    """name -> zero-argument callable returning the numpy result."""
    cases = {}
    rng = random.Random(42)
    for scheduler, delta in MMOO_DELTAS.items():
        for hops in HOPS:
            traffic, n_through, n_cross, epsilon = _random_case(rng)
            args = (traffic, n_through, n_cross, hops, CAPACITY, delta, epsilon)
            cases[f"mmoo-{scheduler}-H{hops}"] = (
                lambda args=args: e2e_delay_bound_mmoo(
                    *args, s_grid=8, gamma_grid=8, backend="numpy"
                )
            )
            # fixed EBB pair: the mmoo envelopes at a mid-range s
            s = 0.05 / traffic.peak
            through, cross = mmoo_ebb_pair(traffic, n_through, n_cross, s)
            for index, ebb_delta in enumerate(EBB_DELTAS):
                ebb_args = (through, cross, hops, CAPACITY, ebb_delta, epsilon)
                cases[f"ebb-{scheduler}-H{hops}-d{index}"] = (
                    lambda ebb_args=ebb_args: e2e_delay_bound(
                        *ebb_args, backend="numpy"
                    )
                )
    setting = paper_setting()
    for label, delta, hops, utilization, grid in PAPER_LANES:
        n_cross = setting.flows_for_utilization(utilization) - 100
        args = (
            setting.traffic, 100, n_cross, hops, setting.capacity, delta,
            setting.epsilon,
        )
        cases[f"paper-{label}-H{hops}-u{utilization:g}-g{grid['s_grid']}"] = (
            lambda args=args, grid=grid: e2e_delay_bound_mmoo(
                *args, **grid, backend="numpy"
            )
        )
    # the EDF cells of the quick Fig. 3 grid (example2.fig3_cell)
    n_total = setting.flows_for_utilization(example2.TOTAL_UTILIZATION)
    for variant, (w_through, w_cross) in example2.EDF_WEIGHTS.items():
        for hops in example2.DEFAULT_HOPS:
            for mix in example2.DEFAULT_MIXES:
                n_cross = round(mix * n_total)
                args = (
                    setting.traffic, max(n_total - n_cross, 1), n_cross,
                    hops, setting.capacity, setting.epsilon,
                )
                kwargs = dict(
                    deadline_weight_through=w_through,
                    deadline_weight_cross=w_cross,
                    **QUICK_GRIDS,
                    backend="numpy",
                    on_nonconvergence="ignore",
                )
                name = f"fig3-{variant.replace(' ', '_')}-H{hops}-mix{mix:g}"
                cases[name] = (
                    lambda args=args, kwargs=kwargs: e2e_delay_bound_edf(
                        *args, **kwargs
                    )
                )
    rng = random.Random(1)
    for hops in HOPS:
        traffic, n_through, n_cross, epsilon = _random_case(rng)
        w_through = rng.choice((1.0, 2.0))
        w_cross = rng.choice((1.0, 10.0))
        args = (traffic, n_through, n_cross, hops, CAPACITY, epsilon)
        kwargs = dict(
            deadline_weight_through=w_through,
            deadline_weight_cross=w_cross,
            s_grid=8,
            gamma_grid=8,
            backend="numpy",
            on_nonconvergence="ignore",
        )
        cases[f"edf-H{hops}-w{w_through:g}-{w_cross:g}"] = (
            lambda args=args, kwargs=kwargs: e2e_delay_bound_edf(
                *args, **kwargs
            )
        )
    return cases


CASES = _cases()


def _freeze_result(result) -> dict:
    return {
        "delay": result.delay.hex(),
        "gamma": float(result.gamma).hex(),
        "alpha": float(result.alpha).hex(),
        "sigma": result.sigma.hex(),
        "x": float(result.x).hex(),
        "thetas": [float(t).hex() for t in result.thetas],
        "method": result.method,
    }


def freeze(value) -> dict:
    """The fixture record of one entry point's return value."""
    if hasattr(value, "diagnostics"):
        return {
            "result": _freeze_result(value.result),
            "delta": float(value.delta).hex(),
            "iterations": value.diagnostics.iterations,
            "residual": float(value.diagnostics.residual).hex(),
            "converged": value.diagnostics.converged,
        }
    return {"result": _freeze_result(value)}


def _load() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_numpy_backend_matches_frozen_reference(name):
    want = _load()[name]
    assert freeze(CASES[name]()) == want


def test_fixture_covers_every_case():
    assert sorted(_load()) == sorted(CASES)


def _regen() -> None:
    payload = {name: freeze(compute()) for name, compute in sorted(CASES.items())}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(payload)} cases to {FIXTURE}")


if __name__ == "__main__":
    if "--regen" in sys.argv[1:]:
        _regen()
    else:
        print(__doc__)
