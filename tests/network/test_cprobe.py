"""The generated-C probe kernel mirrors the Python objective bitwise.

The lane engine (``repro.network.lanes``) only stays bitwise-equal to
the per-cell searches if the kernel returns the exact doubles of the
Python reference: :func:`repro.network.cprobe.probe_values` those of
:func:`repro.network.vectorized._e2e_probe`,
:func:`repro.network.cprobe.golden_values` the iterates of
:func:`repro.utils.numeric.golden_section_min` over that probe, and
:func:`repro.network.cprobe.gamma_values` /
:func:`repro.network.cprobe.mmoo_gamma_values` the whole
:func:`repro.utils.numeric.grid_then_golden` gamma search.  These tests
check all of them over randomized contexts spanning every ``Delta``
case and a wide hop range.  When no C compiler is available the module
falls back to the Python loops, which are trivially identical — the
randomized checks still run (the CI no-compiler leg runs this file), and
a dedicated test asserts the compiled kernel is actually present
wherever a compiler is, so CI notices a silently broken toolchain.
"""

import math
import os
import random
import shutil
import subprocess
import sys

import pytest

from repro.arrivals.mmoo import MMOOParameters
from repro.network import cprobe
from repro.network.cprobe import (
    LaneTable,
    ProbeTable,
    gamma_values,
    golden_values,
    mmoo_gamma_values,
    probe_values,
)
from repro.network.e2e import _max_feasible_s, mmoo_ebb_pair
from repro.network.vectorized import _e2e_probe, _sigma_fast, _sweep_homogeneous
from repro.utils.numeric import golden_section_min, grid_then_golden

DELTAS = (0.0, 1.0, -9.0, math.inf, -math.inf)

#: the Python fallback of mmoo_gamma_values, the reference of its kernel
_mmoo_python = cprobe._mmoo_gamma_python


def _random_contexts(rng, n):
    """Register ``n`` random feasible contexts; returns (table, raw)."""
    table = ProbeTable()
    raw = []
    for _ in range(n):
        traffic = MMOOParameters(
            peak=rng.uniform(1.0, 2.0),
            p11=rng.uniform(0.95, 0.995),
            p22=rng.uniform(0.85, 0.95),
        )
        n_through = rng.randint(1, 200)
        n_cross = rng.randint(0, 200)
        capacity = 100.0
        s = rng.uniform(1e-3, 0.5)
        through, cross = mmoo_ebb_pair(traffic, n_through, n_cross, s)
        if capacity - cross.rate - through.rate <= 0.0:
            continue
        hops = rng.choice((1, 2, 10, 30))
        delta = rng.choice(DELTAS)
        epsilon = rng.choice((1e-3, 1e-6, 1e-9))
        index = table.add(through, cross, hops, capacity, delta, epsilon)
        raw.append((index, through, cross, hops, capacity, delta, epsilon))
    return table, raw


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
def test_compiled_kernel_available():
    """The container has a C compiler, so the kernel must compile."""
    assert cprobe.available(), (
        "generated-C probe kernel failed to compile; the lane engine "
        "would silently run on the slow Python fallback"
    )


def test_probe_values_bitwise_random():
    rng = random.Random(7)
    table, raw = _random_contexts(rng, 120)
    indices, gammas, expected = [], [], []
    for index, through, cross, hops, capacity, delta, epsilon in raw:
        gamma_max = (capacity - cross.rate - through.rate) / (hops + 1)
        for _ in range(4):
            gamma = rng.uniform(1e-6, 1.2) * gamma_max
            indices.append(index)
            gammas.append(gamma)
            expected.append(
                _e2e_probe(
                    through, cross, hops, capacity, delta, epsilon, gamma
                )
            )
    got = probe_values(table, indices, gammas)
    assert len(got) == len(expected)
    for value, reference in zip(got, expected):
        if math.isinf(reference):
            assert math.isinf(value)
        else:
            # bitwise: the engine's comparisons must see the same doubles
            assert value == reference


def test_golden_values_bitwise_random():
    rng = random.Random(11)
    table, raw = _random_contexts(rng, 40)
    indices, los, his, expected = [], [], [], []
    for index, through, cross, hops, capacity, delta, epsilon in raw:
        gamma_max = (capacity - cross.rate - through.rate) / (hops + 1)

        def objective(g, args=(through, cross, hops, capacity, delta, epsilon)):
            return _e2e_probe(*args, g)

        lo = rng.uniform(0.0, 0.4) * gamma_max
        hi = rng.uniform(0.5, 0.999) * gamma_max
        indices.append(index)
        los.append(lo)
        his.append(hi)
        expected.append(golden_section_min(objective, lo, hi, tol=1e-9))
    xs, fs = golden_values(table, indices, los, his, tol=1e-9)
    for i in range(len(indices)):
        x_ref, f_ref = expected[i]
        assert xs[i] == x_ref, (i, xs[i], x_ref)
        if math.isinf(f_ref):
            assert math.isinf(fs[i])
        else:
            assert fs[i] == f_ref, (i, fs[i], f_ref)


def test_deep_path_falls_back_to_python():
    """Hop counts beyond the C kernel's bound use the Python fallback."""
    rng = random.Random(3)
    traffic = MMOOParameters.paper_defaults()
    through, cross = mmoo_ebb_pair(traffic, 50, 50, 0.01)
    table = ProbeTable()
    hops = 5000  # > MAX_HOPS: C returns NaN, wrapper must recompute
    index = table.add(through, cross, hops, 100.0, 0.0, 1e-9)
    gamma_max = (100.0 - cross.rate - through.rate) / (hops + 1)
    gamma = 0.5 * gamma_max
    got = probe_values(table, [index], [gamma])
    reference = _e2e_probe(through, cross, hops, 100.0, 0.0, 1e-9, gamma)
    assert not math.isnan(got[0])
    assert got[0] == reference


@pytest.mark.parametrize("hops", [25, 100, 700])
@pytest.mark.parametrize("delta", DELTAS)
def test_long_path_probes_bitwise(delta, hops):
    """Long paths sort their sweep events in merged runs."""
    rng = random.Random(hops)
    traffic = MMOOParameters.paper_defaults()
    through, cross = mmoo_ebb_pair(traffic, 100, 100, 0.02)
    table = ProbeTable()
    index = table.add(through, cross, hops, 100.0, delta, 1e-9)
    gamma_max = (100.0 - cross.rate - through.rate) / (hops + 1)
    gammas = [rng.uniform(1e-6, 1.0) * gamma_max for _ in range(20)]
    got = probe_values(table, [index] * len(gammas), gammas)
    for gamma, value in zip(gammas, got):
        assert value == _e2e_probe(
            through, cross, hops, 100.0, delta, 1e-9, gamma
        )


@pytest.mark.parametrize("delta", DELTAS)
def test_probe_every_delta_case(delta):
    traffic = MMOOParameters.paper_defaults()
    through, cross = mmoo_ebb_pair(traffic, 100, 100, 0.02)
    table = ProbeTable()
    index = table.add(through, cross, 10, 100.0, delta, 1e-9)
    gamma_max = (100.0 - cross.rate - through.rate) / 11
    gammas = [0.1 * gamma_max, 0.5 * gamma_max, 0.9 * gamma_max]
    got = probe_values(table, [index] * len(gammas), gammas)
    for gamma, value in zip(gammas, got):
        assert value == _e2e_probe(
            through, cross, 10, 100.0, delta, 1e-9, gamma
        )


def _same(got, want):
    """Bitwise equality, NaN matching NaN."""
    return got == want or (math.isnan(got) and math.isnan(want))


@pytest.fixture
def kernel_only(monkeypatch):
    """Fail any request the compiled kernel hands back to Python, so the
    comparisons below really compare C against Python."""
    if not cprobe.available():
        return

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel sent a request back to Python")

    monkeypatch.setattr(cprobe, "_gamma_python", refuse)
    monkeypatch.setattr(cprobe, "_mmoo_gamma_python", refuse)


def _gamma_reference(through, cross, hops, capacity, delta, epsilon, grid):
    gamma_max = (capacity - cross.rate - through.rate) / (hops + 1)
    return grid_then_golden(
        lambda g: _e2e_probe(
            through, cross, hops, capacity, delta, epsilon, g
        ),
        gamma_max * 1e-6,
        gamma_max * (1.0 - 1e-9),
        grid_points=grid,
        log_spaced=True,
    )


@pytest.mark.parametrize("grid", [3, 24, 48])
def test_gamma_values_equal_grid_then_golden(grid, kernel_only):
    rng = random.Random(17 + grid)
    table, raw = _random_contexts(rng, 40)
    indices = [entry[0] for entry in raw]
    gammas, delays = gamma_values(table, indices, grid)
    for (index, *context), gamma, delay in zip(raw, gammas, delays):
        want_gamma, want_delay = _gamma_reference(*context, grid)
        assert gamma == want_gamma, (index, gamma, want_gamma)
        assert delay == want_delay, (index, delay, want_delay)


def test_gamma_values_small_grid_raises():
    table, raw = _random_contexts(random.Random(5), 10)
    with pytest.raises(ValueError, match="grid_points must be >= 3"):
        gamma_values(table, [raw[0][0]], 2)


def _random_lanes(rng, n):
    """Register ``n`` random MMOO lanes; returns (table, lanes), each
    lane ``(index, traffic, n_through, n_cross, hops, capacity, delta,
    epsilon, grid)``."""
    table = LaneTable()
    lanes = []
    for _ in range(n):
        traffic = MMOOParameters(
            peak=rng.uniform(1.0, 2.0),
            p11=rng.uniform(0.95, 0.995),
            p22=rng.uniform(0.85, 0.95),
        )
        args = (
            traffic,
            rng.randint(1, 200),
            rng.choice((0, rng.randint(1, 200))),
            rng.choice((1, 2, 10, 30)),
            100.0,
            rng.choice(DELTAS),
            rng.choice((1e-3, 1e-6, 1e-9)),
            rng.choice((3, 8, 24)),
        )
        lanes.append((table.add(*args), *args))
    return table, lanes


def test_mmoo_gamma_values_equal_python_fallback(kernel_only):
    """Randomized lanes x s, every Delta case and H in {1, 2, 10, 30},
    n_cross = 0 included: the kernel's EBB pair and gamma search equal
    the Python fallback bitwise, gamma and delay."""
    rng = random.Random(23)
    table, lanes = _random_lanes(rng, 60)
    indices, ss = [], []
    for index, traffic, n_through, n_cross, _, capacity, *_ in lanes:
        s_max = _max_feasible_s(
            traffic, n_through + max(n_cross, 1), capacity
        )
        for fraction in (1e-4, rng.uniform(1e-3, 0.999), 1.0 - 1e-9):
            indices.append(index)
            ss.append(fraction * s_max)
    gammas, delays = mmoo_gamma_values(table, indices, ss)
    want_gammas, want_delays = _mmoo_python(table, indices, ss)
    assert any(math.isfinite(d) for d in delays)
    for i in range(len(indices)):
        assert _same(gammas[i], want_gammas[i]), (i, gammas[i])
        assert _same(delays[i], want_delays[i]), (i, delays[i])


def test_mmoo_gamma_values_match_the_ebb_pair_search():
    """A lane at ``s`` searches the EBB pair ``mmoo_ebb_pair`` gives."""
    traffic = MMOOParameters.paper_defaults()
    table = LaneTable()
    for n_cross in (0, 80):
        index = table.add(traffic, 60, n_cross, 5, 100.0, 0.0, 1e-9, 24)
        (gamma,), (delay,) = mmoo_gamma_values(table, [index], [0.05])
        through, cross = mmoo_ebb_pair(traffic, 60, n_cross, 0.05)
        assert (gamma, delay) == _gamma_reference(
            through, cross, 5, 100.0, 0.0, 1e-9, 24
        )


def test_mmoo_gamma_values_without_headroom():
    """Past ``s_max`` the rates exceed the capacity: delay inf and a
    NaN (nothing searched) gamma, from the kernel and the fallback."""
    traffic = MMOOParameters.paper_defaults()
    table = LaneTable()
    index = table.add(traffic, 300, 300, 10, 100.0, 1.0, 1e-9, 24)
    s_max = _max_feasible_s(traffic, 600, 100.0)
    ss = [s_max * 1.5, s_max * 3.0]
    for gammas, delays in (
        mmoo_gamma_values(table, [index] * 2, ss),
        _mmoo_python(table, [index] * 2, ss),
    ):
        assert all(math.isnan(g) for g in gammas)
        assert all(d == math.inf for d in delays)


def test_mmoo_deep_lane_falls_back_to_python():
    """A lane beyond MAX_HOPS is searched in Python, not dropped."""
    traffic = MMOOParameters.paper_defaults()
    table = LaneTable()
    hops = cprobe.MAX_HOPS + 100
    index = table.add(traffic, 50, 50, hops, 100.0, 0.0, 1e-9, 4)
    (gamma,), (delay,) = mmoo_gamma_values(table, [index], [0.01])
    through, cross = mmoo_ebb_pair(traffic, 50, 50, 0.01)
    assert not math.isnan(delay)
    assert (gamma, delay) == _gamma_reference(
        through, cross, hops, 100.0, 0.0, 1e-9, 4
    )


def test_sweep_event_ties_sort_like_python():
    """Breakpoints at one ``x`` with different slope changes: with
    ``Delta = -sigma / C`` every hop puts an event at ``x = -Delta``
    (hop 0 two, with changes 0 and r / C), so the sort's tie order is
    exercised, on short paths (insertion sort only) and long ones
    (merged runs); the kernel must equal ``_sweep_homogeneous``."""
    traffic = MMOOParameters.paper_defaults()
    through, cross = mmoo_ebb_pair(traffic, 100, 100, 0.02)
    capacity, epsilon = 100.0, 1e-9
    for hops in (1, 2, 10, 30, 300):
        gamma = 0.3 * (capacity - cross.rate - through.rate) / (hops + 1)
        sigma = _sigma_fast(through, cross, hops, gamma, epsilon)
        delta = -(sigma / capacity)
        table = ProbeTable()
        index = table.add(through, cross, hops, capacity, delta, epsilon)
        (got,) = probe_values(table, [index], [gamma])
        want, _ = _sweep_homogeneous(
            capacity, cross.rate + gamma, delta, sigma, hops, gamma
        )
        assert got == want
        assert got == _e2e_probe(
            through, cross, hops, capacity, delta, epsilon, gamma
        )


_COLD_START = """
import sys
from repro.network import cprobe
print("ready", flush=True)
sys.stdin.readline()
print(cprobe.available(), flush=True)
"""


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
def test_concurrent_cold_compiles_all_succeed(tmp_path):
    """Processes compiling into one fresh cache directory at the same
    time must all end up with the compiled kernel, not the fallback."""
    env = {
        **os.environ,
        "REPRO_CPROBE_DIR": str(tmp_path),
        "PYTHONPATH": os.pathsep.join(sys.path),
    }
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _COLD_START],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        for _ in range(3)
    ]
    try:
        for proc in procs:  # every process is up before any compiles
            assert proc.stdout.readline().strip() == "ready"
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        outputs = [proc.communicate(timeout=120)[0] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
    assert [out.strip() for out in outputs] == ["True"] * len(procs)
    # the shared object is the only file left behind
    assert [p.suffix for p in tmp_path.iterdir()] == [".so"]
