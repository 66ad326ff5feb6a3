"""Helpers shared by the benchmark runner (``run.py``) and its workers.

Stdlib only: the runner and the load generator must not import the
program (or numpy) before the timed phases, so that their own start-up
and CPU use stay out of what they measure.
"""

from __future__ import annotations

import functools
import json
import math
import os
import resource
import shutil
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

#: The checkout root: this file lives in ``<root>/perfbench/``.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference" / "figures.json"
#: Scratch space for caches, compiled probes and span files; removed
#: when a run ends.
WORK_ROOT = ROOT / ".perfbench_runs"

#: Launches per run whose set-up time is measured; ``setup_s`` is
#: their median.
SETUP_SAMPLES = 7

#: Golden-fixture tolerance of the figure rows (tests/experiments).
REL_TOL = 1e-9

#: The host-speed probe: the geometric mean of the times of a fixed
#: pure-Python loop, which slows when the core runs slower, and of a
#: numpy gather of random elements from an 8 MB array, which slows
#: more when other tenants contend for caches and memory; each is the
#: best of ``PROBE_REPEATS``.  The sweeps' slowdown lies between the
#: two.  ``PROBE_REF_S`` is the probe's time on an uncontended core of
#: the 2-vCPU VM the benchmark was built on (about its 5th percentile
#: there).
PROBE_LOOPS = 40_000
PROBE_ARRAY = 1_000_000
PROBE_GATHER = 262_144
PROBE_REPEATS = 2
PROBE_REF_S = 0.0020
#: Probe interval while a ``SpeedClock`` runs; ``serve.py`` probes
#: before a solve when the last probe is this old.
PROBE_GAP_S = 0.5


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, dead worker)."""


def check_checkout() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    if not REFERENCE.is_file():
        raise BenchError(f"missing reference rows {REFERENCE}")


def child_env(work: Path, cprobe_dir: Path | None = None) -> dict[str, str]:
    """Environment of a program process: sources from this checkout only.

    ``REPRO_CPROBE_DIR`` points at a fresh directory so each launch pays
    (and measures) the C probe compile; ``TMPDIR`` keeps every other
    temporary file inside the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONNOUSERSITE"] = "1"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    if cprobe_dir is not None:
        cprobe_dir.mkdir(parents=True, exist_ok=True)
        env["REPRO_CPROBE_DIR"] = str(cprobe_dir)
    return env


def make_work_dir() -> Path:
    work = WORK_ROOT / f"run-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    return work


def remove_work_dir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when no concurrent run still uses it
    except OSError:
        pass


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> int:
    """SIGTERM, then SIGKILL after ``timeout``; always reaps the child."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


@functools.lru_cache(maxsize=None)
def _probe_arrays():
    import numpy as np

    indices = np.random.default_rng(0).integers(0, PROBE_ARRAY, PROBE_GATHER)
    return np.linspace(0.1, 5.0, PROBE_ARRAY), indices.astype(np.int32)


def probe() -> float:
    """Seconds the host now takes for the probe (lower is faster).

    The first call allocates the probe's arrays (about 9 MB, kept for
    the life of the process) and imports numpy; only processes that run
    the program, which imports it anyway, probe.
    """
    values, indices = _probe_arrays()
    loop = gather = math.inf
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        total = 0.0
        for i in range(PROBE_LOOPS):
            total += i * 0.5
        middle = time.perf_counter()
        values[indices].sum()
        end = time.perf_counter()
        loop, gather = min(loop, middle - start), min(gather, end - middle)
    return math.sqrt(loop * gather)


class SpeedClock:
    """Wall time of some work, and the same time at the reference speed.

    On a shared host the same CPU-bound work takes from 1x to 1.8x its
    best time, in phases of seconds.  While the clock runs (``with``
    block, main thread only), an interval timer probes the host speed
    every ``PROBE_GAP_S``: the signal handler runs between the work's
    own bytecodes, on its thread.  The wall time between two probes is
    added to ``wall`` and, multiplied by ``PROBE_REF_S`` over the mean
    of the two probes, to ``scaled``.  Time spent probing is counted in
    neither, only in ``probe_s``.  With ``probing=False`` (traced
    passes, whose spans must not contain probes) ``scaled`` stays 0.
    """

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        self.wall = self.scaled = self.probe_s = 0.0

    def __enter__(self) -> "SpeedClock":
        self._speed = self._probe()
        self._mark = time.perf_counter()
        if self.probing:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_GAP_S, PROBE_GAP_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def _probe(self) -> float:
        if not self.probing:
            return math.inf
        start = time.perf_counter()
        speed = probe()
        self.probe_s += time.perf_counter() - start
        return speed

    def _tick(self, *signal_args) -> None:
        segment = time.perf_counter() - self._mark
        speed = self._probe()
        self.wall += segment
        self.scaled += segment * 2.0 * PROBE_REF_S / (self._speed + speed)
        self._speed = speed
        self._mark = time.perf_counter()

    def elapsed(self) -> float:
        """Wall time so far, probes excluded."""
        return self.wall + time.perf_counter() - self._mark


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def tail_percentile(values: Sequence[float], wanted: float) -> tuple[float, float]:
    """``(p, value)``: the highest percentile up to ``wanted`` (e.g. 0.9)
    that still has at least ten samples beyond it, and its value."""
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    p = min(wanted, max(0.5, 1.0 - 10.0 / n))
    return p, quantile(values, p)


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def same_value(a: Any, b: Any, rel_tol: float = 0.0) -> bool:
    """Structural equality; floats bitwise (``rel_tol=0``) or relative.

    NaN equals NaN and infinities must match exactly, so an answer that
    turns infinite or NaN never passes as close.
    """
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if rel_tol == 0.0 or math.isinf(a) or math.isinf(b):
            return struct.pack("<d", a) == struct.pack("<d", b)
        return abs(a - b) <= rel_tol * max(abs(a), abs(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            same_value(a[k], b[k], rel_tol) for k in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            same_value(x, y, rel_tol) for x, y in zip(a, b)
        )
    return a == b


def emit(obj: Any) -> None:
    """One JSON line on stdout (the worker -> runner channel)."""
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()
