"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each workload runs end to end at its ``--tiny`` size, untraced and
traced; the result line must carry every metric of ``BENCHMARK.json``
with its unit.  Two tests inject wrong answers -- a corrupted reference
and a service that flips its verdicts -- into a copy of the checkout and
expect the failures to show in ``failed`` and ``error_rate``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from common import ROOT, SRC, same_value, tail_percentile

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(root, workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    result, stdout = run_bench(ROOT, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert "error_rate 0 " in stdout
    assert '"cprobe": "c"' in stdout or "Python fallback" in stdout
    if trace:
        assert "per-layer time" in stdout and "trace.overhead_pct" in stdout
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def copy_checkout(tmp_path, copy_src: bool = False):
    root = tmp_path / "checkout"
    shutil.copytree(ROOT / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    if copy_src:
        shutil.copytree(SRC, root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    else:
        (root / "src").symlink_to(SRC)
    return root


def test_wrong_figure_rows_raise_error_rate(tmp_path):
    root = copy_checkout(tmp_path)
    path = root / "perfbench" / "reference" / "figures.json"
    reference = json.loads(path.read_text())
    for cell in reference["cells"].values():
        cell["rows"][0]["delay"] *= 1.0 + 1e-6
    path.write_text(json.dumps(reference))
    result, stdout = run_bench(root, "figures", 0)
    assert result["correct"] is False and result["failed"] > 0
    assert "error_rate 0 " not in stdout


def test_wrong_verdicts_raise_error_rate(tmp_path):
    root = copy_checkout(tmp_path, copy_src=True)
    app = root / "src" / "repro" / "service" / "api" / "app.py"
    text = app.read_text()
    assert '"admissible": admissible,' in text
    app.write_text(text.replace('"admissible": admissible,', '"admissible": not admissible,'))
    result, stdout = run_bench(root, "service", 0)
    assert result["correct"] is False and result["failed"] > 0
    assert "error_rate 0 " not in stdout


def test_run_refuses_a_directory_without_the_program(tmp_path):
    root = tmp_path / "bare"
    shutil.copytree(ROOT / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    assert tail_percentile(values, 0.9) == (0.9, 90.0)
    assert tail_percentile(values, 0.99)[0] == pytest.approx(0.9)
    assert tail_percentile(list(range(1, 2001)), 0.99) == (0.99, 1980.0)


def test_same_value_is_bitwise_unless_a_tolerance_is_given():
    assert same_value({"a": [1.0, float("inf")]}, {"a": (1.0, float("inf"))})
    assert not same_value(0.1 + 0.2, 0.3)
    assert same_value(0.1 + 0.2, 0.3, 1e-9)
    assert not same_value(float("inf"), 1e308, 1e-9)
    assert same_value(float("nan"), float("nan"))
    assert not same_value(True, 1)


def test_self_time_subtracts_the_union_of_children():
    import spans

    spans_ = [
        [1, 0, "experiments.sweep", "sweep.run_sweep", 0.0, 10.0, None, None, None, None],
        [2, 1, "network.lanes", "lanes.edf_bound_lanes", 1.0, 9.0, None, None, None, None],
        [3, 2, "network.cprobe", "cprobe.golden_values", 2.0, 4.0, None, None, None, {"probes": 5}],
        [4, 2, "network.vectorized", "vectorized.e2e_delay_grid_rows", 3.0, 6.0, None, None, None, None],
    ]
    metrics, table = spans.summarize(spans_)
    assert table["experiments.sweep"]["self_s"] == pytest.approx(2.0)
    assert table["network.lanes"]["self_s"] == pytest.approx(4.0)
    assert table["network.lanes"]["total_s"] == pytest.approx(8.0)
    assert metrics["network.cprobe.probes"] == 5
    assert sum(metrics[f"{layer}.share"] for layer in spans.LAYERS) == pytest.approx(1.0)


def test_install_rebinds_names_imported_with_from():
    sys.path.insert(0, str(SRC))
    import spans
    from repro.experiments import batch
    from repro.network import lanes
    from repro.simulation import engine

    original = lanes.edf_bound_lanes
    recorder = spans.Recorder()
    restore = spans.install(recorder)
    try:
        assert batch.edf_bound_lanes is lanes.edf_bound_lanes
        assert batch.edf_bound_lanes is not original
        assert engine.run_tandem_vectorized.__wrapped__ is not None
    finally:
        restore()
    assert batch.edf_bound_lanes is original


def test_speed_clock_leaves_probes_out_of_wall_time():
    import time

    from common import PROBE_GAP_S, SpeedClock

    start = time.perf_counter()
    with SpeedClock() as clock:
        while time.perf_counter() - start < 2.5 * PROBE_GAP_S:
            sum(range(1000))
    total = time.perf_counter() - start
    assert clock.probe_s > 0.0 and clock.scaled > 0.0
    assert clock.wall + clock.probe_s == pytest.approx(total, rel=0.05)
    with SpeedClock(probing=False) as plain:
        time.sleep(0.05)
    assert plain.probe_s == 0.0 and plain.scaled == 0.0 and plain.wall >= 0.05


def test_scaled_cold_rescales_between_the_probes_in_the_window():
    from common import PROBE_REF_S
    from service import scaled_cold

    slow = 2.0 * PROBE_REF_S
    probes = [
        [0.0, 0.5, PROBE_REF_S], [10.0, 10.5, slow], [14.5, 15.0, slow],
        [19.0, 19.5, PROBE_REF_S], [30.0, 30.5, slow],
    ]
    wall, scaled = scaled_cold((9.0, 20.0), probes)
    assert wall == pytest.approx(9.5)  # three probes in the window left out
    # 1 s before the first probe and 4 s between two slow ones count
    # half; 4 s between a slow and a fast one count 2/3; 0.5 s after
    # the last probe count as measured
    assert scaled == pytest.approx(0.5 + 2.0 + 4.0 * 2.0 / 3.0 + 0.5)
    assert scaled_cold((40.0, 41.0), probes) == (1.0, 1.0)
