"""Tests for the content-keyed on-disk cell cache."""

import json
import math
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.experiments.cache import CellCache
from repro.experiments.sweep import Cell, SweepSpec, cell_key, run_sweep

PROBE = "repro.experiments.sweep:probe_cell"


def probe_spec(tmp_path, values, settings=None):
    record = str(tmp_path / "executions.log")
    cells = [
        Cell.make(PROBE, value=float(v), record=record) for v in values
    ]
    return (
        SweepSpec.build("probe", cells, settings=settings or {}),
        tmp_path / "executions.log",
    )


def executions(log):
    return len(log.read_text().splitlines()) if log.exists() else 0


class TestCellCache:
    def test_roundtrip(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        payload = {"rows": [{"x": 1.0, "delay": math.inf}], "diagnostics": {}}
        cache.put("a" * 64, payload)
        hit = cache.get("a" * 64)
        assert hit["rows"][0]["delay"] == math.inf
        assert hit == json.loads(json.dumps(payload))

    def test_miss_on_absent(self, tmp_path):
        assert CellCache(tmp_path / "cache").get("b" * 64) is None

    def test_corrupted_file_is_a_miss(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        key = "c" * 64
        cache.put(key, {"rows": []})
        cache.path_for(key).write_text("{not json!")
        assert cache.get(key) is None

    def test_wrong_shape_is_a_miss(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        key = "d" * 64
        cache.path_for(key).parent.mkdir(parents=True)
        cache.path_for(key).write_text('{"no_rows": 1}')
        assert cache.get(key) is None
        cache.path_for(key).write_text('[1, 2, 3]')
        assert cache.get(key) is None

    def test_corrupt_entries_counted_apart_from_misses(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        key = "c" * 64
        cache.put(key, {"rows": []})
        cache.path_for(key).write_text("{not json!")
        with obs.scoped(enabled=True) as registry:
            assert cache.get(key) is None
            assert cache.get("b" * 64) is None
        assert registry.counter("cache.corrupt") == 1
        assert registry.counter("cache.misses") == 1

    def test_failed_put_is_counted_and_leaves_no_temp_file(self, tmp_path):
        root = tmp_path / "cache"
        root.write_text("a file where the cache directory should be")
        cache = CellCache(root)
        with obs.scoped(enabled=True) as registry:
            cache.put("e" * 64, {"rows": []})  # must not raise
        assert registry.counter("cache.put_errors") == 1
        assert registry.counter("cache.puts") == 0

    def test_failed_write_removes_its_temp_file(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        with obs.scoped(enabled=True) as registry:
            with pytest.raises(TypeError):
                cache.put("e" * 64, {"rows": [object()]})
        assert registry.counter("cache.puts") == 0
        assert list((tmp_path / "cache").rglob("*")) == [
            cache.path_for("e" * 64).parent
        ]

    def test_clear(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        cache.put("e" * 64, {"rows": []})
        cache.put("f" * 64, {"rows": []})
        assert cache.clear() == 2
        assert cache.get("e" * 64) is None


class TestSweepCaching:
    def test_warm_run_recomputes_nothing(self, tmp_path):
        spec, log = probe_spec(tmp_path, [1, 2, 3])
        cache = CellCache(tmp_path / "cache")
        cold = run_sweep(spec, cache=cache)
        assert executions(log) == 3
        assert cold.cached_cells == 0
        warm = run_sweep(spec, cache=cache)
        assert executions(log) == 3  # nothing recomputed
        assert warm.cached_cells == 3
        assert warm.rows == cold.rows

    def test_changed_cell_only_recomputes_that_cell(self, tmp_path):
        spec, log = probe_spec(tmp_path, [1, 2, 3])
        cache = CellCache(tmp_path / "cache")
        run_sweep(spec, cache=cache)
        changed, _ = probe_spec(tmp_path, [1, 2, 4])
        result = run_sweep(changed, cache=cache)
        assert executions(log) == 4  # one extra execution, not three
        assert result.cached_cells == 2
        assert [row["x"] for row in result.rows] == [1.0, 2.0, 4.0]

    def test_changed_settings_miss_everything(self, tmp_path):
        spec, log = probe_spec(tmp_path, [1, 2], settings={"grid": 12})
        cache = CellCache(tmp_path / "cache")
        run_sweep(spec, cache=cache)
        respec, _ = probe_spec(tmp_path, [1, 2], settings={"grid": 24})
        result = run_sweep(respec, cache=cache)
        assert executions(log) == 4
        assert result.cached_cells == 0

    def test_corrupted_entry_recomputed_not_crashed(self, tmp_path):
        spec, log = probe_spec(tmp_path, [1])
        cache = CellCache(tmp_path / "cache")
        run_sweep(spec, cache=cache)
        key = cell_key(spec.cells[0], spec.settings)
        cache.path_for(key).write_text("garbage")
        result = run_sweep(spec, cache=cache)
        assert executions(log) == 2
        assert result.cached_cells == 0
        assert result.rows[0]["x"] == 1.0
        # and the entry was repaired on the way out
        assert cache.get(key) is not None

    def test_no_cache_always_recomputes(self, tmp_path):
        spec, log = probe_spec(tmp_path, [1, 2])
        run_sweep(spec)
        run_sweep(spec)
        assert executions(log) == 4


_WRITER = """
import sys
from repro import obs
from repro.experiments.cache import CellCache

root, key, writer = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = CellCache(root)
payload = {"rows": [{"writer": writer, "i": i} for i in range(40 * writer + 1)]}
print("ready", flush=True)
sys.stdin.readline()
with obs.scoped(enabled=True) as registry:
    for _ in range(150):
        cache.put(key, payload)
print(int(registry.counter("cache.puts")),
      int(registry.counter("cache.put_errors")), flush=True)
"""


def test_concurrent_same_key_writers_never_tear_the_entry(tmp_path):
    """Processes writing one key at once: every read parses to one
    writer's whole payload, no write is lost, no temp file is left."""
    root = tmp_path / "cache"
    key = "ab" * 32
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER, str(root), key, str(w)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env,
        )
        for w in range(1, 5)
    ]
    cache = CellCache(root)
    reads = []
    try:
        for proc in writers:  # every writer is up before any writes
            assert proc.stdout.readline().strip() == "ready"
        for proc in writers:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        with obs.scoped(enabled=True) as registry:
            while any(proc.poll() is None for proc in writers):
                reads.append(cache.get(key))
        outputs = [proc.communicate(timeout=60)[0] for proc in writers]
    finally:
        for proc in writers:
            proc.kill()
    assert registry.counter("cache.corrupt") == 0
    for payload in reads + [cache.get(key)]:
        if payload is None:  # not yet written
            continue
        rows = payload["rows"]
        writer = rows[0]["writer"]
        assert len(rows) == 40 * writer + 1
        assert all(row["writer"] == writer for row in rows)
    assert [out.split() for out in outputs] == [["150", "0"]] * len(writers)
    assert [p.name for p in cache.path_for(key).parent.iterdir()] == [
        f"{key}.json"
    ]
