"""Tests for the structured observability layer (repro.obs)."""

import json
import pickle
import threading

import pytest

from repro import obs
from repro.obs import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry(enabled=True)


class TestEnabledSwitch:
    def test_disabled_by_default(self):
        assert not MetricsRegistry().enabled()

    def test_enable_disable(self, registry):
        assert registry.enabled()
        registry.disable()
        assert not registry.enabled()
        registry.enable()
        assert registry.enabled()

    def test_disabled_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        with reg.trace("span"):
            reg.add("counter")
            reg.set_gauge("gauge", 1)
            reg.observe("series", 1.0)
        snap = reg.snapshot()
        assert snap["spans"] == {}
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["series"] == {}

    def test_disabled_trace_returns_shared_noop(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.trace("a") is reg.trace("b") is obs.NOOP_SPAN

    def test_reset_keeps_enabled_flag(self, registry):
        registry.add("counter")
        registry.reset()
        assert registry.enabled()
        assert registry.counter("counter") == 0.0


class TestCounters:
    def test_add_default_one(self, registry):
        registry.add("iterations")
        registry.add("iterations")
        assert registry.counter("iterations") == 2.0

    def test_add_value(self, registry):
        registry.add("steps", 7)
        registry.add("steps", 3.5)
        assert registry.counter("steps") == pytest.approx(10.5)

    def test_missing_counter_reads_zero(self, registry):
        assert registry.counter("never") == 0.0


class TestGaugesAndSeries:
    def test_gauge_last_wins(self, registry):
        registry.set_gauge("shape", [12, 2])
        registry.set_gauge("shape", [24, 5])
        assert registry.gauge("shape") == [24, 5]

    def test_series_appends_in_order(self, registry):
        for value in (3.0, 1.0, 2.0):
            registry.observe("residual", value)
        assert registry.series("residual") == [3.0, 1.0, 2.0]

    def test_series_capped(self, registry):
        for i in range(obs.SERIES_CAP + 10):
            registry.observe("big", float(i))
        # the most recent SERIES_CAP values, in order
        assert registry.series("big") == [
            float(i) for i in range(10, obs.SERIES_CAP + 10)
        ]

    def test_series_follows_a_latency_shift(self, registry):
        """After 4,096 fast requests, 904 slow ones must show in the
        series (a long-running service's latency must not go stale)."""
        for _ in range(4096):
            registry.observe("latency", 0.001)
        for _ in range(904):
            registry.observe("latency", 9.0)
        series = registry.series("latency")
        assert len(series) == obs.SERIES_CAP
        assert series.count(9.0) == 904
        assert series[-1] == 9.0

    def test_merge_keeps_the_most_recent_values(self, registry):
        for i in range(obs.SERIES_CAP):
            registry.observe("big", float(i))
        other = obs.MetricsRegistry(enabled=True)
        other.observe("big", -1.0)
        registry.merge(other.snapshot())
        series = registry.series("big")
        assert len(series) == obs.SERIES_CAP
        assert series[0] == 1.0 and series[-1] == -1.0


class TestSpans:
    def test_span_records_count_and_time(self, registry):
        with registry.trace("work"):
            pass
        node = registry.snapshot()["spans"]["work"]
        assert node["count"] == 1
        assert node["total_s"] >= 0.0
        assert node["min_s"] <= node["max_s"]

    def test_nested_spans_form_a_tree(self, registry):
        with registry.trace("outer"):
            with registry.trace("inner"):
                pass
            with registry.trace("inner"):
                pass
        spans = registry.snapshot()["spans"]
        assert set(spans) == {"outer"}
        inner = spans["outer"]["children"]["inner"]
        assert inner["count"] == 2
        assert spans["outer"]["count"] == 1

    def test_sibling_spans_do_not_nest(self, registry):
        with registry.trace("a"):
            pass
        with registry.trace("b"):
            pass
        spans = registry.snapshot()["spans"]
        assert set(spans) == {"a", "b"}
        assert spans["a"]["children"] == {}

    def test_span_closes_on_exception(self, registry):
        with pytest.raises(ValueError):
            with registry.trace("fails"):
                raise ValueError("boom")
        # the stack unwound: a new span lands at the root, not nested
        with registry.trace("after"):
            pass
        spans = registry.snapshot()["spans"]
        assert spans["fails"]["count"] == 1
        assert "after" in spans

    def test_threads_have_independent_stacks(self, registry):
        barrier = threading.Barrier(2)

        def work(name):
            with registry.trace(name):
                barrier.wait()
                with registry.trace("child"):
                    pass

        threads = [
            threading.Thread(target=work, args=(n,)) for n in ("t1", "t2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = registry.snapshot()["spans"]
        # both roots, each with its own child: no cross-thread nesting
        assert spans["t1"]["children"]["child"]["count"] == 1
        assert spans["t2"]["children"]["child"]["count"] == 1


class TestSnapshot:
    def test_schema_tag(self, registry):
        assert registry.snapshot()["schema"] == obs.SNAPSHOT_SCHEMA

    def test_snapshot_is_json_serializable(self, registry):
        with registry.trace("a"):
            registry.add("c", 2)
            registry.set_gauge("g", [1, 2])
            registry.observe("s", 0.5)
        text = json.dumps(registry.snapshot())
        assert json.loads(text)["counters"]["c"] == 2

    def test_snapshot_is_picklable(self, registry):
        with registry.trace("a"):
            registry.add("c")
        snap = registry.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap

    def test_snapshot_is_a_deep_copy(self, registry):
        registry.add("c")
        snap = registry.snapshot()
        registry.add("c")
        assert snap["counters"]["c"] == 1.0

    def test_to_json_round_trips(self, registry):
        registry.add("c", 3)
        assert json.loads(registry.to_json())["counters"]["c"] == 3.0


class TestMerge:
    def make_source(self):
        src = MetricsRegistry(enabled=True)
        with src.trace("outer"):
            with src.trace("inner"):
                pass
        src.add("counter", 5)
        src.set_gauge("gauge", "worker")
        src.observe("series", 1.0)
        return src

    def test_counters_sum(self, registry):
        registry.add("counter", 2)
        registry.merge(self.make_source().snapshot())
        assert registry.counter("counter") == 7.0

    def test_gauges_take_incoming(self, registry):
        registry.set_gauge("gauge", "parent")
        registry.merge(self.make_source().snapshot())
        assert registry.gauge("gauge") == "worker"

    def test_series_extend(self, registry):
        registry.observe("series", 0.0)
        registry.merge(self.make_source().snapshot())
        assert registry.series("series") == [0.0, 1.0]

    def test_span_trees_merge_recursively(self, registry):
        with registry.trace("outer"):
            pass
        registry.merge(self.make_source().snapshot())
        spans = registry.snapshot()["spans"]
        assert spans["outer"]["count"] == 2
        assert spans["outer"]["children"]["inner"]["count"] == 1

    def test_merge_works_while_disabled(self):
        reg = MetricsRegistry(enabled=False)
        reg.merge(self.make_source().snapshot())
        assert reg.counter("counter") == 5.0

    def test_merged_mins_ignore_empty_nodes(self, registry):
        src = MetricsRegistry(enabled=True)
        with src.trace("span"):
            pass
        registry.merge(src.snapshot())
        registry.merge(src.snapshot())
        node = registry.snapshot()["spans"]["span"]
        assert node["count"] == 2
        assert node["min_s"] <= node["max_s"]


class TestModuleAPI:
    def test_module_functions_hit_active_registry(self):
        with obs.scoped(enabled=True) as registry:
            with obs.trace("span"):
                obs.add("counter")
                obs.set_gauge("gauge", 1)
                obs.observe("series", 2.0)
            assert obs.active() is registry
            assert obs.enabled()
            snap = obs.snapshot()
        assert snap["counters"]["counter"] == 1.0
        assert "span" in snap["spans"]
        assert obs.series("series") == []  # previous registry restored

    def test_scoped_restores_previous_registry_on_error(self):
        before = obs.active()
        with pytest.raises(RuntimeError):
            with obs.scoped(enabled=True):
                raise RuntimeError("boom")
        assert obs.active() is before

    def test_scoped_nests(self):
        with obs.scoped(enabled=True):
            obs.add("outer")
            with obs.scoped(enabled=True):
                obs.add("inner")
                assert obs.counter("outer") == 0.0
            assert obs.counter("inner") == 0.0
            assert obs.counter("outer") == 1.0

    def test_global_registry_disabled_by_default(self):
        assert not obs.enabled()
