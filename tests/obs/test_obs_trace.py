"""Span tracer: ring buffer, totals, attribution, zero perturbation."""

import pickle

import pytest

from repro.obs import trace


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Every test leaves the process-global tracer uninstalled."""
    yield
    trace.disable_tracer()
    trace.reset_context()


class TestRingBuffer:
    def test_append_below_capacity(self):
        tracer = trace.Tracer(capacity=4)
        tracer.add("a", 0.0, 1.0)
        tracer.add("b", 1.0, 2.0)
        assert len(tracer) == 2
        assert tracer.dropped == 0
        assert [s[0] for s in tracer.spans()] == ["a", "b"]

    def test_overflow_overwrites_oldest(self):
        tracer = trace.Tracer(capacity=4)
        for i in range(6):
            tracer.add(f"s{i}", float(i), float(i) + 0.5)
        assert len(tracer) == 4
        assert tracer.dropped == 2
        # Oldest-first rotation: the two earliest spans were overwritten.
        assert [s[0] for s in tracer.spans()] == ["s2", "s3", "s4", "s5"]

    def test_totals_survive_overflow(self):
        tracer = trace.Tracer(capacity=8)
        for i in range(100):
            tracer.add("even" if i % 2 == 0 else "odd", float(i), i + 0.25)
        assert len(tracer) == 8
        assert tracer.dropped == 92
        # Every span counts, evicted ones included (quarter-second spans
        # sum exactly in binary floating point).
        assert tracer.totals == {"even": (12.5, 50), "odd": (12.5, 50)}

    def test_extend_folds_worker_partials(self):
        tracer = trace.Tracer(capacity=8)
        tracer.add("driver", 0.0, 1.0)
        tracer.extend([("w", 1.0, 2.0, {"worker": 0})], dropped=3)
        assert [s[0] for s in tracer.spans()] == ["driver", "w"]
        assert tracer.dropped == 3
        # Without shipped totals the spans themselves are totalled.
        assert tracer.totals == {"driver": (1.0, 1), "w": (1.0, 1)}

    def test_extend_merges_shipped_totals(self):
        # A worker's totals cover spans its own ring dropped, so they
        # replace, not add to, the shipped spans' durations.
        tracer = trace.Tracer(capacity=8)
        tracer.extend(
            [("w", 1.0, 2.0, None)],
            dropped=4,
            totals={"w": (5.0, 5), "cpu_total": (0.5, 1)},
        )
        assert tracer.totals == {"w": (5.0, 5), "cpu_total": (0.5, 1)}
        assert tracer.rows()[0] == {"section": "w", "seconds": 5.0, "calls": 5}


class TestSpan:
    def test_disabled_returns_shared_null_span(self):
        # The near-zero-cost fast path: no allocation per call.
        assert trace.active_tracer() is None
        assert trace.span("a") is trace.span("b")

    def test_records_into_tracer_with_merged_context(self):
        tracer = trace.enable_tracer()
        trace.set_context(worker=1, scenario="lbl")
        with trace.span("task", epoch=2):
            pass
        (name, begin_s, end_s, attrs), = tracer.spans()
        assert name == "task"
        assert end_s >= begin_s
        assert attrs == {"worker": 1, "scenario": "lbl", "epoch": 2}

    def test_span_attrs_win_over_context(self):
        tracer = trace.enable_tracer()
        trace.set_context(epoch=1)
        with trace.span("t", epoch=9):
            pass
        assert tracer.spans()[0][3]["epoch"] == 9

    def test_feeds_profiler_and_tracer_together(self):
        # One span lands in both the timeline and the --profile totals.
        tracer = trace.enable_tracer()
        with trace.span("k"):
            pass
        assert tracer.totals["k"][1] == 1
        assert [s[0] for s in tracer.spans()] == ["k"]


class TestContext:
    def test_set_and_clear(self):
        trace.set_context(worker=3)
        assert trace.current_context() == {"worker": 3}
        trace.set_context(worker=None)
        assert trace.current_context() == {}

    def test_clear_context_names(self):
        trace.set_context(worker=1, epoch=2)
        trace.clear_context("epoch")
        assert trace.current_context() == {"worker": 1}

    def test_trace_context_restores_previous(self):
        trace.set_context(scenario="outer")
        with trace.trace_context(scenario="inner", shard=0):
            assert trace.current_context() == {
                "scenario": "inner",
                "shard": 0,
            }
        assert trace.current_context() == {"scenario": "outer"}


class TestZeroPerturbation:
    def test_results_byte_identical_with_tracing_on(self):
        from repro.analysis.scenarios import DatasetSpec, ScenarioSpec
        from repro.analysis.scenarios import run_scenario

        spec = ScenarioSpec(
            policy="earthplus",
            dataset=DatasetSpec.of(
                "sentinel2",
                locations=["A"],
                bands=["B4"],
                horizon_days=10.0,
                image_shape=(64, 64),
            ),
            seed=0,
        )
        untraced = pickle.dumps(run_scenario(spec))
        tracer = trace.enable_tracer()
        try:
            traced = pickle.dumps(run_scenario(spec))
        finally:
            trace.disable_tracer()
        assert traced == untraced
        # The run actually produced a timeline (phases are instrumented).
        names = {s[0] for s in tracer.spans()}
        assert {"uplink", "capture", "ingest"} <= names
