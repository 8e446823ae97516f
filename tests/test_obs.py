"""Unit tests for the observability layer: registry, traces, export."""

import json
import math
import random

import pytest

from repro.obs import (
    SCHEMA,
    Counter,
    Gauge,
    Histogram,
    LatencyView,
    MetricsRegistry,
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    WindowSampler,
    dumps,
    expose_fields,
    load_metrics_json,
    snapshot_document,
    write_metrics_json,
)
from repro.sim import Simulator
from repro.sim.monitor import LatencyRecorder


class TestCounter:
    """The adoptable count object code outside the model still hands
    the registry: ``Counter(name)``, in-place ``+=``, ``snapshot()``."""

    def test_iadd_keeps_identity(self):
        """`counter += 1` must keep the registry-adopted object."""
        c = Counter("x")
        before = id(c)
        c += 5
        assert id(c) == before
        assert c.snapshot()["value"] == 5

    def test_snapshot(self):
        c = Counter("x")
        c += 7
        assert c.snapshot() == {"type": "counter", "value": 7}


class TestGauge:
    def test_callback_gauge_is_live(self):
        state = {"v": 1.0}
        g = Gauge("g", fn=lambda: state["v"])
        assert g.get() == 1.0
        state["v"] = 2.0
        assert g.get() == 2.0
        assert g.snapshot() == {"type": "gauge", "value": 2.0}


class TestHistogram:
    def test_percentiles_close_to_exact(self):
        """HDR buckets promise ~3% relative error against exact ranks."""
        rng = random.Random(42)
        samples = [rng.lognormvariate(3.0, 1.0) for _ in range(20_000)]
        h = Histogram("h", unit="us")
        for s in samples:
            h.record(s)
        exact = sorted(samples)
        for p in (50, 95, 99):
            want = exact[min(len(exact) - 1,
                             int(p / 100 * len(exact)))]
            got = h.percentile(p)
            assert abs(got - want) / want < 0.05

    def test_bounded_memory(self):
        h = Histogram("h")
        for i in range(1, 100_001):
            h.record(i * 1e-6)
        assert h.count == 100_000
        # log-linear cells: a few hundred regardless of sample count
        assert h.n_buckets < 600

    def test_empty_histogram(self):
        h = Histogram("h")
        assert math.isnan(h.percentile(50))
        assert math.isnan(h.mean)
        snap = h.snapshot()
        assert snap["count"] == 0

    def test_extremes_are_exact(self):
        h = Histogram("h")
        for v in (1.0, 2.0, 3.0):
            h.record(v)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 3.0

    def test_zero_and_negative_bucket(self):
        h = Histogram("h")
        h.record(0.0)
        h.record(5.0)
        assert h.count == 2
        assert h.minimum == 0.0

    def test_percentile_range_validated(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(101)


class TestLatencyView:
    def test_rescales_recorder(self):
        rec = LatencyRecorder()
        for v in (1e-6, 2e-6, 3e-6):
            rec.record(v)
        view = LatencyView(rec, scale=1e6, unit="us")
        snap = view.snapshot()
        assert snap["count"] == 3
        assert snap["mean"] == pytest.approx(2.0)
        assert snap["min"] == pytest.approx(1.0)
        assert snap["max"] == pytest.approx(3.0)
        assert snap["unit"] == "us"


class TestWindowSampler:
    def test_samples_on_sim_clock(self):
        sim = Simulator()
        sampler = WindowSampler(sim, lambda: sim.now * 10.0,
                                interval=1e-3).start()
        sim.run(until=5.5e-3)
        times = [t for t, _v in sampler.points]
        assert times == pytest.approx([1e-3, 2e-3, 3e-3, 4e-3, 5e-3])

    def test_while_fn_stops_sampling(self):
        sim = Simulator()
        sampler = WindowSampler(sim, lambda: 1.0, interval=1e-3,
                                while_fn=lambda: sim.now < 3e-3).start()
        sim.run(until=0.1)
        assert len(sampler.points) <= 4

    def test_bounded_points(self):
        sim = Simulator()
        sampler = WindowSampler(sim, lambda: 0.0, interval=1e-4,
                                max_points=16).start()
        sim.run(until=0.1)
        assert len(sampler.points) == 16

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            WindowSampler(Simulator(), lambda: 0.0, interval=0.0)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        m = MetricsRegistry()
        h1 = m.histogram("a.b")
        h2 = m.histogram("a.b")
        assert h1 is h2
        assert len(m) == 1

    def test_kind_collision_rejected(self):
        m = MetricsRegistry()
        m.expose("a", lambda: 0)
        with pytest.raises(ValueError):
            m.sampler(Simulator(), "a", lambda: 0.0, interval=1e-3)

    def test_adopt_external_counter(self):
        m = MetricsRegistry()
        c = Counter()
        m.adopt("x.y", c)
        c += 3
        assert m.snapshot()["x.y"]["value"] == 3
        assert c.name == "x.y"  # adoption names anonymous metrics

    def test_adopt_same_object_twice_ok(self):
        m = MetricsRegistry()
        c = Counter("c")
        m.adopt("c", c)
        m.adopt("c", c)
        with pytest.raises(ValueError):
            m.adopt("c", Counter("other"))

    def test_adopt_requires_snapshot(self):
        with pytest.raises(TypeError):
            MetricsRegistry().adopt("bad", object())

    def test_expose_pull_gauge(self):
        m = MetricsRegistry()
        state = {"v": 0}
        m.expose("live", lambda: state["v"])
        state["v"] = 9
        assert m.snapshot()["live"]["value"] == 9

    def test_expose_fields_sums_a_live_list(self):
        class Owner:
            def __init__(self, hits, misses):
                self.hits, self.misses = hits, misses

        m = MetricsRegistry()
        owners = [Owner(1, 10)]
        expose_fields(m, "cache", owners, ("hits", "misses"))
        owners.append(Owner(2, 20))  # appended after registration
        owners[0].hits += 4
        snap = m.snapshot()
        assert snap["cache.hits"] == {"type": "gauge", "value": 7}
        assert snap["cache.misses"] == {"type": "gauge", "value": 30}

    def test_snapshot_covers_everything(self):
        m = MetricsRegistry()
        m.adopt("c", Counter())
        m.expose("g", lambda: 1.5)
        m.histogram("h", unit="us").record(2.0)
        snap = m.snapshot()
        assert set(snap) == {"c", "g", "h"}
        assert snap["g"]["value"] == 1.5
        assert snap["h"]["type"] == "histogram"


class TestTracer:
    def make(self, **kw):
        sim = Simulator()
        return sim, Tracer(sim, **kw)

    def test_span_records_begin_annotate_end(self):
        sim, tracer = self.make()
        with tracer.span("offload", "search", op_id=7) as span:
            span.annotate("issue", level=2)
        events = tracer.events
        assert [e.name for e in events] == ["begin", "issue", "end"]
        assert events[0].attrs["op_id"] == 7
        assert events[-1].attrs["elapsed"] == 0.0

    def test_disabled_component_returns_null_span(self):
        """Tracing is off per component by handing it NULL_TRACER; a
        real tracer records every component."""
        assert NULL_TRACER.span("offload", "search") is NULL_SPAN
        sim, tracer = self.make()
        for component in ("offload", "adaptive"):
            assert tracer.span(component, "x") is not NULL_SPAN
        assert [e.component for e in tracer.events] == ["offload",
                                                        "adaptive"]

    def test_bounded_ring_counts_drops(self):
        sim, tracer = self.make(max_events=10)
        for i in range(25):
            tracer.span("c", f"op{i}")  # one "begin" event each
        assert len(tracer.events) == 10
        assert tracer.total_events == 25
        assert tracer.dropped_events == 15

    def test_spans_grouping(self):
        sim, tracer = self.make()
        s1 = tracer.span("c", "a")
        s2 = tracer.span("c", "b")
        s1.annotate("phase")
        s1.end()
        s2.end()
        grouped = tracer.spans()
        assert len(grouped) == 2
        assert [e.name for e in grouped[s1.span_id]] == \
            ["begin", "phase", "end"]

    def test_end_is_idempotent(self):
        sim, tracer = self.make()
        span = tracer.span("c", "a")
        span.end()
        span.end()
        assert [e.name for e in tracer.events].count("end") == 1

    def test_exception_annotates_error(self):
        sim, tracer = self.make()
        with pytest.raises(RuntimeError):
            with tracer.span("c", "a"):
                raise RuntimeError("boom")
        assert "error" in tracer.events[-1].attrs

    def test_null_tracer_is_free(self):
        span = NULL_TRACER.span("c", "a")
        assert span is NULL_SPAN
        span.annotate("x").end()
        assert NULL_TRACER.snapshot()["total_events"] == 0

    def test_max_events_validated(self):
        with pytest.raises(ValueError):
            Tracer(Simulator(), max_events=0)


class TestExport:
    def make_registry(self):
        m = MetricsRegistry()
        m.expose("requests", lambda: 5)
        m.expose("util", lambda: 0.4)
        h = m.histogram("lat", unit="us")
        for v in (1.0, 2.0, 3.0):
            h.record(v)
        return m

    def test_document_shape(self):
        doc = snapshot_document(self.make_registry(),
                                meta={"scheme": "catfish"})
        assert doc["schema"] == SCHEMA
        assert doc["meta"]["scheme"] == "catfish"
        assert doc["metrics"]["requests"]["value"] == 5
        assert "trace" not in doc

    def test_trace_included_when_nonempty(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.span("c", "op").end()
        doc = snapshot_document(self.make_registry(), tracer=tracer)
        assert doc["trace"]["total_events"] == 2

    def test_nan_becomes_null(self):
        m = MetricsRegistry()
        m.histogram("empty")  # all-NaN percentiles
        text = dumps(snapshot_document(m))
        parsed = json.loads(text)  # must be strict JSON
        assert parsed["metrics"]["empty"]["p99"] is None

    def test_counters_serialize_as_ints(self):
        m = MetricsRegistry()
        c = Counter("c")
        c += 3
        m.adopt("c", c)
        parsed = json.loads(dumps(snapshot_document(m)))
        assert parsed["metrics"]["c"]["value"] == 3

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "metrics.json")
        doc = snapshot_document(self.make_registry(), meta={"seed": 0})
        write_metrics_json(path, doc)
        loaded = load_metrics_json(path)
        assert loaded["schema"] == SCHEMA
        assert loaded["metrics"]["lat"]["count"] == 3


class TestEndToEnd:
    def test_run_result_carries_metrics_document(self):
        from repro import ExperimentConfig, run_experiment
        result = run_experiment(ExperimentConfig(
            scheme="catfish", n_clients=2, requests_per_client=20,
            dataset_size=2_000, trace=True,
        ))
        doc = result.metrics
        assert doc["schema"] == SCHEMA
        assert doc["metrics"]["client.requests_sent"]["value"] == 40
        assert doc["metrics"]["client.latency_us"]["count"] == 40
        assert doc["metrics"]["client.latency_us"]["p99"] > 0
        assert doc["trace"]["total_events"] > 0
        # strict JSON end to end
        json.loads(dumps(doc))

    def test_adaptive_hybrid_artifact_round_trip(self, tmp_path):
        # The fields every downstream consumer of the artifact reads, on
        # a run long enough to send heartbeats and fill the timeline.
        from repro import ExperimentConfig, run_experiment
        result = run_experiment(ExperimentConfig(
            scheme="catfish", fabric="ib-100g", n_clients=4,
            requests_per_client=100, workload_kind="hybrid",
            dataset_size=5_000, heartbeat_interval=0.1e-3,
            collect_timeline=True, trace=True, seed=1,
        ))
        path = str(tmp_path / "metrics.json")
        write_metrics_json(path, result.metrics)
        doc = load_metrics_json(path)
        assert doc["schema"] == SCHEMA
        metrics = doc["metrics"]
        # Every request accounted for, none lost.
        requests = metrics["client.requests_sent"]["value"]
        assert requests == 400
        assert (metrics["client.fast_messaging_requests"]["value"]
                + metrics["client.offloaded_requests"]["value"]) == requests
        # Percentiles positive and ordered; closed-loop drivers tag their
        # histogram (the traffic layer emits "open" sojourn histograms).
        lat = metrics["client.latency_us"]
        assert lat["count"] == requests
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["p999"]
        assert lat["loop"] == "closed"
        # The heartbeat service ran and clients consumed beats.
        assert metrics["heartbeat.beats_sent"]["value"] > 0
        assert metrics["adaptive.heartbeats_consumed"]["value"] > 0
        # Server-side accounting and the sim-clock series.
        assert metrics["server.requests_handled"]["value"] > 0
        assert len(metrics["series.cpu_utilization"]["points"]) > 0
        # Trace spans recorded; bounded-ring accounting holds.
        assert doc["trace"]["total_events"] > 0
        assert doc["trace"]["dropped_events"] >= 0
        assert doc["trace"]["events"]
