"""Tests for the typed metrics registry."""

import pickle

import pytest

from repro.obs import MetricsRegistry, metric_name_mismatches


class TestCounter:
    def test_inc_accumulates(self):
        metrics = MetricsRegistry()
        metrics.counter("a").inc()
        metrics.counter("a").inc(4)
        assert metrics.value("a") == 5

    def test_negative_increment_rejected(self):
        metrics = MetricsRegistry()
        with pytest.raises(ValueError):
            metrics.counter("a").inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        metrics = MetricsRegistry()
        metrics.gauge("g").set(1.5)
        metrics.gauge("g").set(0.5)
        assert metrics.value("g") == 0.5


class TestHistogram:
    EDGES = (1.0, 8.0, 64.0)

    def test_observe_buckets_and_moments(self):
        metrics = MetricsRegistry()
        hist = metrics.histogram("h", self.EDGES)
        for value in (0.5, 4.0, 100.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx((0.5 + 4.0 + 100.0) / 3)

    def test_edges_must_increase(self):
        metrics = MetricsRegistry()
        with pytest.raises(ValueError):
            metrics.histogram("h", (8.0, 1.0))


class TestRegistry:
    def test_kind_conflict_raises(self):
        metrics = MetricsRegistry()
        metrics.counter("x")
        with pytest.raises(TypeError):
            metrics.gauge("x")

    def test_contains_and_len(self):
        metrics = MetricsRegistry()
        metrics.counter("a")
        metrics.gauge("b")
        assert "a" in metrics and "b" in metrics
        assert len(metrics) == 2

    def test_dict_round_trip(self):
        metrics = MetricsRegistry()
        metrics.counter("c").inc(3)
        metrics.gauge("g").set(1.25)
        metrics.histogram("h", (1.0, 2.0)).observe(1.5)
        clone = MetricsRegistry.from_dict(metrics.to_dict())
        assert clone.to_dict() == metrics.to_dict()

    def test_pickle_round_trip(self):
        metrics = MetricsRegistry()
        metrics.counter("c").inc(2)
        clone = pickle.loads(pickle.dumps(metrics))
        assert clone.to_dict() == metrics.to_dict()


class TestMerge:
    def test_counters_sum_gauges_max(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("c").inc(2)
        right.counter("c").inc(3)
        left.gauge("g").set(1.0)
        right.gauge("g").set(4.0)
        left.merge(right)
        assert left.value("c") == 5
        assert left.value("g") == 4.0

    def test_histograms_sum_elementwise(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.histogram("h", (1.0, 2.0)).observe(0.5)
        right.histogram("h", (1.0, 2.0)).observe(1.5)
        left.merge(right)
        assert left.histogram("h", (1.0, 2.0)).count == 2

    def test_histogram_edge_mismatch_refused(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.histogram("h", (1.0, 2.0))
        right.histogram("h", (1.0, 3.0))
        with pytest.raises(ValueError):
            left.merge(right)

    def test_merge_is_disjoint_union(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("only.left").inc()
        right.counter("only.right").inc(2)
        merged = MetricsRegistry.merged([left, right])
        assert merged.value("only.left") == 1
        assert merged.value("only.right") == 2


class TestNameParity:
    def test_identical_registries_have_no_mismatches(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        for registry in (left, right):
            registry.counter("campaign.epochs").inc()
            registry.gauge("campaign.duration_s").set(1.0)
        assert metric_name_mismatches(left, right) == []

    def test_one_sided_names_are_reported(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.counter("campaign.epochs").inc()
        right.counter("campaign.samples").inc()
        mismatches = metric_name_mismatches(left, right)
        assert any("campaign.epochs" in m for m in mismatches)
        assert any("campaign.samples" in m for m in mismatches)
