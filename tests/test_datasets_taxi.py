"""Tests for repro.datasets.taxi — the T-Drive-substitute simulator."""

import numpy as np
import pytest

from repro.datasets.taxi import (
    PRIVATE_PATTERNS,
    TARGET_PATTERNS,
    TAXI_ALPHABET,
    GridCity,
    TaxiConfig,
    build_taxi_workload,
    fleet_data_stream,
    simulate_fleet,
    simulate_trace,
    taxi_event_extractors,
    traces_to_indicator_stream,
)
from repro.streams.extraction import extract_events


@pytest.fixture
def config():
    return TaxiConfig(n_taxis=10, n_steps=60)


@pytest.fixture
def city(config):
    return GridCity.generate(config, rng=1)


class TestTaxiConfig:
    def test_paper_ratios_in_defaults(self):
        config = TaxiConfig()
        assert config.private_fraction == 0.2
        assert config.extra_target_fraction == 0.4
        assert config.private_target_overlap == 0.5
        assert config.sampling_interval == 177.0

    def test_fractions_bounded(self):
        with pytest.raises(ValueError):
            TaxiConfig(private_fraction=0.7, extra_target_fraction=0.4)

    def test_window_steps_bounded(self):
        with pytest.raises(ValueError):
            TaxiConfig(n_steps=4, window_steps=8)


class TestGridCity:
    def test_region_fractions_match_paper(self, city):
        fractions = city.region_fractions()
        assert fractions["private"] == pytest.approx(0.2, abs=0.01)
        # 40% disjoint target + 50% of the 20% private = 50% total.
        assert fractions["target"] == pytest.approx(0.5, abs=0.01)
        assert fractions["overlap"] == pytest.approx(0.1, abs=0.01)

    def test_category_partition(self, city):
        counts = {"po": 0, "ov": 0, "to": 0, "rd": 0}
        for x in range(city.width):
            for y in range(city.height):
                counts[city.category(x, y)] += 1
        assert sum(counts.values()) == city.n_cells
        assert counts["ov"] > 0  # overlap exists (the crux of the eval)

    def test_category_consistency(self, city):
        for x in range(0, city.width, 5):
            for y in range(0, city.height, 5):
                category = city.category(x, y)
                if category == "ov":
                    assert city.is_private(x, y) and city.is_target(x, y)
                elif category == "po":
                    assert city.is_private(x, y) and not city.is_target(x, y)

    def test_out_of_grid_rejected(self, city):
        with pytest.raises(ValueError):
            city.cell_index(city.width, 0)

    def test_zero_overlap_config(self, config):
        no_overlap = TaxiConfig(
            n_taxis=5, n_steps=20, private_target_overlap=0.0
        )
        city = GridCity.generate(no_overlap, rng=2)
        assert city.region_fractions()["overlap"] == 0.0

    def test_deterministic_generation(self, config):
        a = GridCity.generate(config, rng=5)
        b = GridCity.generate(config, rng=5)
        assert np.array_equal(a.private_mask, b.private_mask)
        assert np.array_equal(a.target_mask, b.target_mask)


class TestSimulation:
    def test_trace_shape_and_bounds(self, config):
        trace = simulate_trace(config, rng=0)
        assert trace.shape == (60, 2)
        assert trace[:, 0].min() >= 0 and trace[:, 0].max() < config.grid_width
        assert trace[:, 1].min() >= 0 and trace[:, 1].max() < config.grid_height

    def test_moves_at_most_one_cell_per_step(self, config):
        trace = simulate_trace(config, rng=0)
        steps = np.abs(np.diff(trace, axis=0)).sum(axis=1)
        assert steps.max() <= 1

    def test_taxi_actually_moves(self, config):
        trace = simulate_trace(config, rng=0)
        assert len(np.unique(trace, axis=0)) > 5

    def test_fleet_has_distinct_traces(self, config):
        traces = simulate_fleet(config, rng=0)
        assert len(traces) == config.n_taxis
        assert not np.array_equal(traces[0], traces[1])

    def test_fleet_deterministic(self, config):
        a = simulate_fleet(config, rng=3)
        b = simulate_fleet(config, rng=3)
        assert all(np.array_equal(a[i], b[i]) for i in a)


class TestIndicatorReduction:
    def test_stream_shape(self, config, city):
        traces = simulate_fleet(config, rng=0)
        stream = traces_to_indicator_stream(config, city, traces)
        windows_per_taxi = config.n_steps // config.window_steps
        assert stream.n_windows == config.n_taxis * windows_per_taxi
        assert stream.alphabet == TAXI_ALPHABET

    def test_in_implied_by_enter(self, config, city):
        # Entering a region inside the window implies being inside it.
        traces = simulate_fleet(config, rng=0)
        stream = traces_to_indicator_stream(config, city, traces)
        for prefix in ("po", "ov", "to"):
            enter = stream.column(f"{prefix}_enter")
            inside = stream.column(f"{prefix}_in")
            assert not (enter & ~inside).any()

    def test_full_pipeline_agrees_with_fast_path_on_in_events(
        self, config, city
    ):
        # The DataStream -> extractor -> events path must see the same
        # *_in occupancy the vectorized reduction computes.
        traces = simulate_fleet(config, rng=0)
        data_stream = fleet_data_stream(config, traces)
        events = extract_events(data_stream, taxi_event_extractors(city))
        fast = traces_to_indicator_stream(config, city, traces)
        for category in ("po", "ov", "to"):
            visited_event_taxis = {
                (e.attribute("taxi_id"))
                for e in events
                if e.event_type == f"{category}_in"
            }
            column = fast.column(f"{category}_in")
            windows_per_taxi = config.n_steps // config.window_steps
            visited_fast_taxis = {
                taxi_id
                for taxi_id in range(config.n_taxis)
                if column[
                    taxi_id * windows_per_taxi : (taxi_id + 1) * windows_per_taxi
                ].any()
            }
            assert visited_event_taxis == visited_fast_taxis


class TestWorkloadAssembly:
    def test_build_taxi_workload(self, config):
        workload = build_taxi_workload(config, rng=4)
        assert workload.name == "taxi"
        assert workload.private_patterns == list(PRIVATE_PATTERNS)
        assert workload.target_patterns == list(TARGET_PATTERNS)

    def test_private_and_target_overlap(self, config):
        workload = build_taxi_workload(config, rng=4)
        private = set(workload.private_elements())
        shared = {
            pattern.name: sorted(private & set(pattern.elements))
            for pattern in workload.target_patterns
        }
        assert shared["target_overlap_visit"] == ["ov_enter", "ov_in"]

    def test_history_fraction_split(self, config):
        workload = build_taxi_workload(config, rng=4)
        total = workload.stream.n_windows + workload.history.n_windows
        expected_history = int(round(total * config.history_fraction))
        assert workload.history.n_windows == expected_history

    def test_deterministic(self, config):
        a = build_taxi_workload(config, rng=6)
        b = build_taxi_workload(config, rng=6)
        assert a.stream == b.stream
