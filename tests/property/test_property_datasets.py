"""Property-based tests for the dataset generators and persistence."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.datasets.synthetic import SyntheticConfig, synthesize_dataset
from repro.datasets.taxi import GridCity, TaxiConfig, simulate_trace
from repro.io import read_indicator_csv, write_indicator_csv
from repro.streams.indicator import EventAlphabet, IndicatorStream


class TestIoRoundTrip:
    @given(
        matrix=arrays(
            dtype=bool,
            shape=st.tuples(
                st.integers(0, 25), st.integers(1, 6)
            ),
        )
    )
    @settings(max_examples=40)
    def test_csv_round_trip_any_matrix(self, matrix, tmp_path_factory):
        alphabet = EventAlphabet.numbered(matrix.shape[1])
        stream = IndicatorStream(alphabet, matrix)
        path = str(
            tmp_path_factory.mktemp("io") / "stream.csv"
        )
        write_indicator_csv(stream, path)
        assert read_indicator_csv(path) == stream


synthetic_configs = st.builds(
    SyntheticConfig,
    n_event_types=st.integers(5, 25),
    n_windows=st.integers(10, 80),
    n_history_windows=st.integers(5, 40),
    pattern_length=st.integers(1, 4),
    n_private=st.integers(1, 3),
    n_target=st.integers(1, 4),
).filter(
    lambda c: c.pattern_length <= c.n_event_types
    and c.n_private + c.n_target <= c.n_patterns
)


class TestSyntheticLaws:
    @given(config=synthetic_configs, seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_workload_shape_invariants(self, config, seed):
        workload = synthesize_dataset(config, rng=seed)
        assert workload.stream.n_windows == config.n_windows
        assert workload.history.n_windows == config.n_history_windows
        assert len(workload.private_patterns) == config.n_private
        assert len(workload.target_patterns) == config.n_target
        for pattern in workload.private_patterns + workload.target_patterns:
            assert len(pattern.elements) == config.pattern_length
            assert len(set(pattern.elements)) == config.pattern_length
            for element in pattern.elements:
                assert element in workload.stream.alphabet

    @given(config=synthetic_configs, seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_generation_is_pure(self, config, seed):
        first = synthesize_dataset(config, rng=seed)
        second = synthesize_dataset(config, rng=seed)
        assert first.stream == second.stream
        assert first.history == second.history


taxi_configs = st.builds(
    TaxiConfig,
    n_taxis=st.integers(1, 8),
    n_steps=st.integers(8, 40),
    grid_width=st.integers(5, 15),
    grid_height=st.integers(5, 15),
    window_steps=st.integers(1, 8),
    private_target_overlap=st.floats(0.0, 1.0),
).filter(lambda c: c.window_steps <= c.n_steps)


class TestTaxiLaws:
    @given(config=taxi_configs, seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_traces_stay_on_grid_and_move_stepwise(self, config, seed):
        trace = simulate_trace(config, rng=seed)
        assert trace.shape == (config.n_steps, 2)
        assert (trace[:, 0] >= 0).all() and (trace[:, 0] < config.grid_width).all()
        assert (trace[:, 1] >= 0).all() and (trace[:, 1] < config.grid_height).all()
        steps = np.abs(np.diff(trace, axis=0)).sum(axis=1)
        assert (steps <= 1).all()

    @given(config=taxi_configs, seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_city_regions_partition(self, config, seed):
        city = GridCity.generate(config, rng=seed)
        categories = {
            city.category(x, y)
            for x in range(city.width)
            for y in range(city.height)
        }
        assert categories <= {"po", "ov", "to", "rd"}
        fractions = city.region_fractions()
        assert 0.0 <= fractions["overlap"] <= fractions["private"]
        assert fractions["target"] <= 1.0

    @given(config=taxi_configs, seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_overlap_fraction_tracks_config(self, config, seed):
        city = GridCity.generate(config, rng=seed)
        fractions = city.region_fractions()
        n_cells = city.n_cells
        expected_private = round(config.private_fraction * n_cells) / n_cells
        assert abs(fractions["private"] - expected_private) < 1e-9
