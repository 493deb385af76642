"""Integration tests across the full stack.

Each test exercises a complete path through the system: raw tuples →
extraction → windows → indicators → engine+PPM → quality, plus the
round trips between the harness pieces.
"""

import dataclasses

import pytest

from repro.cep.engine import CEPEngine
from repro.cep.queries import ContinuousQuery
from repro.core.adaptive import AdaptivePatternPPM
from repro.core.ppm import MultiPatternPPM
from repro.core.uniform import UniformPatternPPM
from repro.core.verification import verify_instance_dp, verify_single_event_dp
from repro.datasets.synthetic import SyntheticConfig, synthesize_dataset
from repro.datasets.taxi import (
    PRIVATE_PATTERNS,
    TARGET_PATTERNS,
    TAXI_ALPHABET,
    GridCity,
    TaxiConfig,
    build_taxi_workload,
    fleet_data_stream,
    simulate_fleet,
    taxi_event_extractors,
)
from repro.experiments.runner import WorkloadEvaluation, evaluate_mechanism
from repro.io import read_indicator_csv, write_indicator_csv
from repro.metrics.confusion import ConfusionCounts
from repro.streams.extraction import extract_events
from repro.streams.indicator import IndicatorStream
from repro.streams.merge import partition_by_source
from repro.streams.windows import CountWindows


class TestRawTuplesToAnswers:
    """The Fig. 2 pipeline: data subjects' tuples in, private answers out."""

    def test_full_pipeline(self):
        config = TaxiConfig(n_taxis=8, n_steps=48)
        city = GridCity.generate(config, rng=1)
        traces = simulate_fleet(config, rng=2)

        # 1. Raw data stream (S^D) -> event stream (S^E).
        data_stream = fleet_data_stream(config, traces)
        events = extract_events(data_stream, taxi_event_extractors(city))
        assert len(events) > 0

        # 2. Per-taxi windows -> indicator stream.
        windows = []
        for source, per_taxi in sorted(partition_by_source(events).items()):
            windows.extend(CountWindows(8).assign(per_taxi))
        stream = IndicatorStream.from_event_windows(TAXI_ALPHABET, windows)
        assert stream.n_windows == len(windows)

        # 3. Engine setup (Fig. 2 setup phase).
        ppm = MultiPatternPPM(
            [UniformPatternPPM(pattern, 2.0) for pattern in PRIVATE_PATTERNS]
        )
        engine = CEPEngine(
            TAXI_ALPHABET,
            patterns=PRIVATE_PATTERNS,
            queries=[
                ContinuousQuery.for_pattern(pattern)
                for pattern in TARGET_PATTERNS
            ],
            mechanism=ppm,
        )

        # 4. Service phase: consumers get answers on perturbed data.
        report = engine.process_indicators(stream, rng=3)
        for query in engine.queries:
            answer = report.answer(query.name)
            assert answer.n_windows == stream.n_windows

        # 5. Quality accounting against the (engine-internal) truth.
        counts = ConfusionCounts()
        for query in engine.queries:
            counts = counts + ConfusionCounts.from_vectors(
                report.true_answers[query.name].detections,
                report.answers[query.name].detections,
            )
        assert counts.total == stream.n_windows * len(engine.queries)
        assert counts.accuracy > 0.5  # ε=2 keeps most answers intact


class TestGuaranteeOnRealWorkloads:
    def test_deployed_mechanisms_verify_exactly(self, tiny_workload):
        mechanism = WorkloadEvaluation(tiny_workload).build_mechanism(
            "adaptive", 2.0
        )
        for ppm in mechanism.ppms:
            single = verify_single_event_dp(
                ppm, tiny_workload.stream, window_index=0
            )
            instance = verify_instance_dp(
                ppm, tiny_workload.stream, window_index=0
            )
            assert single.holds
            assert instance.holds
            assert instance.epsilon_claimed == pytest.approx(2.0)

    def test_adaptive_never_worse_than_uniform_on_history(self, tiny_workload):
        from repro.core.quality_model import AnalyticQualityEstimator

        for pattern in tiny_workload.private_patterns:
            estimator = AnalyticQualityEstimator(
                tiny_workload.history, pattern, tiny_workload.target_patterns
            )
            adaptive = AdaptivePatternPPM.fit(
                pattern, 2.0, tiny_workload.history, tiny_workload.target_patterns
            )
            uniform = UniformPatternPPM(pattern, 2.0)
            assert (
                estimator.evaluate(adaptive.allocation).q
                >= estimator.evaluate(uniform.allocation).q - 1e-12
            )


class TestWorkloadRoundTripStability:
    def test_saved_workload_reproduces_results(self, tiny_workload, tmp_path):
        saved = {}
        for field in ("stream", "history"):
            path = str(tmp_path / f"{field}.csv")
            write_indicator_csv(getattr(tiny_workload, field), path)
            saved[field] = read_indicator_csv(path)
        reloaded = dataclasses.replace(tiny_workload, **saved)
        original = evaluate_mechanism(
            tiny_workload, "uniform", 2.0, n_trials=2, rng=9
        )
        repeated = evaluate_mechanism(
            reloaded, "uniform", 2.0, n_trials=2, rng=9
        )
        assert repeated.mre == pytest.approx(original.mre)


class TestHeadlineClaim:
    """The paper's core claim on both workloads, end to end."""

    @pytest.mark.parametrize("epsilon", [1.0, 4.0])
    def test_pattern_level_beats_all_baselines_synthetic(self, epsilon):
        workload = synthesize_dataset(
            SyntheticConfig(n_windows=300, n_history_windows=150), rng=17
        )
        ours = min(
            evaluate_mechanism(workload, kind, epsilon, n_trials=3, rng=1).mre
            for kind in ("uniform", "adaptive")
        )
        theirs = min(
            evaluate_mechanism(workload, kind, epsilon, n_trials=3, rng=1).mre
            for kind in ("bd", "ba", "landmark")
        )
        assert ours < theirs

    def test_pattern_level_beats_all_baselines_taxi(self):
        workload = build_taxi_workload(
            TaxiConfig(n_taxis=25, n_steps=100), rng=17
        )
        ours = evaluate_mechanism(
            workload, "uniform", 2.0, n_trials=3, rng=1
        ).mre
        theirs = min(
            evaluate_mechanism(workload, kind, 2.0, n_trials=3, rng=1).mre
            for kind in ("bd", "ba", "landmark")
        )
        assert ours < theirs
