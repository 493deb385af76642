"""Tests for the runtime pipeline stages, adapters and executors."""

import numpy as np
import pytest

from repro.baselines.budget_distribution import BudgetDistribution
from repro.baselines.event_level import EventLevelRR
from repro.baselines.landmark import LandmarkPrivacy
from repro.baselines.user_level import UserLevelRR
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery
from repro.core.ppm import MultiPatternPPM
from repro.core.uniform import UniformPatternPPM
from repro.metrics.confusion import ConfusionCounts
from repro.runtime import (
    BatchExecutor,
    IndicatorExtractor,
    PipelineResult,
    QueryMatcher,
    ShardedExecutor,
    StreamPipeline,
    WindowStage,
    merge_results,
    runtime_mechanism,
)
from repro.runtime.sharding import (
    Shard,
    ShardOutputs,
    ShardReceipt,
    plan_shards,
)
from repro.streams.events import Event
from repro.streams.indicator import (
    EventAlphabet,
    IndicatorStream,
    indicator_matrix,
)
from repro.streams.stream import EventStream
from repro.streams.windows import SessionWindows, TumblingWindows


@pytest.fixture
def queries(target_pattern):
    return [ContinuousQuery("q", target_pattern)]


class TestIndicatorExtractor:
    def test_matches_from_window_sets(self, alphabet6):
        windows = [
            {"e1", "e3"},
            set(),
            {"e2"},
            {"e1", "e2", "e3", "e6"},
        ]
        extractor = IndicatorExtractor(alphabet6)
        reference = IndicatorStream.from_window_sets(
            alphabet6, windows, strict=False
        )
        assert extractor.extract(windows) == reference

    def test_strict_builder_rejects_unknown_types(self, alphabet6):
        with pytest.raises(KeyError, match="'nope' is not in the alphabet"):
            indicator_matrix(alphabet6, [{"e1"}, {"nope"}], strict=True)

    def test_lenient_ignores_unknown_types(self, alphabet6):
        extractor = IndicatorExtractor(alphabet6)
        stream = extractor.extract([{"e1", "nope"}])
        assert stream.window_types(0) == {"e1"}

    def test_empty_input(self, alphabet6):
        assert IndicatorExtractor(alphabet6).extract([]).n_windows == 0


class TestWindowStage:
    def _events(self, spec):
        return EventStream([Event(name, ts) for name, ts in spec])

    @pytest.mark.parametrize("emit_empty", [False, True])
    def test_tumbling_fast_path_matches_assign(self, emit_empty):
        stream = self._events(
            [("a", 0.0), ("b", 0.4), ("a", 2.5), ("c", 7.9), ("b", 8.0)]
        )
        assigner = TumblingWindows(1.0, emit_empty=emit_empty)
        stage = WindowStage(assigner)
        reference = [
            window.event_types() for window in assigner.assign(stream)
        ]
        assert stage.type_sets(stream) == reference

    def test_tumbling_origin_violation(self):
        stream = self._events([("a", 1.0)])
        stage = WindowStage(TumblingWindows(1.0, origin=5.0))
        with pytest.raises(ValueError):
            stage.type_sets(stream)

    def test_general_assigner_falls_back(self):
        stream = self._events([("a", 0.0), ("b", 0.5), ("c", 10.0)])
        assigner = SessionWindows(gap=2.0)
        stage = WindowStage(assigner)
        reference = [
            window.event_types() for window in assigner.assign(stream)
        ]
        assert stage.type_sets(stream) == reference

    def test_rejects_non_assigner(self):
        with pytest.raises(TypeError):
            WindowStage(object())


class TestQueryMatcher:
    def test_answers_match_detect_all(self, alphabet6, stream200, queries):
        matcher = QueryMatcher(alphabet6, queries)
        answers = matcher.answer(stream200.matrix_view())
        expected = stream200.detect_all(["e2", "e3", "e4"])
        assert np.array_equal(answers["q"], expected)

    def test_rejects_non_sequential_pattern(self, alphabet6):
        from repro.cep.patterns import OR

        pattern = Pattern("or", OR("e1", "e2"))
        with pytest.raises(ValueError, match="non-sequential"):
            QueryMatcher(alphabet6, [ContinuousQuery("q", pattern)])


class TestPipelineConfusion:
    def test_micro_average_over_queries_and_mre(self, alphabet6):
        # Two queries' counts sum before precision/recall are taken.
        queries = [
            ContinuousQuery("a", Pattern.of_types("a", "e1", "e2")),
            ContinuousQuery("b", Pattern.of_types("b", "e3")),
        ]
        original = IndicatorStream.from_window_sets(
            alphabet6, [{"e1", "e2"}, {"e3"}, {"e1", "e2", "e3"}, set()]
        )
        pipeline = StreamPipeline(alphabet6, queries=queries)
        result = BatchExecutor().run(pipeline, original)
        # Unprotected: every answer is a true positive or negative.
        assert result.confusion == ConfusionCounts(tp=4, fp=0, fn=0, tn=4)

        truth = {"a": np.array([1, 0, 1, 1], bool)}
        released = {"a": np.array([1, 1, 0, 1], bool)}
        counts = ConfusionCounts.micro(truth, released)
        assert counts == ConfusionCounts(tp=2, fp=1, fn=1, tn=0)
        result = PipelineResult(released, truth, 4, confusion=counts)
        quality = result.quality()
        assert quality.precision == pytest.approx(2 / 3)
        assert quality.recall == pytest.approx(2 / 3)
        assert result.mre(1.0) == pytest.approx(1 - quality.q)

    def test_summed_shard_counts_equal_batch(
        self, alphabet6, stream200, queries
    ):
        pipeline = StreamPipeline(
            alphabet6, queries=queries, mechanism=MECHANISMS["uniform"]()
        )
        batch = BatchExecutor().run(pipeline, stream200, rng=4)
        sharded = ShardedExecutor(2, n_shards=3).run(
            pipeline, stream200, rng=4
        )
        assert sharded.confusion == batch.confusion

    def test_merge_results_sums_receipts(self, alphabet6, stream200):
        shards = plan_shards(stream200.n_windows, 2)
        outputs = ShardOutputs.allocate(
            ("q",),
            Shard(0, stream200.n_windows),
            len(alphabet6),
            materialize=False,
        )
        receipts = [
            ShardReceipt(shards[0], ConfusionCounts(1, 2, 3, 4)),
            ShardReceipt(shards[1], ConfusionCounts(10, 20, 30, 40)),
        ]
        merged = merge_results(receipts, outputs, indicators=stream200)
        assert merged.confusion == ConfusionCounts(11, 22, 33, 44)


class TestAdapters:
    def test_identity(self, alphabet6, stream200):
        adapter = runtime_mechanism(None)
        assert adapter.perturb_batch(stream200) is stream200
        stepper = adapter.stepper(alphabet6)
        matrix = stream200.matrix_view()
        assert np.array_equal(stepper.step_block(matrix), matrix)

    def test_batch_only_mechanism_rejected_for_stepping(self, alphabet6):
        class Opaque:
            def perturb(self, stream, rng=None):
                return stream

        adapter = runtime_mechanism(Opaque())
        with pytest.raises(TypeError):
            adapter.stepper(alphabet6)

    def test_missing_perturb_rejected(self):
        with pytest.raises(TypeError):
            runtime_mechanism(object())

    def test_user_level_needs_horizon(self, alphabet6):
        adapter = runtime_mechanism(UserLevelRR(1.0))
        with pytest.raises(TypeError):
            adapter.stepper(alphabet6, rng=0, horizon=None)
        stepper = adapter.stepper(alphabet6, rng=0, horizon=10)
        assert stepper is not None

    def test_flip_stepper_rejects_foreign_elements(self, stream200):
        small = EventAlphabet(["e1", "e2"])
        ppm = UniformPatternPPM(Pattern.of_types("p", "e1", "e3"), 2.0)
        adapter = runtime_mechanism(ppm)
        with pytest.raises(ValueError):
            adapter.stepper(small, rng=0)


MECHANISMS = {
    "uniform": lambda: UniformPatternPPM(
        Pattern.of_types("p", "e1", "e2", "e3"), 2.0
    ),
    "multi": lambda: MultiPatternPPM(
        [
            UniformPatternPPM(Pattern.of_types("p", "e1", "e2"), 2.0),
            UniformPatternPPM(Pattern.of_types("r", "e2", "e5"), 1.0),
        ]
    ),
    "event-level": lambda: EventLevelRR(1.0),
    "user-level": lambda: UserLevelRR(2.0),
    "bd": lambda: BudgetDistribution(1.0, w=10),
}


class TestChunkSteppingMatchesBatch:
    @pytest.mark.parametrize("kind", sorted(MECHANISMS))
    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 1000])
    def test_bit_identity(
        self, kind, chunk_size, alphabet6, stream200, queries, step_in_chunks
    ):
        pipeline = StreamPipeline(
            alphabet6, queries=queries, mechanism=MECHANISMS[kind]()
        )
        batch = BatchExecutor().run(pipeline, stream200, rng=42)
        released = step_in_chunks(pipeline, stream200, chunk_size, 42)
        assert IndicatorStream(alphabet6, released) == batch.released

    def test_landmark_bit_identity(
        self, alphabet6, stream200, queries, step_in_chunks
    ):
        mask = stream200.column("e1")
        pipeline = StreamPipeline(
            alphabet6,
            queries=queries,
            mechanism=LandmarkPrivacy(1.0, landmarks=mask),
        )
        batch = BatchExecutor().run(pipeline, stream200, rng=9)
        released = step_in_chunks(pipeline, stream200, 13, 9)
        assert IndicatorStream(alphabet6, released) == batch.released

    def test_unmaterialized_keeps_metrics(self, alphabet6, stream200, queries):
        pipeline = StreamPipeline(
            alphabet6, queries=queries, mechanism=MECHANISMS["uniform"]()
        )
        batch = BatchExecutor().run(pipeline, stream200, rng=1)
        sharded = ShardedExecutor(2, materialize=False).run(
            pipeline, stream200, rng=1
        )
        assert sharded.released is None and sharded.original is None
        assert sharded.quality() == batch.quality()
        assert sharded.n_windows == stream200.n_windows


class TestPipelineSources:
    def test_run_from_window_objects(self, alphabet6, queries):
        events = EventStream([Event("e2", 0.0), Event("e3", 0.1)])
        windows = TumblingWindows(1.0).assign(events)
        pipeline = StreamPipeline(alphabet6, queries=queries)
        result = pipeline.run(windows)
        assert result.original.window_types(0) == {"e2", "e3"}

    def test_run_from_type_sets_sharded(self, alphabet6, queries):
        type_sets = [{"e2", "e3", "e4"}, {"e1"}, {"e2", "e3", "e4"}]
        pipeline = StreamPipeline(alphabet6, queries=queries)
        result = pipeline.run(type_sets, executor=ShardedExecutor(2))
        assert list(result.answers["q"]) == [True, False, True]

    def test_raw_events_rejected_pointedly(self, alphabet6, queries):
        pipeline = StreamPipeline(alphabet6, queries=queries)
        with pytest.raises(TypeError, match="CEPEngine.process_events"):
            pipeline.run(EventStream([Event("e1", 0.0)]))

    def test_with_mechanism_shares_stages(self, alphabet6, queries):
        pipeline = StreamPipeline(alphabet6, queries=queries)
        clone = pipeline.with_mechanism(MECHANISMS["uniform"]())
        assert clone.matcher is pipeline.matcher
        assert clone.extractor is pipeline.extractor
        assert clone.mechanism is not None and pipeline.mechanism is None


class TestSequentialTraceBookkeeping:
    def test_sharded_run_populates_last_trace(
        self, alphabet6, stream200, queries
    ):
        from repro.cep.engine import CEPEngine

        mechanism = BudgetDistribution(1.0, w=5)
        engine = CEPEngine(
            alphabet6, queries=[queries[0]], mechanism=mechanism
        )
        engine.process_indicators(
            stream200, rng=3, executor=ShardedExecutor(2, n_shards=3)
        )
        assert mechanism.last_trace is not None
        assert len(mechanism.last_trace.published) == stream200.n_windows


class TestEngineExecutorPlumbing:
    def test_engine_accepts_sharded_executor(
        self, alphabet6, stream200, private_pattern, target_pattern
    ):
        from repro.cep.engine import CEPEngine

        engine = CEPEngine(
            alphabet6,
            patterns=[private_pattern],
            queries=[ContinuousQuery("q", target_pattern)],
            mechanism=UniformPatternPPM(private_pattern, 2.0),
        )
        batch = engine.process_indicators(stream200, rng=5)
        sharded = engine.process_indicators(
            stream200, rng=5, executor=ShardedExecutor(2, n_shards=3)
        )
        assert list(batch.answers["q"].detections) == list(
            sharded.answers["q"].detections
        )
        assert batch.perturbed == sharded.perturbed
