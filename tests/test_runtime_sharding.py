"""Sharded execution: planning, determinism and batch bit-identity.

The sharded executor's contract is that parallelism is *invisible* in
the output: same seed ⇒ same ``PipelineResult`` as the batch executor,
whatever the backend (threads, or the multi-process cluster fleet),
worker count or shard layout.
That rests on the seek invariant — every shard's stepper consumes the
child-generator words of its absolute window range — which these tests
pin alongside the shard planner's arithmetic.
"""

import numpy as np
import pytest

from repro.baselines.budget_absorption import BudgetAbsorption
from repro.baselines.event_level import EventLevelRR
from repro.baselines.landmark import LandmarkPrivacy
from repro.baselines.user_level import UserLevelRR
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery
from repro.core.ppm import MultiPatternPPM
from repro.core.uniform import UniformPatternPPM
from repro.runtime import (
    BatchExecutor,
    ClusterExecutor,
    ShardedExecutor,
    StreamPipeline,
)
from repro.runtime.sharding import Shard, clone_rng, plan_shards
from repro.streams.indicator import EventAlphabet, IndicatorStream

ALPHABET = EventAlphabet.numbered(6)
QUERIES = [
    ContinuousQuery("q1", Pattern.of_types("q1", "e1", "e3")),
    ContinuousQuery("q2", Pattern.of_types("q2", "e2")),
]


def make_stream(n_windows, seed=5):
    rng = np.random.default_rng(seed)
    return IndicatorStream(ALPHABET, rng.random((n_windows, 6)) < 0.3)


def seekable_mechanisms():
    return {
        "identity": None,
        "uniform": UniformPatternPPM(Pattern.of_types("p", "e1", "e2"), 1.0),
        "multi": MultiPatternPPM(
            [
                UniformPatternPPM(Pattern.of_types("p", "e1", "e2"), 1.0),
                UniformPatternPPM(Pattern.of_types("p2", "e4"), 2.0),
            ]
        ),
        "event-level": EventLevelRR(1.0),
        "user-level": UserLevelRR(500.0),
    }


#: The parallel executors by backend: threads, and the multi-process
#: cluster fleet.
PARALLEL = {"thread": ShardedExecutor, "process": ClusterExecutor}


def assert_bit_identical(left, right):
    assert left.original == right.original
    assert left.released == right.released
    assert set(left.answers) == set(right.answers)
    for name, detections in right.answers.items():
        assert np.array_equal(left.answers[name], detections)
        assert np.array_equal(
            left.true_answers[name], right.true_answers[name]
        )
    assert left.quality() == right.quality()


class TestShardPlanner:
    def test_balanced_contiguous_cover(self):
        shards = plan_shards(10, 3)
        assert shards == [Shard(0, 4), Shard(4, 7), Shard(7, 10)]
        assert sum(shard.n_windows for shard in shards) == 10

    def test_more_shards_than_windows_collapses(self):
        shards = plan_shards(3, 8)
        assert len(shards) == 3
        assert all(shard.n_windows == 1 for shard in shards)

    def test_empty_stream_plans_no_shards(self):
        assert plan_shards(0, 4) == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            plan_shards(-1, 2)
        with pytest.raises(ValueError):
            plan_shards(10, 0)
        with pytest.raises(ValueError):
            Shard(3, 1)


class TestShardedExecutor:
    @pytest.mark.parametrize("kind", list(seekable_mechanisms()))
    @pytest.mark.parametrize("backend", list(PARALLEL))
    def test_bit_identical_to_batch(self, kind, backend):
        pipeline = StreamPipeline(
            ALPHABET, queries=QUERIES, mechanism=seekable_mechanisms()[kind]
        )
        stream = make_stream(257)
        batch = BatchExecutor().run(pipeline, stream, rng=42)
        sharded = PARALLEL[backend](4).run(pipeline, stream, rng=42)
        assert_bit_identical(sharded, batch)

    @pytest.mark.parametrize("backend", list(PARALLEL))
    @pytest.mark.parametrize("n_workers", [1, 2, 8])
    def test_deterministic_across_worker_counts(self, backend, n_workers):
        pipeline = StreamPipeline(
            ALPHABET,
            queries=QUERIES,
            mechanism=seekable_mechanisms()["multi"],
        )
        stream = make_stream(190)
        reference = BatchExecutor().run(pipeline, stream, rng=7)
        executor = PARALLEL[backend](n_workers)
        first = executor.run(pipeline, stream, rng=7)
        second = executor.run(pipeline, stream, rng=7)
        assert_bit_identical(first, reference)
        assert_bit_identical(second, first)

    def test_many_threads_write_disjoint_output_slices(self):
        # Every shard writes into one shared set of output arrays; with
        # far more threads than cores and a tiny switch interval, a
        # misplaced or lost slice write would break batch identity.
        import sys

        pipeline = StreamPipeline(
            ALPHABET,
            queries=QUERIES,
            mechanism=seekable_mechanisms()["multi"],
        )
        stream = make_stream(640)
        batch = BatchExecutor().run(pipeline, stream, rng=19)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sharded = ShardedExecutor(16, n_shards=64).run(
                pipeline, stream, rng=19
            )
        finally:
            sys.setswitchinterval(interval)
        assert_bit_identical(sharded, batch)

    def test_generator_rng_matches_batch(self):
        pipeline = StreamPipeline(
            ALPHABET,
            queries=QUERIES,
            mechanism=seekable_mechanisms()["uniform"],
        )
        stream = make_stream(120)
        batch = BatchExecutor().run(
            pipeline, stream, rng=np.random.default_rng(99)
        )
        sharded = ShardedExecutor(3).run(
            pipeline, stream, rng=np.random.default_rng(99)
        )
        assert_bit_identical(sharded, batch)

    def test_shared_generator_advances_between_runs(self):
        # Repeated releases off one generator must draw fresh
        # randomness — identical repeated perturbations would leak more
        # than their accounted budget.
        pipeline = StreamPipeline(
            ALPHABET,
            queries=QUERIES,
            mechanism=seekable_mechanisms()["uniform"],
        )
        stream = make_stream(150)
        generator = np.random.default_rng(21)
        executor = ShardedExecutor(4)
        first = executor.run(pipeline, stream, rng=generator)
        second = executor.run(pipeline, stream, rng=generator)
        assert first.released != second.released

    def test_explicit_shard_count(self):
        pipeline = StreamPipeline(
            ALPHABET,
            queries=QUERIES,
            mechanism=seekable_mechanisms()["uniform"],
        )
        stream = make_stream(100)
        batch = BatchExecutor().run(pipeline, stream, rng=13)
        sharded = ShardedExecutor(2, n_shards=7).run(
            pipeline, stream, rng=13
        )
        assert_bit_identical(sharded, batch)

    def test_materialize_false_keeps_answers_and_metrics(self):
        pipeline = StreamPipeline(
            ALPHABET,
            queries=QUERIES,
            mechanism=seekable_mechanisms()["uniform"],
        )
        stream = make_stream(80)
        batch = BatchExecutor().run(pipeline, stream, rng=3)
        sharded = ShardedExecutor(4, materialize=False).run(
            pipeline, stream, rng=3
        )
        assert sharded.original is None and sharded.released is None
        for name, detections in batch.answers.items():
            assert np.array_equal(sharded.answers[name], detections)
        assert sharded.quality() == batch.quality()

    def test_empty_stream(self):
        pipeline = StreamPipeline(
            ALPHABET,
            queries=QUERIES,
            mechanism=seekable_mechanisms()["uniform"],
        )
        result = ShardedExecutor(4).run(pipeline, make_stream(0), rng=1)
        assert result.n_windows == 0
        for vector in result.answers.values():
            assert vector.shape == (0,)

    @pytest.mark.parametrize(
        "mechanism",
        [
            BudgetAbsorption(1.0, w=4),
            LandmarkPrivacy(
                1.0,
                landmarks=np.zeros(50, dtype=bool) | (np.arange(50) % 7 == 0),
            ),
        ],
        ids=["ba", "landmark"],
    )
    @pytest.mark.parametrize("backend", list(PARALLEL))
    def test_sequential_mechanisms_shard_via_checkpoints(
        self, mechanism, backend
    ):
        # Sequential schedulers cannot seek, but they checkpoint: the
        # prepass + replay path must still be bit-identical to batch.
        pipeline = StreamPipeline(
            ALPHABET, queries=QUERIES, mechanism=mechanism
        )
        stream = make_stream(50)
        batch = BatchExecutor().run(pipeline, stream, rng=1)
        sharded = PARALLEL[backend](2).run(pipeline, stream, rng=1)
        assert_bit_identical(sharded, batch)

    def test_batch_only_mechanism_directed_to_batch_executor(self):
        class BatchOnly:
            name = "batch-only"

            def perturb(self, stream, *, rng=None):
                return stream

        pipeline = StreamPipeline(
            ALPHABET, queries=QUERIES, mechanism=BatchOnly()
        )
        with pytest.raises(TypeError, match="BatchExecutor"):
            ShardedExecutor(2).run(pipeline, make_stream(50), rng=1)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ShardedExecutor(0)
        with pytest.raises(TypeError):
            ShardedExecutor(2, backend="process")
        with pytest.raises(ValueError):
            ShardedExecutor(2, n_shards=0)

    def test_clone_rng_passes_seeds_and_copies_generators(self):
        assert clone_rng(None) is None
        assert clone_rng(11) == 11
        parent = np.random.default_rng(4)
        clone = clone_rng(parent)
        assert clone is not parent
        assert clone.random() == np.random.default_rng(4).random()
        # the clone advanced; the parent did not
        assert parent.random() == np.random.default_rng(4).random()


class TestParallelSweep:
    @pytest.mark.parametrize("kind", sorted(PARALLEL))
    def test_sharded_executor_sweep_matches_serial(self, kind):
        # The per-trial executor is the sweep's one parallel layer.  It
        # covers every sweep mechanism — including the w-event
        # schedulers via the checkpoint prepass — in threads and in
        # worker processes, without changing a single released bit.
        from repro.datasets.synthetic import (
            SyntheticConfig,
            synthesize_dataset,
        )
        from repro.experiments.runner import sweep
        from repro.utils.rng import derive_rng

        workload = synthesize_dataset(
            SyntheticConfig(n_windows=80, n_history_windows=50),
            rng=derive_rng(3, "sweep-sharded"),
            name="sweep-sharded",
        )
        kwargs = dict(
            epsilon_grid=(1.0,),
            mechanisms=("uniform", "bd", "ba", "landmark"),
            n_trials=2,
            rng=55,
        )
        serial = sweep(workload, **kwargs)
        sharded = sweep(workload, executor=PARALLEL[kind](2), **kwargs)
        assert sharded == serial
