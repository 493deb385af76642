"""Checkpointed sequential schedulers: snapshot/restore and sharding.

The checkpoint protocol's contract has two halves, both pinned here:

- **resume** — restoring a snapshot on a *fresh* releaser (same
  mechanism parameters, same seed) and stepping on reproduces an
  uninterrupted run bit for bit: released rows, accounting trace,
  scheduler state and every subsequent random draw.  Snapshots are
  plain picklable data, so a crashed service can persist and resume.
- **sharded runs** — the parallel executors release BD/BA once in the
  parent and let the shards only match, while landmark shards restore
  a prepass snapshot and re-step; the merged result (and
  `mechanism.last_trace`) must be bit-identical to `BatchExecutor`
  under the same seed, whatever the backend or worker count.
"""

import pickle

import numpy as np
import pytest

from repro.baselines import w_event
from repro.baselines.budget_absorption import BudgetAbsorption
from repro.baselines.budget_distribution import BudgetDistribution
from repro.baselines.landmark import LandmarkPrivacy
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery
from repro.runtime import (
    BatchExecutor,
    ClusterExecutor,
    ShardedExecutor,
    StreamPipeline,
)
from repro.runtime.reference import reference_w_event_perturb
from repro.runtime.rng_pool import IndexedRngPool
from repro.streams.indicator import EventAlphabet, IndicatorStream

ALPHABET = EventAlphabet.numbered(5)
QUERIES = [
    ContinuousQuery("q1", Pattern.of_types("q1", "e1", "e3")),
    ContinuousQuery("q2", Pattern.of_types("q2", "e2")),
]
N_WINDOWS = 120


def make_matrix(n_windows=N_WINDOWS, seed=3):
    rng = np.random.default_rng(seed)
    return (rng.random((n_windows, 5)) < 0.3).astype(float)


def make_stream(n_windows=N_WINDOWS, seed=3):
    return IndicatorStream(ALPHABET, make_matrix(n_windows, seed).astype(bool))


def mechanisms():
    return {
        "bd": BudgetDistribution(1.0, w=8),
        "ba": BudgetAbsorption(1.0, w=8),
        "landmark": LandmarkPrivacy(
            1.0, landmarks=np.arange(N_WINDOWS) % 5 == 0
        ),
    }


def trace_tuple(trace):
    return (
        list(trace.published),
        list(trace.publication_budgets),
        list(trace.dissimilarity_budgets),
    )


class TestReleaserCheckpoint:
    @pytest.mark.parametrize("kind", ["bd", "ba", "landmark"])
    @pytest.mark.parametrize("cut", [0, 1, 37, N_WINDOWS])
    def test_fresh_restore_resumes_bit_identically(self, kind, cut):
        mechanism = mechanisms()[kind]
        matrix = make_matrix()
        straight = mechanism.online_releaser(5, rng=11, horizon=N_WINDOWS)
        expected = straight.step_block(matrix)

        first = mechanism.online_releaser(5, rng=11, horizon=N_WINDOWS)
        head = first.step_block(matrix[:cut])
        snapshot = pickle.loads(pickle.dumps(first.snapshot()))
        resumed = mechanism.online_releaser(5, rng=11, horizon=N_WINDOWS)
        resumed.restore(snapshot)
        tail = resumed.step_block(matrix[cut:])
        assert np.array_equal(np.concatenate([head, tail]), expected)
        if hasattr(straight, "trace"):
            assert trace_tuple(resumed.trace) == trace_tuple(straight.trace)

    @pytest.mark.parametrize("kind", ["bd", "ba"])
    @pytest.mark.parametrize("cut", [0, 1, 37, N_WINDOWS])
    def test_per_window_trace_snapshot_restores(self, kind, cut):
        """A format-1 snapshot, whose ``"trace"`` holds the three
        per-window columns, restores onto the publication-log trace
        and steps on bit-identically."""
        mechanism = mechanisms()[kind]
        matrix = make_matrix()
        straight = mechanism.online_releaser(5, rng=11, horizon=N_WINDOWS)
        expected = straight.step_block(matrix)

        first = mechanism.online_releaser(5, rng=11, horizon=N_WINDOWS)
        head = first.step_block(matrix[:cut])
        # The per-window columns come from the seed loop, which appends
        # them itself, so the snapshot does not share the derivation.
        seed_loop = {}
        reference_w_event_perturb(
            mechanisms()[kind],
            IndicatorStream(ALPHABET, matrix[:cut].astype(bool)),
            rng=11,
            final_state=seed_loop,
        )
        snapshot = first.snapshot()
        del snapshot["publications"]
        snapshot["format"] = 1
        snapshot["trace"] = (
            seed_loop["published"],
            seed_loop["publication_budgets"],
            seed_loop["dissimilarity_budgets"],
        )
        resumed = mechanism.online_releaser(5, rng=11, horizon=N_WINDOWS)
        resumed.restore(pickle.loads(pickle.dumps(snapshot)))
        tail = resumed.step_block(matrix[cut:])
        assert np.array_equal(np.concatenate([head, tail]), expected)
        assert trace_tuple(resumed.trace) == trace_tuple(straight.trace)
        assert resumed.scheduler_state == straight.scheduler_state

    @pytest.mark.parametrize("kind", ["bd", "ba", "landmark"])
    def test_generator_rng_restore(self, kind):
        mechanism = mechanisms()[kind]
        matrix = make_matrix()
        straight = mechanism.online_releaser(
            5, rng=np.random.default_rng(4), horizon=N_WINDOWS
        )
        expected = straight.step_block(matrix)
        first = mechanism.online_releaser(
            5, rng=np.random.default_rng(4), horizon=N_WINDOWS
        )
        first.step_block(matrix[:50])
        snapshot = pickle.loads(pickle.dumps(first.snapshot()))
        # Restore onto a releaser built from a *different* source: the
        # snapshot carries the derivation state.
        resumed = mechanism.online_releaser(5, rng=999, horizon=N_WINDOWS)
        resumed.restore(snapshot)
        tail = resumed.step_block(matrix[50:])
        assert np.array_equal(tail, expected[50:])

    def test_restore_rejects_mismatched_width(self):
        mechanism = BudgetDistribution(1.0, w=4)
        releaser = mechanism.online_releaser(5, rng=0, horizon=10)
        snapshot = releaser.snapshot()
        other = mechanism.online_releaser(3, rng=0, horizon=10)
        with pytest.raises(ValueError, match="event types"):
            other.restore(snapshot)

    def test_landmark_restore_rejects_mismatched_mask(self):
        short = LandmarkPrivacy(1.0, landmarks=[True] * 10)
        long = LandmarkPrivacy(1.0, landmarks=[True] * 20)
        snapshot = short.online_releaser(2, rng=0).snapshot()
        with pytest.raises(ValueError, match="landmark mask"):
            long.online_releaser(2, rng=0).restore(snapshot)


class TestPoolCheckpoint:
    def test_seed_mode_snapshot_roundtrip(self):
        pool = IndexedRngPool(21, "w-event", count=40)
        draws = [pool.generator(i).random() for i in range(40)]
        snapshot = pickle.loads(pickle.dumps(pool.snapshot()))
        fresh = IndexedRngPool(999, "w-event")
        fresh.restore(snapshot)
        assert [fresh.generator(i).random() for i in range(40)] == draws

    def test_generator_mode_snapshot_roundtrip(self):
        pool = IndexedRngPool(np.random.default_rng(8), "w-event", count=50)
        draws = [pool.generator(i).random() for i in range(50)]
        snapshot = pickle.loads(pickle.dumps(pool.snapshot()))
        fresh = IndexedRngPool(123, "w-event")
        fresh.restore(snapshot)
        assert [fresh.generator(i).random() for i in range(50)] == draws
        # Extending past the snapshotted range draws the same parent
        # words an uninterrupted pool would.
        reference = IndexedRngPool(
            np.random.default_rng(8), "w-event", count=80
        )
        assert (
            fresh.generator(70).random() == reference.generator(70).random()
        )

    def test_restore_rejects_foreign_tokens(self):
        snapshot = IndexedRngPool(1, "w-event").snapshot()
        with pytest.raises(ValueError, match="tokens"):
            IndexedRngPool(1, "landmark").restore(snapshot)

    def test_matching_source_restore_is_a_no_op(self):
        pool = IndexedRngPool(5, "w-event", count=30)
        snapshot = pool.snapshot()
        before = pool.generator(12).random()
        pool.restore(snapshot)
        assert pool.generator(12).random() == before


#: The parallel executors by backend: threads, and the multi-process
#: cluster fleet.
PARALLEL = {"thread": ShardedExecutor, "process": ClusterExecutor}


class TestCheckpointedSharding:
    @pytest.mark.parametrize("kind", ["bd", "ba", "landmark"])
    @pytest.mark.parametrize("backend", list(PARALLEL))
    def test_bit_identical_to_batch(self, kind, backend):
        pipeline = StreamPipeline(
            ALPHABET, queries=QUERIES, mechanism=mechanisms()[kind]
        )
        stream = make_stream()
        batch = BatchExecutor().run(pipeline, stream, rng=42)
        sharded = PARALLEL[backend](4).run(pipeline, stream, rng=42)
        assert sharded.original == batch.original
        assert sharded.released == batch.released
        for name, detections in batch.answers.items():
            assert np.array_equal(sharded.answers[name], detections)
        assert sharded.quality() == batch.quality()

    @pytest.mark.parametrize("n_workers", [1, 2, 8])
    def test_worker_count_invisible(self, n_workers):
        pipeline = StreamPipeline(
            ALPHABET, queries=QUERIES, mechanism=mechanisms()["bd"]
        )
        stream = make_stream()
        batch = BatchExecutor().run(pipeline, stream, rng=7)
        sharded = ShardedExecutor(n_workers).run(pipeline, stream, rng=7)
        assert sharded.released == batch.released

    @pytest.mark.parametrize("kind", ["bd", "ba"])
    def test_last_trace_matches_batch(self, kind):
        mechanism = mechanisms()[kind]
        pipeline = StreamPipeline(
            ALPHABET, queries=QUERIES, mechanism=mechanism
        )
        stream = make_stream()
        BatchExecutor().run(pipeline, stream, rng=5)
        batch_trace = trace_tuple(mechanism.last_trace)
        ShardedExecutor(3).run(pipeline, stream, rng=5)
        assert trace_tuple(mechanism.last_trace) == batch_trace

    def test_generator_rng_matches_batch(self):
        pipeline = StreamPipeline(
            ALPHABET, queries=QUERIES, mechanism=mechanisms()["ba"]
        )
        stream = make_stream()
        batch = BatchExecutor().run(
            pipeline, stream, rng=np.random.default_rng(31)
        )
        sharded = ShardedExecutor(4).run(
            pipeline, stream, rng=np.random.default_rng(31)
        )
        assert sharded.released == batch.released

    def test_shared_generator_advances_between_runs(self):
        pipeline = StreamPipeline(
            ALPHABET, queries=QUERIES, mechanism=mechanisms()["bd"]
        )
        stream = make_stream()
        generator = np.random.default_rng(17)
        executor = ShardedExecutor(4)
        first = executor.run(pipeline, stream, rng=generator)
        second = executor.run(pipeline, stream, rng=generator)
        assert first.released != second.released

    def test_single_shard_and_empty_stream(self):
        pipeline = StreamPipeline(
            ALPHABET, queries=QUERIES, mechanism=mechanisms()["bd"]
        )
        stream = make_stream()
        batch = BatchExecutor().run(pipeline, stream, rng=2)
        one = ShardedExecutor(4, n_shards=1).run(pipeline, stream, rng=2)
        assert one.released == batch.released
        empty = ShardedExecutor(4).run(pipeline, make_stream(0), rng=2)
        assert empty.n_windows == 0

    @pytest.mark.parametrize("kind", ["bd", "ba"])
    @pytest.mark.parametrize("backend", list(PARALLEL))
    def test_release_runs_once(self, monkeypatch, kind, backend):
        """BD/BA shards only match: the whole sharded run builds one
        w-event releaser.  A second one raises, in a pool thread or a
        forked cluster worker alike."""
        built = []
        init = w_event.OnlineReleaser.__init__

        def counted_init(self, *args, **kwargs):
            built.append(True)
            if len(built) > 1:
                raise AssertionError("a second w-event releaser was built")
            init(self, *args, **kwargs)

        monkeypatch.setattr(w_event.OnlineReleaser, "__init__", counted_init)
        pipeline = StreamPipeline(
            ALPHABET, queries=QUERIES, mechanism=mechanisms()[kind]
        )
        stream = make_stream()
        sharded = PARALLEL[backend](2, n_shards=3).run(
            pipeline, stream, rng=13
        )
        assert len(built) == 1
        monkeypatch.setattr(w_event.OnlineReleaser, "__init__", init)
        batch = BatchExecutor().run(pipeline, stream, rng=13)
        assert sharded.released == batch.released

    def test_materialize_false(self):
        pipeline = StreamPipeline(
            ALPHABET, queries=QUERIES, mechanism=mechanisms()["ba"]
        )
        stream = make_stream()
        batch = BatchExecutor().run(pipeline, stream, rng=3)
        sharded = ShardedExecutor(4, materialize=False).run(
            pipeline, stream, rng=3
        )
        assert sharded.original is None and sharded.released is None
        for name, detections in batch.answers.items():
            assert np.array_equal(sharded.answers[name], detections)
        assert sharded.quality() == batch.quality()


class TestStepperTraceBookkeeping:
    def test_building_a_stepper_does_not_clobber_last_trace(self):
        # Regression: the stepper used to publish a fresh empty trace at
        # *construction*, so building a second (or speculative) stepper
        # silently discarded the trace of a completed run.
        from repro.runtime.adapters import runtime_mechanism

        mechanism = BudgetDistribution(1.0, w=6)
        stream = make_stream()
        mechanism.perturb(stream, rng=0)
        completed = trace_tuple(mechanism.last_trace)
        runtime = runtime_mechanism(mechanism)
        stepper = runtime.stepper(ALPHABET, rng=1, horizon=None)
        assert trace_tuple(mechanism.last_trace) == completed
        # The trace is published on the first step instead.
        stepper.step_block(make_matrix(4).astype(bool))
        assert len(mechanism.last_trace.published) == 4
