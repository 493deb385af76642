"""Property-based parity of chunk stepping, sharding and batch.

The service sessions step a stream through a mechanism's chunk stepper
in whatever blocks arrive; block boundaries must never show in the
output.  Under the same seed, stepping any split of a stream — and
sharding it — must reproduce the batch executor's released rows bit for
bit, whatever the mechanism, pattern shapes, stream size or chunk
size.  Hypothesis drives all of those dimensions at once.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.budget_absorption import BudgetAbsorption
from repro.baselines.budget_distribution import BudgetDistribution
from repro.baselines.event_level import EventLevelRR
from repro.baselines.landmark import LandmarkPrivacy
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery
from repro.core.ppm import MultiPatternPPM
from repro.core.uniform import UniformPatternPPM
from repro.runtime import BatchExecutor, ShardedExecutor, StreamPipeline
from repro.streams.indicator import EventAlphabet, IndicatorStream

N_TYPES = 6
ALPHABET = EventAlphabet.numbered(N_TYPES)


@st.composite
def pipelines_and_streams(draw):
    n_windows = draw(st.integers(min_value=1, max_value=120))
    density = draw(st.floats(min_value=0.05, max_value=0.9))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    stream = IndicatorStream(
        ALPHABET, rng.random((n_windows, N_TYPES)) < density
    )

    def pattern(name):
        length = draw(st.integers(min_value=1, max_value=3))
        types = draw(
            st.lists(
                st.sampled_from(ALPHABET.types),
                min_size=length,
                max_size=length,
                unique=True,
            )
        )
        return Pattern.of_types(name, *types)

    private = pattern("private")
    targets = [pattern(f"t{i}") for i in range(draw(st.integers(1, 3)))]
    kind = draw(
        st.sampled_from(["uniform", "multi", "bd", "ba", "event", "landmark"])
    )
    epsilon = draw(st.floats(min_value=0.2, max_value=8.0))
    if kind == "uniform":
        mechanism = UniformPatternPPM(private, epsilon)
    elif kind == "multi":
        mechanism = MultiPatternPPM(
            [
                UniformPatternPPM(private, epsilon),
                UniformPatternPPM(pattern("other"), epsilon / 2),
            ]
        )
    elif kind == "bd":
        mechanism = BudgetDistribution(epsilon, w=draw(st.integers(1, 12)))
    elif kind == "ba":
        mechanism = BudgetAbsorption(epsilon, w=draw(st.integers(1, 12)))
    elif kind == "event":
        mechanism = EventLevelRR(epsilon)
    else:
        mask = rng.random(n_windows) < 0.3
        mechanism = LandmarkPrivacy(epsilon, landmarks=mask)
    queries = [
        ContinuousQuery(pattern.name, pattern) for pattern in targets
    ]
    chunk_size = draw(st.integers(min_value=1, max_value=n_windows + 8))
    run_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return (
        StreamPipeline(ALPHABET, queries=queries, mechanism=mechanism),
        stream,
        chunk_size,
        run_seed,
    )


class TestExecutorParity:
    @settings(max_examples=60, deadline=None)
    @given(pipelines_and_streams())
    def test_chunked_equals_batch(self, step_in_chunks, case):
        pipeline, stream, chunk_size, run_seed = case
        batch = BatchExecutor().run(pipeline, stream, rng=run_seed)
        released = step_in_chunks(pipeline, stream, chunk_size, run_seed)
        assert IndicatorStream(ALPHABET, released) == batch.released

    @settings(max_examples=20, deadline=None)
    @given(pipelines_and_streams())
    def test_chunked_is_deterministic(self, step_in_chunks, case):
        pipeline, stream, chunk_size, run_seed = case
        first = step_in_chunks(pipeline, stream, chunk_size, run_seed)
        second = step_in_chunks(pipeline, stream, chunk_size, run_seed)
        assert np.array_equal(first, second)

    @settings(max_examples=25, deadline=None)
    @given(pipelines_and_streams(), st.integers(min_value=1, max_value=8))
    def test_sharded_equals_batch(self, case, n_shards):
        # The seek invariant for seekable mechanisms, and the
        # checkpoint/replay invariant for sequential schedulers
        # (BD/BA, landmark): sharding must be invisible in the output.
        pipeline, stream, _chunk_size, run_seed = case
        batch = BatchExecutor().run(pipeline, stream, rng=run_seed)
        sharded = ShardedExecutor(2, n_shards=n_shards).run(
            pipeline, stream, rng=run_seed
        )
        assert sharded.original == batch.original
        assert sharded.released == batch.released
        for name, detections in batch.answers.items():
            assert np.array_equal(sharded.answers[name], detections)
        assert sharded.quality() == batch.quality()


class TestCheckpointResume:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from(["bd", "ba", "landmark"]),
        st.integers(min_value=1, max_value=119),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_restored_releaser_continues_uninterrupted(
        self, kind, cut, seed
    ):
        # A snapshot taken mid-stream and restored on a fresh releaser
        # must continue with exactly the randomness and budget state a
        # single uninterrupted run would have had.
        n_windows = 120
        rng = np.random.default_rng(seed)
        matrix = (rng.random((n_windows, N_TYPES)) < 0.4).astype(float)
        if kind == "bd":
            mechanism = BudgetDistribution(1.0, w=6)
        elif kind == "ba":
            mechanism = BudgetAbsorption(1.0, w=6)
        else:
            mechanism = LandmarkPrivacy(
                1.0, landmarks=rng.random(n_windows) < 0.3
            )
        straight = mechanism.online_releaser(
            N_TYPES, rng=seed, horizon=n_windows
        )
        expected = straight.step_block(matrix)
        partial = mechanism.online_releaser(
            N_TYPES, rng=seed, horizon=n_windows
        )
        head = partial.step_block(matrix[:cut])
        snapshot = partial.snapshot()
        resumed = mechanism.online_releaser(
            N_TYPES, rng=seed, horizon=n_windows
        )
        resumed.restore(snapshot)
        tail = resumed.step_block(matrix[cut:])
        assert np.array_equal(np.concatenate([head, tail]), expected)
        if hasattr(straight, "trace"):
            assert np.array_equal(
                resumed.trace.published, straight.trace.published
            )
            assert np.array_equal(
                resumed.trace.publication_budgets,
                straight.trace.publication_budgets,
            )
