"""Edge-case parity of chunk stepping against the batch executor.

The property suite (``tests/property/test_property_runtime.py``) drives
random streams and chunk sizes; these tests pin the degenerate corners
explicitly — empty streams, chunk sizes past the stream end, and
window-at-a-time stepping — for every streamable mechanism family,
stepping the mechanism's chunk stepper as the service sessions do.
Every executor also reports the window count it ran, even with no
queries and no materialized streams.
"""

import numpy as np
import pytest

from repro.baselines.budget_distribution import BudgetDistribution
from repro.baselines.event_level import EventLevelRR
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
from repro.streams.indicator import EventAlphabet, IndicatorStream

ALPHABET = EventAlphabet.numbered(5)
QUERIES = [
    ContinuousQuery("q1", Pattern.of_types("q1", "e1", "e2")),
    ContinuousQuery("q2", Pattern.of_types("q2", "e3")),
]


def make_stream(n_windows, seed=9):
    rng = np.random.default_rng(seed)
    return IndicatorStream(ALPHABET, rng.random((n_windows, 5)) < 0.35)


def mechanisms():
    return {
        "identity": None,
        "uniform": UniformPatternPPM(Pattern.of_types("p", "e1", "e4"), 1.5),
        "multi": MultiPatternPPM(
            [
                UniformPatternPPM(Pattern.of_types("p", "e1"), 1.0),
                UniformPatternPPM(Pattern.of_types("p2", "e2", "e3"), 2.0),
            ]
        ),
        "event-level": EventLevelRR(2.0),
        "bd": BudgetDistribution(1.0, w=4),
    }


def assert_released_like_batch(step_in_chunks, kind, n_windows, size, seed):
    pipeline = StreamPipeline(
        ALPHABET, queries=QUERIES, mechanism=mechanisms()[kind]
    )
    stream = make_stream(n_windows)
    batch = BatchExecutor().run(pipeline, stream, rng=seed)
    released = step_in_chunks(pipeline, stream, size, seed)
    assert IndicatorStream(ALPHABET, released) == batch.released


class TestChunkSteppingEdgeCases:
    @pytest.mark.parametrize("kind", list(mechanisms()))
    def test_empty_stream_matches_batch(self, kind, step_in_chunks):
        assert_released_like_batch(step_in_chunks, kind, 0, 8, 17)

    @pytest.mark.parametrize("kind", list(mechanisms()))
    def test_chunk_size_past_stream_end_matches_batch(
        self, kind, step_in_chunks
    ):
        assert_released_like_batch(step_in_chunks, kind, 23, 1000, 23)

    @pytest.mark.parametrize("kind", list(mechanisms()))
    def test_chunk_size_one_matches_batch(self, kind, step_in_chunks):
        assert_released_like_batch(step_in_chunks, kind, 31, 1, 31)

    def test_empty_stream_without_materialize(self):
        pipeline = StreamPipeline(
            ALPHABET,
            queries=QUERIES,
            mechanism=mechanisms()["uniform"],
        )
        result = ShardedExecutor(2, materialize=False).run(
            pipeline, make_stream(0), rng=3
        )
        assert result.original is None and result.released is None
        assert result.n_windows == 0
        for vector in result.answers.values():
            assert vector.shape == (0,)


@pytest.mark.parametrize(
    "make_executor",
    [
        BatchExecutor,
        lambda: ShardedExecutor(3, materialize=False),
        lambda: ClusterExecutor(2, materialize=False),
    ],
    ids=["batch", "sharded", "cluster"],
)
def test_window_count_without_queries_or_streams(make_executor):
    # Regression: the count used to be read off the materialized stream
    # or the first answer vector, so a query-free run that kept no
    # streams reported 0 windows.
    pipeline = StreamPipeline(ALPHABET, mechanism=mechanisms()["uniform"])
    result = make_executor().run(pipeline, make_stream(101), rng=5)
    assert result.n_windows == 101
