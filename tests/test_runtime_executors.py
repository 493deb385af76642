"""Edge-case parity of the chunked executor against the batch executor.

The property suite (``tests/property/test_property_runtime.py``) drives
random streams and chunk sizes; these tests pin the degenerate corners
explicitly — empty streams, chunk sizes past the stream end, and
window-at-a-time stepping — for every streamable mechanism family.
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
    ChunkedExecutor,
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


class TestChunkedEdgeCases:
    @pytest.mark.parametrize("kind", list(mechanisms()))
    def test_empty_stream_matches_batch(self, kind):
        pipeline = StreamPipeline(
            ALPHABET, queries=QUERIES, mechanism=mechanisms()[kind]
        )
        stream = make_stream(0)
        batch = BatchExecutor().run(pipeline, stream, rng=17)
        chunked = ChunkedExecutor(8).run(pipeline, stream, rng=17)
        assert chunked.n_windows == 0
        assert_bit_identical(chunked, batch)
        for vector in chunked.answers.values():
            assert vector.shape == (0,)

    @pytest.mark.parametrize("kind", list(mechanisms()))
    def test_chunk_size_past_stream_end_matches_batch(self, kind):
        pipeline = StreamPipeline(
            ALPHABET, queries=QUERIES, mechanism=mechanisms()[kind]
        )
        stream = make_stream(23)
        batch = BatchExecutor().run(pipeline, stream, rng=23)
        chunked = ChunkedExecutor(1000).run(pipeline, stream, rng=23)
        assert_bit_identical(chunked, batch)

    @pytest.mark.parametrize("kind", list(mechanisms()))
    def test_chunk_size_one_matches_batch(self, kind):
        pipeline = StreamPipeline(
            ALPHABET, queries=QUERIES, mechanism=mechanisms()[kind]
        )
        stream = make_stream(31)
        batch = BatchExecutor().run(pipeline, stream, rng=31)
        chunked = ChunkedExecutor(1).run(pipeline, stream, rng=31)
        assert_bit_identical(chunked, batch)

    def test_empty_stream_without_materialize(self):
        pipeline = StreamPipeline(
            ALPHABET,
            queries=QUERIES,
            mechanism=mechanisms()["uniform"],
        )
        result = ChunkedExecutor(4, materialize=False).run(
            pipeline, make_stream(0), rng=3
        )
        assert result.original is None and result.released is None
        assert result.n_windows == 0


@pytest.mark.parametrize(
    "make_executor",
    [
        BatchExecutor,
        lambda: ChunkedExecutor(16, materialize=False),
        lambda: ShardedExecutor(3, materialize=False),
        lambda: ClusterExecutor(2, materialize=False),
    ],
    ids=["batch", "chunked", "sharded", "cluster"],
)
def test_window_count_without_queries_or_streams(make_executor):
    # Regression: the count used to be read off the materialized stream
    # or the first answer vector, so a query-free run that kept no
    # streams reported 0 windows.
    pipeline = StreamPipeline(ALPHABET, mechanism=mechanisms()["uniform"])
    result = make_executor().run(pipeline, make_stream(101), rng=5)
    assert result.n_windows == 101
