"""Micro-benchmark: online session overhead vs the batch path.

The online session answers per window (deployment-shaped); the batch
path vectorizes over the whole stream.  This bench quantifies the price
of the push-based API and keeps it honest — the session must stay
within interactive throughput (thousands of windows per second).
"""

import numpy as np
import pytest

from repro.cep.engine import CEPEngine
from repro.cep.online import OnlineSession
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery
from repro.core.uniform import UniformPatternPPM
from repro.streams.indicator import EventAlphabet, IndicatorStream

N_WINDOWS = 2000


@pytest.fixture(scope="module")
def setup():
    alphabet = EventAlphabet.numbered(8)
    rng = np.random.default_rng(1)
    stream = IndicatorStream(alphabet, rng.random((N_WINDOWS, 8)) < 0.4)
    private = Pattern.of_types("p", "e1", "e2")
    engine = CEPEngine(
        alphabet,
        patterns=[private],
        queries=[ContinuousQuery("q", Pattern.of_types("t", "e2", "e3"))],
        mechanism=UniformPatternPPM(private, 2.0),
    )
    return engine, stream


def test_batch_service_throughput(benchmark, setup):
    engine, stream = setup
    report = benchmark(lambda: engine.process_indicators(stream, rng=3))
    assert report.answers["q"].n_windows == N_WINDOWS


def test_online_service_throughput(benchmark, setup):
    engine, stream = setup

    def run():
        return OnlineSession(engine, rng=3).run(stream)

    answers = benchmark(run)
    assert len(answers["q"]) == N_WINDOWS
    # The online answers must also be bit-identical to the batch path.
    batch = engine.process_indicators(stream, rng=3)
    assert answers["q"] == list(batch.answers["q"].detections)
