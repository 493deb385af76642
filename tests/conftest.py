"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.cep.engine import CEPEngine
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery
from repro.datasets.synthetic import SyntheticConfig, synthesize_dataset
from repro.runtime.shm import leaked_segments
from repro.streams.events import Event
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.streams.stream import EventStream


@pytest.fixture(scope="session", autouse=True)
def _no_shared_memory_leaks():
    """Fail the run if any test leaves a ``repro_shm_*`` segment behind.

    The zero-copy shard transport guarantees the parent unlinks every
    segment it creates on every exit path; a name still present under
    ``/dev/shm`` after the suite is a lifecycle regression (and leaked
    host memory).  Pre-existing segments (a concurrent pytest run, a
    crashed earlier session) are excluded so the guard only blames this
    process.
    """
    before = set(leaked_segments())
    yield
    stray = sorted(set(leaked_segments()) - before)
    assert not stray, (
        f"test run leaked shared-memory segments: {stray} — some "
        "SegmentPlane was never closed"
    )


@pytest.fixture
def alphabet6():
    """A six-symbol alphabet e1..e6."""
    return EventAlphabet.numbered(6)


@pytest.fixture
def stream200(alphabet6):
    """A deterministic 200-window indicator stream over e1..e6."""
    rng = np.random.default_rng(42)
    matrix = rng.random((200, 6)) < 0.4
    return IndicatorStream(alphabet6, matrix)


@pytest.fixture
def private_pattern():
    """A private pattern over e1, e2, e3."""
    return Pattern.of_types("private", "e1", "e2", "e3")


@pytest.fixture
def target_pattern():
    """A target pattern overlapping the private one on e2, e3."""
    return Pattern.of_types("target", "e2", "e3", "e4")


@pytest.fixture
def make_engine(alphabet6, private_pattern, target_pattern):
    """Build an engine protecting ``private_pattern`` and answering one
    query ``"q"`` on ``target_pattern``; keywords go to the
    constructor (``mechanism=``, ``accounting=``, ``quality=``)."""

    def make(**setup):
        return CEPEngine(
            alphabet6,
            patterns=[private_pattern],
            queries=[ContinuousQuery("q", target_pattern)],
            **setup,
        )

    return make


@pytest.fixture
def abc_stream():
    """A small event stream over types a, b, c, x."""
    types = ["a", "x", "b", "c", "a", "b", "x", "c"]
    return EventStream(
        [Event(name, float(i)) for i, name in enumerate(types)]
    )


@pytest.fixture
def tiny_workload():
    """A small but realistic synthetic workload (Algorithm 2)."""
    return synthesize_dataset(
        SyntheticConfig(n_windows=150, n_history_windows=100), rng=7
    )
