"""Shared fixtures for the test suite."""

import asyncio
import gc
import logging

import numpy as np
import pytest

from repro.cep.engine import CEPEngine
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery
from repro.datasets.synthetic import SyntheticConfig, synthesize_dataset
from repro.io import registry as io_registry
from repro.runtime.shm import leaked_segments
from repro.service import registry as service_registry
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


#: Every plugin registry a test may register into.
_REGISTRIES = (
    service_registry._MECHANISMS,
    service_registry._EXECUTORS,
    io_registry._SOURCES,
    io_registry._SINKS,
)


@pytest.fixture(autouse=True)
def _scoped_plugin_registrations():
    """Undo every plugin a test registers once the test ends.

    The registries are module-global tables; without this a plugin one
    test module registers shows up in ``registered_*()`` and in the
    spec strategies of every module that runs after it.
    """
    saved = [
        {
            name: dict(table)
            for name, table in vars(registry).items()
            if isinstance(table, dict)
        }
        for registry in _REGISTRIES
    ]
    yield
    for registry, tables in zip(_REGISTRIES, saved):
        for name, contents in tables.items():
            table = getattr(registry, name)
            table.clear()
            table.update(contents)


@pytest.fixture(scope="session", autouse=True)
def _no_leaked_test_plugins():
    """Fail the run if a ``test-`` plugin is still registered at its
    end — a registration that escaped the per-test scoping above."""
    yield
    stray = sorted(
        name
        for registry in _REGISTRIES
        for name in registry.names()
        if name.startswith("test-")
    )
    assert not stray, f"test run leaked plugin registrations: {stray}"


@pytest.fixture(scope="session")
def step_in_chunks():
    """Step a pipeline's mechanism over a stream in ``size``-window
    chunks through one chunk stepper; return the released matrix.

    Any split of a stream must release exactly what
    :class:`~repro.runtime.BatchExecutor` releases under the same
    seed — the chunk invariance the service sessions rely on.
    """

    def step(pipeline, stream, size, rng):
        matrix = stream.matrix_view()
        stepper = pipeline.runtime_mechanism.stepper(
            stream.alphabet, rng=rng, horizon=len(matrix)
        )
        blocks = [
            stepper.step_block(matrix[start : start + size])
            for start in range(0, len(matrix), size)
        ]
        return np.concatenate(blocks) if blocks else matrix.copy()

    return step


class _LostExceptions(logging.Handler):
    """Collects the asyncio logger's reports of futures and tasks
    whose exception nobody retrieved."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages = []

    def emit(self, record):
        message = record.getMessage()
        if "exception was never retrieved" in message:
            self.messages.append(message)


class _CountingLoopPolicy(asyncio.DefaultEventLoopPolicy):
    """The default policy, counting the event loops it creates."""

    loops = 0

    def new_event_loop(self):
        _CountingLoopPolicy.loops += 1
        return super().new_event_loop()


@pytest.fixture(scope="session", autouse=True)
def _count_event_loops():
    previous = asyncio.get_event_loop_policy()
    asyncio.set_event_loop_policy(_CountingLoopPolicy())
    yield
    asyncio.set_event_loop_policy(previous)


@pytest.fixture(autouse=True)
def _no_lost_task_exceptions():
    """Fail a test during which asyncio reports an exception that was
    never retrieved.

    asyncio reports those when the future or task is garbage
    collected, so a test that ran an event loop collects garbage
    before the check: an error a served path raised inside the
    drainer but never surfaced to its caller is then blamed on the
    test that lost it.
    """
    handler = _LostExceptions()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    loops = _CountingLoopPolicy.loops
    try:
        yield
        if _CountingLoopPolicy.loops != loops:
            gc.collect()
    finally:
        logger.removeHandler(handler)
    assert not handler.messages, (
        "asyncio lost exceptions nobody retrieved: "
        + "; ".join(handler.messages)
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
