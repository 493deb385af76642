"""Shared-memory segment lifecycle: no leaks on any executor path.

The zero-copy transport's contract is that the parent — and only the
parent — owns segment lifetime: every ``repro_shm_*`` segment a run
creates is closed *and unlinked* before ``run()`` returns, whether the
run succeeds, a worker raises mid-shard, or the pool tears down early.
These tests pin that contract directly against ``/dev/shm``, plus the
descriptor/plane/attach primitives it is built from.

Worker failures are injected through ``cluster._TASK_FAULT_HOOK``, a
module global the forked cluster workers inherit: the hook runs in the
worker right before it executes a task.
"""

import pickle

import numpy as np
import pytest

from repro.baselines.budget_absorption import BudgetAbsorption
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery
from repro.core.uniform import UniformPatternPPM
from repro.runtime import BatchExecutor, ClusterExecutor, StreamPipeline
from repro.runtime import cluster
from repro.runtime.shm import (
    SEGMENT_PREFIX,
    ArrayDescriptor,
    SegmentPlane,
    attach,
    leaked_segments,
)
from repro.streams.indicator import EventAlphabet, IndicatorStream

ALPHABET = EventAlphabet.numbered(6)
QUERIES = [
    ContinuousQuery("q1", Pattern.of_types("q1", "e1", "e3")),
    ContinuousQuery("q2", Pattern.of_types("q2", "e2")),
]


def make_pipeline(mechanism=None):
    if mechanism is None:
        mechanism = UniformPatternPPM(Pattern.of_types("p", "e1", "e2"), 1.0)
    return StreamPipeline(ALPHABET, queries=QUERIES, mechanism=mechanism)


def make_stream(n_windows, seed=5):
    rng = np.random.default_rng(seed)
    return IndicatorStream(ALPHABET, rng.random((n_windows, 6)) < 0.3)


def _boom(*args, **kwargs):
    raise RuntimeError("worker exploded mid-shard")


@pytest.fixture
def fault_hook():
    """Install a worker-side fault hook; always restore the global."""

    def install(hook):
        cluster._TASK_FAULT_HOOK = hook

    yield install
    cluster._TASK_FAULT_HOOK = None


class TestArrayDescriptor:
    def test_nbytes(self):
        descriptor = ArrayDescriptor("seg", "|b1", (100, 6))
        assert descriptor.nbytes == 600
        assert ArrayDescriptor("seg", "<f8", (3,)).nbytes == 24
        assert ArrayDescriptor("seg", "<i4", ()).nbytes == 4
        assert ArrayDescriptor("seg", "<f8", (0, 6)).nbytes == 0

    def test_pickles_small_and_round_trips(self):
        # The descriptor IS the wire format: its pickled size must not
        # scale with the array it describes.
        descriptor = ArrayDescriptor("repro_shm_x", "|b1", (10**9, 64))
        payload = pickle.dumps(descriptor)
        assert len(payload) < 200
        assert pickle.loads(payload) == descriptor


class TestSegmentPlane:
    def test_share_view_round_trip(self):
        array = np.arange(24, dtype=np.float64).reshape(4, 6)
        with SegmentPlane() as plane:
            descriptor = plane.share(array)
            assert descriptor.segment.startswith(SEGMENT_PREFIX)
            assert descriptor.shape == (4, 6)
            view = plane.view(descriptor)
            assert np.array_equal(view, array)
            # a view, not a copy: writes land in the shared pages
            view[0, 0] = -1.0
            assert plane.view(descriptor)[0, 0] == -1.0
        assert leaked_segments() == ()

    def test_close_unlinks_every_segment(self):
        plane = SegmentPlane()
        names = [
            plane.allocate((10, 3), np.bool_).segment for _ in range(3)
        ]
        assert set(names) <= set(leaked_segments())
        plane.close()
        assert len(plane) == 0
        assert not set(names) & set(leaked_segments())

    def test_close_is_idempotent(self):
        plane = SegmentPlane()
        plane.allocate((5,), np.float64)
        plane.close()
        plane.close()
        assert leaked_segments() == ()

    def test_close_runs_on_exception(self):
        with pytest.raises(RuntimeError):
            with SegmentPlane() as plane:
                descriptor = plane.allocate((8, 2), np.int64)
                raise RuntimeError("mid-run failure")
        assert descriptor.segment not in leaked_segments()

    def test_degenerate_shapes_are_mappable(self):
        with SegmentPlane() as plane:
            empty = plane.view(plane.allocate((0, 6), np.bool_))
            assert empty.shape == (0, 6)
            scalar = plane.view(plane.allocate((), np.int32))
            assert scalar.shape == ()
        assert leaked_segments() == ()


class TestAttach:
    def test_attach_views_shared_pages(self):
        array = np.arange(12, dtype=np.int64).reshape(3, 4)
        with SegmentPlane() as plane:
            descriptor = plane.share(array)
            attachment = attach(descriptor)
            with attachment as view:
                assert np.array_equal(view, array)
                view[2, 3] = 99
            assert attachment.array is None
            # the write crossed the attachment into the parent's view
            assert plane.view(descriptor)[2, 3] == 99
        assert leaked_segments() == ()

    def test_missing_segment_raises(self):
        descriptor = ArrayDescriptor("repro_shm_never_created", "|b1", (4,))
        with pytest.raises(FileNotFoundError):
            with attach(descriptor):
                pass


class TestExecutorLifecycle:
    def test_no_leak_on_success(self):
        executor = ClusterExecutor(4, transport="shm")
        result = executor.run(make_pipeline(), make_stream(257), rng=42)
        assert result.n_windows == 257
        assert leaked_segments() == ()

    def test_no_leak_when_worker_raises_mid_shard(self, fault_hook):
        fault_hook(_boom)
        executor = ClusterExecutor(4, transport="shm")
        with pytest.raises(RuntimeError, match="worker exploded"):
            executor.run(make_pipeline(), make_stream(200), rng=42)
        assert leaked_segments() == ()

    def test_no_leak_when_replay_worker_raises(self, fault_hook):
        def boom_on_replay(message):
            # A BA shard: it carries the rows the parent released.
            assert message["work"].decisions is not None
            _boom()

        fault_hook(boom_on_replay)
        executor = ClusterExecutor(2, transport="shm")
        pipeline = make_pipeline(BudgetAbsorption(1.0, w=4))
        with pytest.raises(RuntimeError, match="worker exploded"):
            executor.run(pipeline, make_stream(60), rng=1)
        assert leaked_segments() == ()

    def test_no_leak_on_checkpointed_success(self):
        executor = ClusterExecutor(2, transport="shm")
        pipeline = make_pipeline(BudgetAbsorption(1.0, w=4))
        batch = BatchExecutor().run(pipeline, make_stream(60), rng=1)
        sharded = executor.run(pipeline, make_stream(60), rng=1)
        assert sharded.released == batch.released
        assert leaked_segments() == ()
