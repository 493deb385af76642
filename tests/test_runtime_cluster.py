"""The cluster executor: fleet protocol, bit-identity, fault recovery.

The :class:`~repro.runtime.cluster.ClusterExecutor` ships shard work to
spawned worker processes over a framed message protocol — shared-memory
descriptors on the ``shm`` transport, framed matrix bytes on
``framed`` — and must be bit-identical to :class:`BatchExecutor` on
both transports, for seekable mechanisms and for the
checkpoint-prepass (budget-distribution) path, *including* runs where
a worker is killed or frozen mid-shard: the heartbeat/timeout loop
reaps the worker and requeues its shard, so no window is ever lost.

Worker faults are injected through ``cluster._TASK_FAULT_HOOK``, a
module global the forked workers inherit: the hook runs in the worker
process right before it executes a task, and a sentinel file makes the
fault one-shot (first worker to claim it dies; the requeued shard then
completes normally).
"""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro

from repro.baselines.budget_absorption import BudgetAbsorption
from repro.baselines.budget_distribution import BudgetDistribution
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery
from repro.core.uniform import UniformPatternPPM
from repro.runtime import BatchExecutor, ClusterExecutor, StreamPipeline
from repro.runtime import cluster
from repro.runtime.shm import leaked_segments
from repro.streams.indicator import EventAlphabet, IndicatorStream

ALPHABET = EventAlphabet.numbered(5)
QUERIES = [
    ContinuousQuery("q1", Pattern.of_types("q1", "e1", "e2")),
    ContinuousQuery("q2", Pattern.of_types("q2", "e3")),
]

TRANSPORTS = ("shm", "framed")


def make_stream(n_windows, seed=9):
    rng = np.random.default_rng(seed)
    return IndicatorStream(ALPHABET, rng.random((n_windows, 5)) < 0.35)


def make_pipeline(kind):
    """``seekable`` (uniform PPM), ``checkpointed`` (BD), ``ba``, or
    ``no-queries`` (the uniform PPM with no query registered)."""
    if kind in ("seekable", "no-queries"):
        mechanism = UniformPatternPPM(Pattern.of_types("p", "e1", "e4"), 1.5)
    elif kind == "ba":
        mechanism = BudgetAbsorption(1.0, w=4)
    else:
        mechanism = BudgetDistribution(1.0, w=4)
    queries = () if kind == "no-queries" else QUERIES
    return StreamPipeline(ALPHABET, queries=queries, mechanism=mechanism)


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


@pytest.fixture
def fault_hook():
    """Install a worker-side fault hook; always restore the global."""
    def install(hook):
        cluster._TASK_FAULT_HOOK = hook

    yield install
    cluster._TASK_FAULT_HOOK = None


def one_shot(sentinel, fault):
    """A hook whose fault fires in exactly one worker, once.

    The sentinel file is the claim: ``os.unlink`` succeeds in exactly
    one process, so concurrent workers cannot both die and the
    requeued shard runs clean.
    """

    def hook(message):
        try:
            os.unlink(sentinel)
        except FileNotFoundError:
            return
        fault()

    return hook


class TestClusterBitIdentity:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize(
        "kind",
        ["seekable", "checkpointed", "ba", "no-queries", "unmaterialized"],
    )
    def test_matches_batch(self, transport, kind):
        materialize = kind != "unmaterialized"
        pipeline = make_pipeline("checkpointed" if not materialize else kind)
        stream = make_stream(300)
        batch = BatchExecutor().run(pipeline, stream, rng=17)
        clustered = ClusterExecutor(
            3, transport=transport, n_shards=5, materialize=materialize
        ).run(pipeline, stream, rng=17)
        if materialize:
            assert_bit_identical(clustered, batch)
        else:
            assert clustered.original is None and clustered.released is None
            for name, detections in batch.answers.items():
                assert np.array_equal(clustered.answers[name], detections)
                assert np.array_equal(
                    clustered.true_answers[name], batch.true_answers[name]
                )
            assert clustered.quality() == batch.quality()
        assert clustered.n_windows == batch.n_windows
        assert leaked_segments() == ()

    def test_framed_transport_needs_no_shared_memory(self, monkeypatch):
        # The framed fallback serves hosts without /dev/shm: it must
        # never create a segment.
        def no_shm():
            raise OSError("no /dev/shm on this host")

        monkeypatch.setattr(cluster, "SegmentPlane", no_shm)
        pipeline = make_pipeline("checkpointed")
        stream = make_stream(120)
        batch = BatchExecutor().run(pipeline, stream, rng=11)
        clustered = ClusterExecutor(2, transport="framed").run(
            pipeline, stream, rng=11
        )
        assert_bit_identical(clustered, batch)

    @pytest.mark.parametrize("kind", ["seekable", "checkpointed"])
    def test_single_shard_runs_in_process(self, kind):
        pipeline = make_pipeline(kind)
        stream = make_stream(40)
        batch = BatchExecutor().run(pipeline, stream, rng=5)
        clustered = ClusterExecutor(2, n_shards=1).run(
            pipeline, stream, rng=5
        )
        assert_bit_identical(clustered, batch)

    def test_empty_stream(self):
        pipeline = make_pipeline("seekable")
        stream = make_stream(0)
        batch = BatchExecutor().run(pipeline, stream, rng=3)
        clustered = ClusterExecutor(2).run(pipeline, stream, rng=3)
        assert_bit_identical(clustered, batch)

    def test_unsharded_mechanism_is_refused(self):
        # A mechanism matching none of the streamable protocols (only
        # batch perturb) can neither seek nor checkpoint; it must be
        # refused up front, not silently run non-bit-identically.
        class BatchOnly:
            def perturb(self, stream, *, rng=None):
                return stream

        pipeline = StreamPipeline(
            ALPHABET, queries=QUERIES, mechanism=BatchOnly()
        )
        with pytest.raises(TypeError, match="supports only batch"):
            ClusterExecutor(2).run(pipeline, make_stream(20), rng=1)


class TestClusterValidation:
    def test_bad_transport(self):
        with pytest.raises(ValueError, match="unknown transport"):
            ClusterExecutor(2, transport="tcp")

    def test_bad_worker_count(self):
        with pytest.raises(ValueError):
            ClusterExecutor(0)

    def test_timeout_must_exceed_heartbeat(self):
        with pytest.raises(ValueError):
            ClusterExecutor(
                2, heartbeat_interval=1.0, worker_timeout=0.5
            )


class TestClusterFaults:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("kind", ["seekable", "checkpointed"])
    def test_killed_worker_requeues_shard(
        self, tmp_path, fault_hook, transport, kind
    ):
        """A worker dying mid-shard never loses the shard."""
        sentinel = tmp_path / "die-once"
        sentinel.touch()
        fault_hook(one_shot(str(sentinel), lambda: os._exit(1)))
        pipeline = make_pipeline(kind)
        stream = make_stream(240)
        batch = BatchExecutor().run(pipeline, stream, rng=29)
        executor = ClusterExecutor(2, transport=transport, n_shards=4)
        clustered = executor.run(pipeline, stream, rng=29)
        assert executor.last_restarts >= 1
        assert not sentinel.exists()  # the fault actually fired
        assert_bit_identical(clustered, batch)
        assert leaked_segments() == ()

    def test_frozen_worker_times_out_and_requeues(
        self, tmp_path, fault_hook
    ):
        """A hung (SIGSTOPped) worker trips the heartbeat timeout."""
        sentinel = tmp_path / "freeze-once"
        sentinel.touch()
        fault_hook(
            one_shot(
                str(sentinel),
                lambda: os.kill(os.getpid(), signal.SIGSTOP),
            )
        )
        pipeline = make_pipeline("seekable")
        stream = make_stream(160)
        batch = BatchExecutor().run(pipeline, stream, rng=31)
        executor = ClusterExecutor(
            2,
            n_shards=4,
            heartbeat_interval=0.1,
            worker_timeout=1.0,
        )
        clustered = executor.run(pipeline, stream, rng=31)
        assert executor.last_restarts >= 1
        assert not sentinel.exists()
        assert_bit_identical(clustered, batch)
        assert leaked_segments() == ()

    def test_persistent_fault_exhausts_restart_budget(self, fault_hook):
        """A fault that never clears fails loudly, not forever."""
        fault_hook(lambda message: os._exit(1))
        pipeline = make_pipeline("seekable")
        executor = ClusterExecutor(2, n_shards=4, max_restarts=3)
        with pytest.raises(RuntimeError, match="restart"):
            executor.run(pipeline, make_stream(120), rng=7)
        assert leaked_segments() == ()

    def test_worker_exception_propagates(self, fault_hook):
        def boom(message):
            raise RuntimeError("shard exploded for the test")

        fault_hook(boom)
        pipeline = make_pipeline("seekable")
        executor = ClusterExecutor(2, n_shards=4)
        with pytest.raises(RuntimeError, match="shard exploded"):
            executor.run(pipeline, make_stream(120), rng=7)
        assert leaked_segments() == ()

    def test_failed_run_traceback_formats_with_locals(self):
        """A failed shm run's traceback holds no view onto the closed
        plane, so formatting it with locals is safe.  Reading such a
        view would kill the process, hence the subprocess."""
        script = textwrap.dedent(
            """
            import traceback

            import numpy as np

            from repro.cep.patterns import Pattern
            from repro.cep.queries import ContinuousQuery
            from repro.runtime import ClusterExecutor, StreamPipeline
            from repro.runtime import cluster
            from repro.streams.indicator import EventAlphabet, IndicatorStream

            def boom(message):
                raise ValueError("worker raised for the traceback test")

            cluster._TASK_FAULT_HOOK = boom
            alphabet = EventAlphabet.numbered(4)
            pattern = Pattern.of_types("q", "e1", "e2")
            pipeline = StreamPipeline(
                alphabet, queries=[ContinuousQuery("q", pattern)]
            )
            rows = np.random.default_rng(1).random((400, 4)) < 0.3
            stream = IndicatorStream(alphabet, rows)
            try:
                ClusterExecutor(2, n_shards=4).run(pipeline, stream, rng=1)
            except RuntimeError as error:
                report = traceback.TracebackException.from_exception(
                    error, capture_locals=True
                )
                print("".join(report.format()))
            """
        )
        source = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(
            filter(None, [source, os.environ.get("PYTHONPATH")])
        )
        child = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert "worker raised for the traceback test" in child.stdout
        assert leaked_segments() == ()
