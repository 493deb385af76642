"""Property-based bit-identity of the decision kernel's scan modes.

The plan → scan → resolve pipeline in :mod:`repro.runtime.decisions`
promises that the vectorized scan never changes a single output bit:
whatever the stream contents, scheduler parameters, block chunking
(including the prefetch-threshold boundary sizes 1/31/32/33) or a
snapshot/restore mid-run, ``scan=margin`` and ``scan=exact`` must
reproduce the ``scan=off`` scalar loop exactly — releases, verdict
traces, scheduler state and snapshots alike.  The streams mix 0/1 rows
with real values spanning ±1e-6…±1e6, at two widths, so the bound
certificate's slack is exercised across magnitudes.  Publish-dense
BD/BA runs are pinned against the seed loop in
:mod:`repro.runtime.reference` as well, BD/BA's constant-budget
stretches are checked against their budget hooks, and sharded BD/BA
replay must draw no randomness at all.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    decisions,
    sharding,
)
from repro.runtime.reference import reference_w_event_perturb
from repro.runtime.rng_pool import IndexedRngPool
from repro.streams.indicator import EventAlphabet, IndicatorStream

N_TYPES = 3

#: The stress streams' widths: the historical 3 types and a wide one.
WIDTHS = (N_TYPES, 17)

#: The kernel's default prefetch threshold is 32; these block sizes
#: straddle it, exercising both the vectorized-uniform and the
#: per-step-draw paths plus the off-by-one edges.
BLOCK_SIZES = (1, 31, 32, 33)


@st.composite
def stress_matrices(draw):
    """Float statistics matrices from constant runs, random 0/1 segments
    and real-valued segments spanning ±1e-6…±1e6."""
    width = draw(st.sampled_from(WIDTHS))
    segments = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["zeros", "ones", "noise", "real"]),
                st.integers(min_value=1, max_value=40),
            ),
            min_size=1,
            max_size=5,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    rows = []
    for kind, length in segments:
        shape = (length, width)
        if kind == "zeros":
            rows.append(np.zeros(shape))
        elif kind == "ones":
            rows.append(np.ones(shape))
        elif kind == "noise":
            rows.append((rng.random(shape) < 0.5).astype(float))
        else:
            magnitudes = 10.0 ** rng.uniform(-6.0, 6.0, size=shape)
            rows.append(rng.choice([-1.0, 1.0], size=shape) * magnitudes)
    return np.vstack(rows)


@st.composite
def block_plans(draw):
    """A chunking of a run into prefetch-boundary block sizes."""
    return draw(
        st.lists(
            st.sampled_from(BLOCK_SIZES), min_size=1, max_size=8
        )
    )


mechanism_params = st.tuples(
    st.floats(min_value=0.05, max_value=10.0),  # epsilon
    st.integers(min_value=1, max_value=12),  # w
    st.integers(min_value=0, max_value=1000),  # rng seed
)


def chunks(matrix, plan):
    """Cut ``matrix`` into the plan's block sizes (cycled, clipped)."""
    row = 0
    index = 0
    while row < matrix.shape[0]:
        size = min(plan[index % len(plan)], matrix.shape[0] - row)
        yield matrix[row : row + size]
        row += size
        index += 1


def assert_snapshots_equal(left, right):
    assert left.keys() == right.keys()
    for key in left:
        a, b = left[key], right[key]
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert a is not None and b is not None, key
            assert np.array_equal(a, b), key
        else:
            assert a == b, key


def run_w_event(cls, epsilon, w, seed, matrix, plan, scan):
    mechanism = cls(epsilon, w=w, scan=scan)
    releaser = mechanism.online_releaser(
        matrix.shape[1], rng=seed, horizon=matrix.shape[0]
    )
    released = [releaser.step_block(block) for block in chunks(matrix, plan)]
    return releaser, np.vstack(released)


class TestWEventScanIdentity:
    @given(
        matrix=stress_matrices(), params=mechanism_params, plan=block_plans()
    )
    @settings(max_examples=40, deadline=None)
    def test_bd_scan_bit_identical(self, matrix, params, plan):
        self.check_scheduler(BudgetDistribution, matrix, params, plan)

    @given(
        matrix=stress_matrices(), params=mechanism_params, plan=block_plans()
    )
    @settings(max_examples=40, deadline=None)
    def test_ba_scan_bit_identical(self, matrix, params, plan):
        self.check_scheduler(BudgetAbsorption, matrix, params, plan)

    def check_scheduler(self, cls, matrix, params, plan):
        epsilon, w, seed = params
        baseline, expected = run_w_event(
            cls, epsilon, w, seed, matrix, plan, "off"
        )
        for scan in ("margin", "exact"):
            releaser, released = run_w_event(
                cls, epsilon, w, seed, matrix, plan, scan
            )
            assert np.array_equal(released, expected), scan
            assert np.array_equal(
                releaser.trace.published, baseline.trace.published
            )
            assert np.array_equal(
                releaser.trace.publication_budgets,
                baseline.trace.publication_budgets,
            )
            assert np.array_equal(
                releaser.trace.dissimilarity_budgets,
                baseline.trace.dissimilarity_budgets,
            )
            assert releaser.scheduler_state == baseline.scheduler_state
            assert_snapshots_equal(releaser.snapshot(), baseline.snapshot())

    @given(
        matrix=stress_matrices(),
        params=mechanism_params,
        cut_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_restore_mid_block_matches_uninterrupted(
        self, matrix, params, cut_fraction
    ):
        epsilon, w, seed = params
        n = matrix.shape[0]
        cut = min(n - 1, int(cut_fraction * n)) if n > 1 else 0
        baseline, expected = run_w_event(
            BudgetDistribution, epsilon, w, seed, matrix, [33], "off"
        )
        width = matrix.shape[1]
        mechanism = BudgetDistribution(epsilon, w=w, scan="margin")
        first = mechanism.online_releaser(width, rng=seed, horizon=n)
        head = first.step_block(matrix[:cut])
        checkpoint = first.snapshot()
        second = mechanism.online_releaser(width, rng=seed, horizon=n)
        second.restore(checkpoint)
        tail = second.step_block(matrix[cut:])
        assert np.array_equal(np.vstack([head, tail]), expected)
        assert np.array_equal(second.trace.published, baseline.trace.published)
        assert_snapshots_equal(second.snapshot(), baseline.snapshot())


#: Publish-dense BD/BA draws.  The dissimilarity noise scale and the
#: publish threshold both scale with 1/ε, so BD/BA publish on a steady
#: share of rows at every ε — there is no depleted regime to skip.
DENSE_EPSILONS = (0.1, 1.0, 8.0)
DENSE_W = 40

#: Block splits straddling the prefetch threshold and the 32-row
#: distance pass, plus ``None`` for the whole run as one block.
DENSE_SPLITS = (1, 31, 32, 33, 64, None)


@st.composite
def dense_runs(draw):
    """``(epsilon, matrix, seed)`` with occurrence 0.15–0.5 per type."""
    epsilon = draw(st.sampled_from(DENSE_EPSILONS))
    occurrence = draw(st.floats(min_value=0.15, max_value=0.5))
    n = draw(st.integers(min_value=1, max_value=160))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rows = np.random.default_rng(seed).random((n, N_TYPES))
    return epsilon, (rows < occurrence).astype(float), seed


#: The per-timestamp trace columns, named as the seed loop's
#: ``final_state`` keys.
TRACE_COLUMNS = ("published", "publication_budgets", "dissimilarity_budgets")


def assert_runs_equal(left, right):
    """Releases, trace columns, scheduler state, last release and t."""
    assert np.array_equal(left["released"], right["released"])
    assert left["scheduler_state"] == right["scheduler_state"]
    assert np.array_equal(left["last_release"], right["last_release"])
    assert left["t"] == right["t"]
    for column in TRACE_COLUMNS:
        assert np.array_equal(left[column], right[column]), column


def kernel_run(cls, epsilon, seed, matrix, split, scan):
    plan = [split or max(1, matrix.shape[0])]
    releaser, released = run_w_event(
        cls, epsilon, DENSE_W, seed, matrix, plan, scan
    )
    return {
        "released": released,
        **{
            column: getattr(releaser.trace, column)
            for column in TRACE_COLUMNS
        },
        "scheduler_state": releaser.scheduler_state,
        "last_release": releaser.last_release,
        "t": releaser.t,
    }


class TestPublishDenseWEvent:
    @given(
        run=dense_runs(),
        split=st.sampled_from(DENSE_SPLITS),
        cls=st.sampled_from([BudgetDistribution, BudgetAbsorption]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_loop_and_seed_loop(self, run, split, cls):
        epsilon, matrix, seed = run
        expected = kernel_run(cls, epsilon, seed, matrix, split, "off")
        for scan in ("margin", "exact"):
            assert_runs_equal(
                kernel_run(cls, epsilon, seed, matrix, split, scan), expected
            )
        seed_loop = {}
        reference_w_event_perturb(
            cls(epsilon, w=DENSE_W),
            IndicatorStream(
                EventAlphabet.numbered(N_TYPES), matrix.astype(bool)
            ),
            rng=seed,
            final_state=seed_loop,
        )
        assert_runs_equal(expected, seed_loop)


@pytest.mark.parametrize("cls", [BudgetDistribution, BudgetAbsorption])
def test_block_longer_than_a_chunk_matches_small_blocks(cls):
    """A block spanning several bound chunks (row norms and noises are
    computed per chunk) equals the same rows stepped in 32-row blocks,
    the scalar loop and the seed loop."""
    n = 2 * decisions._CHUNK_ROWS + 77
    rng = np.random.default_rng(23)
    matrix = (rng.random((n, 5)) < 0.3).astype(float)
    whole, released = run_w_event(cls, 1.0, DENSE_W, 4, matrix, [n], "margin")
    small, small_released = run_w_event(
        cls, 1.0, DENSE_W, 4, matrix, [32], "margin"
    )
    scalar, scalar_released = run_w_event(
        cls, 1.0, DENSE_W, 4, matrix, [n], "off"
    )
    assert np.array_equal(released, small_released)
    assert np.array_equal(released, scalar_released)
    assert_snapshots_equal(whole.snapshot(), small.snapshot())
    assert_snapshots_equal(whole.snapshot(), scalar.snapshot())
    seed_loop = {}
    reference_w_event_perturb(
        cls(1.0, w=DENSE_W),
        IndicatorStream(EventAlphabet.numbered(5), matrix.astype(bool)),
        rng=4,
        final_state=seed_loop,
    )
    assert np.array_equal(released, seed_loop["released"])


@st.composite
def scheduler_states(draw):
    """A BD/BA mechanism and the scheduler state it reaches at ``t``
    after publishing on a random share of its positive-budget steps."""
    cls = draw(st.sampled_from([BudgetDistribution, BudgetAbsorption]))
    epsilon = draw(st.floats(min_value=0.05, max_value=10.0))
    w = draw(st.integers(min_value=1, max_value=12))
    t = draw(st.integers(min_value=0, max_value=80))
    share = draw(st.floats(min_value=0.0, max_value=1.0))
    coins = np.random.default_rng(draw(st.integers(0, 2**16))).random(t)
    mechanism = cls(epsilon, w=w)
    state = mechanism._initial_scheduler_state()
    for step in range(t):
        budget = mechanism._publication_budget(step, state)
        if budget > 0 and coins[step] < share:
            mechanism._after_publication(step, budget, state)
    return mechanism, state, t


class TestBudgetUntil:
    @given(drawn=scheduler_states())
    @settings(max_examples=200, deadline=None)
    def test_budget_and_state_hold_over_the_stretch(self, drawn):
        """Every timestamp the kernel hops without calling the budget
        hook gets the budget of the stretch's first timestamp and would
        leave the state as it is, so hopping can never change a
        release or a snapshot."""
        mechanism, state, t = drawn
        budget = mechanism._publication_budget(t, state)
        end = mechanism._budget_until(t, state)
        assert end > t
        for later in range(t, int(min(end, t + 3 * mechanism.w + 2))):
            probe = copy.deepcopy(state)
            assert mechanism._publication_budget(later, probe) == budget
            assert probe == state


#: The parallel executors: threads, and the multi-process cluster.
PARALLEL = {"thread": ShardedExecutor, "cluster": ClusterExecutor}


@pytest.mark.parametrize("backend", list(PARALLEL))
@pytest.mark.parametrize("cls", [BudgetDistribution, BudgetAbsorption])
def test_sharded_replay_installs_no_child_generator(monkeypatch, backend, cls):
    """The prepass is the run's one release, so BD/BA shards only match
    its rows and never install a child generator — in pool threads or
    in forked cluster workers alike."""
    armed = []
    installs = []
    generator = IndexedRngPool.generator
    prepass = sharding.checkpoint_prepass

    def guarded_generator(pool, index):
        if armed:
            installs.append(index)
            raise AssertionError(f"replay installed child generator {index}")
        return generator(pool, index)

    def prepass_then_arm(*args, **kwargs):
        plan = prepass(*args, **kwargs)
        armed.append(True)  # the fleet forks after this point
        return plan

    monkeypatch.setattr(IndexedRngPool, "generator", guarded_generator)
    monkeypatch.setattr(sharding, "checkpoint_prepass", prepass_then_arm)
    epsilon = 1.0
    mechanism = cls(epsilon, w=DENSE_W)
    alphabet = EventAlphabet.numbered(5)
    pipeline = StreamPipeline(
        alphabet,
        queries=[ContinuousQuery("q", Pattern.of_types("q", "e1", "e3"))],
        mechanism=mechanism,
    )
    rows = np.random.default_rng(12).random((600, 5)) < 0.3
    stream = IndicatorStream(alphabet, rows)
    failure = None
    try:
        sharded = PARALLEL[backend](2, n_shards=4).run(pipeline, stream, rng=8)
    except Exception as error:  # a worker's guard trip, re-raised here
        failure = f"{type(error).__name__}: {error}"
    assert failure is None, failure
    assert armed and not installs
    sharded_spend = mechanism.last_trace.max_window_spend(DENSE_W)
    monkeypatch.setattr(IndexedRngPool, "generator", generator)
    batch = BatchExecutor().run(pipeline, stream, rng=8)
    assert sharded.released == batch.released
    assert sharded_spend <= epsilon
    assert sharded_spend == mechanism.last_trace.max_window_spend(DENSE_W)


landmark_params = st.tuples(
    st.floats(min_value=0.05, max_value=10.0),  # epsilon
    st.floats(min_value=0.1, max_value=0.9),  # rho
    st.integers(min_value=0, max_value=1000),  # rng seed
    st.integers(min_value=0, max_value=2**16),  # mask seed
    st.floats(min_value=0.0, max_value=1.0),  # landmark density
)


class TestLandmarkScanIdentity:
    @given(
        matrix=stress_matrices(), params=landmark_params, plan=block_plans()
    )
    @settings(max_examples=40, deadline=None)
    def test_landmark_scan_bit_identical(self, matrix, params, plan):
        epsilon, rho, seed, mask_seed, density = params
        n = matrix.shape[0]
        mask = np.random.default_rng(mask_seed).random(n) < density
        outputs = {}
        snapshots = {}
        for scan in ("off", "margin", "exact"):
            mechanism = LandmarkPrivacy(
                epsilon, landmarks=mask, rho=rho, scan=scan
            )
            releaser = mechanism.online_releaser(
                matrix.shape[1], rng=seed, horizon=n
            )
            outputs[scan] = np.vstack(
                [releaser.step_block(block) for block in chunks(matrix, plan)]
            )
            snapshots[scan] = releaser.snapshot()
        for scan in ("margin", "exact"):
            assert np.array_equal(outputs[scan], outputs["off"]), scan
            assert_snapshots_equal(snapshots[scan], snapshots["off"])

    @given(matrix=stress_matrices(), params=landmark_params)
    @settings(max_examples=30, deadline=None)
    def test_landmark_prepass_elision_matches_stepping(self, matrix, params):
        """advance_block (regular rows hopped) ends in the same state."""
        epsilon, rho, seed, mask_seed, density = params
        n = matrix.shape[0]
        mask = np.random.default_rng(mask_seed).random(n) < density
        mechanism = LandmarkPrivacy(
            epsilon, landmarks=mask, rho=rho, scan="margin"
        )
        width = matrix.shape[1]
        stepped = mechanism.online_releaser(width, rng=seed, horizon=n)
        stepped.step_block(matrix)
        prepassed = mechanism.online_releaser(width, rng=seed, horizon=n)
        prepassed.advance_block(matrix)
        assert_snapshots_equal(prepassed.snapshot(), stepped.snapshot())
