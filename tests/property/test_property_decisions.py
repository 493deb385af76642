"""Property-based bit-identity of the BD/BA and landmark release paths.

:class:`~repro.baselines.w_event.OnlineReleaser` and
:class:`~repro.baselines.landmark.LandmarkReleaser` each have one
release path (plus the exact scalar step for short blocks), and the
seed loops in :mod:`repro.runtime.reference` — one ``derive_rng`` per
window, ``.mean()`` distances, ``laplace_noise`` draws — are their
oracle: whatever the stream contents, scheduler parameters, parent-rng
kind, block split (blocks under the prefetch threshold and over a bound
chunk alike) or a snapshot/restore mid-run, a release must end in the
seed loop's ``final_state`` bit for bit, and landmark's
``advance_block`` walk in its end state.  The streams mix 0/1 rows with
real values spanning ±1e-6…±1e6, at two widths, so the bound
certificate's slack is exercised across magnitudes.  BD/BA's
constant-budget stretches are checked against their budget hooks, and
sharded BD/BA replay must draw no randomness at all.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    sharding,
)
from repro.runtime.reference import (
    reference_landmark_perturb,
    reference_w_event_perturb,
)
from repro.runtime.rng_pool import IndexedRngPool
from repro.streams.indicator import EventAlphabet, IndicatorStream

#: The stress streams' widths: a narrow one and a wide one.
WIDTHS = (3, 17)

#: Block sizes of a split: straddling the prefetch threshold
#: (:data:`~repro.baselines.w_event._PREFETCH_MIN` = 32) and the 32-row
#: distance pass, and one block longer than a bound chunk.
BLOCK_SIZES = (1, 31, 32, 33, 64, w_event._CHUNK_ROWS + 1)

#: Streams this long span more than one bound chunk.
LONG_ROWS = w_event._CHUNK_ROWS + 77


@st.composite
def stress_matrices(draw):
    """Float statistics matrices from constant runs, 0/1 segments of
    any occurrence rate and real-valued segments spanning
    ±1e-6…±1e6; one in five is tiled past a bound chunk."""
    width = draw(st.sampled_from(WIDTHS))
    segments = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["zeros", "ones", "bits", "real"]),
                st.integers(min_value=1, max_value=40),
                st.floats(min_value=0.15, max_value=0.5),
            ),
            min_size=1,
            max_size=5,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    rows = []
    for kind, length, occurrence in segments:
        shape = (length, width)
        if kind == "zeros":
            rows.append(np.zeros(shape))
        elif kind == "ones":
            rows.append(np.ones(shape))
        elif kind == "bits":
            rows.append((rng.random(shape) < occurrence).astype(float))
        else:
            magnitudes = 10.0 ** rng.uniform(-6.0, 6.0, size=shape)
            rows.append(rng.choice([-1.0, 1.0], size=shape) * magnitudes)
    matrix = np.vstack(rows)
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        repeats = -(-LONG_ROWS // matrix.shape[0])
        matrix = np.tile(matrix, (repeats, 1))[:LONG_ROWS]
    return matrix


def chunks(matrix, plan):
    """Cut ``matrix`` into the plan's block sizes (cycled, clipped)."""
    row = 0
    index = 0
    while row < matrix.shape[0]:
        size = min(plan[index % len(plan)], matrix.shape[0] - row)
        yield matrix[row : row + size]
        row += size
        index += 1


def parent_rng(kind, seed):
    """A fresh parent of ``kind``: an int seed, a Generator or None."""
    if kind == "generator":
        return np.random.default_rng(seed)
    return seed if kind == "int" else None


class _Statistics:
    """A float statistics matrix in the shape the seed loops read (an
    indicator stream holds only 0/1 rows)."""

    def __init__(self, matrix):
        self.matrix = matrix

    def matrix_view(self):
        return self.matrix

    def with_matrix(self, matrix):
        return matrix


def seed_loop(mechanism, matrix, rng, mask=None):
    """The seed loop's ``final_state`` over ``matrix``."""
    final_state = {}
    if mask is None:
        reference_w_event_perturb(
            mechanism, _Statistics(matrix), rng=rng, final_state=final_state
        )
    else:
        reference_landmark_perturb(
            mechanism,
            _Statistics(matrix),
            mask,
            rng=rng,
            final_state=final_state,
        )
    return final_state


#: The per-timestamp trace columns, named as the w-event seed loop's
#: ``final_state`` keys.
TRACE_COLUMNS = ("published", "publication_budgets", "dissimilarity_budgets")


def end_state(releaser):
    """A releaser's state, keyed as the seed loops' ``final_state``."""
    state = {"last_release": releaser.last_release, "t": releaser.t}
    if isinstance(releaser, w_event.OnlineReleaser):
        state["scheduler_state"] = releaser.scheduler_state
        for column in TRACE_COLUMNS:
            state[column] = getattr(releaser.trace, column)
    else:
        state["remaining_publication"] = releaser._remaining_publication
        state["landmarks_left"] = releaser._landmarks_left
    return state


def assert_matches_seed_loop(state, expected):
    """Every end-state key equal to the seed loop's, bit for bit."""
    for key, value in state.items():
        if isinstance(value, np.ndarray) or key in TRACE_COLUMNS:
            assert np.array_equal(value, expected[key]), key
        else:
            assert value == expected[key], key


def assert_snapshots_equal(left, right):
    assert left.keys() == right.keys()
    for key in left:
        a, b = left[key], right[key]
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            assert a is not None and b is not None, key
            assert np.array_equal(a, b), key
        else:
            assert a == b, key


@st.composite
def release_runs(draw):
    """A mechanism (BD, BA or landmark), its stream, the parent-rng
    kind and seed, a block split and a snapshot cut."""
    kind = draw(st.sampled_from(["bd", "ba", "landmark"]))
    matrix = draw(stress_matrices())
    epsilon = draw(st.floats(min_value=0.05, max_value=10.0))
    n = matrix.shape[0]
    mask = None
    if kind == "landmark":
        rho = draw(st.floats(min_value=0.1, max_value=0.9))
        density = draw(st.floats(min_value=0.0, max_value=1.0))
        mask_seed = draw(st.integers(min_value=0, max_value=2**16))
        mask = np.random.default_rng(mask_seed).random(n) < density
        mechanism = LandmarkPrivacy(epsilon, landmarks=mask, rho=rho)
    else:
        cls = BudgetDistribution if kind == "bd" else BudgetAbsorption
        w = draw(st.integers(min_value=1, max_value=40))
        mechanism = cls(epsilon, w=w)
    rng_kind = draw(st.sampled_from(["int", "generator", "none"]))
    seed = draw(st.integers(min_value=0, max_value=1000))
    plan = draw(st.lists(st.sampled_from(BLOCK_SIZES), min_size=1, max_size=8))
    cut = draw(st.integers(min_value=0, max_value=n))
    return mechanism, matrix, mask, rng_kind, seed, plan, cut


class TestSeedLoopOracle:
    @given(run=release_runs())
    @settings(max_examples=150, deadline=None)
    def test_release_matches_seed_loop(self, run):
        mechanism, matrix, mask, rng_kind, seed, plan, cut = run
        n, width = matrix.shape
        expected = seed_loop(
            mechanism, matrix, parent_rng(rng_kind, seed), mask
        )

        def releaser():
            return mechanism.online_releaser(
                width, rng=parent_rng(rng_kind, seed), horizon=n
            )

        # Any split into blocks.
        stepped = releaser()
        released = [stepped.step_block(b) for b in chunks(matrix, plan)]
        assert np.array_equal(np.vstack(released), expected["released"])
        assert_matches_seed_loop(end_state(stepped), expected)

        # A snapshot at the cut, restored onto a fresh releaser.
        head = releaser()
        released = [head.step_block(b) for b in chunks(matrix[:cut], plan)]
        tail = releaser()
        tail.restore(head.snapshot())
        released += [tail.step_block(b) for b in chunks(matrix[cut:], plan)]
        assert np.array_equal(np.vstack(released), expected["released"])
        assert_matches_seed_loop(end_state(tail), expected)

        if mask is not None:
            # The checkpoint prepass walk ends in the same state, and
            # its snapshot equals the stepped run's.
            walked = releaser()
            for block in chunks(matrix, plan):
                walked.advance_block(block)
            assert_matches_seed_loop(end_state(walked), expected)
            assert_snapshots_equal(walked.snapshot(), stepped.snapshot())


DENSE_W = 40


@pytest.mark.parametrize("cls", [BudgetDistribution, BudgetAbsorption])
def test_block_longer_than_a_chunk_matches_small_blocks(cls):
    """A block spanning several bound chunks (row norms and noises are
    computed per chunk) equals the same rows stepped in 32-row blocks
    and the seed loop."""
    n = 2 * w_event._CHUNK_ROWS + 77
    rng = np.random.default_rng(23)
    matrix = (rng.random((n, 5)) < 0.3).astype(float)
    releasers = {}
    for size in (n, 32):
        releaser = cls(1.0, w=DENSE_W).online_releaser(5, rng=4, horizon=n)
        released = [releaser.step_block(b) for b in chunks(matrix, [size])]
        releasers[size] = releaser, np.vstack(released)
    (whole, released), (small, small_released) = releasers.values()
    assert np.array_equal(released, small_released)
    assert_snapshots_equal(whole.snapshot(), small.snapshot())
    expected = seed_loop(cls(1.0, w=DENSE_W), matrix, 4)
    assert np.array_equal(released, expected["released"])
    assert_matches_seed_loop(end_state(whole), expected)


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
