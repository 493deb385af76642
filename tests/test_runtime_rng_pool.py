"""Tests for repro.runtime.rng_pool — vectorized child derivation.

The pool's whole contract is bit-identity with ``derive_rng``: every
child stream and the parent's entropy consumption must match the scalar
path exactly.  These tests pin that contract across token shapes,
parent kinds, window moves, snapshot layouts and the scalar fallback
building blocks.
"""

import functools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.rng_pool import (
    _LOOKAHEAD,
    IndexedRngPool,
    first_uniform_scalar,
    first_uniforms_from_limbs,
    pcg64_limbs_from_seed_material,
    pcg64_state_from_words,
    seed_material_from_entropy,
)
from repro.utils.rng import derive_rng


def reference_children(seed, tokens, count, draws=3):
    parent = np.random.default_rng(seed)
    return [
        derive_rng(parent, *tokens, index).random(draws)
        for index in range(count)
    ]


class TestChildParity:
    @pytest.mark.parametrize(
        "tokens",
        [("w-event",), ("landmark",), ("chunk", "rr-flip"), (5,), (), ("x", 3, "y")],
    )
    @pytest.mark.parametrize("seed", [0, 7, 991])
    def test_children_match_derive_rng(self, tokens, seed):
        refs = reference_children(seed, tokens, 300)
        pool = IndexedRngPool(np.random.default_rng(seed), *tokens)
        for index, expected in enumerate(refs):
            got = pool.generator(index).random(3)
            assert np.array_equal(got, expected)

    def test_out_of_order_access(self):
        refs = reference_children(3, ("t",), 1600)
        pool = IndexedRngPool(np.random.default_rng(3), "t")
        for index in (1599, 0, 300, 42, 1599, 0, 1000, 999, 1001):
            got = pool.generator(index).random(3)
            assert np.array_equal(got, refs[index])

    @pytest.mark.parametrize("seed", [11, None])
    def test_seed_parents_reseed_per_derivation(self, seed):
        # derive_rng re-seeds a fresh parent from an int/None seed on
        # every call — the pool must reproduce that, not draw a fresh
        # word per index.
        refs = [
            derive_rng(seed, "a", index).random(3) for index in range(50)
        ]
        pool = IndexedRngPool(seed, "a")
        for index, expected in enumerate(refs):
            assert np.array_equal(pool.generator(index).random(3), expected)


class TestParentConsumption:
    def test_exact_count_leaves_parent_in_step_state(self):
        scalar_parent = np.random.default_rng(5)
        for index in range(137):
            derive_rng(scalar_parent, "x", index)
        pooled_parent = np.random.default_rng(5)
        IndexedRngPool(pooled_parent, "x", count=137)
        assert scalar_parent.random() == pooled_parent.random()

    def test_zero_count_draws_nothing(self):
        parent = np.random.default_rng(5)
        IndexedRngPool(parent, "x", count=0)
        assert parent.random() == np.random.default_rng(5).random()

    @pytest.mark.parametrize("count", [None, 0, 40])
    def test_requests_never_draw_from_the_parent(self, count):
        parent = np.random.default_rng(5)
        pool = IndexedRngPool(parent, "x", count=count)
        pool.first_uniforms(0, 2000)
        pool.generator(3000)
        pool.generator(7)
        expected = np.random.default_rng(5)
        expected.integers(0, 2**63 - 1, size=count or 0)
        assert parent.random() == expected.random()


class TestSeedMaterial:
    def test_matches_seed_sequence(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            words = [int(x) for x in rng.integers(0, 2**63 - 1, size=3)]
            entropy = []
            for word in words:
                if word == 0:
                    entropy.append(0)
                while word > 0:
                    entropy.append(word & 0xFFFFFFFF)
                    word >>= 32
            mine = seed_material_from_entropy(
                np.array([entropy], dtype=np.uint32)
            )[0]
            ref = np.random.SeedSequence(words).generate_state(4, np.uint64)
            assert np.array_equal(mine, ref)

    def test_pcg64_state_matches_construction(self):
        sequence = np.random.SeedSequence([17, 23, 99])
        state, inc = pcg64_state_from_words(
            sequence.generate_state(4, np.uint64)
        )
        reference = np.random.Generator(np.random.PCG64(sequence))
        rebuilt = np.random.Generator(np.random.PCG64())
        rebuilt.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        assert np.array_equal(rebuilt.random(8), reference.random(8))


class TestFirstUniforms:
    """The vectorized PCG64 step/output emulation behind first_uniforms."""

    def test_limb_seeding_matches_scalar(self):
        rng = np.random.default_rng(3)
        material = rng.integers(
            0, 2**63 - 1, size=(64, 4), dtype=np.int64
        ).astype(np.uint64)
        state_hi, state_lo, inc_hi, inc_lo = pcg64_limbs_from_seed_material(
            material
        )
        for row in range(material.shape[0]):
            state, inc = pcg64_state_from_words(material[row])
            assert (int(state_hi[row]) << 64) | int(state_lo[row]) == state
            assert (int(inc_hi[row]) << 64) | int(inc_lo[row]) == inc

    def test_limb_outputs_match_scalar_reference(self):
        material = np.random.default_rng(9).integers(
            0, 2**63 - 1, size=(64, 4), dtype=np.int64
        ).astype(np.uint64)
        limbs = pcg64_limbs_from_seed_material(material)
        vectorized = first_uniforms_from_limbs(*limbs)
        for row in range(material.shape[0]):
            state, inc = pcg64_state_from_words(material[row])
            assert vectorized[row] == first_uniform_scalar(state, inc)

    @pytest.mark.parametrize("parent_kind", ["seed", "generator"])
    def test_pool_uniforms_match_generator_draws(self, parent_kind):
        parent = 7 if parent_kind == "seed" else np.random.default_rng(7)
        pool = IndexedRngPool(parent, "w-event", count=200)
        fast = pool.first_uniforms(40, 200)
        slow = np.array(
            [pool.generator(index).random() for index in range(40, 200)]
        )
        assert np.array_equal(fast, slow)

    def test_pool_uniforms_extend_lazily(self):
        pool = IndexedRngPool(11, "w-event")
        fast = pool.first_uniforms(50, 120)
        slow = np.array(
            [pool.generator(index).random() for index in range(50, 120)]
        )
        assert np.array_equal(fast, slow)

    def test_uniforms_match_laplace_first_draw(self):
        # The schedulers transform these uniforms through numpy's
        # random_laplace arithmetic; the first draw of .laplace must
        # therefore consume exactly the word first_uniforms replays.
        import math

        pool = IndexedRngPool(13, "w-event", count=100)
        scale = 0.731
        uniforms = pool.first_uniforms(0, 100)
        for index in range(100):
            expected = float(pool.generator(index).laplace(0.0, scale))
            uniform = uniforms[index]
            if uniform >= 0.5:
                mine = 0.0 - scale * math.log(2.0 - uniform - uniform)
            elif uniform > 0.0:
                mine = 0.0 + scale * math.log(uniform + uniform)
            else:
                continue
            assert mine == expected

    def test_invalid_range_rejected(self):
        pool = IndexedRngPool(1, "w-event")
        with pytest.raises(ValueError):
            pool.first_uniforms(5, 2)
        with pytest.raises(ValueError):
            pool.first_uniforms(-1, 2)


class TestSharedParent:
    """A caller drawing from the parent between requests reaches
    neither the children nor the snapshot."""

    def test_foreign_draws_leave_children_and_snapshot_exact(self):
        parent = np.random.default_rng(5)
        pool = IndexedRngPool(parent, "w-event")
        pool.generator(0)
        parent.integers(0, 100)  # a foreign consumer draws in between
        draws = [pool.generator(index).random() for index in (5, 900, 8)]
        reference = reference_children(5, ("w-event",), 901, draws=1)
        assert draws == [reference[index][0] for index in (5, 900, 8)]
        fresh = IndexedRngPool(1, "w-event")
        fresh.restore(pool.snapshot())
        assert [
            fresh.generator(index).random() for index in (5, 900, 8)
        ] == draws


#: The parent kinds ``derive_rng`` takes: a seed, ``None`` (the
#: library's default seed) and a generator.
KINDS = ("seed", "none", "generator")

#: Indices the random-request parity test asks for.
PARITY_INDICES = 2500


def _parent(kind, seed=5):
    return np.random.default_rng(seed) if kind == "generator" else (
        None if kind == "none" else seed
    )


def _reference_uniforms(kind, count):
    """The first draws of ``derive_rng(_parent(kind), "w-event", t)``
    for ``t < count``; a generator parent advances one word per
    derivation, a seed or ``None`` parent re-seeds per call."""
    parent = _parent(kind)
    return np.array(
        [
            derive_rng(parent, "w-event", index).random()
            for index in range(count)
        ]
    )


@functools.lru_cache(maxsize=None)
def _reference_children(kind):
    """First draws and PCG64 states of the first
    :data:`PARITY_INDICES` children of ``_parent(kind)``."""
    parent = _parent(kind)
    uniforms, states = [], []
    for index in range(PARITY_INDICES):
        child = derive_rng(parent, "w-event", index)
        states.append(child.bit_generator.state["state"])
        uniforms.append(child.random())
    return np.array(uniforms), states


class TestRestoreAtPosition:
    """A restored pool resumes at the snapshot's position: a restore
    derives nothing, and the first request derives from where it
    starts."""

    def restored(self, kind, monkeypatch, *, t_min=100):
        """A snapshotted pool, a fresh pool restored from it, the
        restored position, the expected children and a log of every
        derivation ``(start, stop)`` on the fresh pool."""
        source = IndexedRngPool(_parent(kind), "w-event")
        source.first_uniforms(0, t_min)
        t = len(source)
        snapshot = source.snapshot()
        reference = _reference_uniforms(kind, t + 300)
        fresh = IndexedRngPool(_parent(kind, seed=9), "w-event")
        derived = []
        derive = IndexedRngPool._derive

        def logging(pool, start, stop):
            if pool is fresh:
                derived.append((start, stop))
            return derive(pool, start, stop)

        monkeypatch.setattr(IndexedRngPool, "_derive", logging)
        fresh.restore(snapshot)
        return fresh, t, reference, derived

    @pytest.mark.parametrize("kind", KINDS)
    def test_first_uniforms_continue_at_the_position(self, kind, monkeypatch):
        pool, t, reference, derived = self.restored(kind, monkeypatch)
        assert len(pool) == t
        assert derived == []
        k = 70
        assert np.array_equal(
            pool.first_uniforms(t, t + k), reference[t : t + k]
        )
        # One derivation, covering the range plus the look-ahead.
        assert derived == [(t, t + k + _LOOKAHEAD)]

    @pytest.mark.parametrize("kind", KINDS)
    def test_generators_below_at_and_above_the_position(
        self, kind, monkeypatch
    ):
        pool, t, reference, derived = self.restored(kind, monkeypatch)
        for index in (t, t + 1, t + 250):
            assert pool.generator(index).random() == reference[index]
        assert derived == [(t, t + 1 + _LOOKAHEAD)]
        for index in (t - 1, 0, 17, t + 2):
            assert pool.generator(index).random() == reference[index]
        # Each request outside the held window derives once, from the
        # index asked for.
        assert derived[1:] == [
            (t - 1, t + _LOOKAHEAD),
            (0, 1 + _LOOKAHEAD),
            (t + 2, t + 3 + _LOOKAHEAD),
        ]
        assert np.array_equal(
            pool.first_uniforms(0, t + 10), reference[: t + 10]
        )

    @pytest.mark.parametrize("kind", ["seed", "generator"])
    def test_snapshot_of_a_restored_pool_restores_again(
        self, kind, monkeypatch
    ):
        pool, t, reference, _derived = self.restored(kind, monkeypatch)
        pool.first_uniforms(t, t + 40)
        again = IndexedRngPool(_parent(kind, seed=3), "w-event")
        again.restore(pool.snapshot())
        assert np.array_equal(
            again.first_uniforms(t - 5, t + 200), reference[t - 5 : t + 200]
        )

    @pytest.mark.parametrize("kind", ["seed", "generator"])
    def test_restore_at_a_consumer_position(self, kind, monkeypatch):
        # A releaser restores at its step count, below the snapshot's
        # look-ahead: the pool starts there, deriving nothing below.
        source = IndexedRngPool(_parent(kind), "w-event")
        source.first_uniforms(0, 40)
        assert len(source) > 40
        expected = source.first_uniforms(40, 300)
        fresh = IndexedRngPool(_parent(kind, seed=9), "w-event")
        fresh.restore(source.snapshot(), position=40)
        assert len(fresh) == 40
        derived = []
        derive = IndexedRngPool._derive

        def logging(pool, start, stop):
            derived.append((start, stop))
            return derive(pool, start, stop)

        monkeypatch.setattr(IndexedRngPool, "_derive", logging)
        assert np.array_equal(fresh.first_uniforms(40, 300), expected)
        assert derived == [(40, 300 + _LOOKAHEAD)]

    def test_restore_on_the_same_source_resumes_at_the_position(self):
        pool = IndexedRngPool(np.random.default_rng(5), "w-event")
        pool.first_uniforms(0, 20)
        snapshot = pool.snapshot()
        expected = pool.first_uniforms(20, 90)
        pool.first_uniforms(90, 900)
        pool.restore(snapshot, position=20)
        assert len(pool) == 20
        assert np.array_equal(pool.first_uniforms(20, 90), expected)


class TestSnapshotLayouts:
    """Snapshots written before the pool held one window restore
    unchanged; layouts it cannot read fail without touching it."""

    #: Written by the pool that kept every derived child: a generator
    #: parent (``default_rng(2024)``) after ``first_uniforms(0, 100)``,
    #: and a seed parent (``7``) after ``first_uniforms(0, 30)``.
    GENERATOR_SNAPSHOT = {
        "tokens": [3186994397473423419],
        "n_derived": 612,
        "parent_initial_state": {
            "bit_generator": "PCG64",
            "state": {
                "state": 64495091031189892396629999919877649182,
                "inc": 263843294879837360010514471918415607657,
            },
            "has_uint32": 0,
            "uinteger": 0,
        },
    }
    SEED_SNAPSHOT = {
        "tokens": [3186994397473423419],
        "n_derived": 542,
        "fixed_word": 5765488047046174020,
    }

    @pytest.mark.parametrize(
        "snapshot, parent",
        [
            (GENERATOR_SNAPSHOT, lambda: np.random.default_rng(2024)),
            (SEED_SNAPSHOT, lambda: 7),
        ],
        ids=["generator", "seed"],
    )
    def test_earlier_snapshots_restore(self, snapshot, parent):
        reference_parent = parent()
        reference = [
            derive_rng(reference_parent, "w-event", index).random()
            for index in range(snapshot["n_derived"] + 100)
        ]
        pool = IndexedRngPool(None, "w-event")
        pool.restore(snapshot)
        assert len(pool) == snapshot["n_derived"]
        assert np.array_equal(
            pool.first_uniforms(snapshot["n_derived"] - 10, len(reference)),
            reference[snapshot["n_derived"] - 10 :],
        )
        assert pool.generator(3).random() == reference[3]
        assert pool.snapshot() == {
            **snapshot,
            "n_derived": 3 + 1 + _LOOKAHEAD,
        }

    @pytest.mark.parametrize(
        "snapshot",
        [
            # The interleaved-parent layout: derived limbs verbatim.
            {
                "tokens": [3186994397473423419],
                "n_derived": 2,
                "limbs": [np.zeros(2, dtype=np.uint64) for _ in range(4)],
                "parent_resume_state": np.random.default_rng(
                    5
                ).bit_generator.state,
            },
            # No derivation source at all.
            {"tokens": [3186994397473423419], "n_derived": 2},
        ],
        ids=["limbs", "no-source"],
    )
    def test_unreadable_layouts_fail_leaving_the_pool(self, snapshot):
        pool = IndexedRngPool(np.random.default_rng(8), "w-event")
        expected = pool.first_uniforms(0, 50)
        before = pool.snapshot()
        with pytest.raises(ValueError) as error:
            pool.restore(snapshot)
        for key in ("fixed_word", "parent_initial_state", "n_derived"):
            assert key in str(error.value)
        assert pool.snapshot() == before
        assert len(pool) == before["n_derived"]
        assert np.array_equal(pool.first_uniforms(0, 50), expected)


class TestBoundedState:
    """The pool's state does not grow with the stream."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_stepping_holds_one_block_plus_the_look_ahead(self, kind):
        block = 1024
        pool = IndexedRngPool(_parent(kind), "w-event")
        reference = IndexedRngPool(_parent(kind), "w-event")
        for start in range(0, 400_000, block):
            uniforms = pool.first_uniforms(start, start + block)
            assert all(
                limb.size <= block + _LOOKAHEAD for limb in pool._limbs
            )
        # The last block still matches per-index derivation.
        assert uniforms[-1] == reference.generator(start + block - 1).random()
        assert uniforms[0] == reference.generator(start).random()


class TestRandomRequestParity:
    """Any sequence of range and index requests — forward, backward,
    overlapping, across snapshot → restore — returns ``derive_rng``'s
    children, and a generator parent gives up exactly ``count``
    words."""

    @given(
        kind=st.sampled_from(KINDS),
        count=st.one_of(st.none(), st.integers(0, 700)),
        requests=st.lists(
            st.one_of(
                st.tuples(
                    st.just("range"),
                    st.integers(0, PARITY_INDICES - 1),
                    st.integers(0, 1200),
                ),
                st.tuples(
                    st.just("generator"),
                    st.integers(0, PARITY_INDICES - 1),
                    st.just(0),
                ),
                st.tuples(
                    st.just("restore"),
                    st.integers(-1, PARITY_INDICES - 1),
                    st.just(0),
                ),
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_requests_match_derive_rng(self, kind, count, requests):
        uniforms, states = _reference_children(kind)
        parent = _parent(kind)
        pool = IndexedRngPool(parent, "w-event", count=count)
        for op, index, length in requests:
            if op == "range":
                stop = min(index + length, PARITY_INDICES)
                assert np.array_equal(
                    pool.first_uniforms(index, stop), uniforms[index:stop]
                )
            elif op == "generator":
                child = pool.generator(index)
                assert child.bit_generator.state["state"] == states[index]
                assert child.random() == uniforms[index]
            else:
                restored = IndexedRngPool(_parent(kind, seed=9), "w-event")
                snapshot = pickle.loads(pickle.dumps(pool.snapshot()))
                position = None if index < 0 else index
                restored.restore(snapshot, position=position)
                pool = restored
        if kind == "generator":
            expected = np.random.default_rng(5)
            expected.integers(0, 2**63 - 1, size=count or 0)
            assert parent.random() == expected.random()


class TestValidation:
    def test_negative_index_rejected(self):
        pool = IndexedRngPool(0, "x")
        with pytest.raises(IndexError):
            pool.generator(-1)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            IndexedRngPool(0, "x", count=-1)

    def test_bad_token_rejected(self):
        with pytest.raises(TypeError):
            IndexedRngPool(0, 1.5)
