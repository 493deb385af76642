"""Tests for repro.runtime.rng_pool — vectorized child derivation.

The pool's whole contract is bit-identity with ``derive_rng``: every
child stream and the parent's entropy consumption must match the scalar
path exactly.  These tests pin that contract across token shapes,
parent kinds, block boundaries and the scalar fallback building blocks.
"""

import numpy as np
import pytest

from repro.runtime.rng_pool import (
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
        pool = IndexedRngPool(
            np.random.default_rng(seed), *tokens, block=128
        )
        for index, expected in enumerate(refs):
            got = pool.generator(index).random(3)
            assert np.array_equal(got, expected)

    def test_out_of_order_access(self):
        refs = reference_children(3, ("t",), 600)
        pool = IndexedRngPool(np.random.default_rng(3), "t", block=64)
        for index in (599, 0, 300, 42, 599, 0):
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
        pool = IndexedRngPool(seed, "a", block=16)
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
        pool = IndexedRngPool(11, "w-event", block=32)
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


class TestSharedParentInterleaving:
    """Foreign draws from a shared parent must not corrupt snapshots."""

    def test_interleaved_pool_snapshot_stays_exact(self):
        parent = np.random.default_rng(5)
        pool = IndexedRngPool(parent, "w-event", block=4)
        pool.generator(0)
        parent.integers(0, 100)  # foreign consumer draws in between
        pool.generator(5)
        draws = [pool.generator(index).random() for index in range(8)]
        snapshot = pool.snapshot()
        fresh = IndexedRngPool(1, "w-event")
        fresh.restore(snapshot)
        assert [
            fresh.generator(index).random() for index in range(8)
        ] == draws
        # ...and snapshots of the restored pool stay exact too.
        again = IndexedRngPool(2, "w-event")
        again.restore(fresh.snapshot())
        assert [
            again.generator(index).random() for index in range(8)
        ] == draws


def _parent(kind, seed=5):
    return np.random.default_rng(seed) if kind == "generator" else (
        None if kind == "none" else seed
    )


class TestRestoreAtPosition:
    """A restored pool resumes at the snapshot's position: it derives
    nothing below it until an index there is asked for."""

    def restored(self, kind, monkeypatch, *, t_min=100):
        """A snapshotted pool, a fresh pool restored from it, the
        restored position, the expected children and a log of every
        derivation (first index, count) on the fresh pool."""
        source = IndexedRngPool(_parent(kind), "w-event", block=32)
        source.first_uniforms(0, t_min)
        t = len(source)
        snapshot = source.snapshot()
        # derive_rng reference: a shared generator parent advances one
        # word per derivation; a seed parent re-seeds per call (for
        # ``None`` that is fresh entropy, so the pool is the reference).
        if kind == "generator":
            parent = np.random.default_rng(5)
            reference = [
                derive_rng(parent, "w-event", index).random()
                for index in range(t + 300)
            ]
        elif kind == "seed":
            reference = [
                derive_rng(5, "w-event", index).random()
                for index in range(t + 300)
            ]
        else:
            reference = [
                source.generator(index).random() for index in range(t + 300)
            ]
        fresh = IndexedRngPool(_parent(kind, seed=9), "w-event", block=32)
        derived = []
        derive = IndexedRngPool._derive

        def logging(pool, words, start, out):
            if pool is fresh:
                derived.append((start, len(words)))
            return derive(pool, words, start, out)

        monkeypatch.setattr(IndexedRngPool, "_derive", logging)
        fresh.restore(snapshot)
        return fresh, t, reference, derived

    @pytest.mark.parametrize("kind", ["seed", "none", "generator"])
    def test_first_uniforms_continue_at_the_position(self, kind, monkeypatch):
        pool, t, reference, derived = self.restored(kind, monkeypatch)
        assert len(pool) == t
        assert derived == []
        k = 70
        assert np.array_equal(
            pool.first_uniforms(t, t + k), reference[t : t + k]
        )
        # One extend, covering the range plus one block look-ahead.
        assert derived == [(t, k + 32)]

    @pytest.mark.parametrize("kind", ["seed", "none", "generator"])
    def test_generators_below_at_and_above_the_position(
        self, kind, monkeypatch
    ):
        pool, t, reference, derived = self.restored(kind, monkeypatch)
        for index in (t, t + 1, t + 250):
            assert pool.generator(index).random() == reference[index]
        assert all(start >= t for start, _count in derived)
        for index in (t - 1, 0, 17, t + 2):
            assert pool.generator(index).random() == reference[index]
        # The indices below t were derived once, on the first ask.
        below = [entry for entry in derived if entry[0] < t]
        assert below == [(0, t)]
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
        source = IndexedRngPool(_parent(kind), "w-event", block=64)
        source.first_uniforms(0, 40)
        assert len(source) > 40
        expected = source.first_uniforms(40, 300)
        fresh = IndexedRngPool(_parent(kind, seed=9), "w-event", block=64)
        fresh.restore(source.snapshot(), position=40)
        assert len(fresh) == 40
        derived = []
        derive = IndexedRngPool._derive

        def logging(pool, words, start, out):
            derived.append((start, len(words)))
            return derive(pool, words, start, out)

        monkeypatch.setattr(IndexedRngPool, "_derive", logging)
        assert np.array_equal(fresh.first_uniforms(40, 300), expected)
        assert derived == [(40, 260 + 64)]

    def test_restore_leaves_a_further_pool_on_the_same_source(self):
        pool = IndexedRngPool(np.random.default_rng(5), "w-event", block=8)
        pool.first_uniforms(0, 20)
        snapshot = pool.snapshot()
        pool.first_uniforms(20, 90)
        n = len(pool)
        pool.restore(snapshot)
        assert len(pool) == n


class TestValidation:
    def test_negative_index_rejected(self):
        pool = IndexedRngPool(0, "x")
        with pytest.raises(IndexError):
            pool.generator(-1)

    def test_bad_block_rejected(self):
        with pytest.raises(ValueError):
            IndexedRngPool(0, "x", block=0)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            IndexedRngPool(0, "x", count=-1)

    def test_bad_token_rejected(self):
        with pytest.raises(TypeError):
            IndexedRngPool(0, 1.5)
