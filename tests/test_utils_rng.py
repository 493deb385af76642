"""Tests for repro.utils.rng — deterministic randomness plumbing."""

import numpy as np
import pytest

from repro.utils.rng import (
    derive_rng,
    ensure_rng,
)


class TestEnsureRng:
    def test_none_gives_default_seeded_generator(self):
        first = ensure_rng(None).random()
        second = ensure_rng(None).random()
        assert first == second

    def test_int_seed_is_deterministic(self):
        assert ensure_rng(7).random() == ensure_rng(7).random()

    def test_different_seeds_differ(self):
        assert ensure_rng(1).random() != ensure_rng(2).random()

    def test_generator_passthrough(self):
        generator = np.random.default_rng(3)
        assert ensure_rng(generator) is generator

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            ensure_rng(-1)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")  # type: ignore[arg-type]

    def test_numpy_integer_seed_accepted(self):
        assert ensure_rng(np.int64(5)).random() == ensure_rng(5).random()


class TestDeriveRng:
    def test_same_tokens_same_stream(self):
        a = derive_rng(1, "alpha", 3).random()
        b = derive_rng(1, "alpha", 3).random()
        assert a == b

    def test_different_tokens_differ(self):
        a = derive_rng(1, "alpha").random()
        b = derive_rng(1, "beta").random()
        assert a != b

    def test_different_parents_differ(self):
        a = derive_rng(1, "alpha").random()
        b = derive_rng(2, "alpha").random()
        assert a != b

    def test_int_and_str_tokens_allowed(self):
        derive_rng(0, "x", 5, "y", 0)

    def test_bad_token_type_rejected(self):
        with pytest.raises(TypeError):
            derive_rng(0, 1.5)  # type: ignore[arg-type]

    def test_derivation_does_not_disturb_parent_reuse(self):
        # Deriving from a seed twice must not change either child.
        first = derive_rng(9, "a").random()
        derive_rng(9, "b")
        second = derive_rng(9, "a").random()
        assert first == second
