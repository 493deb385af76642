"""Deterministic random-number plumbing.

The library never touches :mod:`numpy.random`'s global state.  Every
stochastic component accepts either an integer seed or an existing
:class:`numpy.random.Generator`; :func:`ensure_rng` normalizes both into a
generator, and :func:`derive_rng` produces independent child generators
so that adding a new consumer of randomness does not perturb the draws
seen by existing ones.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]
"""Anything accepted where a source of randomness is required."""

_DEFAULT_SEED = 0x5EED


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    ``None`` yields a generator with a fixed library-wide default seed so
    that callers who do not care about seeding still get reproducible
    behaviour.  An ``int`` is used as a seed.  A generator is passed
    through unchanged.
    """
    if rng is None:
        return np.random.default_rng(_DEFAULT_SEED)
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        if rng < 0:
            raise ValueError(f"seed must be non-negative, got {rng}")
        return np.random.default_rng(int(rng))
    raise TypeError(
        f"expected None, int or numpy.random.Generator, got {type(rng).__name__}"
    )


#: Seeds a bit generator whose state is replaced right away (a fixed
#: sequence spares it a draw of fresh OS entropy).
_PLACEHOLDER_SEED = np.random.SeedSequence(0)


def generator_at(state: dict) -> np.random.Generator:
    """A generator standing at a bit-generator ``state``, as
    ``generator.bit_generator.state`` returns it."""
    bit_generator = getattr(np.random, state["bit_generator"])(
        _PLACEHOLDER_SEED
    )
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def fold_token(token: Union[int, str]) -> int:
    """One derivation token as the 63-bit entropy word ``derive_rng`` uses."""
    if isinstance(token, str):
        return _fold_string(token)
    if isinstance(token, (int, np.integer)):
        return int(token) & (2**63 - 1)
    raise TypeError(
        f"rng tokens must be int or str, got {type(token).__name__}"
    )


def derive_rng(rng: RngLike, *tokens: Union[int, str]) -> np.random.Generator:
    """Derive an independent child generator, keyed by ``tokens``.

    The derivation is deterministic: the same parent seed and tokens always
    produce the same child stream.  Tokens let call sites label their
    sub-streams (for example ``derive_rng(seed, "taxi", taxi_id)``) so that
    streams stay stable when unrelated consumers are added or removed.

    When one call site needs children for a whole *range* of trailing
    integer tokens (one per window), use
    :class:`repro.runtime.rng_pool.IndexedRngPool` — it derives the same
    child streams vectorized.
    """
    parent = ensure_rng(rng)
    # Hash the tokens into 64-bit words; fold in entropy drawn from the
    # parent so distinct parents give distinct children.
    words = [int(parent.integers(0, 2**63 - 1))]
    for token in tokens:
        words.append(fold_token(token))
    return np.random.default_rng(np.random.SeedSequence(words))


_FOLD_CACHE: dict = {}


def _fold_string(text: str) -> int:
    """Fold a string into a stable 63-bit integer (FNV-1a, memoized)."""
    cached = _FOLD_CACHE.get(text)
    if cached is not None:
        return cached
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    folded = acc & (2**63 - 1)
    _FOLD_CACHE[text] = folded
    return folded
