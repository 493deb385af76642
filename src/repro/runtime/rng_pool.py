"""Vectorized derivation of per-index child generators.

The sequential mechanisms (BD/BA, landmark) derive one child generator
per window:
``derive_rng(rng, *tokens, index)`` for ``index = 0, 1, 2, ...``.  Done
naively that derivation dominates their runtime — every call pays for a
``numpy.random.SeedSequence`` construction and a fresh ``Generator``
(~25 µs each, across 10⁵ windows per Fig. 4 sweep).

:class:`IndexedRngPool` produces *bit-identical* child streams at a
fraction of the cost by

1. drawing the per-index parent entropy words in one vectorized
   ``integers`` call (PCG64 produces the same stream whether bounded
   integers are drawn one at a time or as a block);
2. re-implementing ``SeedSequence``'s entropy-mixing hash over uint32
   *arrays*, computing the PCG64 seed material for every index at once;
3. replaying PCG64's seeding arithmetic (128-bit LCG initialisation)
   and installing the resulting state on a single reused bit generator
   instead of constructing a new ``Generator`` per index.

Equality with ``derive_rng`` is pinned by tests
(``tests/test_runtime_rng_pool.py``) across token shapes and index
ranges; any numpy change to ``SeedSequence`` hashing would surface
there.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.rng import RngLike, ensure_rng, fold_token, generator_at

# SeedSequence hashing constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF

# PCG64 seeding constants (pcg_setseq_128_srandom_r).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)

#: next_double's mantissa scaling (53-bit uniform in [0, 1)).
_DOUBLE_SCALE = 1.0 / 9007199254740992.0

_WORD_BOUND = 2**63 - 1  # derive_rng's parent-entropy draw bound


def _int_words32(value: int) -> List[int]:
    """An integer's uint32 words, as SeedSequence coerces entropy."""
    if value < 0:
        raise ValueError(f"entropy words must be non-negative, got {value}")
    if value == 0:
        return [0]
    words = []
    while value > 0:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(values: np.ndarray, const: int) -> Tuple[np.ndarray, int]:
    """One SeedSequence ``hashmix`` round over a column of values."""
    values = values ^ np.uint32(const)
    const = (const * _MULT_A) & _MASK32
    values = values * np.uint32(const)
    values = values ^ (values >> _XSHIFT)
    return values, const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix`` of a pool word with a hashed word.

    Note the *subtraction* — numpy's variant of the seed_seq_fe mixer
    combines the multiplied halves with ``-``, not xor.
    """
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    result = result ^ (result >> _XSHIFT)
    return result


def seed_material_from_entropy(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, uint64)`` for every row.

    ``entropy`` is an ``(n, length)`` uint32 array whose rows are the
    coerced entropy words of each child.  Returns an ``(n, 4)`` uint64
    array of PCG64 seed words.  All rows must share one entropy length —
    the hash-constant schedule depends on it.
    """
    entropy = np.ascontiguousarray(entropy, dtype=np.uint32)
    n_rows, length = entropy.shape
    const = _INIT_A
    pool: List[np.ndarray] = []
    for position in range(_POOL_SIZE):
        if position < length:
            column = entropy[:, position]
        else:
            column = np.zeros(n_rows, dtype=np.uint32)
        hashed, const = _hashmix(column, const)
        pool.append(hashed)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                hashed, const = _hashmix(pool[i_src], const)
                pool[i_dst] = _mix(pool[i_dst], hashed)
    for i_src in range(_POOL_SIZE, length):
        for i_dst in range(_POOL_SIZE):
            hashed, const = _hashmix(entropy[:, i_src], const)
            pool[i_dst] = _mix(pool[i_dst], hashed)

    const = _INIT_B
    state32: List[np.ndarray] = []
    for position in range(2 * _POOL_SIZE):
        data = pool[position % _POOL_SIZE] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        data = data * np.uint32(const)
        data = data ^ (data >> _XSHIFT)
        state32.append(data)
    words64 = np.empty((n_rows, _POOL_SIZE), dtype=np.uint64)
    for pair in range(_POOL_SIZE):
        low = state32[2 * pair].astype(np.uint64)
        high = state32[2 * pair + 1].astype(np.uint64)
        words64[:, pair] = low | (high << np.uint64(32))
    return words64


def _mul128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.uint64, b_lo: np.uint64
) -> Tuple[np.ndarray, np.ndarray]:
    """``(a * b) mod 2**128`` over (hi, lo) uint64 limb arrays.

    The 64×64→128 low product is assembled from 32-bit half-limbs;
    numpy's uint64 arithmetic wraps, which is exactly mod-2**64.
    """
    mask32 = np.uint64(0xFFFFFFFF)
    a0 = a_lo & mask32
    a1 = a_lo >> np.uint64(32)
    b0 = b_lo & mask32
    b1 = b_lo >> np.uint64(32)
    carry = a1 * b0 + ((a0 * b0) >> np.uint64(32))
    mid = (carry & mask32) + a0 * b1
    hi64 = a1 * b1 + (carry >> np.uint64(32)) + (mid >> np.uint64(32))
    lo = a_lo * b_lo
    hi = hi64 + a_lo * b_hi + a_hi * b_lo
    return hi, lo


def _add128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(a + b) mod 2**128`` over (hi, lo) uint64 limb arrays."""
    lo = a_lo + b_lo
    carry = (lo < a_lo).astype(np.uint64)
    return a_hi + b_hi + carry, lo


def pcg64_limbs_from_seed_material(
    words64: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized PCG64 seeding over ``(n, 4)`` uint64 seed words.

    Replays ``pcg_setseq_128_srandom`` — ``inc = (initseq << 1) | 1``,
    then one LCG step folding in ``initstate`` — over uint64 limb
    arrays, returning ``(state_hi, state_lo, inc_hi, inc_lo)``:
    the same (state, inc) pairs :func:`pcg64_state_from_words` computes
    one at a time (pinned by ``tests/test_runtime_rng_pool.py``).
    """
    words64 = np.ascontiguousarray(words64, dtype=np.uint64)
    initstate_hi = words64[:, 0]
    initstate_lo = words64[:, 1]
    initseq_hi = words64[:, 2]
    initseq_lo = words64[:, 3]
    one = np.uint64(1)
    s63 = np.uint64(63)
    inc_hi = (initseq_hi << one) | (initseq_lo >> s63)
    inc_lo = (initseq_lo << one) | one
    # state = (inc + initstate) * MULT + inc.
    hi, lo = _add128(inc_hi, inc_lo, initstate_hi, initstate_lo)
    hi, lo = _mul128(hi, lo, _PCG_MULT_HI, _PCG_MULT_LO)
    hi, lo = _add128(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def first_uniforms_from_limbs(
    state_hi: np.ndarray,
    state_lo: np.ndarray,
    inc_hi: np.ndarray,
    inc_lo: np.ndarray,
) -> np.ndarray:
    """Each child's first ``next_double`` draw, vectorized.

    Replays one PCG64 step (``state = state * MULT + inc``), the XSL-RR
    output function and numpy's ``next_double`` scaling over uint64
    limb arrays — bit-identical to installing each child and calling
    ``.random()`` once (pinned by ``tests/test_runtime_rng_pool.py``).
    The sequential schedulers use this to precompute their
    per-timestamp dissimilarity uniforms without paying a per-step
    generator install.
    """
    s63 = np.uint64(63)
    hi, lo = _mul128(state_hi, state_lo, _PCG_MULT_HI, _PCG_MULT_LO)
    hi, lo = _add128(hi, lo, inc_hi, inc_lo)
    # XSL-RR: rotr64(hi ^ lo, hi >> 58).
    value = hi ^ lo
    rot = hi >> np.uint64(58)
    out = (value >> rot) | (value << ((np.uint64(64) - rot) & s63))
    return (out >> np.uint64(11)) * _DOUBLE_SCALE


def pcg64_state_from_words(words: Sequence[int]) -> Tuple[int, int]:
    """PCG64's (state, inc) after seeding from 4 uint64 seed words.

    Replays ``pcg_setseq_128_srandom``: ``inc = (initseq << 1) | 1``,
    then two LCG steps folding in ``initstate``.
    """
    initstate = (int(words[0]) << 64) | int(words[1])
    initseq = (int(words[2]) << 64) | int(words[3])
    inc = ((initseq << 1) | 1) & _MASK128
    state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
    return state, inc


def first_uniform_scalar(state: int, inc: int) -> float:
    """``next_double`` of one (state, inc) pair, via Python ints.

    The readable scalar reference for
    :func:`first_uniforms_from_limbs` — one PCG64 step, the XSL-RR
    output, ``next_double`` scaling — against which the vectorized
    limb arithmetic is pinned in ``tests/test_runtime_rng_pool.py``.
    """
    state = (state * _PCG_MULT + inc) & _MASK128
    value = ((state >> 64) ^ state) & 0xFFFFFFFFFFFFFFFF
    rot = state >> 122
    out = ((value >> rot) | (value << ((64 - rot) & 63))) & (
        0xFFFFFFFFFFFFFFFF
    )
    return (out >> 11) * _DOUBLE_SCALE


#: Largest discarded draw :func:`_skip_words` makes at once.
_SKIP_CHUNK = 1 << 16


def _skip_words(parent: np.random.Generator, count: int) -> None:
    """Advance ``parent`` past ``count`` entropy-word draws.

    A bounded draw rejects some raw words (Lemire's method), so the
    bit generator's ``advance`` cannot skip them; discarding the same
    draws lets numpy repeat its rejections exactly.  64-bit bounded
    draws buffer nothing, so chunking them changes nothing.
    """
    while count > 0:
        step = min(count, _SKIP_CHUNK)
        parent.integers(0, _WORD_BOUND, size=step)
        count -= step


#: Indices a derivation covers past the ones asked for, so a consumer
#: stepping one index (or one short block) at a time pays one
#: derivation per ``_LOOKAHEAD`` indices.
_LOOKAHEAD = 512

#: The snapshot layouts :meth:`IndexedRngPool.restore` reads.
_SNAPSHOT_KEYS = (
    frozenset({"tokens", "n_derived", "fixed_word"}),
    frozenset({"tokens", "n_derived", "parent_initial_state"}),
)


def _no_limbs() -> List[np.ndarray]:
    return [np.zeros(0, dtype=np.uint64) for _ in range(4)]


class IndexedRngPool:
    """Children of ``derive_rng(rng, *tokens, index)`` for ``index = 0..``.

    Parameters
    ----------
    rng:
        The parent seed/generator, exactly as ``derive_rng`` takes it.
    tokens:
        The fixed token prefix; the running index is appended as the
        final token.
    count:
        When the number of children is known up front, pass it: the
        children ``[0, count)`` are derived at construction from
        exactly ``count`` words of a generator parent, leaving it in the
        state ``count`` sequential ``derive_rng`` calls would.

    The pool draws from a generator parent only for ``count``: every
    other entropy word comes from a private replay of the parent's
    pre-draw state (an int/``None`` parent gives every index one fixed
    word), so the caller may go on drawing from its generator.  The
    pool holds one window of children.  A request outside it moves the
    window to the indices asked for plus :data:`_LOOKAHEAD` beyond,
    keeping the children both windows share, so the pool's state does
    not grow with the stream; a request below it re-derives from there.

    ``generator(index)`` returns a shared :class:`numpy.random.Generator`
    whose state is the derived child's initial state.  The object is
    reused: draw from it before requesting the next index, and do not
    hold references across calls.
    """

    def __init__(
        self,
        rng: RngLike,
        *tokens: Union[int, str],
        count: int = None,
    ):
        if count is not None and count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        self._token_ints = [fold_token(token) for token in tokens]
        self._token_words = [
            word for value in self._token_ints for word in _int_words32(value)
        ]
        #: The held children ``[_lo, _hi)``, the first at row 0, as four
        #: uint64 limb arrays — (state, inc) split into (hi, lo) halves.
        #: Vectorized storage keeps derivation free of per-index Python
        #: work and lets :meth:`first_uniforms` replay outputs in one
        #: pass.
        self._lo = self._hi = 0
        self._limbs = _no_limbs()
        #: A generator parent's private replay (built on first use) and
        #: the entropy words it has drawn.
        self._replay: Optional[np.random.Generator] = None
        self._replay_at = 0
        self._bit_generator = np.random.PCG64()
        self._generator = np.random.Generator(self._bit_generator)
        #: The one state dict :meth:`generator` refills and installs.
        self._pcg_state = {"state": 0, "inc": 0}
        self._state = {
            "bit_generator": "PCG64",
            "state": self._pcg_state,
            "has_uint32": 0,
            "uinteger": 0,
        }
        if isinstance(rng, np.random.Generator):
            self._fixed_word: Optional[int] = None
            self._parent_initial_state = rng.bit_generator.state
            if count:
                # [0, count) comes from the caller's generator itself;
                # the replay continues from where it then stands.
                self._replay = rng
                self._move(0, count)
                self._replay = generator_at(rng.bit_generator.state)
        else:
            # derive_rng re-seeds a fresh parent from an int/None seed on
            # every call, so each index sees the same first entropy word.
            self._fixed_word = int(ensure_rng(rng).integers(0, _WORD_BOUND))
            self._parent_initial_state = None
            if count:
                self._move(0, count)

    def __len__(self) -> int:
        """One past the last index held (a snapshot's ``n_derived``)."""
        return self._hi

    def generator(self, index: int) -> np.random.Generator:
        """The child generator for ``index`` (a reused, re-seeded object)."""
        if index < 0:
            raise IndexError(f"index must be non-negative, got {index}")
        if not self._lo <= index < self._hi:
            self._move(index, index + 1 + _LOOKAHEAD)
        row = index - self._lo
        state_hi, state_lo, inc_hi, inc_lo = self._limbs
        # ``item`` reads a limb straight into a Python int, skipping the
        # numpy scalar that ``int(limbs[row])`` builds first.
        pcg_state = self._pcg_state
        pcg_state["state"] = (state_hi.item(row) << 64) | state_lo.item(row)
        pcg_state["inc"] = (inc_hi.item(row) << 64) | inc_lo.item(row)
        self._bit_generator.state = self._state
        return self._generator

    def first_uniforms(self, start: int, stop: int) -> np.ndarray:
        """Each child's first ``next_double``, for indices [start, stop).

        Bit-identical to ``generator(index).random()`` per index, but
        computed in one vectorized pass over the stored state limbs —
        no per-index generator installs.  The sequential schedulers
        (BD/BA, landmark) precompute their per-timestamp dissimilarity
        uniforms through this, which is what makes their release loops
        cheap enough to be worth sharding.  A range past the held
        window derives once, from the end of the held children through
        ``stop`` plus the look-ahead, so a scheduler stepping block
        after block pays one derivation per block.
        """
        if start < 0 or stop < start:
            raise ValueError(f"invalid uniform range [{start}, {stop})")
        if stop == start:
            return np.zeros(0)
        if start < self._lo or stop > self._hi:
            self._move(start, stop + _LOOKAHEAD)
        window = slice(start - self._lo, stop - self._lo)
        return first_uniforms_from_limbs(
            *(limb[window] for limb in self._limbs)
        )

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> dict:
        """A picklable description of this pool's derivations.

        The children are fully determined by the derivation source —
        the fixed entropy word (seed parents) or the parent generator's
        pre-draw state (generator parents) — plus the token prefix, so
        the snapshot records only those and ``n_derived`` (one past the
        last index held), and :meth:`restore` re-creates the identical
        child streams on any pool with the same tokens.
        """
        state = {"tokens": list(self._token_ints), "n_derived": self._hi}
        if self._fixed_word is not None:
            state["fixed_word"] = self._fixed_word
        else:
            state["parent_initial_state"] = dict(self._parent_initial_state)
        return state

    def restore(self, snapshot: dict, *, position: int = None) -> None:
        """Put this pool where the snapshotted pool stood.

        After restoring, ``generator(index)`` and :meth:`first_uniforms`
        return exactly what the snapshotted pool would for every index.
        The pool resumes *at* ``position`` — the first index its
        consumer will ask for (a releaser passes its step count), by
        default the snapshot's ``n_derived`` — holding no child, so a
        restore derives nothing.  The first request derives from where
        it starts: a generator parent's replay skips the words before
        it by discarded bounded draws (numpy repeats its rejections
        exactly), so the first block after a resume costs no more than
        the next.

        A snapshot of any other layout — one missing its derivation
        source, or the limb-carrying layout older pools wrote for a
        shared parent drawn from between their derivations — raises
        ``ValueError`` and leaves the pool as it was.
        """
        if frozenset(snapshot) not in _SNAPSHOT_KEYS:
            raise ValueError(
                f"cannot restore an rng-pool snapshot with keys "
                f"{sorted(snapshot)}: expected 'tokens', 'n_derived' and "
                f"one of 'fixed_word' or 'parent_initial_state'"
            )
        tokens = list(snapshot["tokens"])
        if tokens != self._token_ints:
            raise ValueError(
                f"snapshot was taken under rng tokens {tokens}, this pool "
                f"derives under {self._token_ints}"
            )
        if position is None:
            position = int(snapshot["n_derived"])
        if "fixed_word" in snapshot:
            self._fixed_word = int(snapshot["fixed_word"])
            self._parent_initial_state = None
        else:
            self._fixed_word = None
            self._parent_initial_state = dict(
                snapshot["parent_initial_state"]
            )
        self._replay = None
        self._replay_at = 0
        self._lo = self._hi = position
        self._limbs = _no_limbs()

    # -- derivation ----------------------------------------------------

    def _move(self, start: int, stop: int) -> None:
        """Hold children ``[start, stop)``: keep those the held window
        shares with it (``start`` inside, ``stop`` past its end) and
        derive the rest."""
        if self._lo <= start < self._hi:
            fresh = self._derive(self._hi, stop)
            kept = start - self._lo
            self._limbs = [
                np.concatenate((limb[kept:], new))
                for limb, new in zip(self._limbs, fresh)
            ]
        else:
            self._limbs = self._derive(start, stop)
        self._lo, self._hi = start, stop

    def _words(self, start: int, stop: int) -> np.ndarray:
        """The parent entropy words of indices ``[start, stop)``."""
        if self._fixed_word is not None:
            return np.full(stop - start, self._fixed_word, dtype=np.int64)
        if self._replay is None or start < self._replay_at:
            self._replay = generator_at(self._parent_initial_state)
            self._replay_at = 0
        _skip_words(self._replay, start - self._replay_at)
        self._replay_at = stop
        return self._replay.integers(0, _WORD_BOUND, size=stop - start)

    def _split_rows(self, words: np.ndarray, indices: np.ndarray):
        """Wide/narrow row split plus the wide rows' entropy array.

        The vectorized hash needs one shared entropy length.  Parent
        words below 2**32 coerce to a single uint32 word (probability
        ~2**-31 per child) and indices can in principle exceed 2**32;
        those rare rows take the scalar SeedSequence path instead.
        """
        narrow = (words < 2**32) | (indices >= 2**32)
        wide = ~narrow
        length = 2 + len(self._token_words) + 1
        entropy = np.empty((int(wide.sum()), length), dtype=np.uint32)
        wide_words = words[wide].astype(np.uint64)
        entropy[:, 0] = (wide_words & _MASK32).astype(np.uint32)
        entropy[:, 1] = (wide_words >> np.uint64(32)).astype(np.uint32)
        for position, token_word in enumerate(self._token_words):
            entropy[:, 2 + position] = np.uint32(token_word)
        entropy[:, -1] = indices[wide].astype(np.uint32)
        return wide, narrow, entropy

    def _derive(self, start: int, stop: int) -> List[np.ndarray]:
        """The child states of indices ``[start, stop)`` as four limb
        arrays."""
        words = self._words(start, stop)
        indices = np.arange(start, stop, dtype=np.int64)
        out = [np.empty(stop - start, dtype=np.uint64) for _ in range(4)]
        wide, narrow, entropy = self._split_rows(words, indices)
        if entropy.shape[0]:
            material = seed_material_from_entropy(entropy)
            limbs = pcg64_limbs_from_seed_material(material)
            for position in range(4):
                out[position][wide] = limbs[position]
        mask64 = 0xFFFFFFFFFFFFFFFF
        for offset in np.nonzero(narrow)[0]:
            sequence = np.random.SeedSequence(
                [int(words[offset]), *self._token_ints, int(indices[offset])]
            )
            state, inc = pcg64_state_from_words(
                sequence.generate_state(4, np.uint64)
            )
            out[0][offset] = state >> 64
            out[1][offset] = state & mask64
            out[2][offset] = inc >> 64
            out[3][offset] = inc & mask64
        return out
