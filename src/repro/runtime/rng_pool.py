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
        parent entropy is drawn in one block of exactly ``count`` words,
        leaving the parent generator in the same state as ``count``
        sequential ``derive_rng`` calls would.  Without it, entropy is
        prefetched: each extend covers the indices asked for plus one
        ``block`` beyond (the children are still bit-identical, but the
        parent runs ahead of the index actually consumed — callers that
        hand the pool a *shared* generator and keep drawing from it
        should pass ``count``).
    block:
        Prefetch look-ahead for the unknown-length mode.

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
        block: int = 512,
    ):
        if count is not None and count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if block <= 0:
            raise ValueError(f"block must be positive, got {block}")
        if isinstance(rng, np.random.Generator):
            # A shared generator advances one word per derivation.  The
            # parent's pre-draw state is stashed so a snapshot can later
            # rebuild the identical pool (see :meth:`snapshot`), and the
            # post-extend state is tracked so interleaved foreign draws
            # from a *shared* parent are detected rather than silently
            # breaking replay-from-initial-state.
            self._parent = rng
            self._parent_initial_state = rng.bit_generator.state
            self._parent_resume_state = self._parent_initial_state
            self._parent_interleaved = False
            self._fixed_word: Optional[int] = None
        else:
            # derive_rng re-seeds a fresh parent from an int/None seed on
            # every call, so each index sees the same first entropy word.
            self._parent = None
            self._parent_initial_state = None
            self._parent_resume_state = None
            self._parent_interleaved = False
            self._fixed_word = int(
                ensure_rng(rng).integers(0, _WORD_BOUND)
            )
        self._token_ints = [fold_token(token) for token in tokens]
        self._token_words = [
            word for value in self._token_ints for word in _int_words32(value)
        ]
        self._block = block
        #: Derived child states as four uint64 limb arrays — (state,
        #: inc) split into (hi, lo) halves.  Vectorized storage keeps
        #: derivation free of per-index Python work and lets
        #: :meth:`first_uniforms` replay outputs in one pass; capacity
        #: doubles on growth.  Children ``[_base, _n)`` are valid, the
        #: first at row 0: a restored pool starts at its restored
        #: position and derives the indices below it only when one is
        #: asked for.
        self._base = 0
        self._n = 0
        self._limbs = [np.zeros(0, dtype=np.uint64) for _ in range(4)]
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
        if count:
            self._extend(count)

    def __len__(self) -> int:
        return self._n

    def generator(self, index: int) -> np.random.Generator:
        """The child generator for ``index`` (a reused, re-seeded object)."""
        if index < 0:
            raise IndexError(f"index must be non-negative, got {index}")
        if index >= self._n:
            self._cover(index + 1)
        elif index < self._base:
            self._derive_below()
        row = index - self._base
        state_hi, state_lo, inc_hi, inc_lo = self._limbs
        # ``item`` reads a limb straight into a Python int, skipping the
        # numpy scalar that ``int(limbs[row])`` builds first.
        pcg_state = self._pcg_state
        pcg_state["state"] = (state_hi.item(row) << 64) | state_lo.item(row)
        pcg_state["inc"] = (inc_hi.item(row) << 64) | inc_lo.item(row)
        self._bit_generator.state = self._state
        return self._generator

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> dict:
        """A picklable description of this pool's derivations.

        The pool's children are normally fully determined by the
        derivation source — the fixed entropy word (seed parents) or
        the parent generator's pre-draw state (generator parents) —
        plus the token prefix, so the snapshot records only those and
        the number of children derived so far, and :meth:`restore`
        re-creates the identical child streams on any pool with the
        same tokens.  One exception: when a *shared* parent generator
        was drawn from by another consumer between the pool's lazy
        extends, replaying from the pre-draw state would weave those
        foreign draws into the entropy words.  The pool detects that
        (the parent no longer sits at its post-extend state when an
        extend begins) and the snapshot then carries the derived state
        limbs verbatim plus the parent's current state, staying exact
        at the price of compactness.
        """
        state = {
            "tokens": list(self._token_ints),
            "n_derived": self._n,
        }
        if self._parent is None:
            state["fixed_word"] = self._fixed_word
        elif not self._parent_interleaved:
            state["parent_initial_state"] = dict(self._parent_initial_state)
        else:
            if self._base:
                self._derive_below()
            state["limbs"] = [
                np.array(limb[: self._n], copy=True)
                for limb in self._limbs
            ]
            state["parent_resume_state"] = self._parent.bit_generator.state
        return state

    def restore(self, snapshot: dict, *, position: int = None) -> None:
        """Put this pool where the snapshotted pool stood.

        After restoring, ``generator(index)`` returns exactly the child
        the snapshotted pool would return for every index, and future
        extends draw the same parent words an uninterrupted pool would
        have drawn.  The pool resumes *at* ``position`` — the first
        index its consumer will ask for (a releaser passes its step
        count), by default the snapshot's ``n_derived``: a generator
        parent is advanced past the ``position`` words before it
        (discarded bounded draws, so numpy repeats its rejections
        exactly) and nothing is derived until asked, so the first
        block after a resume costs no more than the next.  Indices
        below the position are derived on demand, the first time one
        is asked for.  A pool already on the snapshot's derivation
        source whose children reach the position keeps them; an
        interleaved snapshot's limbs are adopted as they are.
        """
        tokens = list(snapshot["tokens"])
        if tokens != self._token_ints:
            raise ValueError(
                f"snapshot was taken under rng tokens {tokens}, this pool "
                f"derives under {self._token_ints}"
            )
        n_derived = int(snapshot["n_derived"])
        if position is None:
            position = n_derived
        if "limbs" in snapshot:
            # Interleaved shared-parent snapshot: adopt the derived
            # states verbatim and resume the parent where it stood.
            # The restored pool stays in limb-carrying snapshot mode —
            # its early indices are no longer derivable from any single
            # parent state.
            self._install_parent(dict(snapshot["parent_resume_state"]))
            self._parent_interleaved = True
            limbs = snapshot["limbs"]
            self._reset_storage(0)
            self._grow(n_derived)
            for row in range(4):
                self._limbs[row][:n_derived] = np.asarray(
                    limbs[row], dtype=np.uint64
                )
            self._n = n_derived
            return
        reaches = self._base <= position <= self._n
        if "fixed_word" in snapshot:
            fixed_word = int(snapshot["fixed_word"])
            if (
                self._parent is None
                and self._fixed_word == fixed_word
                and reaches
            ):
                return
            self._parent = None
            self._parent_initial_state = None
            self._parent_resume_state = None
            self._parent_interleaved = False
            self._fixed_word = fixed_word
        else:
            parent_state = dict(snapshot["parent_initial_state"])
            if (
                self._parent is not None
                and not self._parent_interleaved
                and self._parent_initial_state == parent_state
                and reaches
            ):
                return
            self._install_parent(parent_state)
            _skip_words(self._parent, position)
            self._parent_resume_state = self._parent.bit_generator.state
        self._reset_storage(position)

    def _install_parent(self, parent_state: dict) -> None:
        self._parent = generator_at(parent_state)
        self._parent_initial_state = parent_state
        self._parent_resume_state = parent_state
        self._parent_interleaved = False
        self._fixed_word = None

    def _reset_storage(self, position: int) -> None:
        """Empty the store; the next child derived is ``position``."""
        self._base = self._n = position
        self._limbs = [np.zeros(0, dtype=np.uint64) for _ in range(4)]

    # -- derivation ----------------------------------------------------

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

    def _grow(self, rows: int) -> None:
        """Ensure limb-array capacity for ``rows`` stored children."""
        capacity = self._limbs[0].shape[0]
        if rows <= capacity:
            return
        new_capacity = max(2 * capacity, rows)
        stored = self._n - self._base
        for position in range(4):
            grown = np.zeros(new_capacity, dtype=np.uint64)
            grown[:stored] = self._limbs[position][:stored]
            self._limbs[position] = grown

    def _cover(self, stop: int) -> None:
        """Derive through index ``stop - 1``; an extend it needs also
        covers the next ``block`` indices."""
        if stop > self._n:
            self._extend(stop - self._n + self._block)

    def _extend(self, n_new: int) -> None:
        start = self._n
        if self._parent is not None:
            if (
                not self._parent_interleaved
                and self._parent.bit_generator.state
                != self._parent_resume_state
            ):
                # Another consumer drew from the shared parent between
                # extends; replay-from-initial-state can no longer
                # reproduce the entropy words, so snapshots must carry
                # the derived limbs from here on.
                self._parent_interleaved = True
            words = self._parent.integers(0, _WORD_BOUND, size=n_new)
            self._parent_resume_state = self._parent.bit_generator.state
        else:
            words = np.full(n_new, self._fixed_word, dtype=np.int64)
        row = start - self._base
        self._grow(row + n_new)
        self._derive(
            words, start, [limb[row : row + n_new] for limb in self._limbs]
        )
        self._n = start + n_new

    def _derive_below(self) -> None:
        """Derive the children below a restored position."""
        base = self._base
        if self._parent is None:
            words = np.full(base, self._fixed_word, dtype=np.int64)
        else:
            replay = generator_at(self._parent_initial_state)
            words = replay.integers(0, _WORD_BOUND, size=base)
        below = [np.empty(base, dtype=np.uint64) for _ in range(4)]
        self._derive(words, 0, below)
        stored = self._n - base
        self._limbs = [
            np.concatenate((low, limb[:stored]))
            for low, limb in zip(below, self._limbs)
        ]
        self._base = 0

    def _derive(
        self, words: np.ndarray, start: int, out: List[np.ndarray]
    ) -> None:
        """Child states of indices ``start, start + 1, ...`` from their
        parent ``words``, written into the four limb arrays ``out``."""
        indices = np.arange(start, start + words.shape[0], dtype=np.int64)
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

    def first_uniforms(self, start: int, stop: int) -> np.ndarray:
        """Each child's first ``next_double``, for indices [start, stop).

        Bit-identical to ``generator(index).random()`` per index, but
        computed in one vectorized pass over the stored state limbs —
        no per-index generator installs.  The sequential schedulers
        (BD/BA, landmark) precompute their per-timestamp dissimilarity
        uniforms through this, which is what makes their release loops
        cheap enough to be worth sharding.  Indices past the derived
        ones extend the pool by one call that also covers the next
        ``block``, so a scheduler stepping block after block pays one
        extend per ``block`` indices; on a restored pool a range at or
        above the restored position derives nothing below it.
        """
        if start < 0 or stop < start:
            raise ValueError(f"invalid uniform range [{start}, {stop})")
        self._cover(stop)
        if stop == start:
            return np.zeros(0)
        if start < self._base:
            self._derive_below()
        window = slice(start - self._base, stop - self._base)
        return first_uniforms_from_limbs(
            *(self._limbs[position][window] for position in range(4))
        )
