"""Mechanism adapters: one runtime interface over every ``perturb``.

The privacy mechanisms grew three historical protocols:

- **per-window flip mechanisms** (the pattern-level PPMs, multi-pattern
  composition): independent per-type randomized response, batch-applied
  via :func:`repro.core.ppm.apply_randomized_response`;
- **whole-matrix randomized response** (event-/user-level baselines):
  one uniform draw over the full indicator matrix;
- **sequential releasers** (BD/BA, landmark): per-timestamp scheduler
  state exposed through ``online_releaser``.

:func:`runtime_mechanism` classifies a mechanism once and returns a
:class:`RuntimeMechanism` the executors use uniformly:
``perturb_batch`` delegates to the mechanism's own ``perturb`` (bit
parity with the historical batch path is free), and ``stepper`` yields
an object whose ``step_block`` processes window chunks *bit-identically
to the batch path under the same seed* — the property the executor
parity suite pins.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.utils.rng import RngLike, derive_rng, ensure_rng, generator_at


class RuntimeMechanism:
    """Uniform executor-facing view of one privacy mechanism."""

    #: Whether this mechanism's stepper supports ``seek`` — skipping a
    #: prefix of windows while drawing the *same* randomness the batch
    #: path would draw for the remaining windows.
    #: :class:`~repro.runtime.executors.ShardedExecutor` shards seekable
    #: mechanisms directly.
    shardable: bool = False

    #: Whether this mechanism's stepper supports the checkpoint
    #: protocol — ``snapshot()``/``restore()`` of the full release state
    #: (scheduler state, trace, last release, rng-pool position).
    #: Sequential schedulers (BD/BA, landmark) cannot seek; the
    #: parallel executors run their sequential part once in the parent
    #: (see :mod:`repro.runtime.sharding`).
    checkpointable: bool = False

    def __init__(self, mechanism):
        self.mechanism = mechanism

    @property
    def name(self) -> str:
        if self.mechanism is None:
            return "identity"
        return getattr(self.mechanism, "name", type(self.mechanism).__name__)

    def perturb_batch(
        self, stream: IndicatorStream, *, rng: RngLike = None
    ) -> IndicatorStream:
        """One-shot perturbation of a materialized stream."""
        if self.mechanism is None:
            return stream
        return self.mechanism.perturb(stream, rng=rng)

    def stepper(
        self,
        alphabet: EventAlphabet,
        *,
        rng: RngLike = None,
        horizon: Optional[int] = None,
        snapshot: Optional[dict] = None,
    ):
        """A chunk stepper reproducing ``perturb_batch`` bit for bit.

        ``snapshot`` (a stepper's :meth:`snapshot`) builds the stepper
        already restored to it, adopting its generator states instead
        of first deriving the ones a ``restore`` would overwrite.
        Raises ``TypeError`` for mechanisms that only support batch
        perturbation.
        """
        raise TypeError(
            f"mechanism {type(self.mechanism).__name__} supports only batch "
            "perturbation; use BatchExecutor"
        )


class _IdentityRuntime(RuntimeMechanism):
    shardable = True

    def stepper(self, alphabet, *, rng=None, horizon=None, snapshot=None):
        return _IdentityStepper()


class _IdentityStepper:
    def step_block(self, matrix: np.ndarray) -> np.ndarray:
        return matrix

    def seek(self, n_windows: int) -> None:
        """Skip ``n_windows`` windows (the identity draws nothing)."""

    def snapshot(self) -> dict:
        """The identity holds no state; sessions persist only counters."""
        return {}

    def restore(self, snapshot: dict) -> None:
        """Nothing to restore (stateless)."""


class FlipStepper:
    """Chunked randomized response over named indicator columns.

    ``layers`` is a list of flip-probability maps applied in sequence
    (one per independent PPM).  Child generators are derived exactly as
    the batch path derives them — ``derive_rng(rng, "multi-ppm", i)``
    per layer when layered, then ``derive_rng(parent, "rr-flip", type)``
    per column — and each chunk consumes the next slice of the same
    per-type child streams, so chunked and batch decisions coincide.
    ``states`` (a snapshot's ``"children"``) starts every child at its
    snapshotted state instead, deriving none.
    """

    def __init__(
        self,
        layers: Sequence[Dict[str, float]],
        alphabet: EventAlphabet,
        rng: RngLike,
        *,
        layered: bool = False,
        states: Optional[Sequence[Sequence[dict]]] = None,
    ):
        if states is not None:
            _check_layout(states, layers)

        def children(position, types):
            if states is not None:
                return [generator_at(state) for state in states[position]]
            parent = derive_rng(rng, "multi-ppm", position) if layered else rng
            return [derive_rng(parent, "rr-flip", kind) for kind in types]

        self._plan: List[List] = []
        for position, flip_by_type in enumerate(layers):
            entries = []
            for (event_type, probability), child in zip(
                flip_by_type.items(), children(position, flip_by_type)
            ):
                if not 0.0 <= probability <= 0.5:
                    raise ValueError(
                        f"flip probability for {event_type!r} must be in "
                        f"[0, 1/2], got {probability}"
                    )
                if event_type not in alphabet:
                    raise ValueError(
                        f"stream alphabet lacks protected element types "
                        f"[{event_type!r}]"
                    )
                entries.append(
                    (alphabet.index(event_type), probability, child)
                )
            self._plan.append(entries)

    def step_block(self, matrix: np.ndarray) -> np.ndarray:
        released = matrix.copy()
        n_windows = released.shape[0]
        for entries in self._plan:
            for column, probability, child in entries:
                flips = child.random(n_windows) < probability
                released[:, column] ^= flips
        return released

    def seek(self, n_windows: int) -> None:
        """Skip the flip decisions of the first ``n_windows`` windows.

        Every per-type child consumes exactly one PCG64 word per window
        (one ``float64`` per flip decision), so advancing each child's
        bit generator by ``n_windows`` leaves the stepper in the state a
        sequential run over those windows would — the foundation of the
        sharded executor's bit-identity with the batch path.
        """
        if n_windows < 0:
            raise ValueError(f"n_windows must be >= 0, got {n_windows}")
        if n_windows == 0:
            return
        for entries in self._plan:
            for _column, _probability, child in entries:
                child.bit_generator.advance(n_windows)

    def snapshot(self) -> dict:
        """Per-type child generator states, in plan order (picklable)."""
        return {
            "children": [
                [child.bit_generator.state for _c, _p, child in entries]
                for entries in self._plan
            ]
        }

    def restore(self, snapshot: dict) -> None:
        """Put every per-type child back at the snapshotted position."""
        children = snapshot["children"]
        _check_layout(children, self._plan)
        for entries, states in zip(self._plan, children):
            for (_column, _probability, child), state in zip(entries, states):
                child.bit_generator.state = state


def _check_layout(states: Sequence[Sequence], layers: Sequence) -> None:
    """Refuse per-type child states laid out unlike ``layers``."""
    if len(states) != len(layers) or any(
        len(layer_states) != len(layer)
        for layer_states, layer in zip(states, layers)
    ):
        raise ValueError(
            "snapshot layer/type layout does not match this stepper"
        )


class _FlipRuntime(RuntimeMechanism):
    """Pattern-level PPMs: single or multi-pattern per-type flips."""

    shardable = True

    def __init__(self, mechanism, layers, *, layered):
        super().__init__(mechanism)
        self._layers = layers
        self._layered = layered

    def stepper(self, alphabet, *, rng=None, horizon=None, snapshot=None):
        return FlipStepper(
            [layer() for layer in self._layers],
            alphabet,
            rng,
            layered=self._layered,
            states=None if snapshot is None else snapshot["children"],
        )


class _MatrixRRRuntime(RuntimeMechanism):
    """Whole-matrix randomized response (event-/user-level baselines)."""

    shardable = True

    def stepper(self, alphabet, *, rng=None, horizon=None, snapshot=None):
        mechanism = self.mechanism
        if hasattr(mechanism, "flip_probability"):
            probability = mechanism.flip_probability
        else:
            # User-level: the budget is split across every indicator of
            # the whole stream, so the horizon must be known.
            if horizon is None:
                raise TypeError(
                    "user-level randomized response needs the stream "
                    "horizon to split its budget; chunked execution "
                    "requires horizon="
                )
            from repro.mechanisms.randomized_response import (
                epsilon_to_flip_probability,
            )

            bits = horizon * len(alphabet)
            if bits == 0:
                probability = 0.0
            else:
                probability = epsilon_to_flip_probability(
                    mechanism.epsilon / bits
                )
        generator = (
            ensure_rng(rng)
            if snapshot is None
            else generator_at(snapshot["generator"])
        )
        return _MatrixRRStepper(generator, probability, len(alphabet))


class _MatrixRRStepper:
    def __init__(self, generator, probability: float, width: int):
        self._generator = generator
        self._probability = probability
        self._width = width

    def step_block(self, matrix: np.ndarray) -> np.ndarray:
        flips = self._generator.random(matrix.shape) < self._probability
        return matrix ^ flips

    def seek(self, n_windows: int) -> None:
        """Skip the whole-matrix draws of the first ``n_windows`` windows.

        The batch draw is row-major over ``(n_windows, width)``, one
        PCG64 word per cell, so skipping ``n_windows`` rows means
        advancing ``n_windows * width`` words.
        """
        if n_windows < 0:
            raise ValueError(f"n_windows must be >= 0, got {n_windows}")
        if n_windows == 0:
            return
        self._generator.bit_generator.advance(n_windows * self._width)

    def snapshot(self) -> dict:
        """The matrix generator's position (one stream for all cells)."""
        return {"generator": self._generator.bit_generator.state}

    def restore(self, snapshot: dict) -> None:
        self._generator.bit_generator.state = snapshot["generator"]


class _SequentialRuntime(RuntimeMechanism):
    """Scheduler mechanisms exposing an online releaser (BD/BA, landmark)."""

    checkpointable = True

    def stepper(self, alphabet, *, rng=None, horizon=None, snapshot=None):
        # The releaser's rng pool derives lazily: restoring it moves
        # the pool to the snapshot's position without deriving a child,
        # so a restored stepper skips the up-front horizon derivation.
        releaser = self.mechanism.online_releaser(
            len(alphabet),
            rng=rng,
            horizon=horizon if snapshot is None else None,
        )
        if snapshot is not None:
            releaser.restore(snapshot)
        return _SequentialStepper(releaser, self.mechanism)


class _SequentialStepper:
    """Chunk stepper over an online releaser (BD/BA, landmark).

    Mirrors the batch path's trace bookkeeping lazily: the releaser's
    trace is published to ``mechanism.last_trace`` when this stepper
    *first steps*, not at construction — so building a stepper (or a
    speculative one that never runs) cannot discard the trace of a
    completed run.  The trace object is then mutated in place as the
    releaser steps, keeping ``last_trace`` current through a chunked
    run.
    """

    def __init__(self, releaser, mechanism):
        self.releaser = releaser
        self._trace_owner = (
            mechanism if hasattr(mechanism, "last_trace") else None
        )

    def step_block(self, matrix: np.ndarray) -> np.ndarray:
        if self._trace_owner is not None:
            trace = getattr(self.releaser, "trace", None)
            if trace is not None:
                self._trace_owner.last_trace = trace
            self._trace_owner = None
        released = self.releaser.step_block(matrix.astype(float))
        return released >= 0.5

    def advance_block(self, matrix: np.ndarray) -> None:
        """Advance release state without materializing released rows.

        Landmark only: its releaser is the one with ``advance_block``.
        """
        self.releaser.advance_block(matrix.astype(float))

    # -- checkpoint protocol -------------------------------------------

    def snapshot(self) -> dict:
        """Checkpoint of the full release state (see the releasers)."""
        return self.releaser.snapshot()

    def restore(self, snapshot: dict) -> None:
        self.releaser.restore(snapshot)


def runtime_mechanism(mechanism) -> RuntimeMechanism:
    """Classify ``mechanism`` into its runtime adapter.

    ``None`` yields the identity (no protection).  Mechanisms that match
    none of the streamable protocols still run under the batch executor
    through their own ``perturb``.
    """
    if mechanism is None:
        return _IdentityRuntime(mechanism)
    if not hasattr(mechanism, "perturb"):
        raise TypeError(
            "mechanism must expose perturb(IndicatorStream, rng=...)"
        )
    if hasattr(mechanism, "online_releaser"):
        return _SequentialRuntime(mechanism)
    if hasattr(mechanism, "ppms"):
        return _FlipRuntime(
            mechanism,
            [ppm.flip_probability_by_type for ppm in mechanism.ppms],
            layered=True,
        )
    if hasattr(mechanism, "flip_probability_by_type"):
        return _FlipRuntime(
            mechanism, [mechanism.flip_probability_by_type], layered=False
        )
    if hasattr(mechanism, "flip_probability") or hasattr(
        mechanism, "per_bit_epsilon"
    ):
        return _MatrixRRRuntime(mechanism)
    return RuntimeMechanism(mechanism)
