"""Online (push-based) service sessions.

The batch API (:meth:`~repro.cep.engine.CEPEngine.process_indicators`)
perturbs a materialized stream; real CEP deployments consume windows as
they close.  :class:`OnlineSession` provides that mode: push one
window's event types, receive that window's private query answers.

A session is a thin facade over the runtime's chunked machinery: the
engine's mechanism is classified by
:func:`repro.runtime.adapters.runtime_mechanism` into a chunk stepper
that reproduces the batch perturbation *bit for bit* under the same
seed —

- **per-window flip mechanisms** (pattern-level PPMs, their
  multi-pattern composition, event-level RR): each push consumes the
  next slice of the same per-type child-generator streams the batch
  path draws vectorized;
- **sequential stream mechanisms** (BD/BA, landmark) step their
  :class:`~repro.baselines.w_event.OnlineReleaser` /
  :class:`~repro.baselines.landmark.LandmarkReleaser` one window at a
  time, with the batch ``perturb`` implemented on top of the same
  stepper.

Mechanisms that only support batch perturbation (and the user-level
baseline, whose budget split needs the stream horizon) are rejected
with ``TypeError`` at session construction.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.cep.engine import CEPEngine
from repro.streams.indicator import IndicatorStream
from repro.utils.rng import RngLike, derive_rng

#: Windows processed per step when :meth:`OnlineSession.run` replays a
#: materialized stream (identical answers to one-by-one pushes; the
#: chunk only amortizes per-call overhead).
_RUN_CHUNK = 256


def session_stepper(engine: CEPEngine, pipeline, rng: RngLike):
    """The chunk stepper one service session steps its windows through.

    Shared by the synchronous :class:`OnlineSession` and the
    asyncio-based :class:`~repro.cep.async_session.AsyncSession` so both
    ingestion modes perturb identically.  Sequential releasers
    historically draw from a dedicated ``"online"`` child; per-window
    flip mechanisms draw from the session seed directly so that a
    session over the same windows and seed reproduces the batch answers
    exactly.  Returns ``None`` for an unprotected engine.
    """
    mechanism = engine.mechanism
    if mechanism is None:
        return None
    if hasattr(mechanism, "online_releaser"):
        stepper_rng = derive_rng(rng, "online")
    else:
        stepper_rng = rng
    return pipeline.runtime_mechanism.stepper(
        engine.alphabet, rng=stepper_rng, horizon=None
    )


class OnlineSession:
    """A service-phase session answering queries window by window."""

    def __init__(self, engine: CEPEngine, *, rng: RngLike = None):
        if not engine.queries:
            raise ValueError("the engine has no registered queries")
        self._engine = engine
        self._pipeline = engine.service_pipeline()
        self._pushed = 0
        # A session is one release of the (growing) stream: charge the
        # engine's accountant once, up front, exactly like the batch
        # path does per process_indicators call — but only after the
        # stepper exists, so a rejected mechanism costs no budget.
        self._stepper = session_stepper(engine, self._pipeline, rng)
        engine._charge_accountant()

    @property
    def windows_processed(self) -> int:
        """Number of windows pushed so far."""
        return self._pushed

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> Dict:
        """A picklable checkpoint of the session's release state.

        Captures the window counter and the stepper's full state — for
        sequential mechanisms (BD/BA, landmark) the scheduler state,
        accounting trace, last release and rng-pool position; for flip
        and matrix-RR mechanisms the per-type child generator
        positions.  Restoring it on a fresh session over the same
        engine configuration and seed resumes mid-stream with exactly
        the randomness and budget state an uninterrupted run would
        have had.
        """
        return {
            "format": 1,
            "windows": self._pushed,
            "stepper": (
                None if self._stepper is None else self._stepper.snapshot()
            ),
        }

    def restore(self, snapshot: Dict) -> None:
        """Resume from a checkpoint produced by :meth:`snapshot`.

        The session must be configured like the snapshotted one (same
        engine queries/mechanism and session seed); the engine's
        accountant is *not* re-credited — a restored session was
        already charged at construction, so a crash-and-resume cycle
        never undercounts spent budget.
        """
        stepper_state = snapshot["stepper"]
        if (self._stepper is None) != (stepper_state is None):
            raise ValueError(
                "checkpoint does not match this session's mechanism "
                "(protected vs unprotected)"
            )
        if self._stepper is not None:
            self._stepper.restore(stepper_state)
        self._pushed = int(snapshot["windows"])

    def push(self, window_types: Iterable[str]) -> Dict[str, bool]:
        """Process one closed window; return per-query binary answers."""
        row = np.zeros((1, len(self._engine.alphabet)), dtype=bool)
        for name in window_types:
            if name in self._engine.alphabet:
                row[0, self._engine.alphabet.index(name)] = True
        released = self._release(row)
        self._pushed += 1
        answers = self._pipeline.matcher.answer(released)
        return {name: bool(vector[0]) for name, vector in answers.items()}

    def _release(self, rows: np.ndarray) -> np.ndarray:
        if self._stepper is None:
            return rows
        return self._stepper.step_block(rows)

    def run(self, stream: IndicatorStream) -> Dict[str, List[bool]]:
        """Convenience: push every window of a stream, collect answers.

        Processes the stream in chunks through the same stepper — the
        answers are identical to pushing window by window.
        """
        if stream.alphabet != self._engine.alphabet:
            # Foreign alphabet: remap per window by event-type name.
            answers = {
                name: []
                for name in self._pipeline.matcher.query_names
            }
            for index in range(stream.n_windows):
                per_window = self.push(stream.window_types(index))
                for name, value in per_window.items():
                    answers[name].append(value)
            return answers
        matrix = stream.matrix_view()
        matcher = self._pipeline.matcher
        answers: Dict[str, List[bool]] = {
            name: [] for name in matcher.query_names
        }
        for start in range(0, matrix.shape[0], _RUN_CHUNK):
            chunk = matrix[start : start + _RUN_CHUNK]
            released = self._release(chunk)
            self._pushed += chunk.shape[0]
            for name, vector in matcher.answer(released).items():
                answers[name].extend(bool(value) for value in vector)
        return answers
