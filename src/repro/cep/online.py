"""Online (push-based) service sessions.

The batch API (:meth:`~repro.cep.engine.CEPEngine.process_indicators`)
perturbs a materialized stream; real CEP deployments consume windows as
they close.  :class:`OnlineSession` provides that mode: push one
window's event types, receive that window's private query answers.

Both session kinds — this synchronous one and the asyncio-based
:class:`~repro.cep.async_session.AsyncSession` — release through one
:class:`_ReleaseCore`.  The engine's mechanism is classified by
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

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.cep.engine import CEPEngine
from repro.streams.indicator import IndicatorStream
from repro.utils.rng import RngLike, derive_rng

#: Windows processed per step when :meth:`OnlineSession.run` replays a
#: materialized stream (identical answers to one-by-one pushes; the
#: chunk only amortizes per-call overhead).
_RUN_CHUNK = 256


class _ReleaseCore:
    """The release state one service session steps its windows through.

    Shared by :class:`OnlineSession` and
    :class:`~repro.cep.async_session.AsyncSession`, so both ingestion
    modes perturb, answer and checkpoint identically; each session
    keeps only its own ingestion logic.  ``stepper`` is ``None`` for an
    unprotected engine.  ``windows`` counts the windows released so
    far — callers advance it once a released block is fully handed
    out.  A core opened with a ``snapshot`` (of :meth:`snapshot`)
    starts where it stood: its stepper adopts the snapshotted
    generator states rather than deriving fresh ones for a
    :meth:`restore` to overwrite.
    """

    def __init__(
        self, engine: CEPEngine, rng: RngLike, snapshot: Optional[Dict] = None
    ):
        if not engine.queries:
            raise ValueError("the engine has no registered queries")
        self.pipeline = engine.service_pipeline()
        self.stepper = None
        stepper_state = None
        if snapshot is not None:
            stepper_state = snapshot["stepper"]
            _check_protection(engine.mechanism, stepper_state)
        if engine.mechanism is not None:
            # Sequential releasers historically draw from a dedicated
            # "online" child; per-window flip mechanisms draw from the
            # session seed directly so that a session over the same
            # windows and seed reproduces the batch answers exactly.
            if hasattr(engine.mechanism, "online_releaser"):
                rng = derive_rng(rng, "online")
            self.stepper = self.pipeline.runtime_mechanism.stepper(
                engine.alphabet, rng=rng, horizon=None, snapshot=stepper_state
            )
        # A session is one release of the (growing) stream: charge the
        # engine's accountant once, up front, exactly like the batch
        # path does per process_indicators call — but only after the
        # stepper exists, so a rejected mechanism costs no budget.
        engine._charge_accountant()
        self.windows = 0 if snapshot is None else int(snapshot["windows"])

    def release(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Step a ``(k, width)`` block; return the released rows and
        the per-query answer vectors over them."""
        if self.stepper is not None:
            rows = self.stepper.step_block(rows)
        return rows, self.pipeline.matcher.answer(rows)

    def snapshot(self) -> Dict:
        return {
            "format": 1,
            "windows": self.windows,
            "stepper": (
                None if self.stepper is None else self.stepper.snapshot()
            ),
        }

    def restore(self, snapshot: Dict) -> None:
        stepper_state = snapshot["stepper"]
        _check_protection(self.stepper, stepper_state)
        if self.stepper is not None:
            self.stepper.restore(stepper_state)
        self.windows = int(snapshot["windows"])


def _check_protection(protection, stepper_state) -> None:
    """Refuse a snapshot taken under the other protection status."""
    if (protection is None) != (stepper_state is None):
        raise ValueError(
            "checkpoint does not match this session's mechanism "
            "(protected vs unprotected)"
        )


class OnlineSession:
    """A service-phase session answering queries window by window."""

    def __init__(self, engine: CEPEngine, *, rng: RngLike = None):
        self._core = _ReleaseCore(engine, rng)

    @classmethod
    def _continuing(cls, core: _ReleaseCore) -> "OnlineSession":
        """A session carrying on ``core``'s release (no second
        charge): how ``StreamService.resume`` opens a restored core."""
        session = cls.__new__(cls)
        session._core = core
        return session

    @property
    def windows_processed(self) -> int:
        """Number of windows pushed so far."""
        return self._core.windows

    # -- checkpointing -------------------------------------------------

    def snapshot(self) -> Dict:
        """A picklable checkpoint of the session's release state.

        Captures the window counter and the stepper's full state — for
        sequential mechanisms (BD/BA, landmark) the scheduler state,
        accounting trace, last release and rng-pool position; for flip
        and matrix-RR mechanisms the per-type child generator
        positions.  Restoring it on a fresh session (of either kind)
        over the same engine configuration and seed resumes mid-stream
        with exactly the randomness and budget state an uninterrupted
        run would have had.
        """
        return self._core.snapshot()

    def restore(self, snapshot: Dict) -> None:
        """Resume from a checkpoint produced by :meth:`snapshot`.

        The session must be configured like the snapshotted one (same
        engine queries/mechanism and session seed); the engine's
        accountant is *not* re-credited — a restored session was
        already charged at construction, so a crash-and-resume cycle
        never undercounts spent budget.
        """
        self._core.restore(snapshot)

    def push(self, window_types: Iterable[str]) -> Dict[str, bool]:
        """Process one closed window; return per-query binary answers."""
        core = self._core
        _, answers = core.release(
            core.pipeline.extractor.extract_matrix([window_types])
        )
        core.windows += 1
        return {name: bool(vector[0]) for name, vector in answers.items()}

    def run(self, stream: IndicatorStream) -> Dict[str, List[bool]]:
        """Convenience: push every window of a stream, collect answers.

        Processes the stream in chunks through the same stepper — the
        answers are identical to pushing window by window.  A stream
        over a foreign alphabet is remapped by event-type name.
        """
        core = self._core
        if stream.alphabet == core.pipeline.alphabet:
            matrix = stream.matrix_view()
        else:
            matrix = core.pipeline.extractor.extract_matrix(
                [stream.window_types(i) for i in range(stream.n_windows)]
            )
        answers: Dict[str, List[bool]] = {
            name: [] for name in core.pipeline.matcher.query_names
        }
        for start in range(0, matrix.shape[0], _RUN_CHUNK):
            chunk = matrix[start : start + _RUN_CHUNK]
            _, chunk_answers = core.release(chunk)
            core.windows += chunk.shape[0]
            for name, vector in chunk_answers.items():
                answers[name].extend(vector.tolist())
        return answers
