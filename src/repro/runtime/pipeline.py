"""Pipeline composition: build once, run over any source.

:class:`StreamPipeline` wires the stages together for one service
configuration (alphabet, windowing, mechanism, queries) and runs them
under either executor.  The CEP engine, the online session and the
experiment harness all build their pipelines here, so windowing,
extraction and matching logic exists exactly once.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.tracing import trace_span
from repro.runtime.adapters import runtime_mechanism
from repro.runtime.executors import BatchExecutor, PipelineResult
from repro.runtime.stages import (
    IndicatorExtractor,
    QueryMatcher,
    WindowStage,
)
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.streams.stream import EventStream
from repro.utils.rng import RngLike


class StreamPipeline:
    """One service-phase pipeline, reusable across runs and mechanisms.

    Parameters
    ----------
    alphabet:
        The indicator alphabet (fixes matrix columns).
    queries:
        Continuous queries answered per window; each must expose a
        sequential pattern (element list).
    mechanism:
        Anything with ``perturb(IndicatorStream, rng=...)``, or ``None``
        for no protection.
    windower:
        Optional window assigner; required to run from raw events.
    strict:
        Whether extraction rejects event types outside the alphabet.
    alpha:
        Precision weight of the quality metric the sink reports.
    """

    def __init__(
        self,
        alphabet: EventAlphabet,
        *,
        queries: Sequence = (),
        mechanism=None,
        windower=None,
        strict: bool = False,
        alpha: float = 0.5,
    ):
        self.alphabet = alphabet
        self.alpha = alpha
        self.extractor = IndicatorExtractor(alphabet, strict=strict)
        self.matcher = QueryMatcher(alphabet, queries)
        self.window_stage = (
            WindowStage(windower) if windower is not None else None
        )
        self.runtime_mechanism = runtime_mechanism(mechanism)

    @property
    def mechanism(self):
        return self.runtime_mechanism.mechanism

    def with_mechanism(self, mechanism) -> "StreamPipeline":
        """A pipeline sharing every stage but the mechanism.

        Windowing, extraction and matcher state are reused — this is how
        the experiment harness evaluates many mechanism configurations
        without recomputing shared work.
        """
        clone = object.__new__(StreamPipeline)
        clone.alphabet = self.alphabet
        clone.alpha = self.alpha
        clone.extractor = self.extractor
        clone.matcher = self.matcher
        clone.window_stage = self.window_stage
        clone.runtime_mechanism = runtime_mechanism(mechanism)
        return clone

    # -- sources -------------------------------------------------------

    def indicators_from(self, source) -> IndicatorStream:
        """Normalize any supported source into an indicator stream."""
        if isinstance(source, IndicatorStream):
            return source
        if isinstance(source, EventStream):
            if self.window_stage is None:
                raise ValueError(
                    "this pipeline has no windower; pass windowed input or "
                    "construct with windower="
                )
            return self.extractor.extract(
                self.window_stage.type_sets(source)
            )
        # A sequence of windows or per-window type collections.
        source = list(source)
        if source and hasattr(source[0], "event_types"):
            source = [window.event_types() for window in source]
        return self.extractor.extract(source)

    # -- execution -----------------------------------------------------

    def run(
        self,
        source,
        *,
        rng: RngLike = None,
        executor=None,
    ) -> PipelineResult:
        """Execute the pipeline over ``source``.

        ``source`` may be an :class:`IndicatorStream`, an
        :class:`EventStream` (with a windower configured), a sequence of
        :class:`~repro.streams.windows.Window` objects, or per-window
        type collections.  ``executor`` defaults to the vectorized
        batch strategy.
        """
        executor = executor or BatchExecutor()
        with trace_span("pipeline.run", executor=type(executor).__name__):
            return executor.run(self, self.indicators_from(source), rng=rng)
