"""Pipeline composition: build once, run over any windowed source.

:class:`StreamPipeline` wires the stages together for one service
configuration (alphabet, mechanism, queries) and runs them under any
executor: indicators → mechanism → matcher, with the executor counting
released-versus-truth confusion onto the
:class:`~repro.runtime.executors.PipelineResult`.  The CEP engine, the
sessions and the experiment harness all build their pipelines here, so
extraction and matching logic exists exactly once.  Raw events are
windowed before they reach a pipeline
(:meth:`~repro.cep.engine.CEPEngine.process_events`,
:meth:`~repro.service.StreamService.run`).
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.tracing import trace_span
from repro.runtime.adapters import runtime_mechanism
from repro.runtime.executors import BatchExecutor, PipelineResult
from repro.runtime.stages import IndicatorExtractor, QueryMatcher
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
    """

    def __init__(
        self,
        alphabet: EventAlphabet,
        *,
        queries: Sequence = (),
        mechanism=None,
    ):
        self.alphabet = alphabet
        self.extractor = IndicatorExtractor(alphabet)
        self.matcher = QueryMatcher(alphabet, queries)
        self.runtime_mechanism = runtime_mechanism(mechanism)

    @property
    def mechanism(self):
        return self.runtime_mechanism.mechanism

    def with_mechanism(self, mechanism) -> "StreamPipeline":
        """A pipeline sharing every stage but the mechanism.

        Extraction and matcher state are reused — this is how
        the experiment harness evaluates many mechanism configurations
        without recomputing shared work.
        """
        clone = object.__new__(StreamPipeline)
        clone.alphabet = self.alphabet
        clone.extractor = self.extractor
        clone.matcher = self.matcher
        clone.runtime_mechanism = runtime_mechanism(mechanism)
        return clone

    # -- sources -------------------------------------------------------

    def indicators_from(self, source) -> IndicatorStream:
        """Normalize any supported source into an indicator stream."""
        if isinstance(source, IndicatorStream):
            return source
        if isinstance(source, EventStream):
            raise TypeError(
                "a pipeline runs windowed input; window raw events "
                "through CEPEngine.process_events(stream, assigner) or "
                "StreamService.run(stream, window=...)"
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

        ``source`` may be an :class:`IndicatorStream`, a sequence of
        :class:`~repro.streams.windows.Window` objects, or per-window
        type collections.  ``executor`` defaults to the vectorized
        batch strategy.
        """
        executor = executor or BatchExecutor()
        with trace_span("pipeline.run", executor=type(executor).__name__):
            return executor.run(self, self.indicators_from(source), rng=rng)
