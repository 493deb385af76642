"""The trusted CEP engine (system model of Section III-A, Fig. 2).

Setup phase: data subjects register *private* patterns (what must be
protected); data consumers register continuous *target* queries and
their quality requirement.  A privacy mechanism is attached (any object
with ``perturb(IndicatorStream, rng=...) -> IndicatorStream``).

Service phase: raw events are windowed, reduced to existence indicators,
perturbed once by the mechanism, and every registered query is answered
from the *perturbed* indicators — so the mechanism's guarantee covers
all consumers.

The setup phase is one-shot: the engine is configured entirely at
construction (its keywords are :class:`~repro.service.ServiceSpec`'s
own field names) and is immutable afterwards.  A ``ServiceSpec``
compiles into exactly one such constructor call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.cep.matcher import PatternMatcher, PatternStream
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery, QueryAnswer
from repro.mechanisms.accountant import PrivacyAccountant
from repro.runtime.pipeline import StreamPipeline
from repro.runtime.stages import WindowStage
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.streams.stream import EventStream
from repro.utils.rng import RngLike
from repro.utils.validation import check_positive


@dataclass
class QualityRequirement:
    """A data consumer's quality requirement (Section III-B).

    ``alpha`` weights precision against recall in
    ``Q = alpha * Prec + (1 - alpha) * Rec``; ``max_mre`` optionally
    caps the acceptable quality degradation ``MRE_Q``.
    """

    alpha: float = 0.5
    max_mre: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.max_mre is not None and self.max_mre < 0:
            raise ValueError(f"max_mre must be >= 0, got {self.max_mre}")


@dataclass
class EngineReport:
    """Outcome of one service-phase run.

    Attributes
    ----------
    answers:
        Per-query answers computed on the *perturbed* indicators.
    true_answers:
        Per-query answers on the unperturbed indicators (ground truth for
        quality evaluation; never released to consumers).
    original, perturbed:
        The indicator streams before and after the mechanism.
    """

    answers: Dict[str, QueryAnswer]
    true_answers: Dict[str, QueryAnswer]
    original: IndicatorStream
    perturbed: IndicatorStream

    def answer(self, query_name: str) -> QueryAnswer:
        if query_name not in self.answers:
            raise KeyError(
                f"unknown query {query_name!r}; have {sorted(self.answers)}"
            )
        return self.answers[query_name]

    @property
    def confusion(self):
        """Released-versus-truth confusion counts, micro-averaged over
        all queries (Section III-B)."""
        from repro.metrics.confusion import ConfusionCounts

        answers = self.answers
        return ConfusionCounts.micro(
            {name: self.true_answers[name].detections for name in answers},
            {name: answers[name].detections for name in answers},
        )

    def measured_quality(self, alpha: float = 0.5):
        """``Q`` of the released answers against the engine-internal truth.

        Micro-averaged over all queries (Section III-B).  This uses the
        unreleased ground truth, so it is a trusted-engine diagnostic,
        not something a consumer could compute.
        """
        from repro.metrics.quality import DataQuality

        return DataQuality.from_confusion(self.confusion, alpha=alpha)

    def measured_mre(self, alpha: float = 0.5) -> float:
        """``MRE_Q`` of this run (Eq. (4); ``Q_ord = 1`` in-engine)."""
        from repro.metrics.mre import mean_relative_error

        return mean_relative_error(1.0, self.measured_quality(alpha).q)

    def meets_requirement(self, requirement: "QualityRequirement") -> bool:
        """Whether this run satisfies a consumer's quality requirement.

        True when the requirement sets no MRE cap, or the measured MRE
        (under the requirement's α) stays within it.
        """
        if requirement.max_mre is None:
            return True
        return self.measured_mre(requirement.alpha) <= requirement.max_mre


class CEPEngine:
    """Trusted middleware between data subjects and data consumers.

    Parameters
    ----------
    alphabet:
        The event-type universe fixing the indicator columns.
    patterns:
        The data subjects' private patterns (what must be protected).
    queries:
        The data consumers' continuous target-pattern queries.
    quality:
        The consumers' required output quality (default
        :class:`QualityRequirement`).
    mechanism:
        The privacy mechanism used during service: any object exposing
        ``perturb(stream, rng=...) -> IndicatorStream`` (the
        pattern-level PPMs and all baselines do); ``None`` runs
        unprotected.
    accounting:
        Cap on the total budget spent across service-phase runs.  Each
        :meth:`process_indicators` call (and each session) releases a
        fresh perturbation, and repeated releases compose sequentially;
        the :attr:`accountant` makes the cumulative spend explicit and
        refuses runs that would exceed the cap.
    """

    def __init__(
        self,
        alphabet: EventAlphabet,
        *,
        patterns: Iterable[Pattern] = (),
        queries: Iterable[ContinuousQuery] = (),
        quality: Optional[QualityRequirement] = None,
        mechanism=None,
        accounting: Optional[float] = None,
    ):
        if not isinstance(alphabet, EventAlphabet):
            raise TypeError(
                f"alphabet must be EventAlphabet, got {type(alphabet).__name__}"
            )
        self.alphabet = alphabet
        self._private_patterns: Dict[str, Pattern] = {}
        for pattern in patterns:
            self._check_pattern(pattern)
            if pattern.name in self._private_patterns:
                raise ValueError(
                    f"private pattern {pattern.name!r} already registered"
                )
            self._private_patterns[pattern.name] = pattern
        self._queries: Dict[str, ContinuousQuery] = {}
        for query in queries:
            if query.name in self._queries:
                raise ValueError(f"query {query.name!r} already registered")
            self._check_pattern(query.pattern)
            self._queries[query.name] = query
        self._quality = (
            quality if quality is not None else QualityRequirement()
        )
        if mechanism is not None and not hasattr(mechanism, "perturb"):
            raise TypeError(
                "mechanism must expose perturb(IndicatorStream, rng=...)"
            )
        self._mechanism = mechanism
        self._accountant: Optional[PrivacyAccountant] = None
        if accounting is not None:
            check_positive("accounting", accounting, allow_inf=True)
            self._accountant = PrivacyAccountant(accounting)
        self._pipeline: Optional[StreamPipeline] = None

    @property
    def accountant(self) -> Optional[PrivacyAccountant]:
        """The service-phase budget ledger (``None`` when not enabled)."""
        return self._accountant

    def _charge_accountant(self) -> None:
        if self._accountant is None or self._mechanism is None:
            return
        # Pattern-level mechanisms expose per-pattern guarantees; other
        # mechanisms expose a single epsilon.
        if hasattr(self._mechanism, "guarantees"):
            spends = [
                (f"release:{guarantee.pattern.name}", guarantee.epsilon)
                for guarantee in self._mechanism.guarantees()
            ]
        else:
            name = getattr(self._mechanism, "name", "mechanism")
            spends = [(f"release:{name}", self._mechanism.epsilon)]
        total = sum(epsilon for _label, epsilon in spends)
        if not self._accountant.can_spend(total):
            from repro.mechanisms.accountant import BudgetExceededError

            raise BudgetExceededError(
                f"this release needs ε={total:g} but only "
                f"{self._accountant.remaining():g} of the engine budget "
                f"remains"
            )
        for label, epsilon in spends:
            self._accountant.spend(label, epsilon)

    def _check_pattern(self, pattern: Pattern) -> None:
        if not isinstance(pattern, Pattern):
            raise TypeError(
                f"expected Pattern, got {type(pattern).__name__}"
            )
        if pattern.elements is not None:
            missing = [
                element
                for element in pattern.elements
                if element not in self.alphabet
            ]
            if missing:
                raise ValueError(
                    f"pattern {pattern.name!r} uses event types {missing} "
                    "absent from the engine alphabet"
                )

    # -- introspection ----------------------------------------------------

    @property
    def private_patterns(self) -> List[Pattern]:
        """The registered private patterns."""
        return list(self._private_patterns.values())

    @property
    def queries(self) -> List[ContinuousQuery]:
        """The registered continuous queries."""
        return list(self._queries.values())

    @property
    def quality_requirement(self) -> QualityRequirement:
        return self._quality

    @property
    def mechanism(self):
        return self._mechanism

    # -- service phase ----------------------------------------------------

    def service_pipeline(self) -> StreamPipeline:
        """The runtime pipeline realizing this engine's service phase.

        Built on first use and cached (the engine is immutable).
        Exposed so callers can run the engine's configuration under a
        custom executor.
        """
        if not self._queries:
            raise RuntimeError("no queries registered; nothing to answer")
        if self._pipeline is None:
            self._pipeline = StreamPipeline(
                self.alphabet,
                queries=list(self._queries.values()),
                mechanism=self._mechanism,
            )
        return self._pipeline

    def process_indicators(
        self,
        stream: IndicatorStream,
        *,
        rng: RngLike = None,
        executor=None,
    ) -> EngineReport:
        """Answer all registered queries over an indicator stream.

        The attached mechanism perturbs the stream once; all queries are
        answered from the perturbed stream.  Without a mechanism the
        answers equal the ground truth (no protection).  ``executor``
        selects the runtime strategy (vectorized batch by default; a
        :class:`~repro.runtime.executors.ShardedExecutor` or
        :class:`~repro.runtime.cluster.ClusterExecutor` shards the
        stream, and with ``materialize=False`` returns only the
        answers).  Unbounded streams are served incrementally by the
        sessions (:class:`~repro.cep.online.OnlineSession`,
        :meth:`~repro.service.StreamService.pump`).
        """
        pipeline = self.service_pipeline()
        if stream.alphabet != self.alphabet:
            raise ValueError("indicator stream alphabet differs from the engine's")
        if self._mechanism is not None:
            self._charge_accountant()
        result = pipeline.run(stream, rng=rng, executor=executor)
        answers: Dict[str, QueryAnswer] = {
            name: QueryAnswer(name, detections)
            for name, detections in result.answers.items()
        }
        true_answers: Dict[str, QueryAnswer] = {
            name: QueryAnswer(name, detections)
            for name, detections in result.true_answers.items()
        }
        return EngineReport(
            answers=answers,
            true_answers=true_answers,
            original=stream,
            perturbed=result.released,
        )

    def process_events(
        self,
        stream: EventStream,
        window_assigner,
        *,
        rng: RngLike = None,
        executor=None,
    ) -> EngineReport:
        """Full service phase from raw events.

        Windows the event stream with ``window_assigner`` (any assigner
        from :mod:`repro.streams.windows`), reduces the windows to
        existence indicators over the engine alphabet, and answers every
        query (mechanism applied once, accounting charged if enabled).
        Windowing and extraction run through the runtime's vectorized
        stages.
        """
        type_sets = WindowStage(window_assigner).type_sets(stream)
        pipeline = self.service_pipeline()
        indicators = pipeline.extractor.extract(type_sets)
        return self.process_indicators(indicators, rng=rng, executor=executor)

    def match(
        self,
        stream: EventStream,
        pattern: Pattern,
        *,
        within: Optional[float] = None,
        contiguity: str = "skip-till-any",
    ) -> PatternStream:
        """Full CEP matching of one pattern over an event stream.

        This path exercises the operator algebra (SEQ/AND/OR/NEG/KLEENE)
        directly; it carries no privacy protection and is used to build
        pattern streams and ground truth.
        """
        matcher = PatternMatcher(pattern, within=within, contiguity=contiguity)
        return matcher.match_stream(stream)

    def detect_all_patterns(
        self, stream: EventStream, *, within: Optional[float] = None
    ) -> PatternStream:
        """Match every registered pattern (private and target) over events.

        Returns the merged pattern stream ``S^P`` ordered by completion
        (detection) time.
        """
        all_patterns = list(self._private_patterns.values()) + [
            query.pattern for query in self._queries.values()
        ]
        merged = PatternStream()
        completions = []
        for pattern in all_patterns:
            for match in self.match(stream, pattern, within=within):
                completions.append((match.end, match.pattern_name, match))
        completions.sort(key=lambda item: (item[0], item[1]))
        for _end, _name, match in completions:
            merged.append(match)
        return merged
