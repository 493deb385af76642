"""Mechanism construction and evaluation over workloads.

This module is the bridge between the library pieces: given a
:class:`~repro.datasets.workload.Workload`, a mechanism kind and a
pattern-level budget, :meth:`WorkloadEvaluation.build_mechanism`
assembles a calibrated mechanism (converting baseline budgets per
Section VI-A.2), and :func:`evaluate_mechanism` measures the resulting
data quality and ``MRE_Q`` on the evaluation stream.

Evaluation runs on the streaming runtime: a
:class:`WorkloadEvaluation` builds the workload's pipeline *once* —
query matcher, ordinary quality, landmark masks, budget converters and
Algorithm 1 quality estimators — and every (mechanism, ε) cell reuses
it.  :meth:`WorkloadEvaluation.sweep` shares
one such context across its whole grid, which is what makes the Fig. 4
regeneration cheap.  The grid runs serially; its one parallel layer is
the per-trial ``executor=`` (sharded or cluster execution, bit-identical
to batch).  The module-level helpers remain as thin wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.baselines.conversion import BudgetConverter
from repro.cep.queries import ContinuousQuery
from repro.core.quality_model import AnalyticQualityEstimator
from repro.datasets.workload import Workload
from repro.metrics.mre import mean_relative_error
from repro.metrics.quality import DataQuality
from repro.runtime.executors import BatchExecutor
from repro.runtime.pipeline import StreamPipeline
from repro.utils.rng import RngLike, derive_rng
from repro.utils.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class EvaluationResult:
    """Measured outcome of one (workload, mechanism, ε) cell."""

    workload: str
    mechanism: str
    pattern_epsilon: float
    quality: DataQuality
    mre: float
    mre_std: float
    n_trials: int


class WorkloadEvaluation:
    """Shared evaluation state for one workload.

    Builds the runtime pipeline for the workload's target queries once
    and caches everything mechanism-independent: the ordinary
    quality ``Q_ord`` per α, the landmark
    mask, budget converters, and the analytic quality estimators
    Algorithm 1 fits against.  Cells differing only in mechanism kind
    or ε then share all of it.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.pipeline = StreamPipeline(
            workload.stream.alphabet,
            queries=[
                ContinuousQuery(pattern.name, pattern)
                for pattern in workload.target_patterns
            ],
        )
        self._executor = BatchExecutor()
        self._q_ordinary: Dict[float, float] = {}
        self._landmark_mask: Optional[np.ndarray] = None
        self._converters: Dict[str, BudgetConverter] = {}
        self._estimators: Dict[tuple, AnalyticQualityEstimator] = {}

    # -- cached, mechanism-independent state ---------------------------

    def q_ordinary(self, alpha: float) -> float:
        """The ordinary quality ``Q_ord`` (Eq. (4) numerator) under α."""
        if alpha not in self._q_ordinary:
            from repro.core.quality_model import baseline_quality

            self._q_ordinary[alpha] = baseline_quality(
                self.workload.stream,
                self.workload.target_patterns,
                alpha=alpha,
            ).q
        return self._q_ordinary[alpha]

    def landmark_mask(self) -> np.ndarray:
        if self._landmark_mask is None:
            self._landmark_mask = self.workload.landmark_mask()
        return self._landmark_mask

    def converter(self, mode: str) -> BudgetConverter:
        if mode not in self._converters:
            self._converters[mode] = BudgetConverter(
                self.workload.max_private_length, mode=mode
            )
        return self._converters[mode]

    def _estimator_factory(self, history, pattern, targets, *, alpha=0.5):
        """Cache Algorithm 1's analytic estimator per (pattern, α).

        The estimator depends only on the history stream, the private
        pattern and the targets — all fixed per workload — so ε sweeps
        reuse one instance instead of re-extracting columns per cell.
        """
        key = (pattern.name, alpha)
        if key not in self._estimators:
            self._estimators[key] = AnalyticQualityEstimator(
                history, pattern, targets, alpha=alpha
            )
        return self._estimators[key]

    # -- mechanism construction ----------------------------------------

    def build_mechanism(
        self,
        kind: str,
        pattern_epsilon: float,
        *,
        alpha: float = 0.5,
        conversion_mode: str = "worst_case",
        adaptive_step_size: Optional[float] = None,
        adaptive_max_iterations: int = 200,
    ):
        """Build a mechanism calibrated to a target pattern-level ε.

        Dispatches through the service layer's mechanism registry
        (:mod:`repro.service.registry`), so ``kind`` is any registered
        mechanism spec — the built-ins (``"uniform-ppm"``/``"uniform"``,
        ``"adaptive-ppm"``/``"adaptive"``, ``"bd"``, ``"ba"``,
        ``"landmark"``, ``"event-rr"``/``"event-level"``,
        ``"user-rr"``/``"user-level"``) or a plugin's.  The
        pattern-level PPMs take ε natively (one independent PPM per
        private pattern, Section V-A); the baseline factories convert
        the pattern-level budget per Section VI-A.2 using this
        workload's longest private pattern (worst case over the
        protected types) via the shared converter cache.
        """
        from repro.service.registry import (
            MechanismContext,
            build_mechanism_from_spec,
            mechanism_factory_accepts,
        )

        check_positive("pattern_epsilon", pattern_epsilon)
        workload = self.workload
        context = MechanismContext(
            alphabet=workload.stream.alphabet,
            private_patterns=tuple(workload.private_patterns),
            target_patterns=tuple(workload.target_patterns),
            alpha=alpha,
            extras={
                "history": workload.history,
                "w": workload.w,
                "landmark_mask": self.landmark_mask,
                "n_windows": workload.stream.n_windows,
                "converter_factory": self.converter,
                "estimator_factory": self._estimator_factory,
            },
        )
        # Factories that understand pattern-level budgets convert them
        # themselves; a plugin taking only its native epsilon gets the
        # grid value uninterpreted (no conversion the runner could do
        # on its behalf).
        if mechanism_factory_accepts(kind, "pattern_epsilon"):
            options = {"pattern_epsilon": pattern_epsilon}
        elif mechanism_factory_accepts(kind, "epsilon"):
            options = {"epsilon": pattern_epsilon}
        else:
            raise TypeError(
                f"mechanism spec {kind!r} takes neither pattern_epsilon "
                "nor epsilon; its factory cannot participate in a "
                "budget sweep"
            )
        # Tuning knobs only some factories declare; thread them through
        # where supported so unknown *user* options stay hard errors.
        tuning = {
            "conversion_mode": conversion_mode,
            "step_size": adaptive_step_size,
            "max_iterations": adaptive_max_iterations,
        }
        for name, value in tuning.items():
            if mechanism_factory_accepts(kind, name):
                options[name] = value
        return build_mechanism_from_spec(kind, context, **options)

    # -- measurement ---------------------------------------------------

    def measure(
        self,
        mechanism,
        *,
        alpha: float = 0.5,
        n_trials: int = 5,
        rng: RngLike = None,
        executor=None,
    ) -> List[DataQuality]:
        """Per-trial measured quality of a mechanism on the workload.

        Each trial perturbs the evaluation stream once through the
        runtime pipeline and evaluates every target query against the
        ground truth, summing confusion counts across targets
        (micro-average).
        """
        check_positive_int("n_trials", n_trials)
        executor = executor or self._executor
        pipeline = self.pipeline.with_mechanism(mechanism)
        qualities: List[DataQuality] = []
        for trial in range(n_trials):
            child = derive_rng(rng, "trial", trial)
            result = executor.run(pipeline, self.workload.stream, rng=child)
            qualities.append(result.quality(alpha))
        return qualities

    def evaluate(
        self,
        kind: str,
        pattern_epsilon: float,
        *,
        alpha: float = 0.5,
        n_trials: int = 5,
        conversion_mode: str = "worst_case",
        rng: RngLike = None,
        executor=None,
    ) -> EvaluationResult:
        """Build, run and score one mechanism at one budget."""
        mechanism = self.build_mechanism(
            kind,
            pattern_epsilon,
            alpha=alpha,
            conversion_mode=conversion_mode,
        )
        qualities = self.measure(
            mechanism,
            alpha=alpha,
            n_trials=n_trials,
            rng=derive_rng(rng, kind, int(pattern_epsilon * 1000)),
            executor=executor,
        )
        q_ordinary = self.q_ordinary(alpha)
        mres = [
            mean_relative_error(q_ordinary, quality.q)
            for quality in qualities
        ]
        mean_precision = float(np.mean([q.precision for q in qualities]))
        mean_recall = float(np.mean([q.recall for q in qualities]))
        return EvaluationResult(
            workload=self.workload.name,
            mechanism=kind,
            pattern_epsilon=pattern_epsilon,
            quality=DataQuality(mean_precision, mean_recall, alpha),
            mre=float(np.mean(mres)),
            mre_std=float(np.std(mres)),
            n_trials=n_trials,
        )

    def sweep(
        self,
        *,
        epsilon_grid,
        mechanisms,
        alpha: float = 0.5,
        n_trials: int = 5,
        conversion_mode: str = "worst_case",
        rng: RngLike = None,
        executor=None,
    ) -> List[EvaluationResult]:
        """Evaluate every (mechanism, ε) cell in grid order.

        Each cell derives its child generator from ``rng`` in grid
        order, keyed by (mechanism, ε).

        ``executor`` selects the runtime strategy each cell's trials
        run under (vectorized batch by default).  Passing a
        :class:`~repro.runtime.executors.ShardedExecutor` or
        :class:`~repro.runtime.cluster.ClusterExecutor` parallelizes
        *within* each trial — including the w-event schedulers (BD/BA)
        and the landmark mechanism, which shard through the checkpoint
        prepass — without changing a single released bit (sharded
        execution is bit-identical to batch under the same seed).
        """
        return [
            self.evaluate(
                kind,
                float(epsilon),
                alpha=alpha,
                n_trials=n_trials,
                conversion_mode=conversion_mode,
                rng=derive_rng(rng, "sweep", kind, int(epsilon * 1000)),
                executor=executor,
            )
            for kind in mechanisms
            for epsilon in epsilon_grid
        ]


def measure_quality(
    workload: Workload,
    mechanism,
    *,
    alpha: float = 0.5,
    n_trials: int = 5,
    rng: RngLike = None,
) -> List[DataQuality]:
    """Per-trial measured quality of a mechanism on the workload."""
    return WorkloadEvaluation(workload).measure(
        mechanism, alpha=alpha, n_trials=n_trials, rng=rng
    )


def evaluate_mechanism(
    workload: Workload,
    kind: str,
    pattern_epsilon: float,
    *,
    alpha: float = 0.5,
    n_trials: int = 5,
    conversion_mode: str = "worst_case",
    rng: RngLike = None,
    context: Optional[WorkloadEvaluation] = None,
) -> EvaluationResult:
    """Build, run and score one mechanism at one pattern-level budget.

    Pass ``context`` (a :class:`WorkloadEvaluation` of the same
    workload) to share cached pipeline state across calls.
    """
    if context is None:
        context = WorkloadEvaluation(workload)
    return context.evaluate(
        kind,
        pattern_epsilon,
        alpha=alpha,
        n_trials=n_trials,
        conversion_mode=conversion_mode,
        rng=rng,
    )


def sweep(
    workload: Workload,
    *,
    epsilon_grid,
    mechanisms,
    alpha: float = 0.5,
    n_trials: int = 5,
    conversion_mode: str = "worst_case",
    rng: RngLike = None,
    executor=None,
) -> List[EvaluationResult]:
    """Evaluate every (mechanism, ε) cell on one workload.

    One :class:`WorkloadEvaluation` is shared by the whole grid, so
    the pipeline, ordinary quality and estimator state are
    computed once rather than per cell.  ``executor`` selects the
    per-trial runtime strategy (see :meth:`WorkloadEvaluation.sweep`).
    """
    return WorkloadEvaluation(workload).sweep(
        epsilon_grid=epsilon_grid,
        mechanisms=mechanisms,
        alpha=alpha,
        n_trials=n_trials,
        conversion_mode=conversion_mode,
        rng=rng,
        executor=executor,
    )
