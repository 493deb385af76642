"""Runtime benchmark: legacy engine path vs the batch executor.

Runs the fig4 synthetic workload's full (mechanism × ε) sweep two
ways on the same dataset and seeds:

- **legacy** — the seed implementation: ground truth recomputed per
  cell, per-window ``derive_rng`` release loops for BD/BA/landmark,
  no shared estimator state (via ``repro.runtime.reference``);
- **batch** — the runtime's vectorized pipeline with one shared
  :class:`~repro.experiments.runner.WorkloadEvaluation`.

Both must produce *identical* MRE numbers (same seeds → same
outputs); the batch executor must be at least 2× faster than the
legacy path, and the measured speedups (with each arm's per-round
``_min``/``_max`` seconds) land in the benchmark record so the perf
trajectory tracks them.
"""

import time

import numpy as np

from benchmarks.conftest import (
    BENCH_CONFIG,
    BENCH_SYNTHETIC,
    emit,
    emit_json,
    median,
    paired_speedup,
    ratio_spread,
)
from repro.core.adaptive import AdaptivePatternPPM
from repro.core.ppm import MultiPatternPPM
from repro.core.quality_model import baseline_quality
from repro.datasets.synthetic import synthesize_dataset
from repro.experiments.runner import WorkloadEvaluation, sweep
from repro.metrics.confusion import ConfusionCounts
from repro.metrics.mre import mean_relative_error
from repro.metrics.quality import DataQuality
from repro.runtime.reference import (
    ReferenceAnalyticEstimator,
    reference_perturb,
)
from repro.utils.rng import derive_rng
from repro.utils.tables import ResultTable


def _legacy_sweep(workload, config):
    """The seed evaluation loop: no sharing, per-window release loops."""
    cells = []
    for kind in config.mechanisms:
        for epsilon in config.epsilon_grid:
            cell_rng = derive_rng(
                config.seed, "sweep", kind, int(epsilon * 1000)
            )
            if kind == "adaptive":
                # The seed re-fit Algorithm 1 with a fresh, per-call
                # column-extracting estimator every cell.
                mechanism = MultiPatternPPM(
                    [
                        AdaptivePatternPPM.fit(
                            pattern,
                            epsilon,
                            workload.history,
                            workload.target_patterns,
                            alpha=config.alpha,
                            estimator_factory=ReferenceAnalyticEstimator,
                        )
                        for pattern in workload.private_patterns
                    ]
                )
            else:
                mechanism = WorkloadEvaluation(workload).build_mechanism(
                    kind,
                    epsilon,
                    alpha=config.alpha,
                    conversion_mode=config.conversion_mode,
                )
            truths = {
                pattern.name: workload.stream.detect_all(
                    list(pattern.elements)
                )
                for pattern in workload.target_patterns
            }
            measure_rng = derive_rng(cell_rng, kind, int(epsilon * 1000))
            qualities = []
            for trial in range(config.n_trials):
                child = derive_rng(measure_rng, "trial", trial)
                perturbed = reference_perturb(
                    mechanism, workload.stream, rng=child
                )
                counts = ConfusionCounts()
                for pattern in workload.target_patterns:
                    predicted = perturbed.detect_all(list(pattern.elements))
                    counts = counts + ConfusionCounts.from_vectors(
                        truths[pattern.name], predicted
                    )
                qualities.append(
                    DataQuality.from_confusion(counts, alpha=config.alpha)
                )
            q_ordinary = baseline_quality(
                workload.stream,
                workload.target_patterns,
                alpha=config.alpha,
            ).q
            mres = [
                mean_relative_error(q_ordinary, quality.q)
                for quality in qualities
            ]
            cells.append((kind, epsilon, float(np.mean(mres))))
    return cells


def _runtime_sweep(workload, config):
    results = sweep(
        workload,
        epsilon_grid=config.epsilon_grid,
        mechanisms=config.mechanisms,
        alpha=config.alpha,
        n_trials=config.n_trials,
        conversion_mode=config.conversion_mode,
        rng=config.seed,
    )
    return [
        (result.mechanism, result.pattern_epsilon, result.mre)
        for result in results
    ]


_ROUNDS = 5


def test_runtime_speedup(benchmark, results_dir):
    workload = synthesize_dataset(
        BENCH_SYNTHETIC,
        rng=derive_rng(BENCH_CONFIG.seed, "runtime-bench"),
        name="runtime-bench",
    )

    batch = benchmark.pedantic(
        lambda: _runtime_sweep(workload, BENCH_CONFIG), rounds=1, iterations=1
    )

    def timed(callable_):
        start = time.perf_counter()
        result = callable_()
        return result, time.perf_counter() - start

    # Interleave the arms so every round sees the same machine state,
    # then report per-arm medians and the median *paired* speedup —
    # pairing keeps shared-host noise from faking a trend, and the
    # median keeps one noisy round from setting the gate value.
    legacy_times, batch_times, paired = [], [], []
    for _ in range(_ROUNDS):
        legacy, legacy_round = timed(
            lambda: _legacy_sweep(workload, BENCH_CONFIG)
        )
        _, batch_round = timed(lambda: _runtime_sweep(workload, BENCH_CONFIG))
        legacy_times.append(legacy_round)
        batch_times.append(batch_round)
        paired.append(legacy_round / batch_round)
    legacy_seconds = median(legacy_times)
    batch_seconds = median(batch_times)
    speedup = paired_speedup(paired)

    # Same seeds → same numbers, down to the last bit, on both arms.
    assert batch == legacy

    table = ResultTable(
        ["path", "seconds", "speedup_vs_legacy"],
        title="runtime sweep: legacy vs batch",
    )
    for path, seconds in (
        ("legacy", legacy_seconds),
        ("batch", batch_seconds),
    ):
        table.add_row(
            path=path,
            seconds=round(seconds, 4),
            speedup_vs_legacy=round(legacy_seconds / seconds, 2),
        )
    emit(table, results_dir, "runtime_speedup")
    emit_json(
        results_dir,
        "runtime",
        {
            "legacy_seconds": legacy_seconds,
            "legacy_seconds_min": min(legacy_times),
            "legacy_seconds_max": max(legacy_times),
            "batch_seconds": batch_seconds,
            "batch_seconds_min": min(batch_times),
            "batch_seconds_max": max(batch_times),
            "speedup_vs_legacy": legacy_seconds / batch_seconds,
            "paired_speedup": speedup,
            **ratio_spread("paired_speedup", paired),
        },
        rows=table.rows,
        gates={
            "runtime_vs_legacy": {
                "floor": 2.0,
                "value": speedup,
            }
        },
    )

    benchmark.extra_info["legacy_seconds"] = legacy_seconds
    benchmark.extra_info["speedup"] = legacy_seconds / batch_seconds
    benchmark.extra_info["paired_speedup"] = speedup

    # The acceptance bar: the vectorized batch path at least halves the
    # legacy runtime (it typically does far better).  Judged on the
    # median same-round pairing, which neither co-tenant noise nor a
    # single outlier round can inflate.
    assert speedup >= 2.0, (
        f"batch executor only {speedup:.2f}x faster "
        f"(per-round: {[f'{ratio:.2f}' for ratio in paired]})"
    )
