"""Sharded-executor benchmark: bit-identity plus parallel speedup.

Scales the fig4 synthetic sweep workload's evaluation stream to service
size and runs the same pipeline (the sweep's target queries, its
uniform pattern-level PPM) three ways on identical seeds:

- **batch** — the serial vectorized :class:`BatchExecutor`;
- **sharded/thread** — :class:`ShardedExecutor` on a thread pool (the
  hot stages release the GIL inside numpy);
- **cluster** — the same shards on the multi-process
  :class:`ClusterExecutor` fleet over the shared-memory plane.

Every arm must produce *bit-identical* outputs (the seek invariant: a
shard draws exactly the child-generator words of its absolute window
range).  On hosts with at least :data:`REQUIRED_CPUS` cores the median
paired sharded-versus-batch speedup of the best arm must reach
:data:`SPEEDUP_FLOOR` — the regression gate CI enforces through
``BENCH_sharding.json``; on smaller hosts the numbers are recorded but
the floor is not asserted (parallel wall-clock gains are physically
impossible on one core).  The multi-process ≥ 1.0× batch floor lives
in ``BENCH_cluster.json``.
"""

import time

import numpy as np

from benchmarks.conftest import (
    BENCH_CONFIG,
    BENCH_SYNTHETIC,
    effective_cpu_count,
    emit,
    emit_json,
    floor_reason,
    median,
    paired_speedup,
    ratio_spread,
)
from repro.datasets.synthetic import synthesize_dataset
from repro.experiments.runner import WorkloadEvaluation
from repro.runtime import BatchExecutor, ClusterExecutor, ShardedExecutor
from repro.streams.indicator import IndicatorStream
from repro.utils.rng import derive_rng
from repro.utils.tables import ResultTable

#: Workers used by the parallel arms (the gate's "≥ 2x on ≥ 4 workers").
N_WORKERS = 4

#: Minimum host cores for the speedup floor to be enforceable.
REQUIRED_CPUS = 4

#: The pinned regression floor: best sharded arm at least 2x batch.
SPEEDUP_FLOOR = 2.0

#: Stream scale: the fig4 sweep workload's evaluation stream is tiled
#: to this many windows so per-shard numpy work dominates pool
#: overhead (service-phase shape, not the laptop-sized sweep input).
N_WINDOWS = 1_000_000

_ROUNDS = 5


def _timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - start


def test_sharded_speedup(benchmark, results_dir):
    workload = synthesize_dataset(
        BENCH_SYNTHETIC,
        rng=derive_rng(BENCH_CONFIG.seed, "sharding-bench"),
        name="sharding-bench",
    )
    context = WorkloadEvaluation(workload)
    mechanism = context.build_mechanism("uniform", 1.0)
    pipeline = context.pipeline.with_mechanism(mechanism)
    base = workload.stream.matrix_view()
    repeats = -(-N_WINDOWS // base.shape[0])
    stream = IndicatorStream(
        workload.stream.alphabet, np.tile(base, (repeats, 1))[:N_WINDOWS]
    )
    seed = BENCH_CONFIG.seed

    # -- bit-identity: every parallel arm, same seed, same bits --------
    batch = benchmark.pedantic(
        lambda: BatchExecutor().run(pipeline, stream, rng=seed),
        rounds=1,
        iterations=1,
    )
    for executor in (
        ShardedExecutor(N_WORKERS),
        ClusterExecutor(N_WORKERS),
    ):
        sharded = executor.run(pipeline, stream, rng=seed)
        assert sharded.released == batch.released, type(executor).__name__
        for name, detections in batch.answers.items():
            assert np.array_equal(sharded.answers[name], detections)
        assert sharded.quality() == batch.quality()

    # -- speedup: interleaved rounds, median paired ratio --------------
    # (identical workload per arm; pairing within a round keeps
    # co-tenant noise from faking a trend, and the median over rounds
    # keeps one noisy round from setting the headline number)
    executors = {
        "batch": BatchExecutor(),
        "sharded/thread": ShardedExecutor(N_WORKERS, materialize=False),
        "cluster": ClusterExecutor(N_WORKERS, materialize=False),
    }
    times = {name: [] for name in executors}
    paired = {"sharded/thread": [], "cluster": []}
    for _ in range(_ROUNDS):
        round_times = {}
        for name, executor in executors.items():
            _, seconds = _timed(
                lambda executor=executor: executor.run(
                    pipeline, stream, rng=seed
                )
            )
            times[name].append(seconds)
            round_times[name] = seconds
        for name in paired:
            paired[name].append(round_times["batch"] / round_times[name])

    batch_seconds = median(times["batch"])
    speedups = {
        name: paired_speedup(ratios) for name, ratios in paired.items()
    }
    overall_best = max(speedups.values())

    table = ResultTable(
        ["executor", "workers", "seconds", "speedup_vs_batch"],
        title=f"sharded execution over {stream.n_windows} windows",
    )
    table.add_row(
        executor="batch", workers=1, seconds=round(batch_seconds, 4),
        speedup_vs_batch=1.0,
    )
    for name in paired:
        table.add_row(
            executor=name,
            workers=N_WORKERS,
            seconds=round(median(times[name]), 4),
            speedup_vs_batch=round(speedups[name], 2),
        )
    emit(table, results_dir, "sharding_speedup")

    enforceable = effective_cpu_count() >= REQUIRED_CPUS
    emit_json(
        results_dir,
        "sharding",
        {
            "n_windows": stream.n_windows,
            "n_workers": N_WORKERS,
            "batch_seconds": batch_seconds,
            "thread_seconds": median(times["sharded/thread"]),
            "cluster_seconds": median(times["cluster"]),
            "thread_speedup": speedups["sharded/thread"],
            "cluster_speedup": speedups["cluster"],
            "best_speedup": overall_best,
            "floor_enforced": enforceable,
            **ratio_spread("thread_speedup", paired["sharded/thread"]),
            **ratio_spread("cluster_speedup", paired["cluster"]),
        },
        rows=table.rows,
        gates=(
            {
                "sharded_vs_batch": {
                    "floor": SPEEDUP_FLOOR,
                    "value": overall_best,
                },
            }
            if enforceable
            else {}
        ),
        floor_skipped_reason=(
            None if enforceable else floor_reason(REQUIRED_CPUS)
        ),
    )
    benchmark.extra_info["best_speedup"] = overall_best
    benchmark.extra_info["floor_enforced"] = enforceable

    if enforceable:
        assert overall_best >= SPEEDUP_FLOOR, (
            f"sharded executor only {overall_best:.2f}x faster on "
            f"{N_WORKERS} workers "
            f"(thread: {[f'{r:.2f}' for r in paired['sharded/thread']]}, "
            f"cluster: {[f'{r:.2f}' for r in paired['cluster']]})"
        )
