"""Checkpointed w-event sharding benchmark: bit-identity plus speedup.

Scales the fig4 synthetic workload's evaluation stream to service size
and runs the BD and BA schedulers — the sequential mechanisms the
paper's Fig. 4 sweeps spend most of their time in — four ways on
identical seeds:

- **sequential/legacy** — the seed per-window release loop
  (`runtime/reference.py`: one ``derive_rng`` + Laplace call per
  window), the pre-runtime deployment shape;
- **batch** — the pooled vectorized :class:`BatchExecutor` release;
- **sharded/thread**, **cluster** — :class:`ShardedExecutor` threads
  and the multi-process :class:`ClusterExecutor` fleet, 4 workers
  each: the parent releases the stream once (the checkpoint prepass)
  and the shards match their slices of it in parallel.

Two pinned gates go into ``BENCH_checkpoint.json`` for
``benchmarks/check_gates.py``:

- ``checkpoint_bit_identity`` (always): every parallel arm — the
  cluster's multi-process fleet included — must
  reproduce the batch release, answers, quality and accounting trace
  bit for bit — the checkpoint invariant;
- ``checkpoint_sharded_vs_sequential`` (hosts with ≥
  :data:`REQUIRED_CPUS` cores): the checkpointed sharded path on
  :data:`N_WORKERS` workers must beat the legacy sequential loop by at
  least :data:`SPEEDUP_FLOOR`.

The sharded-versus-batch ratio is recorded with its per-round spread
(``vs_batch/<arm>_min``/``_max``) but floored only on hosts with
enough cores: the scheduler decision chain (budget → noisy
dissimilarity → publish → last release) is inherently sequential and
dominates the batch wall time, so Amdahl bounds window-level parallel
gains over the already-pooled batch path near 1× — the honest win of
sharding over *batch* is the matching that runs outside that chain.
Against the per-window legacy loop the combined pool + uniform
prefetch + bulk-skip machinery is worth several ×, which is what the
sequential floor protects.
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
from repro.runtime.reference import reference_w_event_perturb
from repro.streams.indicator import IndicatorStream
from repro.utils.rng import derive_rng
from repro.utils.tables import ResultTable

#: Workers used by the parallel arms.
N_WORKERS = 4

#: The parallel arms: threads, and the multi-process cluster fleet.
PARALLEL = {"sharded/thread": ShardedExecutor, "cluster": ClusterExecutor}

#: Minimum host cores for the speedup floor to be enforceable.
REQUIRED_CPUS = 4

#: Pinned floor: checkpointed sharded release at least this much
#: faster than the legacy per-window sequential loop.  Raised from 1.5
#: once the decision kernel landed: the release's certified-skip runs
#: and bulk approximation stretches cut the sequential
#: fraction enough that even a single busy core clears 6x (see
#: BENCH_checkpoint.json), so 3x leaves honest headroom on the >= 4
#: core runners the gate is conditioned on.
SPEEDUP_FLOOR = 3.0

#: Stream scale: the fig4 workload's evaluation stream tiled to
#: service size (large enough that scheduler work dominates setup,
#: small enough that the deliberately slow legacy arm stays bounded).
N_WINDOWS = 80_000

_ROUNDS = 3


def _timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - start


def _trace_tuple(trace):
    return (
        list(trace.published),
        list(trace.publication_budgets),
        list(trace.dissimilarity_budgets),
    )


def test_checkpoint_sharding(benchmark, results_dir):
    workload = synthesize_dataset(
        BENCH_SYNTHETIC,
        rng=derive_rng(BENCH_CONFIG.seed, "checkpoint-bench"),
        name="checkpoint-bench",
    )
    context = WorkloadEvaluation(workload)
    base = workload.stream.matrix_view()
    repeats = -(-N_WINDOWS // base.shape[0])
    stream = IndicatorStream(
        workload.stream.alphabet, np.tile(base, (repeats, 1))[:N_WINDOWS]
    )
    seed = BENCH_CONFIG.seed
    pipelines = {
        kind: context.pipeline.with_mechanism(
            context.build_mechanism(kind, 1.0)
        )
        for kind in ("bd", "ba")
    }

    # -- bit-identity: sharded ≡ batch, any backend, trace included ----
    bit_identical = True
    batch_results = {}
    for kind, pipeline in pipelines.items():
        batch_results[kind] = BatchExecutor().run(pipeline, stream, rng=seed)
        batch_trace = _trace_tuple(pipeline.mechanism.last_trace)
        for backend, executor in PARALLEL.items():
            sharded = executor(N_WORKERS).run(pipeline, stream, rng=seed)
            arm = f"{kind}/{backend}"
            if not (
                sharded.released == batch_results[kind].released
                and all(
                    np.array_equal(sharded.answers[name], detections)
                    for name, detections in batch_results[
                        kind
                    ].answers.items()
                )
                and sharded.quality() == batch_results[kind].quality()
                and _trace_tuple(pipeline.mechanism.last_trace)
                == batch_trace
            ):
                bit_identical = False
                print(f"BIT-IDENTITY BROKEN: {arm}")
    assert bit_identical

    # -- speedup: interleaved rounds, median paired ratio --------------
    def legacy_arm(pipeline):
        def run():
            released = reference_w_event_perturb(
                pipeline.mechanism, stream, rng=seed
            )
            matcher = pipeline.matcher
            return (
                matcher.answer(released.matrix_view()),
                matcher.answer(stream.matrix_view()),
            )

        return run

    executors = {
        "batch": BatchExecutor(),
        **{
            name: executor(N_WORKERS, materialize=False)
            for name, executor in PARALLEL.items()
        },
    }
    times = {}
    paired_sequential = {}
    paired_batch = {}
    for kind, pipeline in pipelines.items():
        arms = {
            f"{kind}/sequential": legacy_arm(pipeline),
        }
        for name, executor in executors.items():
            arms[f"{kind}/{name}"] = (
                lambda executor=executor, pipeline=pipeline: executor.run(
                    pipeline, stream, rng=seed
                )
            )
        times.update({name: [] for name in arms})
        for _ in range(_ROUNDS):
            round_times = {}
            for name, runner in arms.items():
                _, seconds = _timed(runner)
                times[name].append(seconds)
                round_times[name] = seconds
            for backend in PARALLEL:
                sharded_name = f"{kind}/{backend}"
                paired_sequential.setdefault(sharded_name, []).append(
                    round_times[f"{kind}/sequential"]
                    / round_times[sharded_name]
                )
                paired_batch.setdefault(sharded_name, []).append(
                    round_times[f"{kind}/batch"] / round_times[sharded_name]
                )

    # Median paired ratio per arm; "best" then selects the winning
    # *arm*, not a winning round.
    vs_sequential = {
        name: paired_speedup(ratios)
        for name, ratios in paired_sequential.items()
    }
    vs_batch = {
        name: paired_speedup(ratios)
        for name, ratios in paired_batch.items()
    }
    overall_vs_sequential = max(vs_sequential.values())
    overall_vs_batch = max(vs_batch.values())

    table = ResultTable(
        ["arm", "workers", "seconds", "speedup_vs_sequential"],
        title=f"checkpointed w-event sharding over {stream.n_windows} windows",
    )
    for kind in pipelines:
        sequential_seconds = median(times[f"{kind}/sequential"])
        table.add_row(
            arm=f"{kind}/sequential",
            workers=1,
            seconds=round(sequential_seconds, 4),
            speedup_vs_sequential=1.0,
        )
        for name in ("batch", *PARALLEL):
            arm = f"{kind}/{name}"
            table.add_row(
                arm=arm,
                workers=1 if name == "batch" else N_WORKERS,
                seconds=round(median(times[arm]), 4),
                speedup_vs_sequential=round(
                    vs_sequential.get(
                        arm, sequential_seconds / median(times[arm])
                    ),
                    2,
                ),
            )
    emit(table, results_dir, "checkpoint_speedup")

    enforceable = effective_cpu_count() >= REQUIRED_CPUS
    gates = {
        "checkpoint_bit_identity": {
            "floor": 1.0,
            "value": 1.0 if bit_identical else 0.0,
        }
    }
    if enforceable:
        gates["checkpoint_sharded_vs_sequential"] = {
            "floor": SPEEDUP_FLOOR,
            "value": overall_vs_sequential,
        }
        # Zero-copy transport promise: matching shards in parallel
        # must at least break even against the pooled batch release.
        gates["checkpoint_sharded_vs_batch"] = {
            "floor": 1.0,
            "value": overall_vs_batch,
        }
    emit_json(
        results_dir,
        "checkpoint",
        {
            "n_windows": stream.n_windows,
            "n_workers": N_WORKERS,
            "bit_identical": 1.0 if bit_identical else 0.0,
            "best_vs_sequential": overall_vs_sequential,
            "best_vs_batch": overall_vs_batch,
            "floor_enforced": enforceable,
            **{
                key: value
                for name, ratios in paired_sequential.items()
                for key, value in ratio_spread(
                    f"vs_sequential/{name}", ratios
                ).items()
            },
            **{
                key: value
                for name, ratios in paired_batch.items()
                for key, value in ratio_spread(
                    f"vs_batch/{name}", ratios
                ).items()
            },
            **{
                f"seconds/{name}": median(seconds)
                for name, seconds in times.items()
            },
        },
        rows=table.rows,
        gates=gates,
        floor_skipped_reason=(
            None if enforceable else floor_reason(REQUIRED_CPUS)
        ),
    )
    benchmark.extra_info["best_vs_sequential"] = overall_vs_sequential
    benchmark.extra_info["best_vs_batch"] = overall_vs_batch
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    if enforceable:
        assert overall_vs_sequential >= SPEEDUP_FLOOR, (
            f"checkpointed sharded release only {overall_vs_sequential:.2f}x "
            f"the sequential loop on {N_WORKERS} workers"
        )
