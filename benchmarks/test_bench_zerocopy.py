"""Zero-copy shard transport benchmark: task-frame bytes per window.

Runs the fig4 sweep workload's pipeline through the multi-process
:class:`ClusterExecutor` twice on identical seeds — once over the
shared-memory data plane (``transport="shm"``, the default) and once
with ``transport="framed"`` (every task frame carries its shard's
matrix slice) — and reads how many task-frame bytes each arm sent its
workers from the always-on ``repro_cluster_task_frame_bytes_total``
counter.

Two gates go into ``BENCH_zerocopy.json`` for
``benchmarks/check_gates.py``:

- ``zerocopy_bit_identity`` (always): both arms must reproduce the
  :class:`BatchExecutor` answers and quality bit for bit;
- ``zerocopy_pickle_reduction`` (always — transport volume does not
  depend on core count): shipping ``ArrayDescriptor`` handles instead
  of matrix slices must cut task-frame bytes per window by at least
  :data:`REDUCTION_FLOOR`.

Wall times are recorded, not floored; the multi-process ≥ 1.0× batch
floor lives in ``BENCH_cluster.json``.  The benchmark also asserts the
no-leak invariant directly: after both arms no ``repro_shm_*`` segment
may remain in ``/dev/shm``.
"""

import time

import numpy as np

from benchmarks.conftest import (
    BENCH_CONFIG,
    BENCH_SYNTHETIC,
    emit,
    emit_json,
    median,
)
from repro.datasets.synthetic import synthesize_dataset
from repro.experiments.runner import WorkloadEvaluation
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.runtime import BatchExecutor, ClusterExecutor
from repro.runtime.shm import leaked_segments
from repro.streams.indicator import IndicatorStream
from repro.utils.rng import derive_rng
from repro.utils.tables import ResultTable

#: Workers in both fleets.
N_WORKERS = 4

#: Pinned floor: zero-copy transport must shrink task-frame bytes per
#: window by at least this factor versus framing matrix slices.
REDUCTION_FLOOR = 10.0

#: Stream scale: large enough that shard slices dominate the framed
#: arm's task frames (the shm frame size is constant in window count).
N_WINDOWS = 200_000

_ROUNDS = 3

_FRAME_BYTES = "repro_cluster_task_frame_bytes_total"


def _timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - start


def test_zerocopy_transport(benchmark, results_dir):
    workload = synthesize_dataset(
        BENCH_SYNTHETIC,
        rng=derive_rng(BENCH_CONFIG.seed, "zerocopy-bench"),
        name="zerocopy-bench",
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

    arms = {
        transport: ClusterExecutor(
            N_WORKERS, transport=transport, materialize=False
        )
        for transport in ("shm", "framed")
    }

    # -- bit-identity and task-frame bytes, same seed ------------------
    batch = benchmark.pedantic(
        lambda: BatchExecutor().run(pipeline, stream, rng=seed),
        rounds=1,
        iterations=1,
    )
    bit_identical = True
    bytes_per_window = {}
    for name, executor in arms.items():
        with use_registry(MetricsRegistry()) as registry:
            result = executor.run(pipeline, stream, rng=seed)
        bytes_per_window[name] = (
            registry.get(_FRAME_BYTES).value / stream.n_windows
        )
        if not (
            all(
                np.array_equal(result.answers[query], detections)
                for query, detections in batch.answers.items()
            )
            and result.quality() == batch.quality()
        ):
            bit_identical = False
            print(f"BIT-IDENTITY BROKEN: {name}")
    assert bit_identical
    reduction = bytes_per_window["framed"] / bytes_per_window["shm"]

    # -- wall time: interleaved rounds, recorded only ------------------
    times = {name: [] for name in arms}
    for _ in range(_ROUNDS):
        for name, executor in arms.items():
            _, seconds = _timed(
                lambda executor=executor: executor.run(
                    pipeline, stream, rng=seed
                )
            )
            times[name].append(seconds)

    # -- no-leak invariant ---------------------------------------------
    leaked = leaked_segments()
    assert leaked == (), f"leaked shared-memory segments: {leaked}"

    table = ResultTable(
        ["arm", "workers", "seconds", "bytes_per_window"],
        title=f"cluster task frames over {stream.n_windows} windows",
    )
    for name in arms:
        table.add_row(
            arm=name,
            workers=N_WORKERS,
            seconds=round(median(times[name]), 4),
            bytes_per_window=round(bytes_per_window[name], 4),
        )
    emit(table, results_dir, "zerocopy_transport")

    emit_json(
        results_dir,
        "zerocopy",
        {
            "n_windows": stream.n_windows,
            "n_workers": N_WORKERS,
            "bit_identical": 1.0 if bit_identical else 0.0,
            "shm_bytes_per_window": bytes_per_window["shm"],
            "framed_bytes_per_window": bytes_per_window["framed"],
            "pickle_reduction": reduction,
            "shm_seconds": median(times["shm"]),
            "framed_seconds": median(times["framed"]),
        },
        rows=table.rows,
        gates={
            "zerocopy_bit_identity": {
                "floor": 1.0,
                "value": 1.0 if bit_identical else 0.0,
            },
            "zerocopy_pickle_reduction": {
                "floor": REDUCTION_FLOOR,
                "value": reduction,
            },
        },
    )
    benchmark.extra_info["pickle_reduction"] = reduction

    assert reduction >= REDUCTION_FLOOR, (
        f"zero-copy transport only cut task-frame bytes "
        f"{reduction:.1f}x (framed: {bytes_per_window['framed']:.2f} "
        f"B/window, shm: {bytes_per_window['shm']:.4f} B/window)"
    )
