"""Observability overhead benchmark: bit-identity plus ≤2% tax.

The telemetry plane's contract is that it may *watch* the pipeline but
never touch it: with a span recorder installed and a scoped metrics
registry, every executor must release exactly the bytes the
uninstrumented run releases, and the fully instrumented run must cost
at most ~2% over the uninstrumented one.  Both promises are pinned into
``BENCH_obs.json`` for ``benchmarks/check_gates.py``:

- ``obs_bit_identity`` (always): instrumented batch, sharded and
  cluster runs reproduce the uninstrumented batch release bit for bit
  (1.0 = identical).
- ``obs_overhead_ratio`` (always): median paired uninstrumented /
  instrumented time ratio over interleaved rounds; the floor of
  :data:`OVERHEAD_FLOOR` caps the instrumentation tax at ~2%
  (ratio 0.98 ⇔ instrumented ≤ 1.02× the stripped run).

The batch path runs on the calling thread, so the arms are timed in
thread CPU time, which time spent descheduled on a busy host does not
inflate.  Each round times the two arms in ABBA order (stripped,
instrumented, instrumented, stripped) on one :data:`ARM_WINDOWS`-window
block of the stream, which cancels a host-speed drift that is linear
over the round; short arms keep a round's four runs close together, and
many rounds let the median ride out the rounds a burst still hits.  The
rounds cycle through the stream's blocks, so together they cover all of
its windows.  A shorter arm weighs the instrumentation's fixed per-run
cost (recorder, registry, spans) more, never less, than one full-stream
run does.
"""

import time

import numpy as np

from benchmarks.conftest import (
    emit,
    emit_json,
    paired_speedup,
    ratio_spread,
)
from repro.baselines.budget_distribution import BudgetDistribution
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.tracing import SpanRecorder, use_recorder
from repro.runtime import (
    BatchExecutor,
    ClusterExecutor,
    ShardedExecutor,
    StreamPipeline,
)
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.utils.tables import ResultTable

#: Pinned floor on the median paired stripped/instrumented ratio:
#: full telemetry (recorder + registry) may cost at most ~2%.
OVERHEAD_FLOOR = 0.98

N_WINDOWS = 40_000

N_TYPES = 8

#: Windows per timed arm of the overhead measurement.
ARM_WINDOWS = 4_000

_ROUNDS = 150

ALPHABET = EventAlphabet.numbered(N_TYPES)
QUERIES = [
    ContinuousQuery("q1", Pattern.of_types("q1", "e1", "e2")),
    ContinuousQuery("q2", Pattern.of_types("q2", "e3")),
]


def _stream():
    rng = np.random.default_rng(20230811)
    return IndicatorStream(
        ALPHABET, rng.random((N_WINDOWS, N_TYPES)) < 0.3
    )


def _pipeline():
    return StreamPipeline(
        ALPHABET,
        queries=QUERIES,
        mechanism=BudgetDistribution(1.0, w=40),
    )


def _run(stream, *, executor=None, instrumented=False, rng=17):
    if not instrumented:
        return _pipeline().run(stream, rng=rng, executor=executor)
    with use_recorder(SpanRecorder()), use_registry(MetricsRegistry()):
        return _pipeline().run(stream, rng=rng, executor=executor)


def _identical(left, right):
    if left.released != right.released:
        return False
    if set(left.answers) != set(right.answers):
        return False
    return all(
        np.array_equal(left.answers[name], right.answers[name])
        for name in left.answers
    )


def _cpu_seconds(stream, *, instrumented):
    start = time.thread_time()
    _run(stream, instrumented=instrumented)
    return time.thread_time() - start


def _blocks(stream):
    matrix = stream.matrix_view()
    return [
        IndicatorStream(stream.alphabet, matrix[start : start + ARM_WINDOWS])
        for start in range(0, len(stream), ARM_WINDOWS)
    ]


class TestObsOverhead:
    def test_bit_identity_and_overhead(self, results_dir):
        stream = _stream()
        plain = _run(stream)

        # -- bit-identity: every executor, fully instrumented --------
        identity_rows = []
        executors = [
            ("batch", lambda: BatchExecutor()),
            ("sharded", lambda: ShardedExecutor(2)),
            ("cluster", lambda: ClusterExecutor(2)),
        ]
        for name, factory in executors:
            traced = _run(
                stream, executor=factory(), instrumented=True
            )
            identity_rows.append((name, _identical(plain, traced)))
        bit_identical = all(same for _, same in identity_rows)

        # -- overhead: ABBA rounds on the batch path -----------------
        blocks = _blocks(stream)
        for _ in range(2):  # warm both arms' code paths
            _run(blocks[0])
            _run(blocks[0], instrumented=True)
        ratios, pairs = [], []
        for index in range(_ROUNDS):
            block = blocks[index % len(blocks)]
            stripped = _cpu_seconds(block, instrumented=False)
            instrumented = _cpu_seconds(block, instrumented=True)
            instrumented += _cpu_seconds(block, instrumented=True)
            stripped += _cpu_seconds(block, instrumented=False)
            ratios.append(stripped / instrumented)
            pairs.append((stripped, instrumented))
        overhead_ratio = paired_speedup(ratios)

        table = ResultTable(
            ["round", "stripped_s", "instrumented_s", "ratio"],
            title="observability overhead",
        )
        for index, (stripped, instrumented) in enumerate(pairs):
            table.add_row(
                round=index,
                stripped_s=round(stripped, 4),
                instrumented_s=round(instrumented, 4),
                ratio=round(stripped / instrumented, 4),
            )
        emit(table, results_dir, "bench_obs")

        metrics = {
            "n_windows": N_WINDOWS,
            "arm_windows": ARM_WINDOWS,
            "bit_identity": 1.0 if bit_identical else 0.0,
            "overhead_ratio": overhead_ratio,
            "floor_enforced": True,
        }
        metrics.update(ratio_spread("overhead_ratio", ratios))
        for name, same in identity_rows:
            metrics[f"bit_identity_{name}"] = 1.0 if same else 0.0
        emit_json(
            results_dir,
            "obs",
            metrics,
            rows=[
                {
                    "round": index,
                    "stripped_s": stripped,
                    "instrumented_s": instrumented,
                }
                for index, (stripped, instrumented) in enumerate(pairs)
            ],
            gates={
                "obs_bit_identity": {
                    "floor": 1.0,
                    "value": 1.0 if bit_identical else 0.0,
                },
                "obs_overhead_ratio": {
                    "floor": OVERHEAD_FLOOR,
                    "value": overhead_ratio,
                },
            },
        )

        assert bit_identical, identity_rows
        assert overhead_ratio >= OVERHEAD_FLOOR, ratios
