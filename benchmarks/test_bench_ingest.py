"""File-source ingestion benchmark: connector path vs hand-rolled loop.

Measures the end-to-end service phase from an on-disk indicator CSV
two ways on identical seeds:

- **connector** — the PR-5 declarative path:
  ``ServiceSpec(source="csv:<path>").build().run()`` (streamed chunked
  read, one vectorized batch release);
- **hand-rolled** — what callers wrote before the connector layer:
  materialize the file as Python lists, convert, then drive
  ``AsyncSession.submit`` window by window.

Both arms must be *bit-identical* (the async chunk stepper reproduces
the batch draws for flip mechanisms), and the connector path must not
regress below :data:`SPEEDUP_FLOOR` × the hand-rolled loop — the gate
CI enforces through ``BENCH_ingest.json``.

It also records, with no floor, ``csv_block_rows_per_s``: the same
file drained through ``CsvSource.ablocks(SERVED_BLOCK_ROWS)``, the
blocks ``StreamService.pump`` reads, so the ``csv:`` reader's own cost
has a number apart from the release it feeds.
"""

import asyncio
import csv
import os
import tempfile
import time

import numpy as np

from benchmarks.conftest import (
    emit,
    emit_json,
    median,
    paired_speedup,
    ratio_spread,
)
from repro.io import CsvSource
from repro.service import ServiceSpec
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.utils.tables import ResultTable

#: Windows in the benchmark replay file (service-phase shape).
N_WINDOWS = 60_000

N_TYPES = 8

#: The pinned no-regression floor: declarative ingestion must beat the
#: hand-rolled per-window submit loop (in practice it is far faster —
#: the floor only guards against the connector path regressing).
SPEEDUP_FLOOR = 1.2

_ROUNDS = 5

#: Rows per served block (the serving queue bound's default).
SERVED_BLOCK_ROWS = 1024

SEED = 11


def _spec(path):
    return ServiceSpec(
        alphabet=tuple(f"e{i + 1}" for i in range(N_TYPES)),
        patterns=[("private", ("e1", "e2"))],
        queries=[("q", ("e2", "e3"))],
        mechanism="uniform-ppm",
        mechanism_options={"epsilon": 2.0},
        source=f"csv:{path}",
        seed=SEED,
    )


def _handrolled(path, spec):
    """The pre-connector way: list-materialized load + submit loop."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[int(value) for value in row] for row in reader]
    stream = IndicatorStream(
        EventAlphabet(header), np.array(rows, dtype=int)
    )

    async def drive():
        service = spec.with_(source=None).build()
        async with service.open_async_session() as session:
            futures = [
                await session._submit_row(
                    stream.matrix_view()[index : index + 1]
                )
                for index in range(stream.n_windows)
            ]
            return [await future for future in futures]

    per_window = asyncio.run(drive())
    # Each future answers a one-row block: element [0] is its window.
    return {"q": [answers["q"][0] for answers in per_window]}


def _drain_blocks(path, alphabet):
    """Rows of ``path`` read as the served path reads them."""

    async def drain():
        source = CsvSource(path).bind(alphabet)
        return sum(
            [len(block) async for block in source.ablocks(SERVED_BLOCK_ROWS)]
        )

    return asyncio.run(drain())


def _timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return result, time.perf_counter() - start


def test_ingest_throughput(benchmark, results_dir):
    rng = np.random.default_rng(3)
    alphabet = EventAlphabet.numbered(N_TYPES)
    stream = IndicatorStream(
        alphabet, rng.random((N_WINDOWS, N_TYPES)) < 0.4
    )
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "replay.csv")
        from repro.io import write_indicator_csv

        write_indicator_csv(stream, path)
        spec = _spec(path)

        # -- bit-identity: connector == in-memory == hand-rolled -------
        connector = benchmark.pedantic(
            lambda: spec.build().run(), rounds=1, iterations=1
        )
        in_memory = spec.with_(source=None).build().run(stream)
        assert np.array_equal(
            connector.perturbed.matrix_view(),
            in_memory.perturbed.matrix_view(),
        )
        handrolled = _handrolled(path, spec)
        connector_answers = [
            bool(value) for value in connector.answers["q"].detections
        ]
        bit_identical = connector_answers == handrolled["q"]
        assert bit_identical

        # -- throughput: interleaved rounds, median paired ratio -------
        paired = []
        connector_times, handrolled_times, block_times = [], [], []
        for _ in range(_ROUNDS):
            _, connector_seconds = _timed(lambda: spec.build().run())
            _, handrolled_seconds = _timed(
                lambda: _handrolled(path, spec)
            )
            drained, block_seconds = _timed(
                lambda: _drain_blocks(path, alphabet)
            )
            assert drained == N_WINDOWS
            connector_times.append(connector_seconds)
            handrolled_times.append(handrolled_seconds)
            block_times.append(block_seconds)
            paired.append(handrolled_seconds / connector_seconds)
        speedup = paired_speedup(paired)
        block_rates = [N_WINDOWS / seconds for seconds in block_times]

        table = ResultTable(
            ["path", "seconds", "windows_per_second"],
            title=f"file-source ingestion over {N_WINDOWS} windows",
        )
        for name, seconds in [
            ("connector run()", median(connector_times)),
            ("hand-rolled submit loop", median(handrolled_times)),
            (f"csv: ablocks({SERVED_BLOCK_ROWS}) drain", median(block_times)),
        ]:
            table.add_row(
                path=name,
                seconds=round(seconds, 4),
                windows_per_second=round(N_WINDOWS / seconds),
            )
        emit(table, results_dir, "ingest_throughput")

        emit_json(
            results_dir,
            "ingest",
            {
                "n_windows": N_WINDOWS,
                "connector_seconds": median(connector_times),
                "handrolled_seconds": median(handrolled_times),
                "speedup": speedup,
                **ratio_spread("speedup", paired),
                "csv_block_rows_per_s": median(block_rates),
                **ratio_spread("csv_block_rows_per_s", block_rates),
            },
            rows=table.rows,
            gates={
                "ingest_bit_identity": {
                    "floor": 1.0,
                    "value": 1.0 if bit_identical else 0.0,
                },
                "connector_vs_handrolled": {
                    "floor": SPEEDUP_FLOOR,
                    "value": speedup,
                },
            },
        )
        benchmark.extra_info["speedup"] = speedup
        assert speedup >= SPEEDUP_FLOOR, (
            f"connector ingestion only {speedup:.2f}x the "
            f"hand-rolled loop (rounds: {[f'{r:.2f}' for r in paired]})"
        )
