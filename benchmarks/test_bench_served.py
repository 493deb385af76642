"""Served vs batch on the same source: what serving a stream costs.

The served path (``StreamService.pump``: source → ``AsyncSession`` →
stepper → matcher) and the batch path (``run_indicators``) answer the
same spec over the same in-memory matrix, so their time ratio is the
served path's own overhead — blocks, futures, event-loop hops — and
nothing else.  The served arm reads a ``memory:`` source, the batch arm
the matrix itself: neither parses a file.  Written into
``BENCH_served.json``:

- ``served_bit_identity`` (gated, floor 1.0): in every round the
  served answers equal the batch answers bit for bit, and a served
  ``metrics`` sink's confusion equals the batch report's
  ``measured_quality`` counts.  Sessions step sequential releasers
  (BD) from the seed's ``"online"`` child, so the batch arm of a
  sequential mechanism runs under that child.
- ``served_vs_batch/<arm>`` (recorded, no floor): median over
  interleaved paired rounds of batch time ÷ served time, i.e. served
  throughput as a share of batch throughput, with its min/max spread.
  One mechanism per family — ``uniform-ppm`` (a flip mechanism) and
  ``bd`` (a w-event releaser) — pumped with no sink, plus
  ``uniform-ppm+metrics``, pumped into the ``metrics`` sink, which
  answers truth beside the release.
"""

import asyncio
import time

import numpy as np

from benchmarks.conftest import (
    emit,
    emit_json,
    paired_speedup,
    ratio_spread,
)
from repro.io.sources import MemorySource
from repro.service import ServiceSpec, StreamService
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.utils.rng import derive_rng
from repro.utils.tables import ResultTable

N_WINDOWS = 40_000

N_TYPES = 8

ALPHABET = EventAlphabet.numbered(N_TYPES)

_ROUNDS = 9

MECHANISMS = {
    "uniform-ppm": {"epsilon": 2.0},
    "bd": {"epsilon": 1.0, "w": 40},
}

#: Served arms: ``(mechanism, sink)``.
ARMS = {
    "uniform-ppm": ("uniform-ppm", None),
    "bd": ("bd", None),
    "uniform-ppm+metrics": ("uniform-ppm", "metrics"),
}


def _matrix(seed=20230811):
    rng = np.random.default_rng(seed)
    return rng.random((N_WINDOWS, N_TYPES)) < 0.3


def _spec(mechanism, seed=17):
    names = ALPHABET.types
    return ServiceSpec(
        alphabet=ALPHABET,
        patterns=[
            (f"p{i}", (names[i], names[i + 1])) for i in range(3)
        ],
        queries=[
            (f"q{i}", (names[i + 1], names[i + 2])) for i in range(3)
        ],
        mechanism=mechanism,
        mechanism_options=MECHANISMS[mechanism],
        seed=seed,
    )


def _served(spec, matrix, sink=None):
    """One pump over a ``memory:`` source into ``sink``; returns
    (answers, seconds, the sink's confusion or ``None``)."""
    service = StreamService(spec)
    source = MemorySource(matrix)
    start = time.perf_counter()
    answers = asyncio.run(service.pump(source, sink=sink))
    seconds = time.perf_counter() - start
    served = {name: np.asarray(values) for name, values in answers.items()}
    if sink is None:
        return served, seconds, None
    return served, seconds, service.last_sink.result()["confusion"]


def _batch(spec, matrix):
    """One ``run_indicators`` pass; returns (answers, seconds, the
    report's ``measured_quality`` confusion)."""
    service = StreamService(spec)
    rng = spec.seed
    if hasattr(service.mechanism, "online_releaser"):
        rng = derive_rng(spec.seed, "online")
    stream = IndicatorStream(ALPHABET, matrix)
    start = time.perf_counter()
    report = service.run_indicators(stream, rng=rng)
    seconds = time.perf_counter() - start
    answers = {
        name: answer.detections for name, answer in report.answers.items()
    }
    return answers, seconds, report.confusion


def _same(served, batch):
    return served.keys() == batch.keys() and all(
        np.array_equal(served[name], batch[name]) for name in batch
    )


class TestServedBench:
    def test_served_vs_batch_per_mechanism(self, results_dir):
        matrix = _matrix()
        specs = {name: _spec(name) for name in MECHANISMS}
        for mechanism, sink in ARMS.values():  # warm every code path
            _served(specs[mechanism], matrix, sink)
            _batch(specs[mechanism], matrix)

        rows = []
        identical = True
        for index in range(_ROUNDS):
            for arm, (mechanism, sink) in ARMS.items():
                spec = specs[mechanism]
                # Alternate which arm runs first, so a host-speed drift
                # within a round favours neither.
                if index % 2:
                    batch, batch_s, counts = _batch(spec, matrix)
                    served, served_s, confusion = _served(spec, matrix, sink)
                else:
                    served, served_s, confusion = _served(spec, matrix, sink)
                    batch, batch_s, counts = _batch(spec, matrix)
                identical = (
                    identical
                    and _same(served, batch)
                    and (sink is None or confusion == counts)
                )
                rows.append((index, arm, batch_s, served_s))

        table = ResultTable(
            ["round", "mechanism", "batch_s", "served_s", "ratio"],
            title="served vs batch on one in-memory matrix",
        )
        for index, mechanism, batch_s, served_s in rows:
            table.add_row(
                round=index,
                mechanism=mechanism,
                batch_s=round(batch_s, 5),
                served_s=round(served_s, 5),
                ratio=round(batch_s / served_s, 4),
            )
        emit(table, results_dir, "served_vs_batch")

        metrics = {
            "n_windows": N_WINDOWS,
            "bit_identity": 1.0 if identical else 0.0,
        }
        for arm in ARMS:
            ratios = [
                batch_s / served_s
                for _, name, batch_s, served_s in rows
                if name == arm
            ]
            key = f"served_vs_batch/{arm}"
            metrics[key] = paired_speedup(ratios)
            metrics.update(ratio_spread(key, ratios))
        emit_json(
            results_dir,
            "served",
            metrics,
            rows=[
                {
                    "round": index,
                    "mechanism": mechanism,
                    "batch_s": batch_s,
                    "served_s": served_s,
                }
                for index, mechanism, batch_s, served_s in rows
            ],
            gates={
                "served_bit_identity": {
                    "floor": 1.0,
                    "value": 1.0 if identical else 0.0,
                },
            },
        )

        assert identical
