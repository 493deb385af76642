"""Broker connector benchmark: bit-identity under faults + throughput.

The broker subsystem's two pinned promises, written into
``BENCH_broker.json`` for ``benchmarks/check_gates.py``:

- ``broker_bit_identity`` (always): a broker-fed pipeline releases
  exactly what the memory-fed pipeline releases — through an
  uninterrupted run, a checkpoint/kill/resume cycle, *and* killed
  connections mid-run (1.0 = every arm identical).
- ``broker_vs_queue_throughput`` (always): median paired ratio of
  broker-fed over ``queue:``-fed wall time across interleaved rounds;
  the floor of :data:`THROUGHPUT_FLOOR` bounds the cost of real
  sockets, RESP2 framing and ack bookkeeping at ~20% versus the
  in-process live-feed baseline.  One pump takes ~16 ms, so a round
  times :data:`PUMPS_PER_ROUND` back-to-back pumps per arm and the
  arms alternate order (ABBA) between rounds: single-pump rounds
  spanned 0.42–1.39 and put the median under the floor on unchanged
  code.

The feed is published with chunked entries
(``rows_per_entry=ROWS_PER_ENTRY``) — the record batching a
high-rate deployment would use — and the kill/resume arm deliberately
cuts mid-chunk (``N_WINDOWS // 3`` is not a multiple of the chunk
size), pinning the row-exact partial-chunk replay path under the
throughput workload.
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
from repro.broker import FakeRedisServer
from repro.broker.connectors import publish_indicator_stream
from repro.io.sources import QueueSource
from repro.service import ServiceSpec, StreamGateway, StreamService
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.utils.tables import ResultTable

#: Pinned floor on the median paired queue/broker wall-time ratio:
#: broker ingestion must stay within ~20% of queue ingestion.
THROUGHPUT_FLOOR = 0.8

N_WINDOWS = 2_000

#: Windows per chunked broker entry (Kafka-style record batching).
ROWS_PER_ENTRY = 16

_ROUNDS = 15

#: Pumps each arm runs back to back inside one timed round.
PUMPS_PER_ROUND = 4

N_TYPES = 8

ALPHABET = EventAlphabet.numbered(N_TYPES)


def _stream(seed=20230811):
    rng = np.random.default_rng(seed)
    return IndicatorStream(
        ALPHABET, rng.random((N_WINDOWS, N_TYPES)) < 0.3
    )


def _spec(source=None, seed=17):
    # A representative multi-query tenant (the obs soak workload's
    # shape), so the gate measures connector overhead against real
    # pipeline compute rather than a toy single-query loop.
    names = [f"e{i + 1}" for i in range(N_TYPES)]
    return ServiceSpec(
        alphabet=ALPHABET,
        patterns=[
            (f"p{i}", (names[i], names[i + 1])) for i in range(3)
        ],
        queries=[
            (f"q{i}", (names[i + 1], names[i + 2])) for i in range(3)
        ],
        mechanism="bd",
        mechanism_options={"epsilon": 1.0, "w": 40},
        source=source,
        seed=seed,
    )


def _broker_spec(url, *, group, seed=17):
    return _spec(
        f"broker:url={url},stream=bench,group={group},consumer=c0,"
        "block_ms=100,batch=64",
        seed=seed,
    )


def _pump_broker(url, *, group, seed=17):
    return asyncio.run(
        StreamService(_broker_spec(url, group=group, seed=seed)).pump()
    )


def _pump_queue(stream, seed=17):
    matrix = stream.matrix_view()

    async def drive():
        queue = asyncio.Queue(maxsize=256)
        service = StreamService(_spec("queue", seed=seed))

        async def produce():
            for index in range(matrix.shape[0]):
                await queue.put(matrix[index])
            await queue.put(None)

        producer = asyncio.ensure_future(produce())
        answers = await service.pump(QueueSource(queue))
        await producer
        return answers

    return asyncio.run(drive())


def _seconds_per_pump(pump):
    start = time.perf_counter()
    for repeat in range(PUMPS_PER_ROUND):
        pump(repeat)
    return (time.perf_counter() - start) / PUMPS_PER_ROUND


class TestBrokerBench:
    def test_bit_identity_and_throughput(self, results_dir):
        stream = _stream()
        reference = asyncio.run(StreamService(_spec()).pump(stream))

        with FakeRedisServer() as server:
            publish_indicator_stream(
                server.url,
                "bench",
                stream,
                rows_per_entry=ROWS_PER_ENTRY,
            )

            # -- bit-identity arms ------------------------------------
            identity_rows = []
            identity_rows.append((
                "uninterrupted",
                _pump_broker(server.url, group="plain") == reference,
            ))

            gateway = StreamGateway()
            gateway.add_tenant(
                "t", _broker_spec(server.url, group="resume")
            )
            # N_WINDOWS // 3 is not a multiple of ROWS_PER_ENTRY, so
            # the kill lands mid-chunk and resume must replay the
            # partial chunk row-exactly.
            asyncio.run(gateway.serve(max_windows=N_WINDOWS // 3))
            resumed = StreamGateway.resume(gateway.checkpoint())
            asyncio.run(resumed.serve())
            combined = {
                name: gateway.results()["t"][name]
                + resumed.results()["t"][name]
                for name in reference
            }
            identity_rows.append(("kill_resume", combined == reference))

            gateway = StreamGateway()
            gateway.add_tenant(
                "t", _broker_spec(server.url, group="faulted")
            )
            asyncio.run(gateway.serve(max_windows=N_WINDOWS // 3))
            server.inject_fault("reset", command="XREADGROUP", count=1)
            server.inject_fault("drop", command="XREADGROUP", count=1)
            asyncio.run(gateway.serve())
            faults_fired = len(server.faults_fired)
            identity_rows.append((
                "connection_kill",
                gateway.results()["t"] == reference
                and faults_fired == 2,
            ))
            bit_identical = all(same for _, same in identity_rows)

            # -- throughput: interleaved paired rounds ----------------
            _pump_queue(stream)  # warm both arms' code paths
            _pump_broker(server.url, group="warm")
            ratios, pairs = [], []
            for index in range(_ROUNDS):
                arms = {
                    "queue": lambda repeat: _pump_queue(stream),
                    "broker": lambda repeat: _pump_broker(
                        server.url, group=f"round{index}-{repeat}"
                    ),
                }
                order = ["queue", "broker"]
                if index % 2:
                    order.reverse()
                seconds = {
                    arm: _seconds_per_pump(arms[arm]) for arm in order
                }
                queue_s, broker_s = seconds["queue"], seconds["broker"]
                ratios.append(queue_s / broker_s)
                pairs.append((queue_s, broker_s))
        throughput_ratio = paired_speedup(ratios)

        table = ResultTable(
            ["round", "queue_s", "broker_s", "ratio"],
            title="broker vs queue ingestion",
        )
        for index, (queue_s, broker_s) in enumerate(pairs):
            table.add_row(
                round=index,
                queue_s=round(queue_s, 4),
                broker_s=round(broker_s, 4),
                ratio=round(queue_s / broker_s, 4),
            )
        emit(table, results_dir, "broker_throughput")

        metrics = {
            "n_windows": N_WINDOWS,
            "rows_per_entry": ROWS_PER_ENTRY,
            "pumps_per_round": PUMPS_PER_ROUND,
            "bit_identity": 1.0 if bit_identical else 0.0,
            "connection_faults_fired": faults_fired,
            "throughput_ratio": throughput_ratio,
            "broker_windows_per_second": (
                N_WINDOWS / min(b for _, b in pairs)
            ),
            "queue_windows_per_second": (
                N_WINDOWS / min(q for q, _ in pairs)
            ),
            "floor_enforced": True,
        }
        metrics.update(ratio_spread("throughput_ratio", ratios))
        for name, same in identity_rows:
            metrics[f"bit_identity_{name}"] = 1.0 if same else 0.0
        emit_json(
            results_dir,
            "broker",
            metrics,
            rows=[
                {
                    "round": index,
                    "queue_s": queue_s,
                    "broker_s": broker_s,
                }
                for index, (queue_s, broker_s) in enumerate(pairs)
            ],
            gates={
                "broker_bit_identity": {
                    "floor": 1.0,
                    "value": 1.0 if bit_identical else 0.0,
                },
                "broker_vs_queue_throughput": {
                    "floor": THROUGHPUT_FLOOR,
                    "value": throughput_ratio,
                },
            },
        )

        assert bit_identical, identity_rows
        assert throughput_ratio >= THROUGHPUT_FLOOR, ratios
