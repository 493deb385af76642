"""The four workloads of the served-path benchmark.

Each class is the load generator and the output checker for one
traffic mix.  The program under test sees only the inputs generated
here from the seed: indicator matrices (written to ``csv:`` files or
offered on live queues) and declarative specs.  Every spec uses the
same 8 event types with 3 private patterns and 3 queries, laid out by
the seed; occurrence probabilities are a seed-shuffled fixed set, so
every seed poses the same amount of work.

The work per run is fixed: a workload serves ``n`` windows per stream
in every round, whatever the speed of the host, so counts and memory
do not depend on throughput.  See ``README.md`` next to this file for
why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import pickle
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro import ServiceSpec, StreamGateway, StreamService
from repro.cep.async_session import AsyncSession
from repro.io import (
    CallbackSink,
    CsvSource,
    QueueSource,
    StreamSink,
    write_indicator_csv,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.runtime import FlipStepper, QueryMatcher
from repro.runtime import sharding
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.utils.rng import derive_rng

from layers import LayerTracer, covered_seconds, self_seconds

__all__ = ["WORKLOADS", "Round", "pack_answers", "unpack_answers"]

TYPES = tuple(f"e{i}" for i in range(8))
ALPHABET = EventAlphabet(TYPES)


UNIFORM = ("uniform-ppm", {"epsilon": 2.0})
UNIFORM_TIGHT = ("uniform-ppm", {"epsilon": 1.0})
BD = ("bd", {"epsilon": 1.0, "w": 40})
BA = ("ba", {"epsilon": 1.0, "w": 40})

SHARDED = "sharded:backend=thread,workers=2"

_LATENCY = "repro_window_latency_seconds"

#: Schedule granularity of the open-loop generator, seconds.
TICK = 1e-3


@dataclass
class Round:
    """One timed round: its size, wall time and outputs to check.

    ``outputs`` are kept in compact form (packed answer bits, clipped
    egress counts), so that the rounds held for the check do not add
    to the workload's peak memory.  ``latency_ms`` is the open-loop
    workload's median window latency.  ``speed`` is the host's speed
    over the round relative to the reference host (see
    ``hostspeed.py``), set by the harness.
    """

    windows: int
    seconds: float
    outputs: Dict
    latency_ms: float = None
    extras: Dict = field(default_factory=dict)
    speed: float = 1.0

    @property
    def windows_per_s(self) -> float:
        """Throughput on the reference host."""
        return self.windows / (self.seconds * self.speed)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def make_matrix(seed: int, salt: int, n: int) -> np.ndarray:
    """``n`` windows of one stream: each type occurs independently
    with a probability from a fixed set, shuffled by the seed."""
    rng = np.random.default_rng([seed, salt])
    occurrence = rng.permutation(np.linspace(0.15, 0.5, len(TYPES)))
    return rng.random((n, len(TYPES))) < occurrence


def make_spec(
    seed: int, mechanism: Tuple[str, Mapping], *, salt: int, **fields
) -> ServiceSpec:
    """A spec with the seed's pattern/query layout and its own seed.

    The 3 private patterns cover 6 distinct types and the 3 queries
    are type pairs, so every seed protects the same number of columns.
    """
    rng = np.random.default_rng([seed, 99])
    private = [TYPES[i] for i in rng.permutation(len(TYPES))]
    target = [TYPES[i] for i in rng.permutation(len(TYPES))]
    name, options = mechanism
    return ServiceSpec(
        alphabet=TYPES,
        patterns=[
            (f"private-{k}", tuple(private[2 * k : 2 * k + 2]))
            for k in range(3)
        ],
        queries=[
            (f"q{k}", tuple(target[2 * k : 2 * k + 2])) for k in range(3)
        ],
        mechanism=name,
        mechanism_options=dict(options),
        seed=seed * 16 + salt,
        **fields,
    )


def reference(spec: ServiceSpec, matrix: np.ndarray, *, served=False):
    """The same spec, seed and stream under ``BatchExecutor``.

    ``served=True`` gives the reference of a session: sessions step
    sequential releasers (BD/BA) from the seed's ``"online"`` child,
    flip mechanisms from the seed itself.
    """
    plain = dataclasses.replace(
        spec, source=None, sink=None, executor="batch", accounting=None
    )
    service = StreamService(plain)
    rng = spec.seed
    if served and hasattr(service.mechanism, "online_releaser"):
        rng = derive_rng(spec.seed, "online")
    return service.run_indicators(IndicatorStream(ALPHABET, matrix), rng=rng)


def _answers(report) -> Dict[str, np.ndarray]:
    return {name: answer.detections for name, answer in report.answers.items()}


def pack_answers(
    answers: Mapping[str, Sequence[bool]]
) -> Dict[str, Tuple[int, np.ndarray]]:
    """Per query: the number of answers and their packed bits."""
    return {
        query: (len(values), np.packbits(np.asarray(values, dtype=bool)))
        for query, values in answers.items()
    }


def unpack_answers(packed) -> Dict[str, np.ndarray]:
    return {
        query: np.unpackbits(bits, count=length).astype(bool)
        for query, (length, bits) in packed.items()
    }


def _compact_counts(counts: np.ndarray) -> np.ndarray:
    """Egress counts in one byte per window (0, 1 and "more" is all
    the check tells apart)."""
    return np.minimum(counts, 255).astype(np.uint8)


def _confusion(truth: np.ndarray, released: np.ndarray) -> Tuple[int, ...]:
    return (
        int(np.sum(truth & released)),
        int(np.sum(~truth & released)),
        int(np.sum(truth & ~released)),
        int(np.sum(~truth & ~released)),
    )


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def answer_failures(
    expected: Mapping[str, np.ndarray], got: Mapping[str, Sequence[bool]]
) -> np.ndarray:
    """Per window: is it missing, duplicated or answered differently?

    The mask covers ``max(expected, longest answer list)`` windows, so
    extra (duplicated) windows count as failed too.
    """
    n = len(next(iter(expected.values())))
    longest = max((len(values) for values in got.values()), default=0)
    failed = np.zeros(max(n, longest), dtype=bool)
    for query, truth in expected.items():
        values = np.asarray(got.get(query, ()), dtype=bool)
        k = min(len(values), n)
        failed[:k] |= values[:k] != truth[:k]
        failed[k:n] = True
        failed[n : len(values)] = True
    return failed


def egress_failures(counts: np.ndarray) -> np.ndarray:
    """Per window: was it egressed other than exactly once?"""
    return counts != 1


def _union(*masks: np.ndarray) -> int:
    size = max(len(mask) for mask in masks)
    failed = np.zeros(size, dtype=bool)
    for mask in masks:
        failed[: len(mask)] |= mask
    return int(failed.sum())


def _egress_counter(n: int):
    """A callback sink counting (and time-stamping) egress per window."""
    counts = np.zeros(n, dtype=np.int64)
    stamps = np.full(n, np.nan)
    clock = time.perf_counter

    def on_release(index, row, answers):
        stamps[index] = clock()
        counts[index] += 1

    return CallbackSink(on_release), counts, stamps


def _registry_p50_ms(registry: MetricsRegistry) -> float:
    return registry.get(_LATENCY).percentile(50) * 1e3


def _per_window_us(seconds: float, windows: int) -> float:
    return seconds / windows * 1e6


def _durations(spans) -> float:
    return sum(span.duration for span in spans)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Common shape: ``n`` windows per stream, ``streams`` streams."""

    name = ""
    #: Streams served per round (tenants or jobs).
    streams = 1
    #: Windows per second on the reference host, used only to size a
    #: run to its ``--seconds``; the size never depends on the speed of
    #: the run itself.
    nominal_rate = 1.0
    #: Timed rounds per run; each end-to-end figure is their median.
    #: Many short rounds let the host-speed calibration between them
    #: follow the host closely (see ``hostspeed.py``).
    rounds = 60
    #: Open loop: the offered rate is fixed, so throughput and latency
    #: are reported as measured, not scaled to the reference host.
    open_loop = False
    #: Units of the per-layer metrics this workload's traced run gives.
    layer_units: Dict[str, str] = {}

    def __init__(self, seed: int, n: int, workdir: Path):
        self.seed = seed
        self.n = n
        self.workdir = Path(workdir)
        self._reference = None

    @classmethod
    def round_size(cls, seconds: float) -> int:
        total = seconds * cls.nominal_rate / cls.rounds
        return max(64, int(total / cls.streams))

    def csv_path(self, tag: str) -> Path:
        return self.workdir / f"{self.name}-{tag}-{self.seed}-{self.n}.csv"

    def generate(self) -> None:
        """Write or build the inputs (load-generator work, untimed)."""

    def compile(self):
        """Compile the spec(s) or fleet: the set-up ``setup_s`` times."""
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def check(self, result: Round) -> int:
        """Failed windows of one round, against the batch reference."""
        raise NotImplementedError

    def tracer(self) -> LayerTracer:
        return LayerTracer(capacity=8 * self.n * self.streams + 10_000)

    def layer_metrics(
        self, plain: Round, traced: Round, tracer: LayerTracer
    ) -> Dict[str, float]:
        raise NotImplementedError

    def cleanup(self) -> None:
        pattern = f"{self.name}-*-{self.seed}-{self.n}.csv"
        for path in self.workdir.glob(pattern):
            path.unlink()


class Served(Workload):
    """Closed loop, one tenant: ``StreamService.pump`` from a recorded
    ``csv:`` file through a ``uniform-ppm`` spec into the ``metrics``
    sink, with the program's default queue bounds."""

    name = "served"
    nominal_rate = 22_000.0
    layer_units = {
        "io.source.us_per_window": "us",
        "io.sink.us_per_window": "us",
        "service.pump.self_us_per_window": "us",
        "session.submit_wait_us_per_window": "us",
        "session.drain.windows_per_batch": "windows",
        "runtime.step.us_per_window": "us",
        "runtime.match.us_per_window": "us",
        "service.served_vs_batch": "ratio",
        "trace.coverage": "ratio",
    }

    def spec(self) -> ServiceSpec:
        return make_spec(
            self.seed,
            UNIFORM,
            salt=0,
            source=f"csv:{self.csv_path('stream')}",
            sink="metrics",
        )

    def generate(self) -> None:
        self.matrix = make_matrix(self.seed, 0, self.n)
        write_indicator_csv(
            IndicatorStream(ALPHABET, self.matrix),
            str(self.csv_path("stream")),
        )

    def compile(self) -> StreamService:
        return StreamService(self.spec())

    def run_round(self) -> Round:
        service = self.compile()
        with use_registry(MetricsRegistry()):
            start = time.perf_counter()
            answers = asyncio.run(service.pump())
            end = time.perf_counter()
        confusion = {
            name: (counts.tp, counts.fp, counts.fn, counts.tn)
            for name, counts in service.last_sink.result()["per_query"].items()
        }
        return Round(
            windows=self.n,
            seconds=end - start,
            outputs={"answers": pack_answers(answers), "confusion": confusion},
            extras={"start": start, "end": end},
        )

    def reference(self):
        if self._reference is None:
            start = time.perf_counter()
            report = reference(self.spec(), self.matrix, served=True)
            seconds = time.perf_counter() - start
            confusion = {
                name: _confusion(
                    report.true_answers[name].detections,
                    report.answers[name].detections,
                )
                for name in report.answers
            }
            self._reference = (_answers(report), confusion, seconds)
        return self._reference

    def check(self, result: Round) -> int:
        answers, confusion, _seconds = self.reference()
        failed = _union(
            answer_failures(answers, unpack_answers(result.outputs["answers"]))
        )
        # The sink holds only aggregates: a count that differs names no
        # window, so it fails at least as many windows as it is off by.
        got = result.outputs["confusion"]
        off = max(
            sum(abs(a - b) for a, b in zip(confusion[q], got.get(q, (0,) * 4)))
            for q in confusion
        )
        return max(failed, math.ceil(off / 2))

    def tracer(self) -> LayerTracer:
        tracer = super().tracer()
        tracer.wrap_async_iterator(CsvSource, "arows", "io.source")
        tracer.wrap_coroutine(AsyncSession, "_submit_row", "session.submit")
        tracer.wrap(FlipStepper, "step_block", "runtime.step", rows_arg=1)
        tracer.wrap(QueryMatcher, "answer", "runtime.match", rows_arg=1)
        tracer.wrap(StreamSink, "write", "io.sink")
        return tracer

    def layer_metrics(self, plain, traced, tracer):
        spans = tracer.spans()
        own = self_seconds(spans)
        total = {
            name: _durations(tracer.spans(name))
            for name in (
                "io.source", "io.sink", "runtime.step", "runtime.match"
            )
        }
        drains = tracer.spans("session.drain")
        n = traced.windows
        batch_seconds = self.reference()[2]
        start, end = traced.extras["start"], traced.extras["end"]
        return {
            "io.source.us_per_window": _per_window_us(total["io.source"], n),
            "io.sink.us_per_window": _per_window_us(total["io.sink"], n),
            "service.pump.self_us_per_window": _per_window_us(
                own["service.pump"], n
            ),
            "session.submit_wait_us_per_window": _per_window_us(
                own["session.submit"], n
            ),
            "session.drain.windows_per_batch": sum(
                span.attrs["windows"] for span in drains
            )
            / len(drains),
            "runtime.step.us_per_window": _per_window_us(
                total["runtime.step"], n
            ),
            "runtime.match.us_per_window": _per_window_us(
                total["runtime.match"], n
            ),
            "service.served_vs_batch": batch_seconds / plain.seconds,
            "trace.coverage": covered_seconds(spans, start, end)
            / (end - start),
        }


def _offer(loop, queues, matrices, per_tick, due, lag, stop):
    """Open-loop generator on an absolute schedule of 1 ms ticks.

    Runs on its own thread.  At tick ``k`` (due at ``start + k *
    TICK``) it hands every tenant its next ``per_tick`` windows to the
    event loop, so a stall in the system delays the windows behind it
    but never the schedule; its own lateness per tick is recorded in
    ``lag``.  It is not a coroutine on the served loop because the loop
    wakes its timers on a 1 ms grid: a coroutine generator's lateness
    would grow to fill whatever the system leaves of each millisecond
    and hide the system's own latency.
    """
    clock = time.perf_counter
    n = len(next(iter(matrices.values())))
    start = clock()
    for tick in range(math.ceil(n / per_tick)):
        deadline = start + tick * TICK
        delay = deadline - clock()
        if delay > 0:
            time.sleep(delay)
        if stop.is_set():
            return
        lag[tick] = clock() - deadline
        window = slice(tick * per_tick, min(n, (tick + 1) * per_tick))
        offers = []
        for k, (name, queue) in enumerate(queues.items()):
            due[k][window] = deadline
            offers.append((queue, matrices[name][window]))
        loop.call_soon_threadsafe(_put_rows, offers)
    loop.call_soon_threadsafe(
        _put_rows, [(queue, (None,)) for queue in queues.values()]
    )


def _put_rows(offers):
    for queue, rows in offers:
        for row in rows:
            queue.put_nowait(row)


class GatewayPaced(Workload):
    """Open loop: one generator thread feeds four ``queue:`` tenants at
    a fixed 1,000 windows/s each (1 per tenant per 1 ms tick); egress is
    stamped by a ``CallbackSink``."""

    name = "gateway-paced"
    streams = 4
    open_loop = True
    #: Not scaled, so fewer and longer rounds: a round's median latency
    #: then rests on 4,000 windows.
    rounds = 20
    #: Offered windows per second per tenant.  4,000/s in all keeps the
    #: loop well below saturation even while the host runs slow; near
    #: saturation the p50 measures the backlog, not the served path.
    tenant_rate = 1_000.0
    nominal_rate = streams * tenant_rate
    tenants = (
        ("ppm-a", UNIFORM),
        ("ppm-b", UNIFORM_TIGHT),
        ("bd", BD),
        ("ba", BA),
    )
    layer_units = {
        "session.drain.windows_per_batch": "windows",
        "gateway.latency_p50_ms": "ms",
        "session.latency_p50_ms": "ms",
        "gateway.latency_p99_ms": "ms",
        "loadgen.lag_p99_ms": "ms",
    }

    def specs(self) -> List[Tuple[str, ServiceSpec]]:
        return [
            (
                name,
                make_spec(
                    self.seed,
                    mechanism,
                    salt=salt + 1,
                    source="queue",
                    sink="callback",
                ),
            )
            for salt, (name, mechanism) in enumerate(self.tenants)
        ]

    def generate(self) -> None:
        self.matrices = {
            name: make_matrix(self.seed, salt + 1, self.n)
            for salt, (name, _mechanism) in enumerate(self.tenants)
        }

    def compile(self):
        gateway = StreamGateway()
        queues, counts, stamps = {}, {}, {}
        for name, spec in self.specs():
            queues[name] = asyncio.Queue()
            sink, counts[name], stamps[name] = _egress_counter(self.n)
            gateway.add_tenant(
                name, spec, source=QueueSource(queues[name]), sink=sink
            )
        return gateway, queues, counts, stamps

    def run_round(self) -> Round:
        gateway, queues, counts, stamps = self.compile()
        per_tick = round(self.tenant_rate * TICK)
        due = [np.empty(self.n) for _ in queues]
        lag = np.empty(math.ceil(self.n / per_tick))

        async def serve():
            stop = threading.Event()
            generator = threading.Thread(
                target=_offer,
                args=(
                    asyncio.get_running_loop(),
                    queues,
                    self.matrices,
                    per_tick,
                    due,
                    lag,
                    stop,
                ),
            )
            generator.start()
            try:
                await gateway.serve()
            finally:
                stop.set()
                generator.join(timeout=10)
            if generator.is_alive():
                raise RuntimeError("load generator did not stop")

        with use_registry(MetricsRegistry()):
            start = time.perf_counter()
            asyncio.run(serve())
            seconds = time.perf_counter() - start
        latency = np.concatenate(
            [stamps[name] - due[k] for k, name in enumerate(queues)]
        )
        latency = latency[~np.isnan(latency)]
        return Round(
            windows=self.n * len(queues),
            seconds=seconds,
            latency_ms=float(np.median(latency)) * 1e3,
            outputs={
                "answers": {
                    name: pack_answers(answers)
                    for name, answers in gateway.results().items()
                },
                "counts": {
                    name: _compact_counts(values)
                    for name, values in counts.items()
                },
            },
            extras={
                "latency_p99_ms": float(np.percentile(latency, 99)) * 1e3,
                "lag_p99_ms": float(np.percentile(lag, 99)) * 1e3,
                "session_p50_ms": _registry_p50_ms(gateway.registry),
            },
        )

    def reference(self):
        if self._reference is None:
            self._reference = {
                name: _answers(
                    reference(spec, self.matrices[name], served=True)
                )
                for name, spec in self.specs()
            }
        return self._reference

    def check(self, result: Round) -> int:
        expected = self.reference()
        return sum(
            _union(
                answer_failures(
                    expected[name],
                    unpack_answers(result.outputs["answers"][name]),
                ),
                egress_failures(result.outputs["counts"][name]),
            )
            for name in expected
        )

    def layer_metrics(self, plain, traced, tracer):
        drains = tracer.spans("session.drain")
        return {
            "session.drain.windows_per_batch": sum(
                span.attrs["windows"] for span in drains
            )
            / len(drains),
            "gateway.latency_p50_ms": plain.latency_ms,
            "session.latency_p50_ms": plain.extras["session_p50_ms"],
            "gateway.latency_p99_ms": plain.extras["latency_p99_ms"],
            "loadgen.lag_p99_ms": plain.extras["lag_p99_ms"],
        }


class GatewayResume(Workload):
    """Three ``csv:``-fed tenants with budgets, served in fixed slices;
    every second slice the fleet is checkpointed, pickled, discarded
    and rebuilt with ``StreamGateway.resume``."""

    name = "gateway-resume"
    streams = 3
    nominal_rate = 21_000.0
    #: Slices per round; the fleet is killed after every second one.
    slices = 10
    tenants = (
        ("ppm", UNIFORM, 10.0),
        ("bd", BD, 1.5),
        ("ba", BA, 1.5),
    )
    layer_units = {
        "gateway.checkpoint_ms": "ms",
        "checkpoint.bytes": "bytes",
        "gateway.resume_ms": "ms",
        "io.source.first_row_ms": "ms",
        "service.session_rebuilds": "count",
        "service.session_rebuild_ms": "ms",
    }

    def specs(self) -> List[Tuple[str, ServiceSpec]]:
        return [
            (
                name,
                make_spec(
                    self.seed,
                    mechanism,
                    salt=salt + 5,
                    source=f"csv:{self.csv_path(name)}",
                    sink="callback",
                    accounting=budget,
                ),
            )
            for salt, (name, mechanism, budget) in enumerate(self.tenants)
        ]

    def generate(self) -> None:
        self.matrices = {}
        for salt, (name, _mechanism, _budget) in enumerate(self.tenants):
            self.matrices[name] = make_matrix(self.seed, salt + 5, self.n)
            write_indicator_csv(
                IndicatorStream(ALPHABET, self.matrices[name]),
                str(self.csv_path(name)),
            )

    def compile(self):
        gateway = StreamGateway()
        sinks, counts = {}, {}
        for name, spec in self.specs():
            sinks[name], counts[name], _stamps = _egress_counter(self.n)
            gateway.add_tenant(name, spec, sink=sinks[name])
        return gateway, sinks, counts

    def run_round(self) -> Round:
        gateway, sinks, counts = self.compile()
        per_slice = math.ceil(self.n / self.slices)
        stitched = {name: {} for name in sinks}

        def absorb(results):
            for name, answers in results.items():
                for query, values in answers.items():
                    stitched[name].setdefault(query, []).extend(values)

        checkpoint_ms, resume_ms, sizes, resumed_slices = [], [], [], []
        clock = time.perf_counter
        with use_registry(MetricsRegistry()):
            start = clock()
            served = 0
            resumed = False
            while True:
                slice_start = clock()
                asyncio.run(gateway.serve(max_windows=per_slice))
                if resumed:
                    resumed_slices.append((slice_start, clock()))
                    resumed = False
                served += 1
                if all(
                    count == self.n
                    for count in gateway.windows_served().values()
                ):
                    break
                if served % 2 == 0:
                    before = clock()
                    checkpoint = gateway.checkpoint()
                    checkpoint_ms.append((clock() - before) * 1e3)
                    blob = pickle.dumps(checkpoint)
                    sizes.append(len(blob))
                    absorb(gateway.results())
                    del gateway, checkpoint
                    restored = pickle.loads(blob)
                    before = clock()
                    gateway = StreamGateway.resume(restored, sinks=sinks)
                    resume_ms.append((clock() - before) * 1e3)
                    resumed = True
            seconds = clock() - start
        absorb(gateway.results())
        ledgers = {
            name: [
                (spend.label, spend.epsilon)
                for spend in gateway.service(name).accountant.spends
            ]
            for name in sinks
        }
        return Round(
            windows=self.n * len(sinks),
            seconds=seconds,
            outputs={
                "answers": {
                    name: pack_answers(answers)
                    for name, answers in stitched.items()
                },
                "counts": {
                    name: _compact_counts(values)
                    for name, values in counts.items()
                },
                "ledgers": ledgers,
            },
            extras={
                "checkpoint_ms": checkpoint_ms,
                "resume_ms": resume_ms,
                "bytes": sizes,
                "resumed_slices": resumed_slices,
            },
        )

    def reference(self):
        if self._reference is None:
            self._reference = {}
            for name, spec in self.specs():
                # One session's charge: what the ledger must hold after
                # any number of kill/resume cycles.
                service = StreamService(spec)
                service.open_async_session()
                charge = [
                    (spend.label, spend.epsilon)
                    for spend in service.accountant.spends
                ]
                report = reference(spec, self.matrices[name], served=True)
                self._reference[name] = (
                    _answers(report),
                    charge,
                    spec.accounting,
                )
        return self._reference

    def check(self, result: Round) -> int:
        failed = 0
        for name, (answers, charge, budget) in self.reference().items():
            ledger = result.outputs["ledgers"][name]
            if ledger != charge or sum(eps for _l, eps in ledger) > budget:
                # A ledger names no window: the tenant's whole output
                # counts as failed.
                failed += self.n
                continue
            failed += _union(
                answer_failures(
                    answers, unpack_answers(result.outputs["answers"][name])
                ),
                egress_failures(result.outputs["counts"][name]),
            )
        return failed

    def tracer(self) -> LayerTracer:
        tracer = super().tracer()
        tracer.wrap_async_iterator(CsvSource, "arows", "io.source")
        tracer.wrap(StreamService, "open_async_session", "service.session")
        tracer.wrap_coroutine(StreamService, "pump", "service.pump.call")
        return tracer

    def layer_metrics(self, plain, traced, tracer):
        pumps = tracer.spans("service.pump.call")
        rebuilds = [
            span
            for span in tracer.spans("service.session")
            if any(
                pump.start <= span.start and span.end <= pump.end
                for pump in pumps
            )
        ]
        first_rows = [
            span.duration * 1e3
            for span in tracer.spans("io.source")
            if span.attrs["first"]
            and any(
                lo <= span.start <= hi
                for lo, hi in traced.extras["resumed_slices"]
            )
        ]
        return {
            "gateway.checkpoint_ms": median(plain.extras["checkpoint_ms"]),
            "checkpoint.bytes": sum(plain.extras["bytes"])
            / len(plain.extras["bytes"]),
            "gateway.resume_ms": median(plain.extras["resume_ms"]),
            "io.source.first_row_ms": median(first_rows),
            "service.session_rebuilds": len(rebuilds),
            "service.session_rebuild_ms": (
                _durations(rebuilds) / len(rebuilds) * 1e3 if rebuilds else 0.0
            ),
        }


class Batch(Workload):
    """One in-memory stream through ``run_indicators`` twice — a
    ``uniform-ppm`` spec and a ``bd`` spec (w=40) — both sharded over
    two threads."""

    name = "batch"
    streams = 2
    nominal_rate = 120_000.0
    jobs = (("ppm", UNIFORM), ("bd", BD))
    layer_units = {
        "runtime.step.us_per_window": "us",
        "runtime.prepass_s": "s",
        "runtime.replay_s": "s",
        "runtime.merge_s": "s",
        "runtime.shard_skew": "ratio",
        "runtime.sharded_vs_batch": "ratio",
        "decisions.certified_share": "ratio",
    }

    def specs(self) -> List[Tuple[str, ServiceSpec]]:
        return [
            (name, make_spec(self.seed, mechanism, salt=9, executor=SHARDED))
            for name, mechanism in self.jobs
        ]

    def generate(self) -> None:
        self.stream = IndicatorStream(
            ALPHABET, make_matrix(self.seed, 9, self.n)
        )

    def compile(self) -> List[Tuple[str, StreamService]]:
        return [(name, StreamService(spec)) for name, spec in self.specs()]

    def run_round(self) -> Round:
        services = self.compile()
        with use_registry(MetricsRegistry()) as registry:
            start = time.perf_counter()
            reports = {
                name: service.run_indicators(self.stream)
                for name, service in services
            }
            seconds = time.perf_counter() - start
        rows = {
            kind: registry.get(f"repro_decisions_{kind}_rows_total")
            for kind in ("certified", "boundary", "zero_budget")
        }
        return Round(
            windows=self.n * len(services),
            seconds=seconds,
            outputs={
                name: (
                    np.packbits(report.perturbed.matrix_view(), axis=1),
                    pack_answers(_answers(report)),
                )
                for name, report in reports.items()
            },
            extras={
                kind: metric.value if metric is not None else 0.0
                for kind, metric in rows.items()
            },
        )

    def reference(self):
        if self._reference is None:
            start = time.perf_counter()
            self._reference = {}
            for name, spec in self.specs():
                report = reference(spec, self.stream.matrix_view())
                self._reference[name] = (
                    np.packbits(report.perturbed.matrix_view(), axis=1),
                    _answers(report),
                )
            self._reference_seconds = time.perf_counter() - start
        return self._reference

    def check(self, result: Round) -> int:
        failed = 0
        for name, (released, answers) in self.reference().items():
            got_released, got_answers = result.outputs[name]
            rows = np.zeros(max(len(released), len(got_released)), dtype=bool)
            k = min(len(released), len(got_released))
            rows[:k] = np.any(released[:k] != got_released[:k], axis=1)
            rows[k:] = True
            failed += _union(
                rows, answer_failures(answers, unpack_answers(got_answers))
            )
        return failed

    def tracer(self) -> LayerTracer:
        tracer = super().tracer()
        tracer.wrap(FlipStepper, "step_block", "runtime.step", rows_arg=1)
        tracer.wrap(sharding, "checkpoint_prepass", "runtime.prepass")
        tracer.wrap(sharding, "run_shard", "runtime.shard")
        tracer.wrap(sharding, "run_shard_from_checkpoint", "runtime.shard")
        tracer.wrap(sharding, "merge_results", "runtime.merge")
        return tracer

    def layer_metrics(self, plain, traced, tracer):
        steps = tracer.spans("runtime.step")
        shards = tracer.spans("runtime.shard")
        # Shard runners run on the pool threads; group them by the job
        # (executor span) that contains them.
        replay, heaviest = 0.0, []
        for job in tracer.spans("executor.sharded"):
            inside = [
                span
                for span in shards
                if job.start <= span.start and span.end <= job.end
            ]
            if inside:
                replay += max(s.end for s in inside) - min(
                    s.start for s in inside
                )
                if _durations(inside) > _durations(heaviest):
                    heaviest = inside
        durations = [span.duration for span in heaviest]
        classified = sum(traced.extras.values())
        certified = traced.extras["certified"]
        self.reference()
        return {
            "runtime.step.us_per_window": _per_window_us(
                _durations(steps), sum(s.attrs["windows"] for s in steps)
            ),
            "runtime.prepass_s": _durations(tracer.spans("runtime.prepass")),
            "runtime.replay_s": replay,
            "runtime.merge_s": _durations(tracer.spans("runtime.merge")),
            "runtime.shard_skew": max(durations)
            / (sum(durations) / len(durations)),
            "runtime.sharded_vs_batch": self._reference_seconds
            / plain.seconds,
            "decisions.certified_share": (
                certified / classified if classified else 0.0
            ),
        }


WORKLOADS = {
    workload.name: workload
    for workload in (Served, GatewayPaced, GatewayResume, Batch)
}
