"""Replay soak harness: sustained multi-tenant traffic with kill/resume.

:func:`run_soak` is the operational proof behind the ROADMAP's soak
item: N tenants replay a recorded indicator file at a paced rate
(``replay:<path>:<rate>`` sources) through a
:class:`~repro.service.StreamGateway`, serving in bounded slices; every
few slices the fleet is checkpointed, the gateway discarded (the
"kill"), and a fresh one resumed from the checkpoint.  Throughout, the
gateway's metrics registry is the single ledger: session latency
histograms, shed/served counters and the checkpoint/resume counters
survive each kill via the checkpoint's ``metrics`` section, so the
final p50/p99 end-to-end window latency and windows/sec come straight
from :class:`~repro.obs.metrics.Histogram` bucket math over the whole
run — not from any side bookkeeping.

With ``broker_url=`` the same harness drives **broker-fed** tenants
instead: the recorded file is published once per tenant to a
Redis-Streams stream and each tenant consumes it through a
``broker:`` source (at-least-once, acks at checkpoint boundaries), so
the kill/resume cycle also exercises the pending-entry drain.  A
``fault_hook`` lets the caller arm connection faults against their
broker between slices — the report then counts redeliveries and
reconnects from the ``repro_broker_*`` series.
"""

from __future__ import annotations

import asyncio
import csv
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.obs.exposition import JsonlSnapshotWriter
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanRecorder, use_recorder
from repro.service.gateway import StreamGateway
from repro.service.spec import ServiceSpec

__all__ = ["SoakReport", "run_soak"]


@dataclass
class SoakReport:
    """What a soak run measured, sourced from the fleet registry."""

    tenants: int
    duration_seconds: float
    windows_total: int
    windows_per_second: float
    p50_latency_seconds: float
    p99_latency_seconds: float
    shed_windows: Dict[str, int]
    checkpoints: int
    resumes: int
    slices: int
    registry: MetricsRegistry
    #: Broker-mode extras (zero when the soak replayed from files).
    broker: bool = False
    delivered_entries: int = 0
    redelivered_entries: int = 0
    reconnects: int = 0

    def summary(self) -> str:
        """A compact human-readable report (the soak example prints
        this)."""
        shed_total = sum(self.shed_windows.values())
        lines = [
            f"soak: {self.tenants} tenant(s), "
            f"{self.duration_seconds:.2f}s wall, "
            f"{self.slices} slice(s)",
            f"windows: {self.windows_total} total, "
            f"{self.windows_per_second:.1f} windows/sec "
            f"(shed {shed_total})",
            f"latency: p50 {self.p50_latency_seconds * 1e3:.2f}ms, "
            f"p99 {self.p99_latency_seconds * 1e3:.2f}ms "
            "(end-to-end, submit to released answers)",
            f"lifecycle: {self.checkpoints} checkpoint(s), "
            f"{self.resumes} resume(s)",
        ]
        if self.broker:
            lines.append(
                f"broker: {self.delivered_entries} delivered, "
                f"{self.redelivered_entries} redelivered, "
                f"{self.reconnects} reconnect(s)"
            )
        return "\n".join(lines)


def _replay_alphabet(path: str) -> tuple:
    """The alphabet header of a recorded indicator CSV."""
    with open(path, newline="", encoding="utf-8") as handle:
        try:
            header = next(csv.reader(handle))
        except StopIteration:
            raise ValueError(
                f"{path} is empty; expected an alphabet header"
            ) from None
    if not header:
        raise ValueError(f"{path} has an empty alphabet header")
    return tuple(header)


def _close_sources(gateway: StreamGateway) -> None:
    """Release every tenant source's connection (broker sockets)."""
    for name in gateway.tenant_names:
        source = gateway.service(name).last_source
        if source is not None:
            source.close()


def run_soak(
    path: str,
    *,
    tenants: int = 2,
    rate: float = 200.0,
    duration: float = 3.0,
    slice_windows: int = 64,
    kill_every: int = 2,
    mechanism: str = "bd",
    mechanism_options: Optional[dict] = None,
    seed: int = 11,
    rate_limit: Optional[float] = None,
    registry: Optional[MetricsRegistry] = None,
    recorder: Optional[SpanRecorder] = None,
    snapshot_path: Optional[str] = None,
    broker_url: Optional[str] = None,
    fault_hook: Optional[Callable[[int], None]] = None,
) -> SoakReport:
    """Soak a multi-tenant fleet over ``replay:<path>:<rate>`` sources.

    Parameters
    ----------
    path:
        A recorded indicator CSV (header = alphabet, rows = 0/1; see
        :func:`repro.io.write_indicator_csv`).
    tenants:
        Fleet size; tenant ``i`` gets its own seed (``seed + i``) and
        budget ledger over the same replayed file.
    rate:
        Replay pacing per tenant, windows/second (absolute-deadline
        paced; 0 replays as fast as the fleet drains).
    duration:
        Wall-clock budget in seconds; the soak also ends early once
        every tenant's replay is exhausted.
    slice_windows:
        Windows served per tenant per slice (each slice is one
        ``serve`` call on a fresh event loop).
    kill_every:
        Checkpoint the fleet, discard the gateway and resume a fresh
        one from the checkpoint every this-many slices (0 = never) —
        the kill/resume cycle under sustained traffic.
    mechanism / mechanism_options / seed / rate_limit:
        Tenant pipeline knobs; the default is the w-event BD baseline.
    registry:
        The first generation's fleet registry (default: fresh).  Each
        resume merges the checkpoint's ``metrics`` section into the
        next generation's registry, so counters and histograms are
        monotone across kills.
    recorder:
        Optional :class:`SpanRecorder` installed for the whole soak.
    snapshot_path:
        Optional JSONL file appended with one registry snapshot per
        slice (the periodic-exposition trail).
    broker_url:
        When set (``redis://host:port``), the recorded file is
        published once per tenant to stream ``soak-<i>`` on that
        broker and tenants consume through ``broker:`` sources
        (at-least-once, acked at each fleet checkpoint) instead of
        paced file replay; ``rate`` is then ignored — entries are
        pre-published and the pump drains as fast as it processes.
    fault_hook:
        Optional callable invoked with the slice number after every
        slice (broker soaks arm connection faults against their
        server here; any exception propagates).
    """
    if tenants <= 0:
        raise ValueError(f"tenants must be positive, got {tenants}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if slice_windows <= 0:
        raise ValueError(
            f"slice_windows must be positive, got {slice_windows}"
        )
    if kill_every < 0:
        raise ValueError(f"kill_every must be >= 0, got {kill_every}")
    alphabet = _replay_alphabet(path)
    if len(alphabet) < 2:
        raise ValueError(
            f"{path} needs an alphabet of >= 2 event types, got "
            f"{list(alphabet)}"
        )
    options = dict(mechanism_options or {})
    if mechanism == "bd" and not options:
        options = {"epsilon": 1.0, "w": 16}
    if broker_url is not None:
        # Publish the recording once per tenant (each gets its own
        # stream + consumer group, so budgets and acks stay isolated)
        # and consume it back through the at-least-once broker path.
        from repro.broker.connectors import publish_indicator_stream
        from repro.io.sources import read_indicator_csv

        recording = read_indicator_csv(path)
        sources = {}
        for i in range(tenants):
            stream_name = f"soak-{i}"
            publish_indicator_stream(broker_url, stream_name, recording)
            sources[i] = (
                f"broker:url={broker_url},stream={stream_name},"
                "group=soak,consumer=c0,block_ms=100"
            )
    else:
        sources = {i: f"replay:{path}:{rate}" for i in range(tenants)}
    specs = {
        f"tenant-{i}": ServiceSpec(
            alphabet=alphabet,
            patterns=[("soak-pattern", (alphabet[0], alphabet[1]))],
            queries=[("soak-q", (alphabet[0], alphabet[1]))],
            mechanism=mechanism,
            mechanism_options=options,
            source=sources[i],
            sink="metrics",
            seed=seed + i,
        )
        for i in range(tenants)
    }

    gateway = StreamGateway(registry=registry)
    for name, spec in specs.items():
        gateway.add_tenant(name, spec, rate_limit=rate_limit)

    started = time.monotonic()
    deadline = started + duration
    slices = 0
    recorder_scope = (
        use_recorder(recorder) if recorder is not None else None
    )
    if recorder_scope is not None:
        recorder_scope.__enter__()
    try:
        while time.monotonic() < deadline:
            before = sum(gateway.windows_served().values())
            asyncio.run(gateway.serve(max_windows=slice_windows))
            slices += 1
            if snapshot_path is not None:
                JsonlSnapshotWriter(
                    snapshot_path, gateway.registry
                ).write()
            if fault_hook is not None:
                fault_hook(slices)
            if sum(gateway.windows_served().values()) == before:
                break  # every replay is exhausted
            if kill_every and slices % kill_every == 0:
                checkpoint = gateway.checkpoint()
                # The "kill": drop the live fleet (closing its broker
                # connections), resume a fresh one from the checkpoint
                # (a fresh registry per generation proves the merge
                # keeps the series monotone).
                _close_sources(gateway)
                gateway = StreamGateway.resume(
                    checkpoint, registry=MetricsRegistry()
                )
    finally:
        _close_sources(gateway)
        if recorder_scope is not None:
            recorder_scope.__exit__(None, None, None)
    elapsed = time.monotonic() - started

    final = gateway.registry
    latency = final.get("repro_window_latency_seconds")
    windows_total = latency.count if latency is not None else 0
    checkpoints = final.get("repro_gateway_checkpoints_total")
    resumes = final.get("repro_gateway_resumes_total")

    def counter_value(name: str) -> int:
        metric = final.get(name)
        return int(metric.value) if metric is not None else 0

    return SoakReport(
        tenants=tenants,
        duration_seconds=elapsed,
        windows_total=windows_total,
        windows_per_second=(
            windows_total / elapsed if elapsed > 0 else 0.0
        ),
        p50_latency_seconds=(
            latency.percentile(50) if latency is not None else 0.0
        ),
        p99_latency_seconds=(
            latency.percentile(99) if latency is not None else 0.0
        ),
        shed_windows=gateway.shed_windows(),
        checkpoints=int(checkpoints.value) if checkpoints else 0,
        resumes=int(resumes.value) if resumes else 0,
        slices=slices,
        registry=final,
        broker=broker_url is not None,
        delivered_entries=counter_value("repro_broker_delivered_total"),
        redelivered_entries=counter_value(
            "repro_broker_redelivered_total"
        ),
        reconnects=counter_value("repro_broker_reconnects_total"),
    )
