"""The multi-tenant gateway: many declarative services, one loop.

A :class:`StreamGateway` multiplexes several *named*
:class:`~repro.service.ServiceSpec` pipelines — each with its own
source connector, sink connector, seed, mechanism and budget — over a
single asyncio event loop.  Tenants are fully isolated:

- **randomness** — every tenant's session draws from its own spec
  seed, so concurrent serving is bit-identical to running each spec
  alone;
- **budgets** — every tenant's accountant is its own ledger; one
  tenant exhausting its ε cannot spend another's;
- **flow control** — each tenant pumps through its own bounded
  :class:`~repro.cep.async_session.AsyncSession` queue
  (``max_pending``), so one slow mechanism backpressures only its own
  source;
- **ingress rate** — a tenant registered with a ``rate_limit``
  (windows per second, :class:`TokenBucket`) has excess windows
  *shed* at ingress: dropped before perturbation, counted on the
  tenant and in its sink's metrics (never silently), and consumed
  from the source so a resume never replays them.

Beyond the single loop, :meth:`StreamGateway.serve_scattered` spreads
the fleet across forked worker processes: a :class:`TenantScheduler`
round-robins tenants over slots, each slot serves its group on a
private loop, and the parent absorbs the returned checkpoints — after
the call the gateway is in exactly the state a local serve would have
produced.  A whole fleet is constructible from one JSON document of
:class:`~repro.service.spec.TenantSpec` entries
(:meth:`StreamGateway.from_json`).

The gateway checkpoints as a unit: :meth:`checkpoint` captures every
tenant's session snapshot (the PR-3 protocol) *plus its in-flight
source offset* and rate-limit configuration, and
:meth:`StreamGateway.resume` rebuilds the fleet — sources skipped to
their offsets, sessions restored, rate limiters re-armed — so a
crashed gateway continues exactly where an uninterrupted one would be.
Each tenant's service decides whether its sink continues, so later
slices and resumed tenants append to what was already egressed.

>>> gateway = StreamGateway()
>>> gateway.add_tenant("fleet", taxi_spec)
>>> gateway.add_tenant("grid", grid_spec, rate_limit=500.0)
>>> gateway.run()                      # serve both on one loop
>>> gateway.results()["fleet"]["q"]    # per-tenant answers
>>> gateway.shed_windows()["grid"]     # rate-limited drops, surfaced
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import time

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.tracing import trace_span
from repro.service.service import StreamService
from repro.service.spec import ServiceSpec, TenantSpec
from repro.utils.validation import check_positive

__all__ = ["StreamGateway", "TenantScheduler", "TokenBucket"]


class TokenBucket:
    """A windows-per-second token bucket (the tenant rate limiter).

    Tokens accrue at ``rate`` per second up to ``burst`` capacity
    (default ``max(1, rate)``); each admitted window spends one.
    ``try_acquire`` never blocks — the gateway sheds, it does not
    stall, so one tenant's overload cannot delay another's stream.
    ``clock`` is injectable for deterministic tests.
    """

    def __init__(self, rate: float, burst: Optional[float] = None, *,
                 clock=time.monotonic):
        check_positive("rate", rate)
        self.rate = float(rate)
        if burst is None:
            burst = max(1.0, self.rate)
        check_positive("burst", burst)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()

    @property
    def tokens(self) -> float:
        """Tokens currently available (diagnostic)."""
        return self._tokens

    def try_acquire(self) -> bool:
        """Spend one token if available; never blocks."""
        now = self._clock()
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class TenantScheduler:
    """Deterministic round-robin spread of tenants over worker slots.

    ``assign(names)`` stripes the tenant names across ``n_slots``
    groups (``names[i::n_slots]``) and drops empty groups — the same
    fleet always lands on the same slots, so scattered serving is as
    reproducible as local serving.
    """

    def __init__(self, n_slots: int):
        if (
            not isinstance(n_slots, int)
            or isinstance(n_slots, bool)
            or n_slots <= 0
        ):
            raise ValueError(
                f"n_slots must be a positive int, got {n_slots!r}"
            )
        self.n_slots = n_slots

    def assign(self, names: Sequence[str]) -> List[List[str]]:
        """Group ``names`` into at most ``n_slots`` non-empty slots."""
        names = list(names)
        slots = [
            list(names[index::self.n_slots])
            for index in range(self.n_slots)
        ]
        return [slot for slot in slots if slot]


class _Tenant:
    """One named pipeline: a compiled service plus its connectors."""

    def __init__(
        self,
        name: str,
        service: StreamService,
        *,
        registry: MetricsRegistry,
        source=None,
        sink=None,
        max_pending: int,
        rate_limit: Optional[float] = None,
        burst: Optional[float] = None,
        clock=None,
    ):
        self.name = name
        self.service = service
        self.source = source
        self.sink = sink
        self.max_pending = max_pending
        self.rate_limit = rate_limit
        self.burst = burst
        self.clock = clock
        self.answers: Dict[str, List[bool]] = {}
        # The gateway registry is the single source of truth for
        # per-tenant telemetry; `shed` below is a view over its
        # counter (so checkpoint merge carries it across resumes).
        self._shed_counter = registry.counter(
            "repro_tenant_shed_windows_total",
            "Windows shed at ingress by a tenant's rate limiter.",
        ).labels(tenant=name)
        self._served_gauge = registry.gauge(
            "repro_tenant_windows_served",
            "Windows answered by a tenant's session so far.",
        ).labels(tenant=name)
        self._budget_gauge = registry.gauge(
            "repro_tenant_budget_spent_epsilon",
            "Privacy budget (epsilon) a tenant's accountant has spent.",
        ).labels(tenant=name)
        self._bucket: Optional[TokenBucket] = None
        self._scattered_sink_result = None
        #: Whether this tenant can cross a process boundary: all its
        #: connectors are spec-declared, none are runtime objects.
        self.declarative = source is None and sink is None

    @property
    def shed(self) -> int:
        """Windows shed at this tenant's ingress (an obs counter view)."""
        return int(self._shed_counter.value)

    async def serve(self, max_windows: Optional[int]) -> None:
        # Live feeds must be connected before the pump starts: a bare
        # 'queue'/'broker' spec with nothing bound would otherwise
        # fail on its first emit, deep inside the pump, with no hint
        # of which tenant or spec is at fault.
        compiled = self.service._compile_source(self.source, reuse=True)
        if not compiled.live_feed_bound:
            raise RuntimeError(
                f"tenant {self.name!r}: live source "
                f"{self.service.spec.source!r} has no feed bound; pass "
                "a connected source object (QueueSource(queue) / "
                "BrokerSource(url)) when building the tenant, or via "
                "sources={name: ...} on StreamGateway.resume()"
            )
        source = self.source
        if self.rate_limit is not None:
            source = self._throttled()
        with trace_span("gateway.serve", tenant=self.name):
            answers = await self.service.pump(
                source,
                sink=self.sink,
                max_pending=self.max_pending,
                max_windows=max_windows,
            )
        # Later slices pass the service's active sink, which appends.
        self.sink = self.service.last_sink or self.sink
        self.source = self.service.last_source
        for name, values in answers.items():
            self.answers.setdefault(name, []).extend(values)
        self.update_gauges()

    def update_gauges(self) -> None:
        """Refresh the windows-served / budget-spent gauges."""
        session = self.service.session
        if session is not None:
            self._served_gauge.set(session.windows_processed)
        accountant = self.service.accountant
        if accountant is not None:
            self._budget_gauge.set(accountant.spent())

    def _throttled(self):
        """This tenant's source behind its token bucket (idempotent)."""
        from repro.io.sources import _ThrottledSource

        inner = self.service._compile_source(self.source, reuse=True)
        if isinstance(inner, _ThrottledSource):
            return inner
        if self._bucket is None:
            self._bucket = TokenBucket(
                self.rate_limit,
                self.burst,
                clock=self.clock or time.monotonic,
            )
        return _ThrottledSource(
            inner, self._bucket, on_shed=self._record_shed
        )

    def _record_shed(self, index: int, row) -> None:
        """One window shed at ingress: count it, surface it."""
        self._shed_counter.inc()
        from repro.io.sinks import StreamSink

        sink = self.service.last_sink
        if isinstance(sink, StreamSink):
            sink.shed(index, row)


def _serve_slot(
    payloads: List[Dict], max_windows: Optional[int]
) -> Dict:
    """Worker-side scattered serving: one sub-gateway per slot.

    Runs in a forked worker process.  Builds (or checkpoint-resumes)
    each assigned tenant from its shipped payload, serves one slice on
    a private event loop, and returns per-tenant state — checkpoint,
    accumulated answers, sink result — plus the slot registry's
    snapshot (every tenant's counters, shed windows included) for the
    parent gateway to absorb.
    """
    gateway = StreamGateway()
    for payload in payloads:
        spec = ServiceSpec.from_dict(payload["spec"])
        # Sessions bind their metrics at construction: build them in
        # the slot's registry, as StreamGateway.resume does.
        with use_registry(gateway.registry):
            if payload["checkpoint"] is not None:
                service = StreamService.resume(spec, payload["checkpoint"])
            else:
                service = StreamService(spec)
        gateway.add_tenant(
            payload["name"],
            service,
            max_pending=payload["max_pending"],
            rate_limit=payload["rate_limit"],
            burst=payload["burst"],
        )
        if payload["checkpoint"] is not None:
            gateway._tenants[payload["name"]].source = service.last_source
    asyncio.run(gateway.serve(max_windows=max_windows))
    tenants = {}
    for name in gateway.tenant_names:
        tenant = gateway._tenants[name]
        tenants[name] = {
            "checkpoint": tenant.service.checkpoint(),
            "answers": tenant.answers,
            "sink_result": gateway.sink_result(name),
        }
    return {"tenants": tenants, "metrics": gateway.registry.snapshot()}


class StreamGateway:
    """Serve many named ``ServiceSpec`` pipelines on one asyncio loop."""

    def __init__(self, *, registry: Optional[MetricsRegistry] = None):
        self._tenants: Dict[str, _Tenant] = {}
        # Each gateway owns its registry by default so two fleets (or
        # two tests) never mix per-tenant series; pass a shared
        # registry — e.g. the process default — to aggregate instead.
        self._registry = (
            registry if registry is not None else MetricsRegistry()
        )

    @property
    def registry(self) -> MetricsRegistry:
        """The fleet's metrics registry (per-tenant series live here)."""
        return self._registry

    # -- tenancy -------------------------------------------------------

    def add_tenant(
        self,
        name: Union[str, TenantSpec],
        spec: Union[ServiceSpec, TenantSpec, Mapping, str, None] = None,
        *,
        source=None,
        sink=None,
        history=None,
        max_pending: int = 1024,
        rate_limit: Optional[float] = None,
        burst: Optional[float] = None,
        clock=None,
    ) -> StreamService:
        """Register one named pipeline; returns its compiled service.

        ``spec`` may be a :class:`ServiceSpec` (or its dict/JSON
        form), a live :class:`StreamService`, or a
        :class:`~repro.service.spec.TenantSpec` carrying the tenancy
        knobs (name, seed, budget, rate limit) as data — a bare
        ``add_tenant(tenant_spec)`` works too.  ``source``/``sink``
        override the spec's own connector fields (that is how live
        queues and callbacks — payloads JSON cannot carry — ride in).
        ``max_pending`` bounds the tenant's session as in
        :meth:`StreamService.pump`: that many windows may queue, and a
        block holds what the source has ready up to that many — a file
        tenant serves whole ``max_pending`` blocks, a live feed what
        has arrived.  Tenants interleave block by block, so a bulk
        tenant delays a live one by a block or two, never by its whole
        stream.
        ``rate_limit`` (windows/second) arms a :class:`TokenBucket`
        with ``burst`` capacity at this tenant's ingress; excess
        windows are shed, counted, and surfaced — see
        :meth:`shed_windows`.  ``clock`` injects a deterministic
        clock for the bucket (tests).  Each tenant's spec needs its
        own ``seed``; isolation is only meaningful when tenants do
        not share randomness by accident.
        """
        if isinstance(name, TenantSpec):
            if spec is not None:
                raise TypeError(
                    "add_tenant(TenantSpec) carries its own name and "
                    "spec; drop the second argument"
                )
            name, spec = name.name, name
        if isinstance(spec, TenantSpec):
            if name != spec.name:
                raise ValueError(
                    f"tenant name {name!r} does not match "
                    f"TenantSpec.name {spec.name!r}"
                )
            if rate_limit is None:
                rate_limit = spec.rate_limit
                if burst is None:
                    burst = spec.burst
            spec = spec.resolved_spec()
        if not isinstance(name, str) or not name:
            raise ValueError("tenant name must be a non-empty string")
        if name in self._tenants:
            raise ValueError(f"tenant {name!r} already registered")
        if rate_limit is not None:
            check_positive("rate_limit", rate_limit)
        if burst is not None:
            if rate_limit is None:
                raise ValueError(
                    f"tenant {name!r} sets burst without rate_limit; "
                    "burst is the token-bucket capacity of a rate "
                    "limit"
                )
            check_positive("burst", burst)
        service = (
            spec if isinstance(spec, StreamService)
            else StreamService(spec, history=history)
        )
        if source is None and service.spec.source is None:
            raise ValueError(
                f"tenant {name!r} has no source: declare source= on "
                "the spec or pass source= here"
            )
        self._tenants[name] = _Tenant(
            name,
            service,
            registry=self._registry,
            source=source,
            sink=sink,
            max_pending=max_pending,
            rate_limit=rate_limit,
            burst=burst,
            clock=clock,
        )
        return service

    @classmethod
    def from_json(cls, document: Union[str, Mapping]) -> "StreamGateway":
        """Build a whole fleet from one JSON document.

        ``document`` is a JSON string (or pre-parsed mapping) of the
        form ``{"format": 1, "tenants": [<TenantSpec.to_dict()>,
        ...]}`` — every tenant fully declarative, so the document plus
        the seeds inside it reproduces the fleet bit-identically.
        """
        data = json.loads(document) if isinstance(document, str) else document
        if not isinstance(data, Mapping):
            raise TypeError(
                f"gateway document must be a JSON object, got "
                f"{type(data).__name__}"
            )
        version = data.get("format", 1)
        if version != 1:
            raise ValueError(
                f"unsupported gateway document format {version!r}"
            )
        unknown = sorted(set(data) - {"format", "tenants"})
        if unknown:
            raise ValueError(
                f"gateway document has unknown fields {unknown}; "
                "known fields: format, tenants"
            )
        tenants = data.get("tenants")
        if not isinstance(tenants, Sequence) or isinstance(
            tenants, (str, bytes)
        ):
            raise TypeError(
                "gateway document needs a 'tenants' list of tenant "
                "specs"
            )
        gateway = cls()
        for item in tenants:
            tenant = (
                item
                if isinstance(item, TenantSpec)
                else TenantSpec.from_dict(item)
            )
            gateway.add_tenant(tenant)
        return gateway

    @property
    def tenant_names(self) -> List[str]:
        """Registered tenant names, in registration order."""
        return list(self._tenants)

    def service(self, name: str) -> StreamService:
        """The compiled service of one tenant."""
        return self._tenant(name).service

    def sink_result(self, name: str):
        """What one tenant's sink accumulated so far (``None`` without
        a sink).  After :meth:`serve_scattered`, the sink lived in the
        worker process; its shipped-back result is returned here."""
        tenant = self._tenant(name)
        from repro.io.sinks import StreamSink

        if isinstance(tenant.sink, StreamSink):
            return tenant.sink.result()
        if tenant._scattered_sink_result is not None:
            return tenant._scattered_sink_result
        return None

    def _tenant(self, name: str) -> _Tenant:
        try:
            return self._tenants[name]
        except KeyError:
            raise KeyError(
                f"unknown tenant {name!r}; registered: "
                f"{list(self._tenants)}"
            ) from None

    # -- serving -------------------------------------------------------

    async def serve(self, *, max_windows: Optional[int] = None) -> None:
        """Pump every tenant concurrently on the running loop.

        Each tenant draws from its own source through its own bounded
        session into its own sink; ``max_windows`` caps the windows
        served *per tenant* this call (leaving sources mid-stream for
        a later :meth:`serve` or :meth:`checkpoint`).  A tenant
        failure cancels the others' current slice and re-raises.
        """
        if not self._tenants:
            raise RuntimeError("no tenants registered; add_tenant() first")
        # Sessions bind their metrics to the default registry when they
        # are (re)built inside pump; scoping the slice routes every
        # tenant's telemetry into this gateway's checkpointable
        # registry instead of the process-global one.
        with use_registry(self._registry):
            tasks = [
                asyncio.ensure_future(tenant.serve(max_windows))
                for tenant in self._tenants.values()
            ]
            try:
                await asyncio.gather(*tasks)
            finally:
                for task in tasks:
                    if not task.done():
                        task.cancel()
                await asyncio.gather(*tasks, return_exceptions=True)

    def run(self, *, max_windows: Optional[int] = None) -> Dict:
        """Serve every tenant to completion on a fresh event loop."""
        asyncio.run(self.serve(max_windows=max_windows))
        return self.results()

    def serve_scattered(
        self, *, slots: int = 2, max_windows: Optional[int] = None
    ) -> Dict:
        """Serve the fleet spread across forked worker processes.

        A :class:`TenantScheduler` round-robins the tenants over at
        most ``slots`` worker processes; each worker rebuilds its
        group from shipped specs/checkpoints, serves one slice on its
        own event loop, and returns per-tenant checkpoints and answers
        plus its metrics registry's snapshot.  The parent absorbs them
        — resuming each tenant's service from the returned checkpoint
        and merging the slot's counters (session, pump and shed
        windows) into the fleet registry — so after this
        call the gateway is in exactly the state a local
        :meth:`serve` slice would have left it in, and may continue
        serving locally or scattered.  Per-tenant randomness makes
        the answers bit-identical to local serving.

        Requires fully declarative tenants (connectors on the spec,
        no runtime source/sink/clock objects) so the work can cross
        the process boundary.  In-memory sink aggregates are returned
        per scattered call (see :meth:`sink_result`); file sinks
        append in the workers as usual.
        """
        if not self._tenants:
            raise RuntimeError("no tenants registered; add_tenant() first")
        payloads = {}
        for name, tenant in self._tenants.items():
            if not tenant.declarative or tenant.clock is not None:
                raise ValueError(
                    f"tenant {name!r} carries runtime connector "
                    "objects; scattered serving needs fully "
                    "declarative tenants (declare source=/sink= on "
                    "the spec)"
                )
            payloads[name] = {
                "name": name,
                "spec": tenant.service.spec.to_dict(),
                "checkpoint": (
                    tenant.service.checkpoint()
                    if tenant.service.session is not None
                    else None
                ),
                "rate_limit": tenant.rate_limit,
                "burst": tenant.burst,
                "max_pending": tenant.max_pending,
            }
        groups = TenantScheduler(slots).assign(list(self._tenants))
        # Fork keeps worker startup cheap and inherits the registries;
        # spawn-only platforms fall back to their default context.
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        context = multiprocessing.get_context(method)
        with ProcessPoolExecutor(
            max_workers=len(groups), mp_context=context
        ) as pool:
            futures = [
                pool.submit(
                    _serve_slot,
                    [payloads[name] for name in group],
                    max_windows,
                )
                for group in groups
            ]
            slot_states = [future.result() for future in futures]
        for slot in slot_states:
            # The slot's counters are this slice's deltas: they add to
            # the fleet's, exactly as a local slice would have.
            self._registry.merge_snapshot(slot["metrics"])
            for name, state in slot["tenants"].items():
                tenant = self._tenants[name]
                spec = ServiceSpec.from_dict(state["checkpoint"]["spec"])
                with use_registry(self._registry):
                    tenant.service = StreamService.resume(
                        spec, state["checkpoint"]
                    )
                tenant.source = tenant.service.last_source
                tenant._scattered_sink_result = state["sink_result"]
                for query, values in state["answers"].items():
                    tenant.answers.setdefault(query, []).extend(values)
                tenant.update_gauges()
        return self.results()

    def results(self) -> Dict[str, Dict[str, List[bool]]]:
        """Per-tenant, per-query answers accumulated so far."""
        return {
            name: {
                query: list(values)
                for query, values in tenant.answers.items()
            }
            for name, tenant in self._tenants.items()
        }

    def windows_served(self) -> Dict[str, int]:
        """Per-tenant windows answered so far."""
        return {
            name: tenant.service.session.windows_processed
            if tenant.service.session is not None
            else 0
            for name, tenant in self._tenants.items()
        }

    def shed_windows(self) -> Dict[str, int]:
        """Per-tenant windows shed by rate limiting so far.

        A shed window was consumed from the tenant's source but never
        perturbed or answered — its loss is deliberate load-shedding,
        surfaced here and in the tenant's metrics sink, never silent.
        """
        return {
            name: tenant.shed for name, tenant in self._tenants.items()
        }

    # -- checkpoint / resume -------------------------------------------

    def checkpoint(self) -> Dict:
        """One picklable checkpoint of the whole fleet.

        Per tenant: the spec, the session's full release state and the
        in-flight source offset (see
        :meth:`StreamService.checkpoint`), plus any rate-limit
        configuration (bucket *configuration*, not its transient
        token level).  Sessions must be quiescent — between
        :meth:`serve` slices they always are.
        """
        tenants = {}
        for name, tenant in self._tenants.items():
            if tenant.service.session is None:
                raise RuntimeError(
                    f"tenant {name!r} has no open session to "
                    "checkpoint; serve() at least one slice first"
                )
            tenant.update_gauges()
            tenants[name] = tenant.service.checkpoint()
        self._registry.counter(
            "repro_gateway_checkpoints_total",
            "Fleet checkpoints taken by this gateway lineage.",
        ).inc()
        checkpoint = {
            "format": 1,
            "tenants": tenants,
            # The fleet's counters ride along so a resumed gateway
            # continues them monotonically instead of starting at zero.
            "metrics": self._registry.snapshot(),
        }
        limits = {
            name: {
                "rate_limit": tenant.rate_limit,
                "burst": tenant.burst,
            }
            for name, tenant in self._tenants.items()
            if tenant.rate_limit is not None
        }
        if limits:
            checkpoint["rate_limits"] = limits
        return checkpoint

    @classmethod
    def resume(
        cls,
        checkpoint: Mapping,
        *,
        sources: Optional[Mapping] = None,
        sinks: Optional[Mapping] = None,
        histories: Optional[Mapping] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> "StreamGateway":
        """Rebuild a gateway mid-stream from a :meth:`checkpoint`.

        Every tenant's service is rebuilt from its recorded spec, its
        session restored, its source re-resolved and skipped to the
        checkpointed offset, and its rate limiter re-armed from the
        recorded configuration.  ``sources``/``sinks`` map tenant
        names to replacement connector objects for payloads JSON
        cannot carry (live queues, callbacks); file sinks are reopened
        in append mode by the next :meth:`serve`.
        """
        sources = dict(sources or {})
        sinks = dict(sinks or {})
        histories = dict(histories or {})
        rate_limits = checkpoint.get("rate_limits", {})
        gateway = cls(registry=registry)
        # Fold the pre-crash fleet's counters in first, so the tenant
        # counter views created below continue where the checkpointed
        # run left off (pre-obs checkpoints simply carry no section).
        gateway._registry.merge_snapshot(checkpoint.get("metrics"))
        gateway._registry.counter(
            "repro_gateway_resumes_total",
            "Times this gateway lineage was resumed from a checkpoint.",
        ).inc()
        for name, tenant_checkpoint in checkpoint["tenants"].items():
            spec = ServiceSpec.from_dict(tenant_checkpoint["spec"])
            # Session restore rebuilds the session eagerly, which binds
            # its latency histogram to the default registry — scope it
            # to this gateway's registry so the series resumed from the
            # checkpoint keeps growing in the same ledger.
            with use_registry(gateway._registry):
                service = StreamService.resume(
                    spec,
                    tenant_checkpoint,
                    history=histories.get(name),
                    source=sources.get(name),
                )
            limits = rate_limits.get(name) or {}
            # A sync-session tenant's checkpoint carries no options.
            options = tenant_checkpoint.get("session_options") or {}
            tenant = _Tenant(
                name,
                service,
                registry=gateway._registry,
                source=service.last_source,
                sink=sinks.get(name),
                max_pending=options.get("max_pending", 1024),
                rate_limit=limits.get("rate_limit"),
                burst=limits.get("burst"),
            )
            # Connector objects passed here are runtime payloads: the
            # tenant can no longer cross a process boundary.
            tenant.declarative = (
                name not in sources and name not in sinks
            )
            # Fail the resume itself — not the first serve — when a
            # live source came back without a feed: the fix (pass
            # sources={name: ...}) belongs to this call.
            resumed_source = service.last_source
            if resumed_source is not None and not (
                resumed_source.live_feed_bound
            ):
                raise RuntimeError(
                    f"cannot resume tenant {name!r}: its live source "
                    f"{spec.source!r} has no feed bound — a live feed "
                    "does not survive a checkpoint; pass a connected "
                    "source via sources={" + repr(name) + ": ...}"
                )
            gateway._tenants[name] = tenant
        return gateway
