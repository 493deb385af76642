"""The declarative service API: ``ServiceSpec`` → ``StreamService``.

One way to stand up the paper's service phase (Section III-A, Fig. 2):
describe the run as data — alphabet, private patterns, queries, a
mechanism spec, an executor spec, accounting, quality, seed — in a
frozen, JSON-serializable :class:`ServiceSpec`, then compile it with
``spec.build()`` (or ``StreamService(spec)``) and drive the full
lifecycle from the resulting :class:`StreamService`: batch runs,
push-based and async sessions, checkpoint/resume, and evaluation
sweeps.

Mechanisms and executors are chosen by *registered string specs*
(``"uniform-ppm"``, ``"cluster:workers=8"``, ...); third-party backends
hook in through :func:`register_mechanism` / :func:`register_executor`
without touching core.  Runs are reproducible from a JSON blob plus a
seed, bit-identical to a directly built ``CEPEngine`` under the same
seed.

Ingestion and egress are declarative too: ``source=``/``sink=`` fields
name registered I/O connectors (:mod:`repro.io` — streamed files,
synthetic generators, replays, live queues; file/metrics/callback
sinks), and :class:`StreamGateway` serves many named specs over one
asyncio loop with per-tenant isolation and fleet-wide
checkpoint/resume of sessions *and* in-flight source offsets.
"""

from repro.service.registry import (
    MechanismContext,
    UnknownSpecError,
    build_executor_from_spec,
    build_mechanism_from_spec,
    parse_spec,
    register_executor,
    register_mechanism,
    registered_executors,
    registered_mechanisms,
)
from repro.service.spec import (
    PatternSpec,
    QualitySpec,
    QuerySpec,
    ServiceSpec,
    TenantSpec,
)
from repro.service.service import StreamService
from repro.service.gateway import StreamGateway

__all__ = [
    "MechanismContext",
    "PatternSpec",
    "QualitySpec",
    "QuerySpec",
    "ServiceSpec",
    "StreamGateway",
    "StreamService",
    "TenantSpec",
    "UnknownSpecError",
    "build_executor_from_spec",
    "build_mechanism_from_spec",
    "parse_spec",
    "register_executor",
    "register_mechanism",
    "registered_executors",
    "registered_mechanisms",
]
