"""The declarative service description: one frozen, serializable spec.

The paper's service phase (Section III-A, Fig. 2) is a single
configurable pipeline — events, windows, indicators, PPM perturbation,
matching, metrics.  A :class:`ServiceSpec` describes one such pipeline
*as data*: the alphabet, the data subjects' private patterns, the data
consumers' queries and quality requirement, plus registered string
specs choosing the mechanism and the executor.  Specs round-trip
through JSON (``spec.to_json()`` / ``ServiceSpec.from_json()``), so a
run is reproducible from a JSON blob plus a seed — bit-identical to a
directly built ``CEPEngine`` under the same seed (a spec compiles into
one ``CEPEngine(alphabet, patterns=, queries=, quality=, mechanism=,
accounting=)`` call).

>>> spec = ServiceSpec(
...     alphabet=("e1", "e2", "e3", "e4"),
...     patterns=[("private", ("e1", "e2"))],
...     queries=[("q", ("e2", "e3"))],
...     mechanism="uniform-ppm",
...     mechanism_options={"epsilon": 2.0},
...     executor="sharded:workers=4",
...     seed=7,
... )
>>> service = spec.build()          # a StreamService
>>> report = service.run(events)    # the full service phase
"""

from __future__ import annotations

import json

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.cep.engine import QualityRequirement
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery
from repro.streams.indicator import EventAlphabet
from repro.utils.validation import check_positive

__all__ = [
    "PatternSpec",
    "QuerySpec",
    "QualitySpec",
    "ServiceSpec",
    "TenantSpec",
]

#: Declarative window-assigner kinds accepted by ``ServiceSpec.window``
#: and their positional parameters (see :mod:`repro.streams.windows`).
_WINDOW_KINDS = {
    "tumbling": ("width",),
    "sliding": ("width", "slide"),
    "count": ("size",),
    "session": ("gap",),
}


@dataclass(frozen=True)
class PatternSpec:
    """A sequential pattern ``P = seq(e_1, ..., e_m)`` as plain data."""

    name: str
    elements: Tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("pattern name must be a non-empty string")
        elements = tuple(self.elements)
        if not elements or not all(
            isinstance(element, str) and element for element in elements
        ):
            raise ValueError(
                f"pattern {self.name!r} needs a non-empty tuple of "
                "event-type strings"
            )
        object.__setattr__(self, "elements", elements)

    def to_pattern(self) -> Pattern:
        """The equivalent :class:`~repro.cep.patterns.Pattern`."""
        return Pattern.of_types(self.name, *self.elements)

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "elements": list(self.elements)}


@dataclass(frozen=True)
class QuerySpec:
    """A continuous target-pattern query as plain data."""

    name: str
    pattern: PatternSpec
    within: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("query name must be a non-empty string")
        if not isinstance(self.pattern, PatternSpec):
            raise TypeError(
                f"query pattern must be a PatternSpec, got "
                f"{type(self.pattern).__name__}"
            )
        if self.within is not None and self.within <= 0:
            raise ValueError(f"within must be positive, got {self.within}")

    def to_query(self) -> ContinuousQuery:
        """The equivalent :class:`~repro.cep.queries.ContinuousQuery`."""
        return ContinuousQuery(
            self.name, self.pattern.to_pattern(), within=self.within
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "pattern": self.pattern.to_dict(),
            "within": self.within,
        }


@dataclass(frozen=True)
class QualitySpec:
    """The consumers' quality requirement (Section III-B) as data."""

    alpha: float = 0.5
    max_mre: Optional[float] = None

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.max_mre is not None and self.max_mre < 0:
            raise ValueError(f"max_mre must be >= 0, got {self.max_mre}")

    def to_requirement(self) -> QualityRequirement:
        return QualityRequirement(alpha=self.alpha, max_mre=self.max_mre)

    def to_dict(self) -> Dict[str, Any]:
        return {"alpha": self.alpha, "max_mre": self.max_mre}


def _as_pattern_spec(value) -> PatternSpec:
    if isinstance(value, PatternSpec):
        return value
    if isinstance(value, Pattern):
        if value.elements is None:
            raise ValueError(
                f"pattern {value.name!r} has no element list; the "
                "declarative spec takes seq-of-types patterns "
                "(Pattern.of_types) or explicit (name, elements) pairs"
            )
        return PatternSpec(value.name, tuple(value.elements))
    if isinstance(value, Mapping):
        return PatternSpec(value["name"], tuple(value["elements"]))
    if isinstance(value, (tuple, list)) and len(value) == 2:
        name, elements = value
        if isinstance(elements, str):
            elements = (elements,)
        return PatternSpec(name, tuple(elements))
    raise TypeError(
        "patterns take Pattern objects, PatternSpec, (name, elements) "
        f"pairs or dicts; got {type(value).__name__}"
    )


def _as_query_spec(value) -> QuerySpec:
    if isinstance(value, QuerySpec):
        return value
    if isinstance(value, ContinuousQuery):
        return QuerySpec(
            value.name, _as_pattern_spec(value.pattern), within=value.within
        )
    if isinstance(value, Mapping):
        return QuerySpec(
            value["name"],
            _as_pattern_spec(value["pattern"]),
            within=value.get("within"),
        )
    if isinstance(value, (tuple, list)) and len(value) in (2, 3):
        name, elements = value[0], value[1]
        within = value[2] if len(value) == 3 else None
        if isinstance(elements, (Pattern, PatternSpec, Mapping)):
            pattern = _as_pattern_spec(elements)
        else:
            if isinstance(elements, str):
                elements = (elements,)
            pattern = PatternSpec(name, tuple(elements))
        return QuerySpec(name, pattern, within=within)
    raise TypeError(
        "queries take ContinuousQuery objects, QuerySpec, "
        "(name, elements[, within]) tuples or dicts; got "
        f"{type(value).__name__}"
    )


def _as_quality_spec(value) -> QualitySpec:
    if value is None:
        return QualitySpec()
    if isinstance(value, QualitySpec):
        return value
    if isinstance(value, QualityRequirement):
        return QualitySpec(alpha=value.alpha, max_mre=value.max_mre)
    if isinstance(value, Mapping):
        return QualitySpec(
            alpha=value.get("alpha", 0.5), max_mre=value.get("max_mre")
        )
    if isinstance(value, (int, float)):
        return QualitySpec(alpha=float(value))
    if isinstance(value, (tuple, list)) and len(value) == 2:
        return QualitySpec(alpha=value[0], max_mre=value[1])
    raise TypeError(
        "quality takes a QualitySpec, QualityRequirement, alpha float, "
        f"(alpha, max_mre) pair or dict; got {type(value).__name__}"
    )


def _jsonish(value, *, where: str):
    """Normalize option values to their JSON-stable form.

    Tuples become lists and numpy scalars/arrays become plain Python, so
    a spec equals its own JSON round-trip; values JSON cannot carry are
    rejected up front with a pointed error.
    """
    import numpy as np

    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonish(item, where=where) for item in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonish(item, where=where) for item in value]
    if isinstance(value, Mapping):
        return {
            str(key): _jsonish(item, where=where)
            for key, item in value.items()
        }
    raise TypeError(
        f"{where} must be JSON-serializable (str/number/bool/None/"
        f"list/dict); got {type(value).__name__}"
    )


@dataclass(frozen=True)
class ServiceSpec:
    """A complete, validated description of one private stream service.

    The one declarative entry point of the library: everything the
    setup phase configures a :class:`~repro.cep.engine.CEPEngine` with
    — private patterns, queries, mechanism, accounting, quality
    requirement — plus the executor choice, expressed as data.  Instances are frozen and validated at
    construction; mechanisms and executors are named by registered
    string specs (see :mod:`repro.service.registry`), so unknown names
    fail fast with the registered alternatives listed.

    Attributes
    ----------
    alphabet:
        The event-type universe (accepts an
        :class:`~repro.streams.indicator.EventAlphabet` or strings).
    patterns:
        Private patterns (accepts :class:`~repro.cep.patterns.Pattern`
        objects, ``(name, elements)`` pairs, or dicts).
    queries:
        Continuous target queries (accepts
        :class:`~repro.cep.queries.ContinuousQuery`,
        ``(name, elements[, within])`` tuples, or dicts).
    mechanism:
        Registered mechanism spec (``"uniform-ppm"``, ``"adaptive-ppm"``,
        ``"bd"``, ``"ba"``, ``"landmark"``, ``"event-rr"``,
        ``"user-rr"``, or a plugin's name); ``None`` runs unprotected.
    mechanism_options:
        Keyword options for the mechanism factory (e.g.
        ``{"epsilon": 2.0}``), checked at construction against the
        keys the mechanism's spec string accepts.
    executor:
        Registered executor spec (``"batch"``, ``"sharded:workers=4"``,
        ``"cluster:workers=8"``, or a plugin's name).
    executor_options:
        Keyword options for the executor factory.
    source:
        Registered source connector spec naming where windows come
        from (``"csv:<path>"``, ``"jsonl:<path>"``,
        ``"synthetic:generator=bernoulli,windows=500,seed=3"``,
        ``"replay:<path>:<rate>"``, ``"queue"``, ``"memory"``; see
        :mod:`repro.io`).  ``None`` (the default) keeps today's
        behavior: data is passed to ``run()``/sessions directly.
    source_options:
        Keyword options for the source factory.
    sink:
        Registered sink connector spec naming where the released
        stream and answers go (``"csv:<path>"``, ``"jsonl:<path>"``,
        ``"metrics"``, ``"memory"``, ``"callback"``).  ``None`` (the
        default) egresses nothing beyond the returned report.
    sink_options:
        Keyword options for the sink factory.
    accounting:
        Total service budget; when set, the built engine refuses runs
        whose cumulative spend would exceed it.
    quality:
        The consumers' quality requirement (``alpha`` /``max_mre``).
    window:
        Declarative window assigner for raw event streams:
        ``"tumbling:10"``, ``"sliding:10:5"``, ``"count:25"``,
        ``"session:3"`` (``None`` when the service is fed indicators).
    seed:
        Default randomness seed; the same spec JSON plus the same seed
        reproduces a run bit for bit.
    """

    alphabet: Tuple[str, ...] = ()
    patterns: Tuple[PatternSpec, ...] = ()
    queries: Tuple[QuerySpec, ...] = ()
    mechanism: Optional[str] = None
    mechanism_options: Mapping = field(default_factory=dict)
    executor: str = "batch"
    executor_options: Mapping = field(default_factory=dict)
    source: Optional[str] = None
    source_options: Mapping = field(default_factory=dict)
    sink: Optional[str] = None
    sink_options: Mapping = field(default_factory=dict)
    accounting: Optional[float] = None
    quality: QualitySpec = field(default_factory=QualitySpec)
    window: Optional[str] = None
    seed: Optional[int] = None

    def __post_init__(self):
        from repro.service.registry import (
            validate_executor_spec,
            validate_mechanism_options,
            validate_mechanism_spec,
        )

        alphabet = self.alphabet
        if isinstance(alphabet, EventAlphabet):
            alphabet = alphabet.types
        if isinstance(alphabet, str):
            alphabet = (alphabet,)
        object.__setattr__(self, "alphabet", tuple(alphabet))
        # EventAlphabet validates non-emptiness, types and uniqueness.
        compiled_alphabet = EventAlphabet(self.alphabet)

        object.__setattr__(
            self,
            "patterns",
            tuple(_as_pattern_spec(pattern) for pattern in self.patterns),
        )
        object.__setattr__(
            self,
            "queries",
            tuple(_as_query_spec(query) for query in self.queries),
        )
        names = [pattern.name for pattern in self.patterns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate private pattern names: {names}")
        names = [query.name for query in self.queries]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate query names: {names}")
        for pattern in self.patterns + tuple(
            query.pattern for query in self.queries
        ):
            missing = [
                element
                for element in pattern.elements
                if element not in compiled_alphabet
            ]
            if missing:
                raise ValueError(
                    f"pattern {pattern.name!r} uses event types {missing} "
                    "absent from the spec alphabet"
                )

        if self.mechanism is not None:
            validate_mechanism_spec(self.mechanism)
        object.__setattr__(
            self,
            "mechanism_options",
            _jsonish(dict(self.mechanism_options), where="mechanism_options"),
        )
        if self.mechanism is not None:
            validate_mechanism_options(self.mechanism, self.mechanism_options)
        validate_executor_spec(self.executor)
        object.__setattr__(
            self,
            "executor_options",
            _jsonish(dict(self.executor_options), where="executor_options"),
        )

        from repro.io.registry import (
            validate_sink_spec,
            validate_source_spec,
        )

        if self.source is not None:
            validate_source_spec(self.source)
        object.__setattr__(
            self,
            "source_options",
            _jsonish(dict(self.source_options), where="source_options"),
        )
        if self.sink is not None:
            validate_sink_spec(self.sink)
        object.__setattr__(
            self,
            "sink_options",
            _jsonish(dict(self.sink_options), where="sink_options"),
        )

        if self.accounting is not None:
            check_positive("accounting", self.accounting, allow_inf=True)
        object.__setattr__(self, "quality", _as_quality_spec(self.quality))
        if self.window is not None:
            self._parse_window(self.window)
        if self.seed is not None:
            import numpy as np

            if isinstance(self.seed, np.integer):
                object.__setattr__(self, "seed", int(self.seed))
            if isinstance(self.seed, bool) or not isinstance(
                self.seed, int
            ):
                raise TypeError(
                    f"seed must be an int or None, got "
                    f"{type(self.seed).__name__}"
                )

    # -- window grammar ------------------------------------------------

    @staticmethod
    def _parse_window(spec: str):
        from repro.service.registry import parse_spec

        kind, args = parse_spec(spec)
        if kind not in _WINDOW_KINDS:
            raise ValueError(
                f"unknown window spec {kind!r}; known window kinds: "
                f"{', '.join(sorted(_WINDOW_KINDS))}"
            )
        expected = _WINDOW_KINDS[kind]
        if len(args) != len(expected) or not all(
            isinstance(argument, (int, float)) for argument in args
        ):
            raise ValueError(
                f"window spec {spec!r} must be "
                f"{kind}:{':'.join('<%s>' % name for name in expected)}"
            )
        return kind, args

    def window_assigner(self):
        """The window assigner the ``window`` spec describes.

        ``None`` when no windowing is declared (indicator input only).
        """
        if self.window is None:
            return None
        kind, args = self._parse_window(self.window)
        from repro.streams import windows

        if kind == "tumbling":
            return windows.TumblingWindows(float(args[0]), emit_empty=True)
        if kind == "sliding":
            return windows.SlidingWindows(float(args[0]), float(args[1]))
        if kind == "count":
            return windows.CountWindows(int(args[0]))
        return windows.SessionWindows(float(args[0]))

    # -- compiled views ------------------------------------------------

    def event_alphabet(self) -> EventAlphabet:
        """The compiled :class:`~repro.streams.indicator.EventAlphabet`."""
        return EventAlphabet(self.alphabet)

    def pattern_objects(self) -> Tuple[Pattern, ...]:
        """The private patterns as :class:`Pattern` objects."""
        return tuple(pattern.to_pattern() for pattern in self.patterns)

    def query_objects(self) -> Tuple[ContinuousQuery, ...]:
        """The queries as :class:`ContinuousQuery` objects."""
        return tuple(query.to_query() for query in self.queries)

    def build(self, *, history=None):
        """Compile this spec into a :class:`~repro.service.StreamService`.

        ``history`` supplies the historical indicator windows data-driven
        mechanisms fit on (``"adaptive-ppm"``); purely configured
        mechanisms ignore it.
        """
        from repro.service.service import StreamService

        return StreamService(self, history=history)

    def with_(self, **changes) -> "ServiceSpec":
        """A copy of this spec with the given fields replaced."""
        return replace(self, **changes)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict fully describing this spec."""
        return {
            "format": 1,
            "alphabet": list(self.alphabet),
            "patterns": [pattern.to_dict() for pattern in self.patterns],
            "queries": [query.to_dict() for query in self.queries],
            "mechanism": self.mechanism,
            "mechanism_options": dict(self.mechanism_options),
            "executor": self.executor,
            "executor_options": dict(self.executor_options),
            "source": self.source,
            "source_options": dict(self.source_options),
            "sink": self.sink,
            "sink_options": dict(self.sink_options),
            "accounting": self.accounting,
            "quality": self.quality.to_dict(),
            "window": self.window,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ServiceSpec":
        """Rebuild a spec from :meth:`to_dict` output (validates anew)."""
        if not isinstance(data, Mapping):
            raise TypeError(
                f"spec dict must be a mapping, got {type(data).__name__}"
            )
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(data) - known - {"format"})
        if unknown:
            raise ValueError(
                f"spec dict has unknown fields {unknown}; known fields: "
                f"{', '.join(sorted(known))}"
            )
        kwargs = {key: value for key, value in data.items() if key in known}
        return cls(**kwargs)

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """This spec as a JSON document (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, document: str) -> "ServiceSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(document))


@dataclass(frozen=True)
class TenantSpec:
    """One gateway tenant as data: a named, budgeted, rate-limited spec.

    A :class:`~repro.service.gateway.StreamGateway` fleet is a list of
    these — each names a :class:`ServiceSpec` pipeline and the tenancy
    knobs the gateway applies around it: the tenant's own ``seed`` and
    privacy ``budget`` (overriding the service spec's ``seed`` /
    ``accounting`` fields, so one shared pipeline spec can serve many
    isolated tenants), plus an ingress ``rate_limit`` (windows per
    second, token bucket with optional ``burst`` capacity) beyond which
    windows are *shed* — dropped before perturbation, counted, and
    surfaced in the tenant's metrics rather than silently lost.

    Like :class:`ServiceSpec`, a tenant spec is frozen and round-trips
    through JSON, so a whole fleet is constructible from one JSON
    document (:meth:`StreamGateway.from_json`).
    """

    name: str
    service: ServiceSpec
    seed: Optional[int] = None
    budget: Optional[float] = None
    rate_limit: Optional[float] = None
    burst: Optional[float] = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("tenant name must be a non-empty string")
        service = self.service
        if isinstance(service, str):
            service = ServiceSpec.from_json(service)
        elif isinstance(service, Mapping):
            service = ServiceSpec.from_dict(service)
        if not isinstance(service, ServiceSpec):
            raise TypeError(
                f"tenant {self.name!r} service must be a ServiceSpec "
                f"(or its dict/JSON form), got {type(service).__name__}"
            )
        object.__setattr__(self, "service", service)
        if self.seed is not None:
            import numpy as np

            if isinstance(self.seed, np.integer):
                object.__setattr__(self, "seed", int(self.seed))
            if isinstance(self.seed, bool) or not isinstance(
                self.seed, int
            ):
                raise TypeError(
                    f"seed must be an int or None, got "
                    f"{type(self.seed).__name__}"
                )
        if self.budget is not None:
            check_positive("budget", self.budget, allow_inf=True)
            object.__setattr__(self, "budget", float(self.budget))
        if self.rate_limit is not None:
            check_positive("rate_limit", self.rate_limit)
            object.__setattr__(self, "rate_limit", float(self.rate_limit))
        if self.burst is not None:
            if self.rate_limit is None:
                raise ValueError(
                    f"tenant {self.name!r} sets burst without "
                    "rate_limit; burst is the token-bucket capacity of "
                    "a rate limit"
                )
            check_positive("burst", self.burst)
            object.__setattr__(self, "burst", float(self.burst))

    def resolved_spec(self) -> ServiceSpec:
        """The service spec with this tenant's seed/budget applied."""
        spec = self.service
        changes = {}
        if self.seed is not None:
            changes["seed"] = self.seed
        if self.budget is not None:
            changes["accounting"] = self.budget
        return spec.with_(**changes) if changes else spec

    def with_(self, **changes) -> "TenantSpec":
        """A copy of this tenant spec with the given fields replaced."""
        return replace(self, **changes)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict fully describing this tenant."""
        return {
            "format": 1,
            "name": self.name,
            "service": self.service.to_dict(),
            "seed": self.seed,
            "budget": self.budget,
            "rate_limit": self.rate_limit,
            "burst": self.burst,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "TenantSpec":
        """Rebuild a tenant spec from :meth:`to_dict` output."""
        if not isinstance(data, Mapping):
            raise TypeError(
                f"tenant dict must be a mapping, got "
                f"{type(data).__name__}"
            )
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(data) - known - {"format"})
        if unknown:
            raise ValueError(
                f"tenant dict has unknown fields {unknown}; known "
                f"fields: {', '.join(sorted(known))}"
            )
        kwargs = {key: value for key, value in data.items() if key in known}
        return cls(**kwargs)

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """This tenant spec as a JSON document (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, document: str) -> "TenantSpec":
        """Rebuild a tenant spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(document))
