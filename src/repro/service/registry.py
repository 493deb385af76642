"""Plugin registries resolving string specs to mechanisms and executors.

The declarative service API names its components by *spec strings*:
``mechanism="uniform-ppm"``,
``executor="cluster:workers=8,transport=shm"``.  A spec string is a
registered name optionally followed by ``key=value`` arguments (the
shared grammar in :mod:`repro.service.specgrammar`, also used by the
source/sink registry); keyword options ride along separately
(:attr:`~repro.service.spec.ServiceSpec.mechanism_options` /
``executor_options``).  Only mechanism specs also take positional
arguments (``"bd:0.5"``, colon-separated and coerced to
``int``/``float``); a positional executor tail such as
``"sharded:thread:8"`` is an error listing the name's valid keys.

Third-party backends extend the service without touching core:

>>> from repro.service import register_executor
>>> @register_executor("my-accelerator")
... def _build(device="gpu0"):
...     '''Executor offloading perturbation to an accelerator.'''
...     return MyAcceleratorExecutor(device)

and ``ServiceSpec(executor="my-accelerator:device=gpu1", ...)`` just
works (valid keys default to the factory's keyword parameters) — this
is the hook the ROADMAP's distributed-shard and accelerator executors
plug into.

Mechanism factories receive a :class:`MechanismContext` (the spec's
alphabet, private patterns, target queries and quality weight, plus
run-time extras like the adaptive PPM's history stream) and take the
budget either natively (``epsilon=``, the mechanism's own parameter) or
as a pattern-level budget (``pattern_epsilon=``, converted per
Section VI-A.2 exactly as the experiment harness converts it — the
conversion now lives *with* each mechanism's factory instead of in the
runner's kind-dispatch).
"""

from __future__ import annotations

import inspect

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cep.patterns import Pattern
from repro.service.specgrammar import (
    SpecKey,
    check_options,
    is_kv_tail,
    kv_kwargs,
)
from repro.streams.indicator import EventAlphabet
from repro.utils.validation import check_positive

__all__ = [
    "MechanismContext",
    "UnknownSpecError",
    "build_executor_from_spec",
    "build_mechanism_from_spec",
    "mechanism_factory_accepts",
    "parse_spec",
    "register_executor",
    "register_mechanism",
    "registered_executors",
    "registered_mechanisms",
]


class UnknownSpecError(ValueError):
    """A spec string names no registered mechanism/executor."""


def parse_spec(spec: str) -> Tuple[str, Tuple[object, ...]]:
    """Split ``"name:arg1:arg2"`` into the name and coerced arguments.

    Arguments parse to ``int`` then ``float`` when possible and stay
    strings otherwise: ``"bd:0.5:10"`` → ``("bd", (0.5, 10))``.  Only
    mechanism specs (and the window grammar) take positional arguments.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"spec must be a non-empty string, got {spec!r}")
    head, *raw_args = spec.strip().split(":")
    return head, tuple(_coerce(argument) for argument in raw_args)


def _coerce(argument: str) -> object:
    for kind in (int, float):
        try:
            return kind(argument)
        except ValueError:
            continue
    return argument


def _derive_keys(factory: Callable) -> Tuple[SpecKey, ...]:
    """Default key schema: the factory's named keyword parameters."""
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return ()
    return tuple(
        SpecKey(parameter.name)
        for parameter in signature.parameters.values()
        if parameter.kind
        in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        )
    )


class _Registry:
    """One name → factory table with alias and key-schema support.

    Every registry speaks the key=value grammar, with unknown keys
    failing at parse time listing the name's valid keys.
    ``positional=True`` additionally accepts colon-separated positional
    tails — the mechanism registry uses this: ``"bd:0.5"`` is the
    documented short form next to ``"bd:epsilon=0.5,w=40"``.  In
    every other registry a positional tail is an error.
    ``skip_parameters`` drops that many leading factory parameters from
    the derived key schema (mechanism factories take the build context
    first, which is not a spec key).
    """

    def __init__(
        self,
        kind: str,
        *,
        positional: bool = False,
        skip_parameters: int = 0,
    ):
        self._kind = kind
        self._positional = positional
        self._skip_parameters = skip_parameters
        self._factories: Dict[str, Callable] = {}
        self._canonical: Dict[str, str] = {}
        self._raw_tail: Dict[str, bool] = {}
        self._keys: Dict[str, Tuple[SpecKey, ...]] = {}

    def register(
        self,
        name: str,
        *,
        aliases: Sequence[str] = (),
        raw_tail: bool = False,
        keys: Optional[Sequence[SpecKey]] = None,
    ):
        """``raw_tail=True`` hands the factory everything after the
        first colon as one uncoerced string — for connectors whose
        argument is a path (paths may contain colons, and a numeric
        filename must stay a string).  ``keys`` declares the name's
        valid key=value keys (default: the factory's keyword
        parameters)."""

        def decorator(factory: Callable) -> Callable:
            spec_names = (name, *aliases)
            # Check every key before inserting any, so a collision
            # leaves no partial registration behind.
            taken = [key for key in spec_names if key in self._factories]
            if taken:
                raise ValueError(
                    f"{self._kind} spec(s) {taken} already registered"
                )
            spec_keys = (
                tuple(keys)
                if keys is not None
                else _derive_keys(factory)[self._skip_parameters :]
            )
            for key in spec_names:
                self._factories[key] = factory
                self._canonical[key] = name
                self._raw_tail[key] = raw_tail
                self._keys[key] = spec_keys
            return factory

        return decorator

    def names(self) -> Tuple[str, ...]:
        """All registered spec names (canonical names and aliases)."""
        return tuple(sorted(self._factories))

    def keys_for(self, spec: str) -> Tuple[SpecKey, ...]:
        """The key=value keys a spec's registered name accepts."""
        name, _tail = self._lookup(spec)
        return self._keys[name]

    def check_options(self, spec: str, options: Mapping) -> None:
        """Check factory keyword ``options`` against the spec's keys."""
        name, _tail = self._lookup(spec)
        check_options(
            options, self._keys[name], where=f"{self._kind} spec {name!r}"
        )

    def _lookup(self, spec: str) -> Tuple[str, Optional[str]]:
        """Split off the registered name; ``None`` tail means no colon."""
        if not isinstance(spec, str) or not spec.strip():
            raise ValueError(
                f"spec must be a non-empty string, got {spec!r}"
            )
        name, sep, tail = spec.strip().partition(":")
        if name not in self._factories:
            raise UnknownSpecError(
                f"unknown {self._kind} spec {name!r}; registered "
                f"{self._kind} specs: {', '.join(self.names())}"
            )
        return name, (tail if sep else None)

    def _is_kv(self, name: str, tail: Optional[str]) -> bool:
        if not tail:
            return False
        # Raw-tail connectors stay in address mode unless the first
        # segment names a *declared* key, so "csv:data=1.csv" is a
        # path while "csv:path=data.csv" is key=value.
        schema = self._keys[name] if self._raw_tail[name] else ()
        return is_kv_tail(tail, keys=schema)

    def _kwargs(self, name: str, tail: str) -> Dict[str, object]:
        return kv_kwargs(
            tail, self._keys[name], where=f"{self._kind} spec {name!r}"
        )

    def _positional_args(self, spec: str) -> Tuple[object, ...]:
        """The coerced positional arguments of a non-key=value tail."""
        name, args = parse_spec(spec)
        if args and not self._positional:
            valid = ", ".join(
                sorted(key.name for key in self._keys[name])
            )
            raise ValueError(
                f"{self._kind} spec {spec!r} has a positional tail; "
                f"write '{name}:key=value[,key=value...]' "
                f"(valid keys: {valid or '(none)'})"
            )
        return args

    def resolve(
        self, spec: str
    ) -> Tuple[Callable, Tuple[object, ...], Dict[str, object]]:
        name, tail = self._lookup(spec)
        factory = self._factories[name]
        if self._is_kv(name, tail):
            return factory, (), self._kwargs(name, tail)
        if self._raw_tail[name]:
            # Even an empty tail is passed through, so the connector's
            # own pointed needs-a-path error fires instead of a bare
            # arity TypeError.  The "csv:<path>" address form is
            # first-class.
            return factory, (tail or "",), {}
        return factory, self._positional_args(spec), {}

    def canonical(self, spec: str) -> str:
        name, tail = self._lookup(spec)
        if self._is_kv(name, tail):
            # Validate the keys at parse time so an unknown key fails
            # inside ServiceSpec construction, not at build time.
            self._kwargs(name, tail)
        elif self._raw_tail[name]:
            if not tail:
                raise ValueError(
                    f"{self._kind} spec {name!r} needs an argument: "
                    f"'{name}:<path>'"
                )
        else:
            self._positional_args(spec)
        return self._canonical[name]


# Mechanism specs keep the short positional grammar first-class (a
# mechanism takes at most a budget argument and tests/papers spell
# them bare: "bd:0.5"), but also speak key=value for named tunables
# ("bd:epsilon=0.5,w=40") — unknown keys fail at parse time listing
# the factory's valid keys.
_MECHANISMS = _Registry("mechanism", positional=True, skip_parameters=1)
_EXECUTORS = _Registry("executor")


def register_mechanism(
    name: str,
    *,
    aliases: Sequence[str] = (),
    keys: Optional[Sequence[SpecKey]] = None,
):
    """Register a mechanism factory under a spec name (plus aliases).

    The factory is called as ``factory(context, *spec_args, **options)``
    with a :class:`MechanismContext` and must return an object exposing
    ``perturb(IndicatorStream, rng=...)``.  ``keys`` declares the
    spec's key=value keys; by default they derive from the factory's
    keyword parameters (the leading ``context`` parameter excepted).
    """
    return _MECHANISMS.register(name, aliases=aliases, keys=keys)


def register_executor(
    name: str,
    *,
    aliases: Sequence[str] = (),
    keys: Optional[Sequence[SpecKey]] = None,
):
    """Register an executor factory under a spec name (plus aliases).

    The factory is called as ``factory(**spec_kwargs, **options)`` and
    must return an executor exposing
    ``run(pipeline, indicators, rng=...) -> PipelineResult``.
    ``keys`` declares the spec's key=value keys (default: the
    factory's keyword parameters).
    """
    return _EXECUTORS.register(name, aliases=aliases, keys=keys)


def registered_mechanisms() -> Tuple[str, ...]:
    """The mechanism spec names the service API currently accepts."""
    return _MECHANISMS.names()


def registered_executors() -> Tuple[str, ...]:
    """The executor spec names the service API currently accepts."""
    return _EXECUTORS.names()


def validate_mechanism_spec(spec: str) -> str:
    """Check the spec's head names a registered mechanism; return it."""
    return _MECHANISMS.canonical(spec)


def validate_mechanism_options(spec: str, options: Mapping) -> None:
    """Check keyword options name the spec's keys (and pass their
    converters), so a bad option fails at ``ServiceSpec`` construction
    rather than at build time."""
    _MECHANISMS.check_options(spec, options)


def validate_executor_spec(spec: str) -> str:
    """Check the spec's head names a registered executor; return it."""
    return _EXECUTORS.canonical(spec)


def mechanism_factory_accepts(spec: str, parameter: str) -> bool:
    """Whether the spec's factory takes ``parameter`` as a keyword.

    The experiment runner uses this to thread optional tuning knobs
    (``conversion_mode``, ``step_size``, ...) only to factories that
    declare them, keeping unknown *user* options a hard error.
    """
    factory, _args, _kwargs = _MECHANISMS.resolve(spec)
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # pragma: no cover - C callables
        return True
    if any(
        param.kind is inspect.Parameter.VAR_KEYWORD
        for param in signature.parameters.values()
    ):
        return True
    return parameter in signature.parameters


def build_mechanism_from_spec(
    spec: str, context: "MechanismContext", **options
):
    """Instantiate the mechanism a spec string names.

    ``options`` merge keyword options over the spec string's positional
    arguments; unknown names raise :class:`UnknownSpecError` listing
    every registered spec.
    """
    factory, args, kwargs = _MECHANISMS.resolve(spec)
    return factory(context, *args, **{**kwargs, **options})


def build_executor_from_spec(spec: str, **options):
    """Instantiate the executor a spec string names.

    Spec-string key=value arguments and ``options`` merge (explicit
    keyword options win).
    """
    factory, args, kwargs = _EXECUTORS.resolve(spec)
    return factory(*args, **{**kwargs, **options})


# ---------------------------------------------------------------------------
# The mechanism build context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MechanismContext:
    """Everything a mechanism factory may draw on while building.

    Attributes
    ----------
    alphabet:
        The service alphabet (fixes indicator columns).
    private_patterns:
        The data subjects' protected patterns.
    target_patterns:
        The data consumers' queried patterns.
    alpha:
        Precision weight of the quality requirement (Eq. (3)).
    extras:
        Run-time inputs that are data rather than configuration: the
        adaptive PPM's ``history`` stream, a precomputed
        ``landmark_mask``, the evaluation stream's ``n_windows`` (for
        the user-level budget split), ``w`` (the w-event parameter),
        and optionally a ``converter_factory`` /
        ``estimator_factory`` so harness callers can share caches.
    """

    alphabet: EventAlphabet
    private_patterns: Tuple[Pattern, ...] = ()
    target_patterns: Tuple[Pattern, ...] = ()
    alpha: float = 0.5
    extras: Mapping = field(default_factory=dict)

    def extra(self, name: str, default=None):
        """One run-time extra (``default`` when absent or ``None``)."""
        value = self.extras.get(name, default)
        return default if value is None else value

    def require_extra(self, name: str, *, hint: str):
        value = self.extras.get(name)
        if value is None:
            raise ValueError(
                f"building this mechanism needs {name!r}: {hint}"
            )
        return value

    @property
    def max_private_length(self) -> int:
        """The longest private pattern's ``m`` (conversion worst case)."""
        lengths = [
            len(pattern.elements)
            for pattern in self.private_patterns
            if pattern.elements is not None
        ]
        if not lengths:
            raise ValueError(
                "budget conversion needs at least one private pattern "
                "with an element list"
            )
        return max(lengths)

    def converter(self, mode: str = "worst_case"):
        """A budget converter for this context (Section VI-A.2).

        Uses the caller-provided ``converter_factory`` extra when
        present (the experiment harness shares its per-mode cache this
        way) and builds a fresh
        :class:`~repro.baselines.conversion.BudgetConverter` otherwise.
        """
        factory = self.extras.get("converter_factory")
        if factory is not None:
            return factory(mode)
        from repro.baselines.conversion import BudgetConverter

        return BudgetConverter(self.max_private_length, mode=mode)


def _native_budget(
    spec_name: str,
    epsilon: Optional[float],
    pattern_epsilon: Optional[float],
    convert: Callable[[float], float],
) -> float:
    """Resolve the mechanism's native budget from exactly one source."""
    if (epsilon is None) == (pattern_epsilon is None):
        raise ValueError(
            f"mechanism {spec_name!r} takes exactly one of epsilon= "
            "(the mechanism's native budget) or pattern_epsilon= (a "
            "pattern-level budget converted per Section VI-A.2)"
        )
    if epsilon is not None:
        return check_positive("epsilon", epsilon)
    check_positive("pattern_epsilon", pattern_epsilon)
    return convert(pattern_epsilon)


def _require_private(context: MechanismContext, spec_name: str):
    if not context.private_patterns:
        raise ValueError(
            f"mechanism {spec_name!r} protects private patterns; the "
            "spec declares none (patterns=)"
        )
    return context.private_patterns


# ---------------------------------------------------------------------------
# Built-in mechanism specs
# ---------------------------------------------------------------------------


@register_mechanism("uniform-ppm", aliases=("uniform",))
def _build_uniform_ppm(
    context: MechanismContext,
    epsilon: Optional[float] = None,
    *,
    pattern_epsilon: Optional[float] = None,
):
    """One uniform pattern-level PPM per private pattern (Section V-A)."""
    from repro.core.ppm import MultiPatternPPM
    from repro.core.uniform import UniformPatternPPM

    budget = _native_budget(
        "uniform-ppm", epsilon, pattern_epsilon, lambda value: value
    )
    return MultiPatternPPM(
        [
            UniformPatternPPM(pattern, budget)
            for pattern in _require_private(context, "uniform-ppm")
        ]
    )


@register_mechanism("adaptive-ppm", aliases=("adaptive",))
def _build_adaptive_ppm(
    context: MechanismContext,
    epsilon: Optional[float] = None,
    *,
    pattern_epsilon: Optional[float] = None,
    step_size: Optional[float] = None,
    max_iterations: int = 200,
):
    """Adaptive PPMs fitted on history by Algorithm 1 (Section V-B)."""
    from repro.core.adaptive import AdaptivePatternPPM
    from repro.core.ppm import MultiPatternPPM

    budget = _native_budget(
        "adaptive-ppm", epsilon, pattern_epsilon, lambda value: value
    )
    history = context.require_extra(
        "history",
        hint="the adaptive PPM fits its allocation on historical "
        "windows; pass history= to ServiceSpec.build() / StreamService",
    )
    return MultiPatternPPM(
        [
            AdaptivePatternPPM.fit(
                pattern,
                budget,
                history,
                list(context.target_patterns),
                alpha=context.alpha,
                step_size=step_size,
                max_iterations=max_iterations,
                estimator_factory=context.extras.get("estimator_factory"),
            )
            for pattern in _require_private(context, "adaptive-ppm")
        ]
    )


@register_mechanism("bd", aliases=("budget-distribution",))
def _build_bd(
    context: MechanismContext,
    epsilon: Optional[float] = None,
    w: Optional[int] = None,
    *,
    pattern_epsilon: Optional[float] = None,
    conversion_mode: str = "worst_case",
):
    """The w-event budget-distribution scheduler baseline."""
    from repro.baselines.budget_distribution import BudgetDistribution

    w = w if w is not None else context.extra("w")
    if w is None:
        raise ValueError(
            "mechanism 'bd' needs the w-event window parameter; pass "
            "w= in the mechanism options"
        )
    native = _native_budget(
        "bd",
        epsilon,
        pattern_epsilon,
        lambda value: context.converter(conversion_mode).bd_native(value, w),
    )
    return BudgetDistribution(native, w)


@register_mechanism("ba", aliases=("budget-absorption",))
def _build_ba(
    context: MechanismContext,
    epsilon: Optional[float] = None,
    w: Optional[int] = None,
    *,
    pattern_epsilon: Optional[float] = None,
    conversion_mode: str = "worst_case",
):
    """The w-event budget-absorption scheduler baseline."""
    from repro.baselines.budget_absorption import BudgetAbsorption

    w = w if w is not None else context.extra("w")
    if w is None:
        raise ValueError(
            "mechanism 'ba' needs the w-event window parameter; pass "
            "w= in the mechanism options"
        )
    native = _native_budget(
        "ba",
        epsilon,
        pattern_epsilon,
        lambda value: context.converter(conversion_mode).ba_native(value, w),
    )
    return BudgetAbsorption(native, w)


@register_mechanism("landmark")
def _build_landmark(
    context: MechanismContext,
    epsilon: Optional[float] = None,
    *,
    pattern_epsilon: Optional[float] = None,
    landmarks: Optional[Sequence[bool]] = None,
    conversion_mode: str = "worst_case",
    rho: float = 0.5,
):
    """Landmark privacy over the private patterns' sensitive windows.

    Landmark has no decision loop: it releases through its scalar
    per-timestamp loop, and its rows feed no
    ``repro_decisions_*_rows_total`` counter.
    """
    from repro.baselines.landmark import LandmarkPrivacy

    if landmarks is None:
        landmarks = context.extras.get("landmark_mask")
        if callable(landmarks):
            landmarks = landmarks()
    mask = (
        None if landmarks is None else np.asarray(landmarks, dtype=bool)
    )

    def convert(value: float) -> float:
        if mask is None:
            raise ValueError(
                "converting a pattern-level budget for 'landmark' needs "
                "the landmark mask; pass landmarks= in the mechanism "
                "options (or epsilon= for the native budget)"
            )
        n_landmarks = max(1, int(mask.sum()))
        return context.converter(conversion_mode).landmark_native(
            value, n_landmarks
        )

    native = _native_budget("landmark", epsilon, pattern_epsilon, convert)
    return LandmarkPrivacy(native, landmarks=mask, rho=rho)


@register_mechanism("event-rr", aliases=("event-level",))
def _build_event_rr(
    context: MechanismContext,
    epsilon: Optional[float] = None,
    *,
    pattern_epsilon: Optional[float] = None,
    conversion_mode: str = "worst_case",
):
    """Event-level randomized response (per-indicator ε)."""
    from repro.baselines.event_level import EventLevelRR

    native = _native_budget(
        "event-rr",
        epsilon,
        pattern_epsilon,
        lambda value: context.converter(conversion_mode).event_level_native(
            value
        ),
    )
    return EventLevelRR(native)


@register_mechanism("user-rr", aliases=("user-level",))
def _build_user_rr(
    context: MechanismContext,
    epsilon: Optional[float] = None,
    *,
    pattern_epsilon: Optional[float] = None,
    n_windows: Optional[int] = None,
    conversion_mode: str = "worst_case",
):
    """User-level randomized response (budget split over the stream)."""
    from repro.baselines.user_level import UserLevelRR

    def convert(value: float) -> float:
        horizon = (
            n_windows if n_windows is not None else context.extra("n_windows")
        )
        if horizon is None:
            raise ValueError(
                "converting a pattern-level budget for 'user-rr' needs "
                "the stream horizon; pass n_windows= in the mechanism "
                "options (or epsilon= for the native budget)"
            )
        return context.converter(conversion_mode).user_level_native(
            value, horizon, len(context.alphabet)
        )

    native = _native_budget("user-rr", epsilon, pattern_epsilon, convert)
    return UserLevelRR(native)


# ---------------------------------------------------------------------------
# Built-in executor specs
# ---------------------------------------------------------------------------


@register_executor("batch", keys=())
def _build_batch_executor():
    """The vectorized whole-stream executor (the default)."""
    from repro.runtime.executors import BatchExecutor

    return BatchExecutor()


#: The pointed error of every sharded spec asking for processes or a
#: shard transport: multi-process sharding is the cluster executor.
_USE_CLUSTER = (
    "sharded executors run on threads; for multi-process sharding use "
    "'cluster:workers=N,transport=shm'"
)

def _thread_backend(value: str) -> str:
    """Accept ``backend=thread``; point anything else at the cluster."""
    if value != "thread":
        raise ValueError(f"{value!r} is not a sharded backend; {_USE_CLUSTER}")
    return value


def _no_transport(value: str):
    """Sharded executors have no shard transport; point at the cluster."""
    raise ValueError(f"{value!r}: {_USE_CLUSTER}")


@register_executor(
    "sharded",
    keys=(
        SpecKey("backend", convert=_thread_backend),
        SpecKey("workers", dest="n_workers"),
        SpecKey("transport", convert=_no_transport),
    ),
)
def _build_sharded_executor(
    *, backend: str = "thread", n_workers=None, **options
):
    """Thread-pool sharded execution: ``"sharded:backend=thread,workers=8"``.

    Keys: ``backend=`` (``thread``, the only backend) and ``workers=``.
    Multi-process sharding is the cluster executor: ``backend=process``
    and a ``transport=`` key raise a ``ValueError`` naming
    ``cluster:workers=N,transport=shm``.  Keyword options pass through
    to :class:`~repro.runtime.executors.ShardedExecutor`.
    """
    from repro.runtime.executors import ShardedExecutor

    _thread_backend(backend)
    return ShardedExecutor(n_workers, **options)


@register_executor(
    "cluster",
    keys=(SpecKey("workers", dest="n_workers"), SpecKey("transport")),
)
def _build_cluster_executor(n_workers=None, *, transport="shm", **options):
    """Cluster worker-fleet execution:
    ``"cluster:workers=8,transport=shm"``.

    ``transport=shm`` attaches workers to the shared-memory data plane
    (local fleet); ``transport=framed`` ships shard slices as framed
    bytes (the remote-style fallback).  Keyword options pass through
    to :class:`~repro.runtime.cluster.ClusterExecutor`.
    """
    from repro.runtime.cluster import ClusterExecutor

    return ClusterExecutor(n_workers, transport=transport, **options)
