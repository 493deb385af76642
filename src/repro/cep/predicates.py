"""Event predicates: the leaves of pattern expressions.

A predicate decides whether a single event can fill a pattern position.
Predicates compose with ``&``, ``|`` and ``~`` so pattern atoms can
express e.g. "a region entry in the city centre during rush hour".
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.streams.events import Event


class _TypeEquals:
    """Picklable ``event.event_type == event_type`` test.

    The built-in predicate constructors avoid closures so that patterns
    (and everything holding them: mechanisms, pipelines, workloads)
    survive pickling — required by the worker fleet of
    :class:`~repro.runtime.cluster.ClusterExecutor` and the process
    backend of the parallel experiment sweep.
    """

    __slots__ = ("event_type",)

    def __init__(self, event_type: str):
        self.event_type = event_type

    def __call__(self, event: Event) -> bool:
        return event.event_type == self.event_type


class _AnyEvent:
    __slots__ = ()

    def __call__(self, _event: Event) -> bool:
        return True


class _AttrEquals:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: Any):
        self.key = key
        self.value = value

    def __call__(self, event: Event) -> bool:
        return event.attribute(self.key) == self.value


class _SourceEquals:
    __slots__ = ("source",)

    def __init__(self, source: str):
        self.source = source

    def __call__(self, event: Event) -> bool:
        return event.source == self.source


class _And:
    __slots__ = ("left", "right")

    def __init__(self, left: "EventPredicate", right: "EventPredicate"):
        self.left = left
        self.right = right

    def __call__(self, event: Event) -> bool:
        return self.left.matches(event) and self.right.matches(event)


class _Or:
    __slots__ = ("left", "right")

    def __init__(self, left: "EventPredicate", right: "EventPredicate"):
        self.left = left
        self.right = right

    def __call__(self, event: Event) -> bool:
        return self.left.matches(event) or self.right.matches(event)


class _Not:
    __slots__ = ("inner",)

    def __init__(self, inner: "EventPredicate"):
        self.inner = inner

    def __call__(self, event: Event) -> bool:
        return not self.inner.matches(event)


class EventPredicate:
    """A named boolean test over events.

    Parameters
    ----------
    test:
        ``callable(Event) -> bool``.
    name:
        Human-readable label used in pattern rendering and error
        messages.
    event_type:
        When the predicate is a pure type test, the type symbol is kept
        so pattern analyses (e.g. extracting the element list of a
        ``seq(e_1..e_m)`` pattern) can recover it.  ``None`` for
        composite or attribute predicates.
    """

    def __init__(
        self,
        test: Callable[[Event], bool],
        *,
        name: Optional[str] = None,
        event_type: Optional[str] = None,
    ):
        if not callable(test):
            raise TypeError("test must be callable(Event) -> bool")
        self._test = test
        self.name = name or getattr(test, "__name__", "predicate")
        self.event_type = event_type
        # True only for predicates *constructed as* pure type tests
        # (:meth:`of_type`).  A caller may annotate an arbitrary test
        # with event_type= for pattern analyses; such predicates still
        # evaluate their test, so the NFA's table-driven fast path must
        # not treat the annotation alone as the semantics.
        self._pure_type_test = False

    @property
    def is_pure_type_test(self) -> bool:
        """Whether matching is exactly ``event.event_type == event_type``."""
        return self._pure_type_test

    def matches(self, event: Event) -> bool:
        """Whether ``event`` satisfies this predicate."""
        return bool(self._test(event))

    def __call__(self, event: Event) -> bool:
        return self.matches(event)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventPredicate({self.name})"

    # -- constructors ----------------------------------------------------

    @classmethod
    def of_type(cls, event_type: str) -> "EventPredicate":
        """Match events whose ``event_type`` equals ``event_type``."""
        if not isinstance(event_type, str) or not event_type:
            raise ValueError("event_type must be a non-empty string")
        predicate = cls(
            _TypeEquals(event_type),
            name=event_type,
            event_type=event_type,
        )
        predicate._pure_type_test = True
        return predicate

    @classmethod
    def any_event(cls) -> "EventPredicate":
        """Match every event."""
        return cls(_AnyEvent(), name="*")

    @classmethod
    def where(
        cls, test: Callable[[Event], bool], *, name: Optional[str] = None
    ) -> "EventPredicate":
        """Match events satisfying an arbitrary test."""
        return cls(test, name=name)

    @classmethod
    def attr_equals(cls, key: str, value: Any) -> "EventPredicate":
        """Match events whose attribute ``key`` equals ``value``."""
        return cls(_AttrEquals(key, value), name=f"{key}=={value!r}")

    @classmethod
    def from_source(cls, source: str) -> "EventPredicate":
        """Match events originating from one data stream / subject."""
        return cls(_SourceEquals(source), name=f"src:{source}")

    # -- combinators -----------------------------------------------------

    def __and__(self, other: "EventPredicate") -> "EventPredicate":
        if not isinstance(other, EventPredicate):
            return NotImplemented
        return EventPredicate(
            _And(self, other), name=f"({self.name} & {other.name})"
        )

    def __or__(self, other: "EventPredicate") -> "EventPredicate":
        if not isinstance(other, EventPredicate):
            return NotImplemented
        return EventPredicate(
            _Or(self, other), name=f"({self.name} | {other.name})"
        )

    def __invert__(self) -> "EventPredicate":
        return EventPredicate(_Not(self), name=f"!{self.name}")
