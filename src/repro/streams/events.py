"""Event and data-tuple types.

The paper models a data stream as an infinite tuple
``S^D = (d_1, d_2, ...)`` of raw data, and an event stream
``S^E = (e_1, e_2, ...)`` of the tuples of interest, in temporal order
(Section III-A).  :class:`DataTuple` is one ``d_i``; :class:`Event` is one
``e_i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple


def _freeze_attributes(attributes: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    if not attributes:
        return ()
    return tuple(sorted(attributes.items()))


@dataclass(frozen=True)
class DataTuple:
    """One raw record ``d_i`` of a data stream ``S^D``.

    Attributes
    ----------
    timestamp:
        Logical or wall-clock time of the observation.  Only the ordering
        of timestamps matters to the library.
    values:
        The raw payload (e.g. ``{"lat": ..., "lon": ...}``), frozen into a
        sorted tuple of items so tuples are hashable.
    source:
        Identifier of the producing data stream / data subject.
    """

    timestamp: float
    _values: Tuple[Tuple[str, Any], ...] = field(default=())
    source: Optional[str] = None

    def __init__(
        self,
        timestamp: float,
        values: Optional[Mapping[str, Any]] = None,
        source: Optional[str] = None,
    ):
        object.__setattr__(self, "timestamp", float(timestamp))
        object.__setattr__(self, "_values", _freeze_attributes(values))
        object.__setattr__(self, "source", source)

    @property
    def values(self) -> Dict[str, Any]:
        """The payload as a plain dict (copy)."""
        return dict(self._values)

    def value(self, key: str, default: Any = None) -> Any:
        """Return one payload field, or ``default`` when absent."""
        for name, val in self._values:
            if name == key:
                return val
        return default

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DataTuple(t={self.timestamp:g}, values={self.values!r}, "
            f"source={self.source!r})"
        )


@dataclass(frozen=True)
class Event:
    """One event ``e_i`` of an event stream ``S^E``.

    Events are immutable and hashable.  Equality covers type, timestamp,
    attributes and source, so two observations of the same phenomenon at
    the same instant compare equal — which is what the pattern-level
    neighbouring definitions need (two streams differ in *one* event).

    Attributes
    ----------
    event_type:
        The symbol this event contributes to the alphabet (e.g.
        ``"enter_cell_42"`` or ``"e7"``).
    timestamp:
        Extraction time; events in a stream are kept in temporal order.
    attributes:
        Optional structured payload carried along for CEP predicates.
    source:
        Identifier of the originating data stream, preserved across
        stream merging so provenance survives (Section III-A).
    """

    event_type: str
    timestamp: float
    _attributes: Tuple[Tuple[str, Any], ...] = field(default=())
    source: Optional[str] = None

    def __init__(
        self,
        event_type: str,
        timestamp: float,
        attributes: Optional[Mapping[str, Any]] = None,
        source: Optional[str] = None,
    ):
        if not isinstance(event_type, str) or not event_type:
            raise ValueError(
                f"event_type must be a non-empty string, got {event_type!r}"
            )
        object.__setattr__(self, "event_type", event_type)
        object.__setattr__(self, "timestamp", float(timestamp))
        object.__setattr__(self, "_attributes", _freeze_attributes(attributes))
        object.__setattr__(self, "source", source)

    @property
    def attributes(self) -> Dict[str, Any]:
        """The attribute payload as a plain dict (copy)."""
        return dict(self._attributes)

    def attribute(self, key: str, default: Any = None) -> Any:
        """Return one attribute, or ``default`` when absent."""
        for name, val in self._attributes:
            if name == key:
                return val
        return default

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        extra = f", source={self.source!r}" if self.source else ""
        return f"Event({self.event_type!r}, t={self.timestamp:g}{extra})"
