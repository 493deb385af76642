"""Process-local, thread-safe metrics plane.

The observability subsystem's ground layer: three metric primitives
(:class:`Counter`, :class:`Gauge`, :class:`Histogram`) grouped into a
:class:`MetricsRegistry`.  The design goals, in order:

- **hot-path cheap** — ``Counter.inc`` is one lock acquire and one
  float add, no allocations, so decision loops and drain loops can
  count per row without perturbing the benches;
- **hermetic tests** — every registry is an ordinary object; the
  module-level default registry exists for convenience and can be
  swapped (:func:`set_default_registry`) or scoped
  (:func:`use_registry`) so tests never observe each other's counts;
- **mergeable** — :meth:`MetricsRegistry.snapshot` is a plain
  JSON-able document and :meth:`MetricsRegistry.merge_snapshot` folds
  one registry's deltas into another (counters add, gauges overwrite,
  histograms add bucket-wise).  That is what lets gateway checkpoints
  carry their counters across a kill/resume and cluster workers ship
  per-task metrics back over the frame protocol.

Metrics never touch random state: instrumented runs stay bit-identical
to uninstrumented ones.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "set_default_registry",
    "use_registry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Fixed exponential latency buckets (seconds): 0.5 ms doubling up to
#: ~32 s.  Wide enough for end-to-end window latency under soak without
#: per-histogram configuration on the hot path.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    0.0005 * (2.0**i) for i in range(17)
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(key: LabelKey, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in key]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


class _Metric:
    """Shared family plumbing: name/help validation and label children.

    A metric object is *both* the family and its unlabeled instance —
    ``counter.inc()`` works directly, and ``counter.labels(tenant="a")``
    returns (and caches) the child for that label set.  The cache is
    keyed by the sorted label items so the same labels always yield the
    same object (``c.labels(a="1") is c.labels(a="1")``).
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._children: Dict[LabelKey, "_Metric"] = {}
        self._label_key: LabelKey = ()

    def _make_child(self) -> "_Metric":
        return type(self)(self.name, self.help)

    def labels(self, **labels: str) -> "_Metric":
        """The child metric for this label set (created on first use)."""
        key = _label_key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                child._label_key = key
                self._children[key] = child
            return child

    def _samples(self) -> Iterator[Tuple[LabelKey, "_Metric"]]:
        """The unlabeled instance (if touched) plus every child."""
        yield (self._label_key, self)
        with self._lock:
            children = list(self._children.items())
        for key, child in children:
            yield (key, child)


class Counter(_Metric):
    """Monotone counter: ``inc`` only, never decremented."""

    kind = "counter"

    def __init__(self, name: str = "counter", help: str = ""):
        super().__init__(name, help)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        """Zero the counter (tests and fresh-sink reopens only)."""
        with self._lock:
            self._value = 0.0


class Gauge(_Metric):
    """Point-in-time value: ``set``/``inc``/``dec``."""

    kind = "gauge"

    def __init__(self, name: str = "gauge", help: str = ""):
        super().__init__(name, help)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Metric):
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    ``buckets`` are the finite upper bounds; an implicit ``+Inf``
    overflow bucket always exists.  ``observe`` is a bisect plus two
    adds; its ``count`` lets the drain path record one sample per
    block of windows that share a latency.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str = "histogram",
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must strictly increase")
        self.buckets = bounds
        # counts[i] pairs with buckets[i]; counts[-1] is +Inf overflow.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.help, self.buckets)

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times (one sample standing for a
        block of windows that share it)."""
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += count
            self._sum += value * count
            self._count += count

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> List[int]:
        """Per-bucket counts (finite bounds then ``+Inf``), a copy."""
        with self._lock:
            return list(self._counts)

    def percentile(self, q: float) -> float:
        """The q-th percentile (``q`` in [0, 100]) from bucket counts.

        Linear interpolation inside the winning bucket; observations in
        the overflow bucket report the largest finite bound.  An empty
        histogram reports 0.0.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must be in [0, 100], got {q}")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        rank = (q / 100.0) * total
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.buckets):
                    return self.buckets[-1]
                lower = self.buckets[index - 1] if index else 0.0
                upper = self.buckets[index]
                fraction = (rank - previous) / bucket_count
                return lower + (upper - lower) * min(1.0, max(0.0, fraction))
        return self.buckets[-1]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named collection of metrics with get-or-create accessors.

    ``registry.counter(name)`` returns the existing family or creates
    it; asking for the same name with a different kind is an error.
    Registries render to Prometheus text (:meth:`render_text`),
    snapshot to JSON-able documents (:meth:`snapshot`) and fold other
    snapshots in (:meth:`merge_snapshot`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, **kwargs)
                self._metrics[name] = metric
                return metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        if (
            cls is Histogram
            and "buckets" in kwargs
            and tuple(float(b) for b in kwargs["buckets"]) != metric.buckets
        ):
            raise ValueError(
                f"histogram {name!r} already registered with different "
                f"buckets"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        """The registered metric family, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> List[_Metric]:
        """Registered families in registration order (a copy)."""
        with self._lock:
            return list(self._metrics.values())

    # -- exposition --------------------------------------------------

    def render_text(self) -> str:
        """Prometheus text exposition format of the whole registry."""
        lines: List[str] = []
        for metric in self.metrics():
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for key, sample in metric._samples():
                if isinstance(sample, Histogram):
                    counts = sample.bucket_counts()
                    cumulative = 0
                    for bound, bucket_count in zip(
                        sample.buckets, counts[:-1]
                    ):
                        cumulative += bucket_count
                        labels = _render_labels(key, f'le="{bound!r}"')
                        lines.append(
                            f"{metric.name}_bucket{labels} {cumulative}"
                        )
                    cumulative += counts[-1]
                    labels = _render_labels(key, 'le="+Inf"')
                    lines.append(
                        f"{metric.name}_bucket{labels} {cumulative}"
                    )
                    lines.append(
                        f"{metric.name}_sum{_render_labels(key)} "
                        f"{sample.sum!r}"
                    )
                    lines.append(
                        f"{metric.name}_count{_render_labels(key)} "
                        f"{sample.count}"
                    )
                else:
                    lines.append(
                        f"{metric.name}{_render_labels(key)} "
                        f"{sample.value!r}"
                    )
        return "\n".join(lines) + "\n"

    # -- snapshot / merge --------------------------------------------

    def snapshot(self) -> Dict:
        """A JSON-able document of every metric's current state."""
        families = []
        for metric in self.metrics():
            samples = []
            for key, sample in metric._samples():
                entry: Dict = {"labels": {k: v for k, v in key}}
                if isinstance(sample, Histogram):
                    entry["buckets"] = list(sample.buckets)
                    entry["counts"] = sample.bucket_counts()
                    entry["sum"] = sample.sum
                    entry["count"] = sample.count
                else:
                    entry["value"] = sample.value
                samples.append(entry)
            families.append(
                {
                    "name": metric.name,
                    "kind": metric.kind,
                    "help": metric.help,
                    "samples": samples,
                }
            )
        return {"format": 1, "metrics": families}

    def merge_snapshot(self, snapshot: Optional[Dict]) -> None:
        """Fold a :meth:`snapshot` document into this registry.

        Counters and histograms *add* (the snapshot is treated as a
        delta or a prior life of the same process); gauges overwrite.
        Unknown kinds raise; histogram bucket bounds must match.
        """
        if not snapshot:
            return
        for family in snapshot.get("metrics", []):
            kind = family.get("kind")
            cls = _KINDS.get(kind)
            if cls is None:
                raise ValueError(f"unknown metric kind {kind!r}")
            name = family["name"]
            help = family.get("help", "")
            for entry in family.get("samples", []):
                labels = entry.get("labels", {})
                if kind == "histogram":
                    bounds = tuple(float(b) for b in entry["buckets"])
                    family_metric = self._get_or_create(
                        Histogram, name, help, buckets=bounds
                    )
                    target = (
                        family_metric.labels(**labels)
                        if labels
                        else family_metric
                    )
                    if target.buckets != bounds:
                        raise ValueError(
                            f"histogram {name!r} bucket mismatch on merge"
                        )
                    counts = entry["counts"]
                    if len(counts) != len(target._counts):
                        raise ValueError(
                            f"histogram {name!r} count arity mismatch"
                        )
                    with target._lock:
                        for i, c in enumerate(counts):
                            target._counts[i] += c
                        target._sum += entry["sum"]
                        target._count += entry["count"]
                    continue
                family_metric = self._get_or_create(cls, name, help)
                target = (
                    family_metric.labels(**labels)
                    if labels
                    else family_metric
                )
                if kind == "counter":
                    target.inc(entry["value"])
                else:
                    target.set(entry["value"])


_default_lock = threading.Lock()
_default_registry = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide default registry instrumented code reports to."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process default; returns the previous registry."""
    global _default_registry
    if not isinstance(registry, MetricsRegistry):
        raise TypeError(
            f"registry must be MetricsRegistry, got "
            f"{type(registry).__name__}"
        )
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
        return previous


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Scope the default registry to ``registry`` for a ``with`` block."""
    previous = set_default_registry(registry)
    try:
        yield registry
    finally:
        set_default_registry(previous)
