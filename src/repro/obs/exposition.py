"""Exposition: getting metrics out of the process.

Two formats:

- Prometheus text — :meth:`MetricsRegistry.render_text` (re-exported
  here as :func:`render_text` for symmetry) for scrape-style pulls;
- JSONL snapshots — :class:`JsonlSnapshotWriter` appends one
  :meth:`MetricsRegistry.snapshot` document per line, either on demand
  (:meth:`~JsonlSnapshotWriter.write`) or periodically from a daemon
  thread (:meth:`~JsonlSnapshotWriter.start`), which is what long soak
  runs use to leave an inspectable trail.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Optional

from repro.obs.metrics import MetricsRegistry, default_registry

__all__ = ["JsonlSnapshotWriter", "render_text"]


def render_text(registry: Optional[MetricsRegistry] = None) -> str:
    """Prometheus text format of ``registry`` (default: the default)."""
    return (registry or default_registry()).render_text()


class JsonlSnapshotWriter:
    """Append registry snapshots to a JSONL file.

    Each line is ``{"at": <unix seconds>, "snapshot": {...}}``.  The
    writer opens the file per write (append mode), so a killed process
    never loses flushed lines — exactly the property a kill/resume soak
    needs.  Usable as a context manager: ``stop()`` runs on exit and
    writes one final snapshot.
    """

    def __init__(
        self,
        path: str,
        registry: Optional[MetricsRegistry] = None,
        clock=time.time,
    ):
        self.path = path
        self._registry = registry
        self._clock = clock
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry or default_registry()

    def write(self) -> None:
        """Append one snapshot line now."""
        line = json.dumps(
            {"at": self._clock(), "snapshot": self.registry.snapshot()},
            sort_keys=True,
        )
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def start(self, interval: float) -> None:
        """Snapshot every ``interval`` seconds from a daemon thread."""
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if self._thread is not None:
            raise RuntimeError("snapshot writer already started")
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(interval):
                self.write()

        self._thread = threading.Thread(
            target=_loop, name="obs-jsonl-snapshots", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the periodic thread (if any) and write a final line."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.write()

    def __enter__(self) -> "JsonlSnapshotWriter":
        return self

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False
