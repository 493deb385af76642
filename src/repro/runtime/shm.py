"""Shared-memory segments for zero-copy shard transport.

The cluster executor's ``shm`` transport
(:mod:`repro.runtime.cluster`) must not pickle every shard's slice of
the indicator matrix into its task frames, nor the released rows back
out.  This module is the data plane that removes the copies:

- the parent places each large array in one named
  :mod:`multiprocessing.shared_memory` segment
  (:meth:`SegmentPlane.share` / :meth:`SegmentPlane.allocate`) and
  ships only an :class:`ArrayDescriptor` — ``(segment name, dtype,
  shape)`` — to the workers;
- workers :func:`attach` to the named segment and rebuild the array as
  ``np.ndarray(shape, dtype, buffer=shm.buf)`` — a view of the same
  physical pages, no copy — then slice their contiguous window range
  out of it;
- results are written into preallocated *output* segments, so merging
  becomes view stitching in the parent instead of unpickling and
  concatenating per-shard arrays.

Lifecycle ownership is strictly parent-side: the :class:`SegmentPlane`
that created the segments closes **and unlinks** every one of them in a
``try/finally`` around the fleet, whether the run succeeds, a worker
raises mid-shard, or the fleet is torn down early.  Workers only attach
and detach; they never unlink and never touch the resource-tracker
bookkeeping (see the note in :class:`attach` for why that division is
load-bearing under the fork start method).

Every segment name carries :data:`SEGMENT_PREFIX`, so test suites and
CI can scan ``/dev/shm`` for leaks (:func:`leaked_segments`).
"""

from __future__ import annotations

import os
import secrets

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "SEGMENT_PREFIX",
    "ArrayDescriptor",
    "SegmentPlane",
    "attach",
    "leaked_segments",
]

#: Prefix of every segment this module creates — the handle leak scans
#: (tests, CI) key on.
SEGMENT_PREFIX = "repro_shm_"

#: Default directory POSIX shared memory appears under (Linux).
SHM_DIR = "/dev/shm"


def _segment_name() -> str:
    """A collision-resistant segment name carrying the scan prefix."""
    return f"{SEGMENT_PREFIX}{os.getpid():x}_{secrets.token_hex(6)}"


@dataclass(frozen=True)
class ArrayDescriptor:
    """A picklable handle to one ndarray in a shared-memory segment.

    This — not the array — is what crosses the process boundary:
    ``(segment name, dtype string, shape)`` pickles to tens of bytes
    regardless of how many windows the array holds.  Shard workers pair
    it with their :class:`~repro.runtime.sharding.Shard`'s
    ``[start, stop)`` bounds to view exactly their contiguous slice.
    The cluster executor ships the same triple plus a transport URL.
    """

    segment: str
    dtype: str
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        """Payload size of the described array in bytes."""
        count = int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1
        return count * np.dtype(self.dtype).itemsize


class SegmentPlane:
    """Parent-side owner of a run's shared-memory segments.

    Creates segments, hands out descriptors and parent views, and —
    crucially — guarantees cleanup: :meth:`close` closes and unlinks
    every segment it created and is safe to call from a ``finally``
    on any path (idempotent, tolerant of already-unlinked segments and
    of stray views kept alive by an in-flight exception traceback).
    """

    def __init__(self):
        self._segments: Dict[str, shared_memory.SharedMemory] = {}

    def __enter__(self) -> "SegmentPlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._segments)

    def allocate(self, shape, dtype) -> ArrayDescriptor:
        """Create an uninitialized shared array; return its descriptor."""
        descriptor = ArrayDescriptor(
            _segment_name(),
            np.dtype(dtype).str,
            tuple(int(extent) for extent in shape),
        )
        segment = shared_memory.SharedMemory(
            name=descriptor.segment,
            create=True,
            # Zero-byte segments are invalid; keep degenerate shapes
            # (no queries, zero-width alphabets) mappable anyway.
            size=max(1, descriptor.nbytes),
        )
        self._segments[descriptor.segment] = segment
        return descriptor

    def share(self, array: np.ndarray) -> ArrayDescriptor:
        """Copy ``array`` into a fresh segment; return its descriptor.

        The one deliberate copy of the zero-copy design: the indicator
        matrix is written into shared pages once, instead of being
        pickled once *per shard* into the task frames.
        """
        array = np.ascontiguousarray(array)
        descriptor = self.allocate(array.shape, array.dtype)
        self.view(descriptor)[...] = array
        return descriptor

    def view(self, descriptor: ArrayDescriptor) -> np.ndarray:
        """A parent-side ndarray view of one of this plane's segments.

        Valid only until :meth:`close`; callers must copy anything that
        outlives the plane (``IndicatorStream`` construction copies).
        """
        segment = self._segments[descriptor.segment]
        return np.ndarray(
            descriptor.shape,
            dtype=np.dtype(descriptor.dtype),
            buffer=segment.buf,
        )

    def close(self) -> None:
        """Close and unlink every segment this plane created.

        Unlinking removes the name from ``/dev/shm`` immediately — the
        no-leak guarantee — even when a view pinned by an exception
        traceback keeps the local mapping alive a little longer (the
        kernel frees the pages once the last mapping drops).
        """
        for name, segment in list(self._segments.items()):
            try:
                segment.close()
            except BufferError:
                # A live view (typically an exception frame's local)
                # still exports the buffer; the mapping is reclaimed
                # with the process, and unlink below removes the name.
                pass
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
            del self._segments[name]


class attach:
    """Worker-side context manager attaching one descriptor's array.

    >>> with attach(descriptor) as matrix:
    ...     rows = matrix[shard.start : shard.stop]   # no copy

    The attachment only maps and unmaps: the *creating* process owns
    the segment's lifetime (it unlinks), and the worker closes its
    mapping on exit, so a worker holds no shared-memory handles between
    tasks.
    """

    def __init__(self, descriptor: ArrayDescriptor):
        self._descriptor = descriptor
        self._segment: Optional[shared_memory.SharedMemory] = None
        self.array: Optional[np.ndarray] = None

    def __enter__(self) -> np.ndarray:
        descriptor = self._descriptor
        self._segment = shared_memory.SharedMemory(name=descriptor.segment)
        # NOTE on the resource_tracker: attaching registers the segment
        # a second time.  With the fork start method (Linux, and what
        # the cluster fleet uses here) the tracker
        # process is *shared* with the parent, its cache is a set, and
        # the duplicate registration is a no-op the parent's unlink
        # balances exactly once — so workers must NOT unregister, or
        # they would strip the parent's own registration and the
        # tracker would log KeyErrors at cleanup.  Spawn-based
        # platforms get at worst a stale-name warning from the worker's
        # private tracker after the parent has already unlinked.
        self.array = np.ndarray(
            descriptor.shape,
            dtype=np.dtype(descriptor.dtype),
            buffer=self._segment.buf,
        )
        return self.array

    def __exit__(self, *exc_info) -> None:
        self.array = None
        if self._segment is not None:
            try:
                self._segment.close()
            except BufferError:  # pragma: no cover - exception frames
                pass
            self._segment = None


def leaked_segments(directory: str = SHM_DIR) -> Tuple[str, ...]:
    """Shared-memory segments with our prefix still present on disk.

    An empty tuple is the invariant every executor run (and the whole
    test suite) must restore; CI fails the bench job otherwise via
    ``benchmarks/check_shm_leaks.py``.
    """
    try:
        names = os.listdir(directory)
    except OSError:
        return ()
    return tuple(
        sorted(name for name in names if name.startswith(SEGMENT_PREFIX))
    )
