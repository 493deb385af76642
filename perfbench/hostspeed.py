"""Host speed, for times measured on a host whose speed drifts.

On a shared virtual machine the same pure-Python loop can run at half
its usual speed for seconds or minutes at a time.  A time measured
there says as much about the host as about the program, so the
closed-loop timings and the set-up time of this benchmark are scaled
to a reference host: the benchmark times a fixed calibration kernel
right before and right after each measured interval and multiplies the
interval by the kernel's speed relative to the kernel's reference
rate.  The kernels are the benchmark's own code, so a change to the
program moves a scaled time and a change in the host's speed does not.

A slow phase of the host does not slow all code alike, so each
interval is calibrated with a kernel that does the same kind of work:

* :data:`WINDOW` — interpreter work (calls, dict lookups, small
  tuples, branches) mixed with small NumPy operations, in about the
  proportion a served window costs; for the workloads' rounds.
* :data:`MODULE` — unmarshalling a code object and executing it as a
  module body (classes, functions, constants), which is what
  ``import`` does; for the set-up.  It needs no NumPy, so it can run
  before ``import repro`` without taking NumPy's import out of the
  timed set-up.
"""

from __future__ import annotations

import gc
import marshal
import time

__all__ = ["MODULE", "WINDOW", "Kernel"]


class Kernel:
    """A fixed piece of work and its rate on the reference host."""

    def __init__(self, work, iterations: int, reference_rate: float):
        self._work = work
        self.iterations = iterations
        #: Iterations per second on the reference host.  Any fixed
        #: value works; these make the scale about 1 on a 2-core x86 VM.
        self.reference_rate = reference_rate

    def rate(self) -> float:
        """Iterations per second right now (garbage collection off, so
        the program's live objects do not slow the kernel)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._work(self.iterations)
            return self.iterations / (time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def speed(self, *rates: float) -> float:
        """The host's speed relative to the reference host, from rates
        taken around an interval."""
        return sum(rates) / len(rates) / self.reference_rate


_BLOCK = []


def _window_work(iterations: int) -> int:
    if not _BLOCK:
        import numpy as np

        rows = np.random.default_rng(0).random((96, 8)) < 0.3
        _BLOCK.extend((rows, np.array([1, 3])))
    rows, columns = _BLOCK
    table = {}
    pattern = (0, 1, 0, 1, 1, 0, 0, 1)
    total = 0
    get = table.get
    for i in range(iterations):
        key = i & 255
        value = get(key, 0) ^ i
        if pattern[i & 7]:
            value += len((key, value))
        if not i & 15:
            block = rows[i & 63 :][:32]
            value += int(block[:, columns].all(axis=1).sum())
        table[key] = value & 0xFFFF
        total += value
    return total


_MODULE_SOURCE = "\n".join(
    f"""
class C{i}:
    '''Class {i}.'''
    x = {i}
    def f(self, a, b={i}):
        return a + b + self.x
    @property
    def p(self):
        return (self.x, {i!r})
def g{i}(*args, **kw):
    return len(args) + {i}
T{i} = tuple(range({i % 7}))
D{i} = {{"k{i}": {i}, "v": [1, 2, 3]}}
"""
    for i in range(60)
)
_MODULE_CODE = marshal.dumps(compile(_MODULE_SOURCE, "<calibration>", "exec"))


def _module_work(iterations: int) -> None:
    for _ in range(iterations):
        exec(marshal.loads(_MODULE_CODE), {"__name__": "calibration"})


#: Calibrates a workload round (about 15 ms per rate).
WINDOW = Kernel(_window_work, 20_000, 1.5e6)
#: Calibrates the set-up (about 10 ms per rate).
MODULE = Kernel(_module_work, 10, 1.7e3)
