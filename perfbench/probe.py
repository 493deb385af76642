"""Time one fresh interpreter's set-up for a workload.

Usage: ``probe.py <workload> <seed> <n> <workdir>`` with ``src`` on
``PYTHONPATH``.  Prints the seconds from before ``import repro`` to a
compiled spec or fleet — the set-up a workload process pays before it
can serve its first window — scaled to the reference host by the
host's speed right before and right after (``hostspeed.MODULE``).
"""

import sys
import time


def main() -> None:
    workload, seed, n, workdir = sys.argv[1:5]
    from hostspeed import MODULE  # imports nothing the program would

    MODULE.rate()  # warm-up
    before = MODULE.rate()
    start = time.perf_counter()
    import repro  # noqa: F401  (the import is what is being timed)
    from workloads import WORKLOADS

    WORKLOADS[workload](int(seed), int(n), workdir).compile()
    seconds = time.perf_counter() - start
    print(seconds * MODULE.speed(before, MODULE.rate()))


if __name__ == "__main__":
    main()
