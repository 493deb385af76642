"""Run one workload and assemble the benchmark's result object.

Untraced (``trace=False``): the workload runs one short warm-up and
its ``rounds`` timed rounds of fixed size, with the host's speed
calibrated between them (``hostspeed.py``); set-up is timed in fresh
interpreters spread over the run, one before each block of rounds.
Closed loops report as ``windows_per_s`` the median round's throughput
on the reference host; the open loop (run by hand only, see
``README.md``) reports its offered throughput as measured.
``setup_s`` is the median over the probes, each scaled to the
reference host.  Outputs are checked against the ``BatchExecutor``
reference after the timed rounds, and peak memory is read before the
reference runs so that it describes the workload.

Traced (``trace=True``): every workload — the named one first — runs
one untraced and one traced round of the same size.  Per-layer
figures that need spans come from the traced round; figures the
benchmark times itself come from the untraced one.  All four run so
that each traced run reports every per-layer metric.
"""

from __future__ import annotations

import gc
import os
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Dict

import repro
from hostspeed import WINDOW
from workloads import WORKLOADS

__all__ = ["measure"]

HERE = Path(__file__).resolve().parent

#: Fresh interpreters whose set-up time is measured per run.  Probes
#: taken back to back share one phase of the host, which the scaling
#: does not fully remove, so they are spread over the run.
SETUP_PROBES = 10

END_TO_END_UNITS = {
    "windows_per_s": "windows/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def setup_seconds(workload, seed: int, n: int, workdir: Path) -> float:
    """Set-up time (``import repro`` + compile) of a fresh interpreter
    built exactly like the workload process."""
    env = dict(os.environ)
    source = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (source, env.get("PYTHONPATH")) if path
    )
    if sys.pycache_prefix:
        # The probe shares the workload process's byte-code cache.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = sys.pycache_prefix
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "probe.py"),
            workload,
            str(seed),
            str(n),
            str(workdir),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.split()[-1])


def _warm_up(cls, seed: int, n: int, workdir: Path) -> None:
    """One short untimed round on separate inputs: imports, caches and
    lazy set-up inside the program are paid before timing starts."""
    warm = cls(seed, max(64, n // 10), workdir)
    warm.generate()
    warm.run_round()
    warm.cleanup()


def _timed_rounds(workload, count: int):
    """``count`` rounds, each with the host's speed over it."""
    rounds = []
    WINDOW.rate()  # warm-up
    before = WINDOW.rate()
    for _ in range(count):
        gc.collect()
        result = workload.run_round()
        after = WINDOW.rate()
        result.speed = WINDOW.speed(before, after)
        before = after
        rounds.append(result)
    return rounds


def _result(correct: bool, attempted: int, failed: int, metrics: Dict):
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, workdir):
    """The benchmark's result object for one workload run."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if trace:
        return _traced(name, seed, seconds, workdir)
    cls = WORKLOADS[name]
    n = cls.round_size(seconds)
    workload = cls(seed, n, workdir)
    workload.generate()
    _warm_up(cls, seed, n, workdir)
    setups, rounds = [], []
    for _ in range(SETUP_PROBES):
        setups.append(setup_seconds(name, seed, n, workdir))
        rounds += _timed_rounds(workload, cls.rounds // SETUP_PROBES)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(workload.check(result) for result in rounds)
    attempted = sum(result.windows for result in rounds)
    workload.cleanup()
    if cls.open_loop:
        windows_per_s = attempted / sum(r.seconds for r in rounds)
    else:
        windows_per_s = median(r.windows_per_s for r in rounds)
    values = {
        "windows_per_s": windows_per_s,
        "setup_s": median(setups),
        "peak_rss_mb": peak_mb,
    }
    metrics = {
        key: {"value": value, "unit": END_TO_END_UNITS[key]}
        for key, value in values.items()
    }
    return _result(failed == 0, attempted, failed, metrics)


def _traced(name: str, seed: int, seconds: float, workdir: Path):
    order = [name] + [other for other in WORKLOADS if other != name]
    metrics, attempted, failed = {}, 0, 0
    for current in order:
        cls = WORKLOADS[current]
        n = cls.round_size(seconds)
        workload = cls(seed, n, workdir)
        workload.generate()
        _warm_up(cls, seed, n, workdir)
        (plain,) = _timed_rounds(workload, 1)
        tracer = workload.tracer()
        with tracer:
            (traced,) = _timed_rounds(workload, 1)
        for result in (plain, traced):
            failed += workload.check(result)
            attempted += result.windows
        layers = workload.layer_metrics(plain, traced, tracer)
        if cls.open_loop:
            # The schedule fixes the open loop's rate; tracing shows in
            # its latency.
            overhead = plain.latency_ms / traced.latency_ms
        else:
            overhead = traced.windows_per_s / plain.windows_per_s
        layers["trace.overhead"] = overhead
        units = dict(workload.layer_units, **{"trace.overhead": "ratio"})
        for key, value in layers.items():
            metrics[f"{current}.{key}"] = {
                "value": float(value),
                "unit": units[key],
            }
        workload.cleanup()
    return _result(failed == 0, attempted, failed, metrics)
