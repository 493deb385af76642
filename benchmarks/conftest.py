"""Shared benchmark fixtures and reporting helpers.

Every benchmark regenerates one table/figure of the paper's evaluation
(or one ablation from DESIGN.md), prints the rows, saves them as CSV
under the results directory and asserts the expected qualitative
shape.  The results directory is a session temp directory unless the
run names one; the committed artifacts under ``benchmarks/results/``
are refreshed with one command::

    PYTHONPATH=src python -m pytest benchmarks \\
        --bench-results=benchmarks/results

Benchmarks run their workload exactly once
(``benchmark.pedantic(rounds=1)``) — the interesting output is the
table, the timing is a bonus.

Performance benchmarks additionally persist a machine-readable summary
— ``BENCH_<name>.json`` in the results directory via :func:`emit_json`
— so local runs and the CI bench job produce the same artifact and the CI
regression gate can enforce speedup floors without parsing test
output.
"""

import json
import os
import platform

import pytest

from repro.datasets.synthetic import SyntheticConfig
from repro.datasets.taxi import TaxiConfig
from repro.experiments.config import ExperimentConfig

#: Benchmark-scale experiment configuration: the full ε grid of Fig. 4
#: with laptop-friendly repetition counts (crank these up to the paper's
#: scale with the reproduce_fig4.py example).
BENCH_CONFIG = ExperimentConfig(
    epsilon_grid=(0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0),
    n_trials=3,
)

BENCH_SYNTHETIC = SyntheticConfig(n_windows=500, n_history_windows=300)
BENCH_TAXI = TaxiConfig(n_taxis=60, n_steps=180)


def pytest_addoption(parser):
    parser.addoption(
        "--bench-results",
        metavar="DIR",
        default=None,
        help=(
            "write the benchmark tables and BENCH_*.json summaries to "
            "DIR (default: a session temp directory, so a plain run "
            "leaves the tree clean); pass benchmarks/results to "
            "refresh the committed artifacts"
        ),
    )


@pytest.fixture(scope="session")
def results_dir(request, tmp_path_factory):
    path = request.config.getoption("--bench-results")
    if path is None:
        return str(tmp_path_factory.mktemp("bench-results"))
    os.makedirs(path, exist_ok=True)
    return path


def emit(table, results_dir, name):
    """Print a result table and persist it as CSV."""
    print()
    print(table.render())
    path = os.path.join(results_dir, f"{name}.csv")
    table.write_csv(path)
    print(f"[saved {path}]")


#: Schema version of the ``BENCH_*.json`` summaries; bump on breaking
#: layout changes so the CI gate can detect stale artifacts.
#: v2: ``cpu_count`` is the *effective* core count (CPU affinity, not
#: the host's installed cores) and summaries whose speedup floors are
#: unenforced carry a human-readable ``floor_skipped_reason``.
BENCH_JSON_SCHEMA = 2


def median(values):
    """Median of a sequence of numbers (sorted-middle, no numpy)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def paired_speedup(ratios):
    """Noise-robust aggregate of per-round paired speedup ratios.

    Pairing baseline and treatment inside one interleaved round keeps
    co-tenant noise from *faking* a speedup trend, but aggregating with
    ``max`` let a single noisy baseline round set the headline number
    (and the CI gate value it feeds) — committed artifacts then
    contradicted their own per-arm seconds.  The median keeps the
    pairing and cannot be set by one outlier round; emit it together
    with :func:`ratio_spread` so the round count and spread land in the
    artifact next to the point value.
    """
    return median(ratios)


def ratio_spread(prefix, ratios):
    """Flat ``metrics`` entries recording a ratio set's rounds + spread.

    Returned as ``{prefix}_rounds/{prefix}_min/{prefix}_max`` so every
    median paired speedup in a ``BENCH_*.json`` is accompanied by how
    many rounds produced it and how noisy they were.
    """
    return {
        f"{prefix}_rounds": len(ratios),
        f"{prefix}_min": min(ratios),
        f"{prefix}_max": max(ratios),
    }


def effective_cpu_count():
    """Cores this process may actually run on.

    Containers and CI runners routinely pin processes to a subset of
    the host's cores; ``os.cpu_count()`` reports the host and made
    earlier ``BENCH_*.json`` files claim ``cpu_count: 1`` was a 4-way
    parallel run (or vice versa).  CPU affinity is the truth speedup
    floors must be conditioned on.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # non-Linux fallbacks
        return os.cpu_count() or 1


def floor_reason(required_cpus):
    """The standard human-readable reason a speedup floor was skipped."""
    return (
        f"host exposes {effective_cpu_count()} effective core(s) "
        f"(CPU affinity); parallel speedup floors need >= "
        f"{required_cpus}"
    )


def emit_json(
    results_dir,
    name,
    metrics,
    *,
    rows=None,
    gates=None,
    floor_skipped_reason=None,
):
    """Persist one benchmark's machine-readable summary.

    Writes ``BENCH_<name>.json`` with a fixed shape shared by local
    runs and CI:

    - ``metrics`` — flat name → number mapping (wall times, speedup
      factors);
    - ``rows`` — optional per-configuration detail rows (the CSV rows);
    - ``gates`` — optional name → ``{"floor": x, "value": y}`` entries
      the CI regression gate enforces (``value >= floor``);
    - ``floor_skipped_reason`` — required human-readable explanation
      whenever the metrics record ``floor_enforced`` false, so a
      summary with unenforced floors is self-describing.
    """
    if not metrics.get("floor_enforced", True) and not floor_skipped_reason:
        raise ValueError(
            f"bench {name!r} records floor_enforced=False; pass "
            "floor_skipped_reason= explaining why (see floor_reason())"
        )
    payload = {
        "bench": name,
        "schema_version": BENCH_JSON_SCHEMA,
        "python": platform.python_version(),
        "cpu_count": effective_cpu_count(),
        "metrics": {key: value for key, value in metrics.items()},
        "rows": list(rows) if rows is not None else [],
        "gates": dict(gates) if gates is not None else {},
    }
    if floor_skipped_reason is not None:
        payload["floor_skipped_reason"] = floor_skipped_reason
    path = os.path.join(results_dir, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[saved {path}]")
    return path
