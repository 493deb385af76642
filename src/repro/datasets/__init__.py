"""Evaluation datasets (Section VI-A.1).

- :mod:`repro.datasets.taxi` — the T-Drive-substitute grid-city taxi
  simulator (see DESIGN.md "Substitutions");
- :mod:`repro.datasets.synthetic` — Algorithm 2, verbatim;
- :mod:`repro.datasets.workload` — the workload bundle the experiment
  harness consumes.

Indicator streams persist through the connector layer
(:func:`repro.io.read_indicator_csv` / :func:`repro.io.write_indicator_csv`).
"""

from repro.datasets.synthetic import (
    SyntheticConfig,
    synthesize_dataset,
    synthesize_many,
)
from repro.datasets.taxi import (
    PRIVATE_PATTERNS,
    TARGET_PATTERNS,
    TAXI_ALPHABET,
    GridCity,
    TaxiConfig,
    build_taxi_workload,
    fleet_data_stream,
    simulate_fleet,
    simulate_trace,
    taxi_event_extractors,
    traces_to_indicator_stream,
)
from repro.datasets.workload import Workload

__all__ = [
    "GridCity",
    "PRIVATE_PATTERNS",
    "SyntheticConfig",
    "TARGET_PATTERNS",
    "TAXI_ALPHABET",
    "TaxiConfig",
    "Workload",
    "build_taxi_workload",
    "fleet_data_stream",
    "simulate_fleet",
    "simulate_trace",
    "synthesize_dataset",
    "synthesize_many",
    "taxi_event_extractors",
    "traces_to_indicator_stream",
]
