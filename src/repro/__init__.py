"""repro — pattern-level differential privacy for data streams.

A complete reproduction of "Differential Privacy for Protecting Private
Patterns in Data Streams" (Gu, Plagemann, Benndorf, Goebel, Koldehofe —
ICDE 2023): the pattern-level ε-DP guarantee, the uniform and adaptive
pattern-level PPMs, the CEP engine and stream substrates they run on,
the non-pattern-level baselines they are compared against, both
evaluation datasets, and the harness regenerating the paper's Fig. 4.

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.baselines import (
    BudgetAbsorption,
    BudgetConverter,
    BudgetDistribution,
    EventLevelRR,
    LandmarkPrivacy,
    UserLevelRR,
)
from repro.broker import (
    BrokerClient,
    BrokerSink,
    BrokerSource,
    FakeRedisServer,
    RetryPolicy,
)
from repro.cep import (
    AND,
    AsyncSession,
    Atom,
    CEPEngine,
    ContinuousQuery,
    EventPredicate,
    KLEENE,
    NEG,
    OR,
    OnlineSession,
    Pattern,
    PatternMatch,
    PatternMatcher,
    PatternStream,
    SEQ,
)
from repro.core import (
    AdaptivePatternPPM,
    AnalyticQualityEstimator,
    BudgetAllocation,
    CountingQuery,
    EventStreamPPM,
    MonteCarloQualityEstimator,
    MultiPatternPPM,
    PatternLevelGuarantee,
    PatternLevelPPM,
    UniformPatternPPM,
    discover_relevant_events,
    verify_instance_dp,
    verify_single_event_dp,
)
from repro.datasets import (
    SyntheticConfig,
    TaxiConfig,
    Workload,
    build_taxi_workload,
    synthesize_dataset,
    synthesize_many,
)
from repro.experiments import (
    ExperimentConfig,
    run_fig4_synthetic,
    run_fig4_taxi,
)
from repro.mechanisms import (
    LaplaceMechanism,
    PrivacyAccountant,
    RandomizedResponse,
)
from repro.metrics import ConfusionCounts, DataQuality, mean_relative_error
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanRecorder,
    run_soak,
    trace_span,
)
from repro.runtime import (
    BatchExecutor,
    ClusterExecutor,
    ShardedExecutor,
    StreamPipeline,
)
from repro.io import (
    CallbackSink,
    QueueSource,
    register_sink,
    register_source,
    registered_sinks,
    registered_sources,
)
from repro.service import (
    ServiceSpec,
    StreamGateway,
    StreamService,
    TenantSpec,
    register_executor,
    register_mechanism,
    registered_executors,
    registered_mechanisms,
)
from repro.streams import (
    DataStream,
    Event,
    EventAlphabet,
    EventStream,
    IndicatorStream,
)


def _resolve_version() -> str:
    """Single-source the package version from the build metadata.

    A source checkout (``PYTHONPATH=src``) reads ``pyproject.toml``
    next to the imported tree — consulted *first*, so a stale installed
    distribution can never shadow the tree actually being imported;
    installed packages (no pyproject on disk) answer through
    ``importlib.metadata``.
    """
    try:
        from pathlib import Path

        pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
        text = pyproject.read_text(encoding="utf-8")
        try:
            import tomllib

            project = tomllib.loads(text)["project"]
            if project.get("name") == "repro-pattern-dp":
                return project["version"]
        except ModuleNotFoundError:  # Python 3.10: no tomllib
            import re

            if 'name = "repro-pattern-dp"' in text:
                match = re.search(
                    r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE
                )
                if match:
                    return match.group(1)
    except (OSError, KeyError):
        pass
    import importlib.metadata

    try:
        return importlib.metadata.version("repro-pattern-dp")
    except importlib.metadata.PackageNotFoundError:
        return "0+unknown"


__version__ = _resolve_version()

__all__ = [
    "AND",
    "AdaptivePatternPPM",
    "AnalyticQualityEstimator",
    "AsyncSession",
    "Atom",
    "BatchExecutor",
    "BrokerClient",
    "BrokerSink",
    "BrokerSource",
    "BudgetAbsorption",
    "BudgetAllocation",
    "BudgetConverter",
    "BudgetDistribution",
    "CEPEngine",
    "CallbackSink",
    "ClusterExecutor",
    "ConfusionCounts",
    "ContinuousQuery",
    "Counter",
    "CountingQuery",
    "DataQuality",
    "DataStream",
    "Event",
    "EventAlphabet",
    "EventLevelRR",
    "EventPredicate",
    "EventStream",
    "EventStreamPPM",
    "ExperimentConfig",
    "FakeRedisServer",
    "Gauge",
    "Histogram",
    "IndicatorStream",
    "KLEENE",
    "LandmarkPrivacy",
    "LaplaceMechanism",
    "MetricsRegistry",
    "MonteCarloQualityEstimator",
    "MultiPatternPPM",
    "NEG",
    "OR",
    "OnlineSession",
    "Pattern",
    "PatternLevelGuarantee",
    "PatternLevelPPM",
    "PatternMatch",
    "PatternMatcher",
    "PatternStream",
    "PrivacyAccountant",
    "QueueSource",
    "RandomizedResponse",
    "RetryPolicy",
    "SEQ",
    "ServiceSpec",
    "ShardedExecutor",
    "SpanRecorder",
    "StreamGateway",
    "StreamPipeline",
    "StreamService",
    "SyntheticConfig",
    "TaxiConfig",
    "TenantSpec",
    "UniformPatternPPM",
    "UserLevelRR",
    "Workload",
    "build_taxi_workload",
    "discover_relevant_events",
    "mean_relative_error",
    "register_executor",
    "register_mechanism",
    "register_sink",
    "register_source",
    "registered_executors",
    "registered_mechanisms",
    "registered_sinks",
    "registered_sources",
    "run_fig4_synthetic",
    "run_fig4_taxi",
    "run_soak",
    "synthesize_dataset",
    "synthesize_many",
    "trace_span",
    "verify_instance_dp",
    "verify_single_event_dp",
]
