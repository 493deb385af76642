"""Taxi fleet scenario: the paper's motivating example, end to end.

A fleet of taxis streams GPS fixes to a trusted CEP engine (Fig. 2).
Passengers do not want visits to sensitive locations revealed; traffic
services still need to know which cars are active in the target area.
This example runs the *full* pipeline — raw tuples, event extraction,
per-taxi windows, engine setup/service phases, pattern-level PPM — and
compares the residual quality against the w-event baseline.

Run:  python examples/taxi_fleet.py
"""

from repro.cep import CEPEngine, ContinuousQuery
from repro.core import MultiPatternPPM, UniformPatternPPM
from repro.datasets import (
    PRIVATE_PATTERNS,
    TARGET_PATTERNS,
    TAXI_ALPHABET,
    GridCity,
    TaxiConfig,
    fleet_data_stream,
    simulate_fleet,
    taxi_event_extractors,
)
from repro.baselines import BudgetDistribution, BudgetConverter
from repro.metrics import ConfusionCounts, mean_relative_error
from repro.streams import IndicatorStream
from repro.streams.extraction import extract_events
from repro.streams.merge import partition_by_source
from repro.streams.windows import CountWindows


def build_indicators(config: TaxiConfig, city: GridCity, traces):
    """Raw tuples -> events -> per-taxi windows -> indicators."""
    data_stream = fleet_data_stream(config, traces)
    events = extract_events(data_stream, taxi_event_extractors(city))
    print(f"extracted {len(events)} region events from the GPS stream")
    windows = []
    for _source, per_taxi in sorted(partition_by_source(events).items()):
        windows.extend(CountWindows(config.window_steps).assign(per_taxi))
    return IndicatorStream.from_event_windows(TAXI_ALPHABET, windows)


def score(engine: CEPEngine, report) -> float:
    """Quality Q = 0.5*Prec + 0.5*Rec micro-averaged over queries."""
    counts = ConfusionCounts()
    for query in engine.queries:
        counts = counts + ConfusionCounts.from_vectors(
            report.true_answers[query.name].detections,
            report.answers[query.name].detections,
        )
    return 0.5 * counts.precision + 0.5 * counts.recall


def main() -> None:
    config = TaxiConfig(n_taxis=40, n_steps=160)
    city = GridCity.generate(config, rng=1)
    print(f"city regions: {city.region_fractions()}")

    traces = simulate_fleet(config, rng=2)
    stream = build_indicators(config, city, traces)
    print(f"indicator stream: {stream.n_windows} windows\n")

    # --- Setup phase (Fig. 2): subjects and consumers register. -------
    for pattern in PRIVATE_PATTERNS:
        print(f"subject registered private pattern {pattern.expr.render()}")
    queries = [ContinuousQuery.for_pattern(p) for p in TARGET_PATTERNS]
    for pattern in TARGET_PATTERNS:
        print(f"consumer registered target query   {pattern.expr.render()}")

    epsilon = 2.0
    ppm = MultiPatternPPM(
        [UniformPatternPPM(pattern, epsilon) for pattern in PRIVATE_PATTERNS]
    )
    engine = CEPEngine(
        TAXI_ALPHABET,
        patterns=PRIVATE_PATTERNS,
        queries=queries,
        mechanism=ppm,
    )
    print(f"\nattached: {ppm.privacy_statement()}")

    # --- Service phase: consumers receive protected answers. ----------
    report = engine.process_indicators(stream, rng=3)
    q_pattern_level = score(engine, report)
    print(f"\npattern-level PPM quality Q = {q_pattern_level:.3f}")
    print(f"pattern-level MRE_Q = {mean_relative_error(1.0, q_pattern_level):.3f}")

    # --- Comparison: the w-event baseline noises the whole stream. ----
    # Same subjects and consumers, a second engine with the baseline.
    converter = BudgetConverter(max(len(p.elements) for p in PRIVATE_PATTERNS))
    native = converter.bd_native(epsilon, w=config.w)
    engine_bd = CEPEngine(
        TAXI_ALPHABET,
        patterns=PRIVATE_PATTERNS,
        queries=queries,
        mechanism=BudgetDistribution(native, w=config.w),
    )
    report_bd = engine_bd.process_indicators(stream, rng=3)
    q_bd = score(engine_bd, report_bd)
    print(f"\nw-event BD quality Q = {q_bd:.3f} (same pattern-level ε)")
    print(f"w-event BD MRE_Q = {mean_relative_error(1.0, q_bd):.3f}")

    advantage = mean_relative_error(1.0, q_bd) - mean_relative_error(
        1.0, q_pattern_level
    )
    print(f"\npattern-level advantage: {advantage:.3f} MRE points")


if __name__ == "__main__":
    main()
