"""Round-trip parity: connector-fed runs are bit-identical to in-memory.

The acceptance bar of the I/O layer: for every registered mechanism
spec, ``run`` with ``source="csv:..."``/``sink="csv:..."`` produces
exactly the releases, query verdicts and ``last_trace`` of the
in-memory path — and a :class:`StreamGateway` serving two tenants
produces per-tenant outputs identical to running each spec alone.
"""

import asyncio
import warnings

import numpy as np
import pytest

from repro.baselines.landmark import landmarks_from_pattern
from repro.io import read_indicator_csv, write_indicator_csv
from repro.service import ServiceSpec, StreamGateway, StreamService
from repro.streams.indicator import EventAlphabet, IndicatorStream

ALPHABET = ("e1", "e2", "e3", "e4", "e5")
SEED = 11


@pytest.fixture(scope="module")
def stream():
    rng = np.random.default_rng(5)
    return IndicatorStream(
        EventAlphabet(ALPHABET), rng.random((120, 5)) < 0.45
    )


@pytest.fixture(scope="module")
def history():
    rng = np.random.default_rng(6)
    return IndicatorStream(
        EventAlphabet(ALPHABET), rng.random((60, 5)) < 0.45
    )


@pytest.fixture(scope="module")
def csv_path(stream, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("io-parity") / "stream.csv")
    write_indicator_csv(stream, path)
    return path


def mechanism_options(mechanism_spec, stream):
    if mechanism_spec in ("bd", "ba"):
        return {"epsilon": 1.0, "w": 10}
    if mechanism_spec == "landmark":
        return {
            "epsilon": 1.0,
            "landmarks": [
                bool(flag)
                for flag in landmarks_from_pattern(stream, ["e1", "e2"])
            ],
        }
    if mechanism_spec == "user-rr":
        return {"epsilon": 60.0}
    return {"epsilon": 2.0}


#: Every registered mechanism spec of the paper's evaluation.
MECHANISMS = [
    "uniform-ppm",
    "adaptive-ppm",
    "bd",
    "ba",
    "landmark",
    "event-rr",
    "user-rr",
]


def spec_for(mechanism_spec, stream, **overrides):
    kwargs = dict(
        alphabet=ALPHABET,
        patterns=[("private", ("e1", "e2"))],
        queries=[("q", ("e2", "e3"))],
        mechanism=mechanism_spec,
        mechanism_options=mechanism_options(mechanism_spec, stream),
        seed=SEED,
    )
    kwargs.update(overrides)
    return ServiceSpec(**kwargs)


def assert_reports_identical(report, expected):
    assert set(report.answers) == set(expected.answers)
    for name in expected.answers:
        assert np.array_equal(
            report.answers[name].detections,
            expected.answers[name].detections,
        )
    assert np.array_equal(
        report.perturbed.matrix_view(), expected.perturbed.matrix_view()
    )


def assert_traces_identical(service, expected_service):
    trace = getattr(service.mechanism, "last_trace", None)
    expected = getattr(expected_service.mechanism, "last_trace", None)
    assert (trace is None) == (expected is None)
    if trace is None:
        return
    assert np.array_equal(trace.published, expected.published)
    assert np.array_equal(
        trace.publication_budgets, expected.publication_budgets
    )
    assert np.array_equal(
        trace.dissimilarity_budgets, expected.dissimilarity_budgets
    )


@pytest.mark.parametrize("mechanism_spec", MECHANISMS)
class TestFileRoundTripMatchesInMemory:
    def test_csv_source_and_sink_bit_identical(
        self, mechanism_spec, stream, history, csv_path, tmp_path
    ):
        out_path = str(tmp_path / "released.csv")
        in_memory_service = spec_for(mechanism_spec, stream).build(
            history=history
        )
        expected = in_memory_service.run(stream)

        spec = spec_for(
            mechanism_spec,
            stream,
            source=f"csv:{csv_path}",
            sink=f"csv:{out_path}",
        )
        # The acceptance bar: reproducible from the JSON blob alone.
        service = StreamService(
            ServiceSpec.from_json(spec.to_json()), history=history
        )
        report = service.run()

        assert_reports_identical(report, expected)
        assert_traces_identical(service, in_memory_service)
        # The sink egressed exactly the released stream.
        assert read_indicator_csv(out_path) == expected.perturbed

    def test_replay_source_matches_csv_source(
        self, mechanism_spec, stream, history, csv_path
    ):
        spec = spec_for(mechanism_spec, stream)
        via_csv = spec.build(history=history).run(f"csv:{csv_path}")
        via_replay = spec.build(history=history).run(
            f"replay:{csv_path}:0"
        )
        assert_reports_identical(via_replay, via_csv)

    def test_pump_matches_online_session(
        self, mechanism_spec, stream, history, csv_path
    ):
        if mechanism_spec == "user-rr":
            pytest.skip("sessions reject the horizon-less user-rr")
        spec = spec_for(mechanism_spec, stream)
        session = spec.build(history=history).open_session()
        expected = session.run(stream)
        pumped = asyncio.run(
            spec.build(history=history).pump(f"csv:{csv_path}")
        )
        assert pumped == expected


class TestMemorySinkMatchesReport:
    def test_memory_sink_collects_the_report(self, stream):
        spec = spec_for("uniform-ppm", stream, sink="memory")
        service = spec.build()
        report = service.run(stream)
        result = service.last_sink.result()
        assert result["released"] == report.perturbed
        assert result["answers"] == {
            name: [bool(v) for v in answer.detections]
            for name, answer in report.answers.items()
        }

    def test_metrics_sink_matches_report_quality(self, stream):
        spec = spec_for("uniform-ppm", stream, sink="metrics")
        service = spec.build()
        report = service.run(stream)
        result = service.last_sink.result()
        assert result["quality"].q == pytest.approx(
            report.measured_quality().q
        )
        assert result["mre"] == pytest.approx(report.measured_mre())


class TestGatewayMatchesRunningAlone:
    """Two tenants, one loop — outputs identical to serving each alone."""

    def test_two_tenants_bit_identical_to_alone(
        self, stream, history, csv_path, tmp_path
    ):
        other_stream = IndicatorStream(
            EventAlphabet(ALPHABET),
            np.random.default_rng(77).random((90, 5)) < 0.35,
        )
        other_path = str(tmp_path / "other.csv")
        write_indicator_csv(other_stream, other_path)

        spec_a = spec_for(
            "uniform-ppm", stream, source=f"csv:{csv_path}", seed=7
        )
        spec_b = spec_for(
            "bd", other_stream, source=f"csv:{other_path}", seed=8
        )

        gateway = StreamGateway()
        gateway.add_tenant("ppm", spec_a)
        gateway.add_tenant("w-event", spec_b)
        results = gateway.run()

        alone_a = asyncio.run(spec_a.build().pump())
        alone_b = asyncio.run(spec_b.build().pump())
        assert results["ppm"] == alone_a
        assert results["w-event"] == alone_b

    def test_gateway_never_warns_deprecation(self, stream, csv_path):
        gateway = StreamGateway()
        gateway.add_tenant(
            "a", spec_for("uniform-ppm", stream, source=f"csv:{csv_path}")
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            gateway.run()
