"""Tests for repro.service.spec — the declarative service description."""

import dataclasses
import json
import re

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cep.engine import QualityRequirement
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery
from repro.service import (
    PatternSpec,
    QualitySpec,
    QuerySpec,
    ServiceSpec,
    UnknownSpecError,
    registered_executors,
    registered_mechanisms,
)
from repro.streams.indicator import EventAlphabet


def small_spec(**overrides) -> ServiceSpec:
    kwargs = dict(
        alphabet=("e1", "e2", "e3", "e4"),
        patterns=[("private", ("e1", "e2"))],
        queries=[("q", ("e2", "e3"))],
        mechanism="uniform-ppm",
        mechanism_options={"epsilon": 2.0},
        executor="batch",
        seed=7,
    )
    kwargs.update(overrides)
    return ServiceSpec(**kwargs)


class TestConstructionNormalization:
    def test_accepts_domain_objects(self):
        spec = ServiceSpec(
            alphabet=EventAlphabet.numbered(4),
            patterns=[Pattern.of_types("p", "e1", "e2")],
            queries=[
                ContinuousQuery("q", Pattern.of_types("t", "e2", "e3"))
            ],
            quality=QualityRequirement(alpha=0.7, max_mre=0.2),
        )
        assert spec.alphabet == ("e1", "e2", "e3", "e4")
        assert spec.patterns == (PatternSpec("p", ("e1", "e2")),)
        assert spec.queries == (
            QuerySpec("q", PatternSpec("t", ("e2", "e3"))),
        )
        assert spec.quality == QualitySpec(alpha=0.7, max_mre=0.2)

    def test_spec_is_frozen(self):
        spec = small_spec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.seed = 8

    def test_pattern_outside_alphabet_rejected(self):
        with pytest.raises(ValueError, match="absent from the spec"):
            small_spec(patterns=[("p", ("e1", "e9"))])

    def test_query_outside_alphabet_rejected(self):
        with pytest.raises(ValueError, match="absent from the spec"):
            small_spec(queries=[("q", ("e9",))])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            small_spec(
                patterns=[("p", ("e1",)), ("p", ("e2",))]
            )
        with pytest.raises(ValueError, match="duplicate"):
            small_spec(queries=[("q", ("e1",)), ("q", ("e2",))])

    def test_non_sequential_pattern_rejected(self):
        from repro.cep.patterns import AND

        pattern = Pattern("p", AND("e1", "e2", "e1"))
        assert pattern.elements is None
        with pytest.raises(ValueError, match="no element list"):
            small_spec(patterns=[pattern])

    def test_bad_seed_rejected(self):
        with pytest.raises(TypeError, match="seed"):
            small_spec(seed="7")
        with pytest.raises(TypeError, match="seed"):
            small_spec(seed=True)

    def test_numpy_integer_seed_coerced(self):
        import numpy as np

        spec = small_spec(seed=np.int64(7))
        assert spec.seed == 7
        assert type(spec.seed) is int
        assert spec == small_spec(seed=7)

    def test_bad_accounting_rejected(self):
        with pytest.raises(ValueError):
            small_spec(accounting=-1.0)

    def test_non_json_option_rejected(self):
        with pytest.raises(TypeError, match="JSON-serializable"):
            small_spec(mechanism_options={"epsilon": object()})

    def test_with_replaces_fields(self):
        spec = small_spec()
        other = spec.with_(seed=9, executor="sharded:workers=2")
        assert other.seed == 9
        assert other.executor == "sharded:workers=2"
        assert other.alphabet == spec.alphabet
        assert spec.seed == 7


class TestUnknownSpecs:
    def test_unknown_mechanism_lists_registered_names(self):
        with pytest.raises(UnknownSpecError) as excinfo:
            small_spec(mechanism="uniform-ppmm")
        message = str(excinfo.value)
        assert "unknown mechanism spec 'uniform-ppmm'" in message
        for name in registered_mechanisms():
            assert name in message

    def test_unknown_executor_lists_registered_names(self):
        with pytest.raises(UnknownSpecError) as excinfo:
            small_spec(executor="scharded:4")
        message = str(excinfo.value)
        assert "unknown executor spec 'scharded'" in message
        for name in registered_executors():
            assert name in message

    def test_unknown_spec_error_is_value_error(self):
        assert issubclass(UnknownSpecError, ValueError)

    def test_unknown_window_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown window spec"):
            small_spec(window="rolling:10")

    def test_malformed_window_args_rejected(self):
        with pytest.raises(ValueError, match="window spec"):
            small_spec(window="tumbling")
        with pytest.raises(ValueError, match="window spec"):
            small_spec(window="tumbling:10:5")

    def test_sliding_windows_are_not_a_window_kind(self):
        # Overlapping windows would release each event once per window
        # covering it under the full epsilon.
        message = (
            "unknown window spec 'sliding'; known window kinds: "
            "count, session, tumbling"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            small_spec(window="sliding:10:5")

    @pytest.mark.parametrize(
        "window, message",
        [
            ("tumbling:0", "width must be > 0, got 0.0"),
            ("count:-3", "size must be > 0, got -3"),
            ("session:-2", "gap must be > 0, got -2.0"),
            ("count:2.5", "size must be an int, got float"),
            ("tumbling:-1", "width must be > 0, got -1.0"),
            ("tumbling:nan", "width must not be NaN"),
            ("tumbling:inf", "width must be finite, got inf"),
            ("tumbling:abc", "width must be a real number, got str"),
            ("tumbling:", "width must be a real number, got str"),
            ("count:0", "size must be > 0, got 0"),
            ("count:1e3", "size must be an int, got float"),
            ("count:inf", "size must be an int, got float"),
            ("count:abc", "size must be an int, got str"),
            ("session:0", "gap must be > 0, got 0.0"),
            ("session:nan", "gap must not be NaN"),
            ("session:inf", "gap must be finite, got inf"),
            ("session:abc", "gap must be a real number, got str"),
        ],
    )
    def test_window_values_fail_at_construction(self, window, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            small_spec(window=window)

    @pytest.mark.parametrize(
        "window, usage",
        [
            ("tumbling", "tumbling:<width>"),
            ("count", "count:<size>"),
            ("session", "session:<gap>"),
            ("tumbling:10:5", "tumbling:<width>"),
            ("count:3:1", "count:<size>"),
            ("session:1:2", "session:<gap>"),
        ],
    )
    def test_window_arity_fails_at_construction(self, window, usage):
        message = f"window spec {window!r} must be {usage}"
        with pytest.raises(ValueError, match=re.escape(message)):
            small_spec(window=window)

    @pytest.mark.parametrize(
        "window, kind",
        [
            ("sliding:10", "sliding"),
            ("hopping:3", "hopping"),
            ("rolling:10", "rolling"),
            (":10", ""),
        ],
    )
    def test_unknown_window_kinds_list_the_known_ones(self, window, kind):
        message = (
            f"unknown window spec {kind!r}; known window kinds: "
            "count, session, tumbling"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            small_spec(window=window)

    @pytest.mark.parametrize(
        "route", ["from_dict", "from_json", "with_", "tenant"]
    )
    @pytest.mark.parametrize(
        "window, message",
        [
            ("tumbling:0", "width must be > 0"),
            ("count:2.5", "size must be an int"),
            ("session:-2", "gap must be > 0"),
            ("sliding:10:5", "unknown window spec 'sliding'"),
        ],
        ids=["tumbling", "count", "session", "sliding"],
    )
    def test_every_construction_route_checks_the_window(
        self, window, message, route
    ):
        # A spec document must fail where it is read, not at its first
        # raw-event run.
        from repro.service import TenantSpec

        data = small_spec().to_dict()
        data["window"] = window
        with pytest.raises(ValueError, match=re.escape(message)):
            if route == "from_dict":
                ServiceSpec.from_dict(data)
            elif route == "from_json":
                ServiceSpec.from_json(json.dumps(data))
            elif route == "with_":
                small_spec().with_(window=window)
            else:
                tenant = {"format": 1, "name": "a", "service": data}
                TenantSpec.from_json(json.dumps(tenant))


class TestMechanismOptions:
    """Option dicts are checked against the spec string's key schema."""

    BD = {"epsilon": 1.0, "w": 10}

    def test_unknown_option_fails_at_construction(self):
        with pytest.raises(ValueError) as excinfo:
            small_spec(
                mechanism="bd", mechanism_options={**self.BD, "bogus": 3}
            )
        message = str(excinfo.value)
        assert "unknown key 'bogus' for mechanism spec 'bd'" in message
        assert "valid keys: conversion_mode, epsilon" in message

    @pytest.mark.parametrize("key", ["scan", "sensitivity"])
    @pytest.mark.parametrize("mechanism", ["bd", "ba", "landmark"])
    def test_removed_key_fails_at_construction(self, mechanism, key):
        with pytest.raises(ValueError) as excinfo:
            small_spec(
                mechanism=mechanism,
                mechanism_options={"epsilon": 1.0, key: "off"},
            )
        message = str(excinfo.value)
        assert f"unknown key '{key}' for mechanism spec" in message
        assert "valid keys: conversion_mode, epsilon" in message

    @pytest.mark.parametrize(
        "mechanism, options",
        [
            ("uniform-ppm", {"epsilon": 2.0}),
            ("bd", {"epsilon": 1.0, "w": 40}),
            ("bd", {"epsilon": 1.0, "w": 10, "conversion_mode": "worst_case"}),
            ("user-rr", {"pattern_epsilon": 2.0, "n_windows": 50}),
        ],
    )
    def test_valid_options_construct(self, mechanism, options):
        spec = small_spec(mechanism=mechanism, mechanism_options=options)
        assert spec.mechanism_options == options

    def test_fleet_tenant_with_a_bad_option_fails_at_parsing(self):
        from repro.service import TenantSpec

        tenant = TenantSpec(
            name="a",
            service=small_spec(mechanism="bd", mechanism_options=self.BD),
        ).to_dict()
        for bad in ({"scan": "off"}, {"sensitivity": 1.0}, {"bogus": 3}):
            tenant["service"]["mechanism_options"] = {**self.BD, **bad}
            document = json.dumps(tenant)
            with pytest.raises(ValueError, match="mechanism spec 'bd'"):
                TenantSpec.from_json(document)


class TestWindowGrammar:
    @pytest.mark.parametrize(
        "spec_string, expected_type",
        [
            ("tumbling:10", "TumblingWindows"),
            ("count:25", "CountWindows"),
            ("session:3", "SessionWindows"),
        ],
    )
    def test_window_specs_build_assigners(self, spec_string, expected_type):
        assigner = small_spec(window=spec_string).window_assigner()
        assert type(assigner).__name__ == expected_type

    @pytest.mark.parametrize(
        "spec_string, expected",
        [
            ("tumbling:10.5", {"width": 10.5, "origin": None}),
            ("tumbling:1e-3", {"width": 0.001, "origin": None}),
            ("count:1", {"size": 1, "drop_partial": False}),
            ("count:25", {"size": 25, "drop_partial": False}),
            ("session:0.25", {"gap": 0.25}),
            ("session:3", {"gap": 3.0}),
        ],
    )
    def test_window_spec_value_reaches_the_assigner(
        self, spec_string, expected
    ):
        assigner = small_spec(window=spec_string).window_assigner()
        for name, value in expected.items():
            assert getattr(assigner, name) == value
        if spec_string.startswith("tumbling:"):
            # Empty windows keep per-window answers aligned with time.
            assert assigner.emit_empty is True

    @pytest.mark.parametrize(
        "spec_string", ["tumbling:10", "count:25", "session:3"]
    )
    def test_window_spec_survives_json(self, spec_string):
        spec = small_spec(window=spec_string)
        rebuilt = ServiceSpec.from_json(spec.to_json())
        assert rebuilt.window == spec_string
        assert vars(rebuilt.window_assigner()) == vars(
            spec.window_assigner()
        )

    def test_no_window_returns_none(self):
        assert small_spec().window_assigner() is None


class TestJsonRoundTrip:
    def test_round_trip_equality(self):
        spec = small_spec(
            mechanism="bd",
            mechanism_options={"epsilon": 1.0, "w": 10},
            executor="sharded:backend=thread,workers=8",
            executor_options={"n_shards": 4},
            accounting=12.5,
            quality={"alpha": 0.25, "max_mre": 0.5},
            window="tumbling:10",
        )
        assert ServiceSpec.from_json(spec.to_json()) == spec

    def test_round_trip_through_dict(self):
        spec = small_spec()
        assert ServiceSpec.from_dict(spec.to_dict()) == spec

    def test_json_is_stable_and_loadable(self):
        spec = small_spec()
        document = spec.to_json()
        assert json.loads(document)["mechanism"] == "uniform-ppm"
        assert spec.to_json() == document  # deterministic

    def test_unknown_dict_fields_rejected(self):
        data = small_spec().to_dict()
        data["mechnism"] = "bd"
        with pytest.raises(ValueError, match="unknown fields"):
            ServiceSpec.from_dict(data)

    def test_tuple_options_normalize_to_lists(self):
        spec = small_spec(
            mechanism="landmark",
            mechanism_options={
                "epsilon": 1.0,
                "landmarks": (True, False, True),
            },
        )
        assert spec.mechanism_options["landmarks"] == [True, False, True]
        assert ServiceSpec.from_json(spec.to_json()) == spec


# -- property tests ---------------------------------------------------------


@st.composite
def service_specs(draw):
    n_types = draw(st.integers(min_value=1, max_value=6))
    alphabet = tuple(f"e{i + 1}" for i in range(n_types))

    def patterns(prefix):
        count = draw(st.integers(min_value=0, max_value=3))
        result = []
        for index in range(count):
            elements = draw(
                st.lists(
                    st.sampled_from(alphabet), min_size=1, max_size=4
                )
            )
            result.append((f"{prefix}{index}", tuple(elements)))
        return tuple(result)

    mechanism = draw(
        st.one_of(st.none(), st.sampled_from(sorted(registered_mechanisms())))
    )
    options = {}
    if mechanism is not None:
        options["epsilon"] = draw(
            st.floats(min_value=0.1, max_value=8.0, allow_nan=False)
        )
    executor = draw(
        st.sampled_from(["batch", "sharded:workers=2", "cluster:workers=2"])
    )
    return ServiceSpec(
        alphabet=alphabet,
        patterns=patterns("p"),
        queries=patterns("q"),
        mechanism=mechanism,
        mechanism_options=options,
        executor=executor,
        accounting=draw(
            st.one_of(
                st.none(),
                st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
            )
        ),
        quality=QualitySpec(
            alpha=draw(st.floats(min_value=0.0, max_value=1.0)),
            max_mre=draw(
                st.one_of(
                    st.none(),
                    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
                )
            ),
        ),
        window=draw(st.one_of(st.none(), st.just("tumbling:10"))),
        seed=draw(st.one_of(st.none(), st.integers(0, 2**31))),
    )


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(spec=service_specs())
    def test_from_json_to_json_is_identity(self, spec):
        assert ServiceSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=60, deadline=None)
    @given(spec=service_specs())
    def test_json_form_is_canonical(self, spec):
        assert ServiceSpec.from_json(spec.to_json()).to_json() == spec.to_json()


class TestSourceSinkFields:
    """PR 5: declarative source=/sink= connector fields on the spec."""

    def test_defaults_are_none(self):
        spec = small_spec()
        assert spec.source is None
        assert spec.sink is None
        assert spec.source_options == {}
        assert spec.sink_options == {}

    def test_known_connectors_accepted(self):
        spec = small_spec(
            source="csv:/tmp/stream.csv",
            source_options={},
            sink="metrics",
            sink_options={"alpha": 0.25},
        )
        assert spec.source == "csv:/tmp/stream.csv"
        assert spec.sink == "metrics"

    def test_unknown_source_lists_registered_names(self):
        from repro.io import registered_sources

        with pytest.raises(UnknownSpecError) as excinfo:
            small_spec(source="kafka:trips")
        message = str(excinfo.value)
        assert "unknown source spec 'kafka'" in message
        for name in registered_sources():
            assert name in message

    def test_unknown_sink_lists_registered_names(self):
        from repro.io import registered_sinks

        with pytest.raises(UnknownSpecError) as excinfo:
            small_spec(sink="s3:bucket")
        message = str(excinfo.value)
        assert "unknown sink spec 's3'" in message
        for name in registered_sinks():
            assert name in message

    def test_round_trip_with_connectors(self):
        spec = small_spec(
            source="synthetic:generator=bernoulli,windows=500,seed=3",
            sink="jsonl:/tmp/out.jsonl",
            sink_options={},
            source_options={"p": 0.4},
        )
        assert ServiceSpec.from_json(spec.to_json()) == spec
        assert json.loads(spec.to_json())["source"] == (
            "synthetic:generator=bernoulli,windows=500,seed=3"
        )

    def test_old_json_without_connector_fields_still_loads(self):
        # A PR-4 era spec dict (no source/sink keys) must keep loading.
        data = small_spec().to_dict()
        for key in ("source", "source_options", "sink", "sink_options"):
            del data[key]
        assert ServiceSpec.from_dict(data) == small_spec()

    def test_non_json_connector_options_rejected(self):
        with pytest.raises(TypeError, match="JSON-serializable"):
            small_spec(source="memory", source_options={"fn": object()})
