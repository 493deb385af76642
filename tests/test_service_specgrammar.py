"""The shared key=value spec grammar (PR 7).

Covers the grammar primitives (:mod:`repro.service.specgrammar`)
property-style — parse → format → parse is a fixed point — plus the
registry integration both spec registries share: every registered
executor/source/sink accepts the key=value form, positional tails
outside mechanism specs are errors listing the valid keys, and unknown
keys or bad values fail at parse time listing the valid alternatives.
"""

import warnings

import numpy as np
import pytest

from hypothesis import given, strategies as st

from repro.cep.patterns import Pattern
from repro.io.registry import (
    registered_sinks,
    registered_sources,
    resolve_sink,
    resolve_source,
)
from repro.io.registry import _SINKS, _SOURCES
from repro.io.sinks import MetricsSink
from repro.io.sources import SyntheticSource
from repro.runtime.cluster import ClusterExecutor
from repro.runtime.executors import ShardedExecutor
from repro.service.registry import (
    _EXECUTORS,
    build_executor_from_spec,
    registered_executors,
    validate_executor_spec,
)
from repro.service.spec import ServiceSpec
from repro.service.specgrammar import (
    SpecKey,
    coerce_scalar,
    format_spec,
    format_value,
    is_kv_tail,
    kv_kwargs,
    parse_kv_tail,
)
from repro.streams.indicator import EventAlphabet, IndicatorStream


def equivalent(left, right) -> bool:
    """Structural equality: same type, same state, recursively."""
    if type(left) is not type(right):
        return False
    if hasattr(left, "__dict__"):
        state, other = vars(left), vars(right)
        return state.keys() == other.keys() and all(
            equivalent(state[key], other[key]) for key in state
        )
    return left == right


# ---------------------------------------------------------------------------
# Grammar primitives: parse -> format -> parse round-trips
# ---------------------------------------------------------------------------

_KEY_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_-]{0,11}", fullmatch=True)


def _plain_word(text: str) -> bool:
    """A string value that survives coercion as a string."""
    if text in ("true", "false"):
        return False
    for kind in (int, float):
        try:
            kind(text)
            return False
        except ValueError:
            continue
    return True


_WORDS = st.from_regex(
    r"[A-Za-z_][A-Za-z0-9_.]{0,11}", fullmatch=True
).filter(_plain_word)

_VALUES = st.one_of(
    st.integers(min_value=-(10**9), max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    _WORDS,
)


@given(
    st.dictionaries(_KEY_NAMES, _VALUES, min_size=1, max_size=6)
)
def test_format_parse_round_trip(pairs):
    spec = format_spec("name", sorted(pairs.items()))
    _name, _, tail = spec.partition(":")
    assert is_kv_tail(tail)
    parsed = parse_kv_tail(tail, where="test")
    assert [key for key, _value in parsed] == sorted(pairs)
    for key, raw in parsed:
        value = coerce_scalar(raw)
        expected = pairs[key]
        if isinstance(expected, float):
            assert float(value) == expected
        else:
            assert value == expected and type(value) is type(expected)
    # Formatting the parsed pairs reproduces the spec: a fixed point.
    assert format_spec(
        "name", [(key, coerce_scalar(raw)) for key, raw in parsed]
    ) == spec


@given(_VALUES)
def test_value_coercion_round_trip(value):
    coerced = coerce_scalar(format_value(value))
    if isinstance(value, float):
        assert float(coerced) == value
    else:
        assert coerced == value and type(coerced) is type(value)


def test_is_kv_tail_schema_gating():
    # Unrestricted: any identifier= switches into key=value mode.
    assert is_kv_tail("workers=8")
    assert not is_kv_tail("process:8")
    assert not is_kv_tail("8=x")  # keys cannot start with a digit
    # Raw-tail schema: only *declared* keys switch modes, so a path
    # containing '=' stays a path.
    keys = (SpecKey("path", raw=True),)
    assert is_kv_tail("path=data.csv", keys=keys)
    assert not is_kv_tail("data=1.csv", keys=keys)


def test_parse_kv_tail_errors():
    with pytest.raises(ValueError, match="duplicate key 'a'"):
        parse_kv_tail("a=1,a=2", where="test")
    with pytest.raises(ValueError, match="is not 'key=value'"):
        parse_kv_tail("a=1,b", where="test")


def test_kv_kwargs_maps_dest_and_rejects_unknown_keys():
    keys = (SpecKey("workers", dest="n_workers"), SpecKey("backend"))
    assert kv_kwargs("workers=8,backend=process", keys, where="w") == {
        "n_workers": 8,
        "backend": "process",
    }
    with pytest.raises(
        ValueError,
        match=r"unknown key 'werkers' for w; valid keys: backend, workers",
    ):
        kv_kwargs("werkers=8", keys, where="w")


# ---------------------------------------------------------------------------
# Registry integration: both registries speak the same grammar
# ---------------------------------------------------------------------------

#: A key=value spelling for every registered name with a parameterized
#: tail.  Bare names (batch, memory, queue, callback) take no tail and
#: are covered by the no-argument loop below.
EXECUTOR_SPECS = [
    "sharded:backend=thread,workers=8",
    "cluster:workers=4",
]

SOURCE_SPECS = [
    "synthetic:generator=bernoulli,windows=400,seed=21",
    "csv:path=/tmp/in.csv",
    "jsonl:path=/tmp/in.jsonl",
    "replay:path=/tmp/in.csv",
    "broker:url=redis://h:7777,stream=s,group=g,consumer=c0",
]

SINK_SPECS = [
    "metrics:alpha=0.7",
    "csv:path=/tmp/out.csv",
    "jsonl:path=/tmp/out.jsonl",
    "broker:url=redis://h:7777,stream=out,eos=1",
]


def test_kv_specs_are_key_order_insensitive():
    assert equivalent(
        build_executor_from_spec("sharded:backend=thread,workers=8"),
        build_executor_from_spec("sharded:workers=8,backend=thread"),
    )
    assert equivalent(
        resolve_source(SOURCE_SPECS[-1]),
        resolve_source(
            "broker:consumer=c0,group=g,stream=s,url=redis://h:7777"
        ),
    )
    assert equivalent(
        resolve_sink(SINK_SPECS[-1]),
        resolve_sink("broker:eos=1,stream=out,url=redis://h:7777"),
    )


@pytest.mark.parametrize(
    "resolve,address,keyed",
    [
        (resolve_source, "csv:/tmp/in.csv", "csv:path=/tmp/in.csv"),
        (resolve_source, "jsonl:/tmp/in.jsonl", "jsonl:path=/tmp/in.jsonl"),
        (resolve_source, "replay:/tmp/in.csv", "replay:path=/tmp/in.csv"),
        (resolve_sink, "csv:/tmp/out.csv", "csv:path=/tmp/out.csv"),
        (resolve_sink, "jsonl:/tmp/out.jsonl", "jsonl:path=/tmp/out.jsonl"),
    ],
)
def test_address_tail_equals_kv(resolve, address, keyed):
    """Raw address tails stay first-class: they build the same
    connector as the key=value spelling."""
    assert equivalent(resolve(address), resolve(keyed))


@pytest.mark.parametrize(
    "resolve,spec,keys",
    [
        (
            build_executor_from_spec,
            "sharded:thread:8",
            "backend, transport, workers",
        ),
        (build_executor_from_spec, "cluster:4", "transport, workers"),
        (
            resolve_source,
            "synthetic:bernoulli:400:21",
            "generator, p, seed, windows",
        ),
        (resolve_sink, "metrics:0.7", "alpha"),
    ],
    ids=["sharded", "cluster", "synthetic", "metrics"],
)
def test_positional_tail_is_an_error_listing_valid_keys(resolve, spec, keys):
    """Outside mechanism specs a positional tail is no grammar: the
    error names the key=value form and every valid key."""
    with pytest.raises(ValueError) as raised:
        resolve(spec)
    message = str(raised.value)
    assert f"{spec!r} has a positional tail" in message
    assert message.endswith(f"(valid keys: {keys})")


@pytest.mark.parametrize(
    "resolve,spec,direct",
    [
        (
            build_executor_from_spec,
            "sharded:workers=4",
            lambda: ShardedExecutor(4),
        ),
        (build_executor_from_spec, "sharded:backend=thread", ShardedExecutor),
        (
            build_executor_from_spec,
            "sharded:backend=thread,workers=8",
            lambda: ShardedExecutor(8),
        ),
        (
            build_executor_from_spec,
            "cluster:workers=4",
            lambda: ClusterExecutor(4),
        ),
        (
            resolve_source,
            "synthetic:generator=bernoulli,windows=400,seed=21",
            lambda: SyntheticSource("bernoulli", 400, 21),
        ),
        (resolve_sink, "metrics:alpha=0.7", lambda: MetricsSink(alpha=0.7)),
    ],
    ids=[
        "sharded-workers",
        "sharded-backend",
        "sharded-backend-workers",
        "cluster-workers",
        "synthetic",
        "metrics",
    ],
)
def test_kv_spec_builds_what_its_keys_say(resolve, spec, direct):
    """Each key lands on the constructor argument it names (the
    positional spellings these replaced are errors now)."""
    assert equivalent(resolve(spec), direct())


@pytest.mark.parametrize(
    "positional,keyed",
    [
        ("uniform-ppm:2.0", "uniform-ppm:epsilon=2.0"),
        ("bd:0.5:10", "bd:epsilon=0.5,w=10"),
        ("ba:0.5:10", "ba:epsilon=0.5,w=10"),
        ("event-rr:1.0", "event-rr:epsilon=1.0"),
    ],
    ids=["uniform-ppm", "bd", "ba", "event-rr"],
)
def test_mechanism_positional_tail_equals_kv(positional, keyed):
    """Mechanism specs keep their short positional tail: it releases
    exactly what the key=value spelling releases."""
    alphabet = EventAlphabet.numbered(4)
    rng = np.random.default_rng(11)
    stream = IndicatorStream(alphabet, rng.random((60, 4)) < 0.4)

    def released(mechanism):
        return (
            ServiceSpec(
                alphabet=alphabet,
                patterns=[Pattern.of_types("p", "e1", "e2")],
                queries=[("q", Pattern.of_types("t", "e2", "e3"))],
                mechanism=mechanism,
                seed=5,
            )
            .build()
            .run(stream)
            .perturbed.matrix_view()
        )

    assert np.array_equal(released(positional), released(keyed))


def test_every_registered_name_has_a_key_schema():
    """Every registered executor/source/sink accepts key=value form.

    Names with declared keys parse a key=value tail; the specs above
    must cover every name that takes arguments, so a new registration
    with keys needs a spec here.
    """
    covered = {
        spec.split(":")[0]
        for spec in EXECUTOR_SPECS + SOURCE_SPECS + SINK_SPECS
    }
    for registry, names in (
        (_EXECUTORS, registered_executors()),
        (_SOURCES, registered_sources()),
        (_SINKS, registered_sinks()),
    ):
        for name in names:
            keys = registry.keys_for(name)
            if keys:
                assert name in covered, (
                    f"{name!r} declares keys {sorted(k.name for k in keys)}"
                    " but has no key=value spec in this test"
                )
            else:
                # Bare names resolve with no tail.
                registry.resolve(name)
    for spec in EXECUTOR_SPECS:
        build_executor_from_spec(spec)
    for spec in SOURCE_SPECS:
        resolve_source(spec)
    for spec in SINK_SPECS:
        resolve_sink(spec)


# -- parse-time failure modes ----------------------------------------------


def test_unknown_key_fails_at_parse_time_listing_valid_keys():
    with pytest.raises(
        ValueError,
        match=(
            r"unknown key 'transporte' for executor spec 'sharded'; "
            r"valid keys: backend, transport, workers"
        ),
    ):
        validate_executor_spec("sharded:transporte=zerocopy")
    with pytest.raises(
        ValueError, match=r"valid keys: transport, workers"
    ):
        validate_executor_spec("cluster:werkers=2")


def test_bad_transport_value_names_the_flag():
    with pytest.raises(
        ValueError,
        match=r"key 'transport': 'zerocopy': sharded executors run on "
        r"threads; for multi-process sharding use "
        r"'cluster:workers=N,transport=shm'",
    ):
        validate_executor_spec("sharded:transport=zerocopy")
    with pytest.raises(ValueError, match=r"unknown transport 'zerocpy'"):
        build_executor_from_spec("cluster:transport=zerocpy")


def test_kv_values_may_contain_colons():
    source = resolve_source("csv:path=/tmp/odd:name.csv")
    assert source.path == "/tmp/odd:name.csv"


def test_raw_tail_address_form_stays_first_class():
    """Paths that merely contain '=' are not key=value specs."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        source = resolve_source("csv:data=1.csv")
    assert source.path == "data=1.csv"
