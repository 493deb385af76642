"""The shared key=value spec grammar (PR 7).

Covers the grammar primitives (:mod:`repro.service.specgrammar`)
property-style — parse → format → parse is a fixed point — plus the
registry integration both spec registries share: every registered
executor/source/sink accepts the key=value form, legacy positional
specs resolve to identical objects (behind the deprecation warning
pinned in tests/test_service_deprecation.py), and unknown keys or bad
values fail at parse time listing the valid alternatives.
"""

import warnings

import pytest

from hypothesis import given, strategies as st

from repro.io.registry import (
    registered_sinks,
    registered_sources,
    resolve_sink,
    resolve_source,
)
from repro.io.registry import _SINKS, _SOURCES
from repro.service.registry import (
    _EXECUTORS,
    build_executor_from_spec,
    registered_executors,
    validate_executor_spec,
)
from repro.service.specgrammar import (
    SpecKey,
    coerce_scalar,
    format_spec,
    format_value,
    is_kv_tail,
    kv_kwargs,
    parse_kv_tail,
    suggest_kv_spec,
)
from repro.utils.deprecation import suppress_imperative_warnings


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


def test_suggest_kv_spec_shapes():
    keys = (SpecKey("size"), SpecKey("materialize"))
    assert suggest_kv_spec("chunked", (128, False), keys) == (
        "chunked:size=128,materialize=false"
    )
    # More arguments than keys: no faithful suggestion.
    assert suggest_kv_spec("chunked", (1, 2, 3), keys) is None


# ---------------------------------------------------------------------------
# Registry integration: both registries speak the same grammar
# ---------------------------------------------------------------------------

#: Legacy positional spelling -> equivalent key=value spelling, for
#: every registered name with a parameterized tail.  Bare names
#: (batch, memory, queue, callback) take no tail and are covered by
#: the no-argument loop below.
EXECUTOR_PAIRS = [
    ("chunked:128", "chunked:size=128"),
    ("sharded:4", "sharded:workers=4"),
    ("sharded:thread", "sharded:backend=thread"),
    ("sharded:thread:8", "sharded:backend=thread,workers=8"),
    ("cluster:4", "cluster:workers=4"),
]

SOURCE_PAIRS = [
    (
        "synthetic:bernoulli:400:21",
        "synthetic:generator=bernoulli,windows=400,seed=21",
    ),
    ("csv:/tmp/in.csv", "csv:path=/tmp/in.csv"),
    ("jsonl:/tmp/in.jsonl", "jsonl:path=/tmp/in.jsonl"),
    ("replay:/tmp/in.csv", "replay:path=/tmp/in.csv"),
    # broker was born with the key=value grammar (no positional
    # legacy); the pair pins key-order insensitivity instead.
    (
        "broker:url=redis://h:7777,stream=s,group=g,consumer=c0",
        "broker:consumer=c0,group=g,stream=s,url=redis://h:7777",
    ),
]

SINK_PAIRS = [
    ("metrics:0.7", "metrics:alpha=0.7"),
    ("csv:/tmp/out.csv", "csv:path=/tmp/out.csv"),
    ("jsonl:/tmp/out.jsonl", "jsonl:path=/tmp/out.jsonl"),
    (
        "broker:url=redis://h:7777,stream=out,eos=1",
        "broker:eos=1,stream=out,url=redis://h:7777",
    ),
]


@pytest.mark.parametrize("legacy,keyed", EXECUTOR_PAIRS)
def test_executor_legacy_equals_kv(legacy, keyed):
    with suppress_imperative_warnings():
        assert equivalent(
            build_executor_from_spec(legacy),
            build_executor_from_spec(keyed),
        )


@pytest.mark.parametrize("legacy,keyed", SOURCE_PAIRS)
def test_source_legacy_equals_kv(legacy, keyed):
    with suppress_imperative_warnings():
        assert equivalent(resolve_source(legacy), resolve_source(keyed))


@pytest.mark.parametrize("legacy,keyed", SINK_PAIRS)
def test_sink_legacy_equals_kv(legacy, keyed):
    with suppress_imperative_warnings():
        assert equivalent(resolve_sink(legacy), resolve_sink(keyed))


def test_every_registered_name_has_a_key_schema():
    """Every registered executor/source/sink accepts key=value form.

    Names with declared keys parse a key=value tail; the pairs above
    must cover every name that takes arguments, so a new registration
    with keys needs an equivalence pair here.
    """
    covered = {
        spec.split(":")[0]
        for _legacy, spec in EXECUTOR_PAIRS + SOURCE_PAIRS + SINK_PAIRS
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
                    " but has no legacy/kv equivalence pair in this test"
                )
            else:
                # Bare names resolve with no tail and never warn.
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    registry.resolve(name)


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


def test_positional_bad_token_names_token_and_flags():
    """A typo'd positional token names itself and the valid tokens; a
    retired process-backend token names the cluster instead."""
    with pytest.raises(
        ValueError,
        match=(
            r"unknown token 'zerocpy' in sharded executor spec; "
            r"expected 'thread' or a worker count"
        ),
    ):
        with suppress_imperative_warnings():
            build_executor_from_spec("sharded:thread:8:zerocpy")
    with pytest.raises(ValueError, match=r"'process': .*'cluster:"):
        with suppress_imperative_warnings():
            build_executor_from_spec("sharded:process:8")


def test_kv_values_may_contain_colons():
    with suppress_imperative_warnings():
        source = resolve_source("csv:path=/tmp/odd:name.csv")
    assert source.path == "/tmp/odd:name.csv"


def test_raw_tail_address_form_stays_first_class():
    """Paths that merely contain '=' are not key=value specs."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        source = resolve_source("csv:data=1.csv")
    assert source.path == "data=1.csv"
