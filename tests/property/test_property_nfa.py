"""Property-based tests of the CEP matcher against reference semantics.

For sequences of plain event types, skip-till-any-match detection is
exactly the subsequence relation and strict contiguity the substring
relation — both easy to decide independently, giving a reference oracle
to test the NFA machinery against.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cep.matcher import PatternMatcher
from repro.cep.patterns import Pattern
from repro.streams.events import Event
from repro.streams.stream import EventStream


def match_pattern(pattern, stream, **options):
    return PatternMatcher(pattern, **options).feed(stream)


SYMBOLS = ["a", "b", "c"]

streams = st.lists(st.sampled_from(SYMBOLS), min_size=0, max_size=14)
patterns = st.lists(st.sampled_from(SYMBOLS), min_size=1, max_size=4)


def as_stream(symbols):
    return EventStream(
        [Event(symbol, float(i)) for i, symbol in enumerate(symbols)]
    )


def is_subsequence(needle, haystack):
    position = 0
    for symbol in haystack:
        if position < len(needle) and symbol == needle[position]:
            position += 1
    return position == len(needle)


def is_substring(needle, haystack):
    n = len(needle)
    return any(
        list(haystack[i : i + n]) == list(needle)
        for i in range(len(haystack) - n + 1)
    )


class TestMatcherOracle:
    @given(stream=streams, pattern=patterns)
    @settings(max_examples=150)
    def test_skip_till_any_equals_subsequence(self, stream, pattern):
        matches = match_pattern(
            Pattern.of_types("p", *pattern), as_stream(stream)
        )
        assert bool(len(matches)) == is_subsequence(pattern, stream)

    @given(stream=streams, pattern=patterns)
    @settings(max_examples=150)
    def test_strict_equals_substring(self, stream, pattern):
        matches = match_pattern(
            Pattern.of_types("p", *pattern),
            as_stream(stream),
            contiguity="strict",
        )
        assert bool(len(matches)) == is_substring(pattern, stream)

    @given(stream=streams, pattern=patterns)
    @settings(max_examples=100)
    def test_matches_consume_correct_types_in_order(self, stream, pattern):
        for match in match_pattern(
            Pattern.of_types("p", *pattern), as_stream(stream)
        ):
            assert list(match.element_types()) == pattern
            timestamps = [event.timestamp for event in match.events]
            assert timestamps == sorted(timestamps)

    @given(stream=streams, pattern=patterns)
    @settings(max_examples=100)
    def test_strict_matches_are_also_skip_matches(self, stream, pattern):
        strict = match_pattern(
            Pattern.of_types("p", *pattern),
            as_stream(stream),
            contiguity="strict",
        )
        relaxed = match_pattern(
            Pattern.of_types("p", *pattern), as_stream(stream)
        )
        relaxed_keys = {match.events for match in relaxed}
        for match in strict:
            assert match.events in relaxed_keys

    @given(stream=streams, pattern=patterns, within=st.integers(1, 20))
    @settings(max_examples=100)
    def test_within_only_limits_span(self, stream, pattern, within):
        matches = match_pattern(
            Pattern.of_types("p", *pattern),
            as_stream(stream),
            within=float(within),
        )
        for match in matches:
            assert match.span <= within
