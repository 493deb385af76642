"""Tests for repro.cep.matcher — run-based pattern matching."""

import pytest

from repro.cep.matcher import PatternMatch, PatternMatcher, PatternStream
from repro.cep.patterns import AND, KLEENE, NEG, Pattern, SEQ
from repro.streams.events import Event
from repro.streams.stream import EventStream


def match_pattern(pattern, stream, **options):
    return PatternMatcher(pattern, **options).feed(stream)


def stream_of(types):
    return EventStream([Event(t, float(i)) for i, t in enumerate(types)])


class TestBasicMatching:
    def test_simple_sequence(self):
        matches = match_pattern(
            Pattern.of_types("p", "a", "b"), stream_of(["a", "b"])
        )
        assert len(matches) == 1
        assert matches[0].element_types() == ("a", "b")

    def test_skip_till_any_skips_noise(self):
        matches = match_pattern(
            Pattern.of_types("p", "a", "b"), stream_of(["a", "x", "x", "b"])
        )
        assert len(matches) == 1

    def test_all_combinations_found(self):
        # Two a's and one b: both (a1, b) and (a2, b) match.
        matches = match_pattern(
            Pattern.of_types("p", "a", "b"), stream_of(["a", "a", "b"])
        )
        assert len(matches) == 2

    def test_no_match_on_wrong_order(self):
        matches = match_pattern(
            Pattern.of_types("p", "a", "b"), stream_of(["b", "a"])
        )
        assert len(matches) == 0

    def test_single_event_pattern(self):
        matches = match_pattern(
            Pattern.of_types("p", "a"), stream_of(["x", "a", "a"])
        )
        assert len(matches) == 2

    def test_duplicate_matches_suppressed(self):
        # The same consumed tuple must be emitted once even if several
        # runs reach it.
        matches = match_pattern(
            Pattern.of_types("p", "a", "b", "c"),
            stream_of(["a", "b", "c"]),
        )
        assert len(matches) == 1


class TestStrictContiguity:
    def test_strict_requires_adjacency(self):
        pattern = Pattern.of_types("p", "a", "b")
        assert (
            len(
                match_pattern(
                    pattern, stream_of(["a", "x", "b"]), contiguity="strict"
                )
            )
            == 0
        )
        assert (
            len(
                match_pattern(
                    pattern, stream_of(["a", "b"]), contiguity="strict"
                )
            )
            == 1
        )

    def test_strict_can_start_anywhere(self):
        pattern = Pattern.of_types("p", "a", "b")
        matches = match_pattern(
            pattern, stream_of(["x", "a", "b"]), contiguity="strict"
        )
        assert len(matches) == 1

    def test_invalid_contiguity_rejected(self):
        with pytest.raises(ValueError):
            PatternMatcher(Pattern.of_types("p", "a"), contiguity="bogus")


class TestWithinWindow:
    def test_within_prunes_stale_runs(self):
        pattern = Pattern.of_types("p", "a", "b")
        events = EventStream([Event("a", 0.0), Event("b", 100.0)])
        assert len(PatternMatcher(pattern, within=10.0).feed(events)) == 0
        assert len(PatternMatcher(pattern, within=200.0).feed(events)) == 1

    def test_within_boundary_inclusive(self):
        pattern = Pattern.of_types("p", "a", "b")
        events = EventStream([Event("a", 0.0), Event("b", 10.0)])
        assert len(PatternMatcher(pattern, within=10.0).feed(events)) == 1

    def test_invalid_within_rejected(self):
        with pytest.raises(ValueError):
            PatternMatcher(Pattern.of_types("p", "a"), within=0.0)


class TestNegation:
    def test_negated_event_kills_run(self):
        pattern = Pattern("p", SEQ("a", NEG("z"), "b"))
        assert len(match_pattern(pattern, stream_of(["a", "z", "b"]))) == 0
        assert len(match_pattern(pattern, stream_of(["a", "q", "b"]))) == 1

    def test_consuming_event_beats_guard(self):
        # If the same event both violates a guard and advances the run,
        # the consuming interpretation wins (standard CEP negation).
        pattern = Pattern("p", SEQ("a", NEG("b"), "b"))
        matches = match_pattern(pattern, stream_of(["a", "b"]))
        assert len(matches) == 1

    def test_guard_only_applies_between_neighbours(self):
        pattern = Pattern("p", SEQ("a", NEG("z"), "b", "c"))
        # z after b is harmless.
        assert len(match_pattern(pattern, stream_of(["a", "b", "z", "c"]))) == 1


class TestKleeneMatching:
    def test_kleene_counts(self):
        pattern = Pattern("p", KLEENE("a", 2, 3))
        matches = match_pattern(pattern, stream_of(["a", "a", "a"]))
        # (a1,a2), (a2,a3), (a1,a3), (a1,a2,a3)
        assert len(matches) == 4

    def test_kleene_in_sequence(self):
        pattern = Pattern("p", SEQ("x", KLEENE("a", 2, 2)))
        matches = match_pattern(pattern, stream_of(["x", "a", "a"]))
        assert len(matches) == 1


class TestConjunctionMatching:
    def test_and_matches_any_interleaving(self):
        pattern = Pattern("p", AND(SEQ("a", "b"), "c"))
        assert len(match_pattern(pattern, stream_of(["a", "c", "b"]))) >= 1
        assert len(match_pattern(pattern, stream_of(["c", "a", "b"]))) >= 1
        assert len(match_pattern(pattern, stream_of(["a", "b"]))) == 0


class TestMatcherState:
    def test_reset_clears_runs_and_memory(self):
        matcher = PatternMatcher(Pattern.of_types("p", "a", "b"))
        matcher.process(Event("a", 0.0))
        assert matcher.active_runs > 0
        matcher.reset()
        assert matcher.active_runs == 0
        # After reset the same events match again.
        matcher.process(Event("a", 1.0))
        assert len(matcher.process(Event("b", 2.0))) == 1

    def test_max_active_runs_caps_state(self):
        matcher = PatternMatcher(
            Pattern.of_types("p", "a", "b"), max_active_runs=5
        )
        for i in range(100):
            matcher.process(Event("a", float(i)))
        assert matcher.active_runs <= 5

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            PatternMatcher(Pattern.of_types("p", "a"), max_active_runs=0)


class TestPatternMatchObject:
    def test_span_and_bounds(self):
        match = PatternMatch(
            "p", (Event("a", 1.0), Event("b", 4.0))
        )
        assert match.start == 1.0
        assert match.end == 4.0
        assert match.span == 3.0
        assert len(match) == 2

    def test_element_types(self):
        match = PatternMatch("p", (Event("a", 0.0), Event("b", 1.0)))
        assert match.element_types() == ("a", "b")


class TestPatternStream:
    def test_indexing(self):
        stream = PatternStream([PatternMatch("p", (Event("a", 0.0),))])
        assert stream[0].pattern_name == "p"
