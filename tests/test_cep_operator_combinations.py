"""Operator-nesting matrix tests for the CEP pattern algebra.

The NFA combinators (Thompson core + product/seq/disj automatons) are
the subtlest code in the repository; these tests pin the semantics of
every supported nesting with hand-worked cases.
"""

import pytest

from repro.cep.matcher import PatternMatcher
from repro.cep.nfa import CompileError, compile_expr
from repro.cep.patterns import AND, KLEENE, NEG, OR, Pattern, SEQ
from repro.streams.events import Event
from repro.streams.stream import EventStream


def match_pattern(pattern, stream, **options):
    return PatternMatcher(pattern, **options).feed(stream)


def stream_of(*types):
    return EventStream([Event(t, float(i)) for i, t in enumerate(types)])


def detects(expr, *types):
    return len(match_pattern(Pattern("p", expr), stream_of(*types))) > 0


class TestSeqNesting:
    def test_seq_of_seq_flattens_semantically(self):
        expr = SEQ(SEQ("a", "b"), SEQ("c", "d"))
        assert detects(expr, "a", "b", "c", "d")
        assert detects(expr, "a", "x", "b", "c", "x", "d")
        assert not detects(expr, "a", "c", "b", "d")

    def test_seq_of_or(self):
        expr = SEQ(OR("a", "b"), "c")
        assert detects(expr, "a", "c")
        assert detects(expr, "b", "c")
        assert not detects(expr, "c", "a")

    def test_or_of_seq_and_atom(self):
        expr = OR(SEQ("a", "b"), "z")
        assert detects(expr, "z")
        assert detects(expr, "a", "b")
        assert not detects(expr, "a")

    def test_seq_with_kleene_middle(self):
        expr = SEQ("a", KLEENE("b", 2), "c")
        assert detects(expr, "a", "b", "b", "c")
        assert detects(expr, "a", "b", "b", "b", "c")
        assert not detects(expr, "a", "b", "c")

    def test_nested_neg_scopes(self):
        expr = SEQ("a", NEG("x"), "b", NEG("y"), "c")
        assert detects(expr, "a", "b", "c")
        assert not detects(expr, "a", "x", "b", "c")
        assert not detects(expr, "a", "b", "y", "c")
        # x after its guarded gap is harmless.
        assert detects(expr, "a", "b", "x", "c")
        # y before its guarded gap is harmless.
        assert detects(expr, "y", "a", "b", "c")


class TestOrNesting:
    def test_or_of_or(self):
        expr = OR(OR("a", "b"), "c")
        for symbol in ("a", "b", "c"):
            assert detects(expr, symbol)
        assert not detects(expr, "z")

    def test_or_of_kleene(self):
        expr = OR(KLEENE("a", 2), "b")
        assert detects(expr, "b")
        assert detects(expr, "a", "a")
        assert not detects(expr, "a")


class TestKleeneNesting:
    def test_kleene_of_seq(self):
        expr = KLEENE(SEQ("a", "b"), 2)
        assert detects(expr, "a", "b", "a", "b")
        assert not detects(expr, "a", "b")
        # Interleaved noise is fine under skip-till-any.
        assert detects(expr, "a", "x", "b", "a", "b")

    def test_kleene_of_or(self):
        expr = KLEENE(OR("a", "b"), 2, 2)
        assert detects(expr, "a", "b")
        assert detects(expr, "b", "b")
        assert not detects(expr, "a")

    def test_kleene_exact_bound(self):
        expr = SEQ(KLEENE("a", 2, 2), "b")
        assert detects(expr, "a", "a", "b")
        # A third 'a' can simply be skipped; the bound limits the
        # consumed count, not the stream content.
        assert detects(expr, "a", "a", "a", "b")
        assert not detects(expr, "a", "b")


class TestAndNesting:
    def test_and_of_three(self):
        expr = AND("a", "b", "c")
        assert detects(expr, "c", "a", "b")
        assert detects(expr, "b", "c", "a")
        assert not detects(expr, "a", "b")

    def test_and_of_seqs(self):
        expr = AND(SEQ("a", "b"), SEQ("c", "d"))
        assert detects(expr, "a", "c", "b", "d")
        assert detects(expr, "c", "d", "a", "b")
        assert not detects(expr, "b", "a", "c", "d")

    def test_and_inside_seq_inside_or(self):
        expr = OR(SEQ("x", AND("a", "b")), "z")
        assert detects(expr, "z")
        assert detects(expr, "x", "b", "a")
        assert not detects(expr, "a", "b", "x")

    def test_and_of_kleene(self):
        expr = AND(KLEENE("a", 2), "b")
        assert detects(expr, "a", "b", "a")
        assert not detects(expr, "a", "b")

    def test_and_with_or_operand(self):
        expr = AND(OR("a", "b"), "c")
        assert detects(expr, "c", "a")
        assert detects(expr, "b", "c")
        assert not detects(expr, "a", "b")


class TestUnsupportedNestings:
    def test_kleene_over_and(self):
        with pytest.raises(CompileError):
            compile_expr(KLEENE(AND("a", "b")))

    def test_neg_beside_and(self):
        with pytest.raises(CompileError):
            compile_expr(SEQ("x", NEG("z"), AND("a", "b")))

    def test_supported_nestings_compile(self):
        # The full supported matrix must at least compile.
        for expr in (
            SEQ("a", OR("b", KLEENE("c", 1, 3)), NEG("z"), "d"),
            AND(SEQ("a", "b"), OR("c", "d"), "e"),
            OR(AND("a", "b"), SEQ("c", NEG("x"), "d")),
            SEQ(AND("a", "b"), AND("c", "d")),
        ):
            compile_expr(expr)


class TestWithinAcrossOperators:
    def test_within_applies_to_and(self):
        pattern = Pattern("p", AND("a", "b"))
        events = EventStream([Event("a", 0.0), Event("b", 100.0)])
        assert (
            len(match_pattern(pattern, events, within=10.0)) == 0
        )
        assert (
            len(match_pattern(pattern, events, within=200.0)) == 1
        )

    def test_within_applies_to_kleene(self):
        pattern = Pattern("p", KLEENE("a", 3))
        events = EventStream(
            [Event("a", 0.0), Event("a", 5.0), Event("a", 50.0)]
        )
        assert len(match_pattern(pattern, events, within=10.0)) == 0
        assert len(match_pattern(pattern, events, within=100.0)) >= 1
