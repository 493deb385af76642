"""Tests for repro.cep.engine — the trusted CEP middleware."""

import numpy as np
import pytest

from repro.cep.engine import CEPEngine, QualityRequirement
from repro.cep.patterns import OR, Pattern
from repro.cep.queries import ContinuousQuery
from repro.core.uniform import UniformPatternPPM
from repro.streams.indicator import EventAlphabet, IndicatorStream


@pytest.fixture
def engine(alphabet6):
    return CEPEngine(alphabet6)


def ready(alphabet, private_pattern, target_pattern, **setup):
    return CEPEngine(
        alphabet,
        patterns=[private_pattern],
        queries=[ContinuousQuery("q-target", target_pattern)],
        **setup,
    )


@pytest.fixture
def ready_engine(alphabet6, private_pattern, target_pattern):
    return ready(alphabet6, private_pattern, target_pattern)


class TestSetupPhase:
    def test_private_patterns(self, alphabet6, private_pattern):
        engine = CEPEngine(alphabet6, patterns=[private_pattern])
        assert engine.private_patterns == [private_pattern]

    def test_duplicate_private_pattern_rejected(
        self, alphabet6, private_pattern
    ):
        with pytest.raises(ValueError, match="already registered"):
            CEPEngine(alphabet6, patterns=[private_pattern] * 2)

    def test_pattern_outside_alphabet_rejected(self, alphabet6):
        with pytest.raises(ValueError, match="absent"):
            CEPEngine(alphabet6, patterns=[Pattern.of_types("p", "zz")])

    def test_query_outside_alphabet_rejected(self, alphabet6):
        query = ContinuousQuery("q", Pattern.of_types("p", "e1", "zz"))
        with pytest.raises(ValueError, match="absent"):
            CEPEngine(alphabet6, queries=[query])

    def test_queries(self, alphabet6, target_pattern):
        engine = CEPEngine(
            alphabet6, queries=[ContinuousQuery("q", target_pattern)]
        )
        assert len(engine.queries) == 1

    def test_duplicate_query_rejected(self, alphabet6, target_pattern):
        query = ContinuousQuery("q", target_pattern)
        with pytest.raises(ValueError, match="already registered"):
            CEPEngine(alphabet6, queries=[query, query])

    def test_quality_requirement(self, alphabet6):
        engine = CEPEngine(
            alphabet6, quality=QualityRequirement(alpha=0.7, max_mre=0.2)
        )
        assert engine.quality_requirement.alpha == 0.7

    def test_default_quality_requirement(self, engine):
        assert engine.quality_requirement == QualityRequirement()

    def test_invalid_quality_requirement(self):
        with pytest.raises(ValueError):
            QualityRequirement(alpha=1.5)
        with pytest.raises(ValueError):
            QualityRequirement(max_mre=-0.1)

    def test_mechanism_requires_perturb(self, alphabet6):
        with pytest.raises(TypeError, match="perturb"):
            CEPEngine(alphabet6, mechanism=object())

    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_non_positive_budget_rejected(self, alphabet6, budget):
        with pytest.raises(ValueError, match="accounting"):
            CEPEngine(alphabet6, accounting=budget)

    def test_infinite_budget_accepted(self, alphabet6):
        engine = CEPEngine(alphabet6, accounting=float("inf"))
        assert engine.accountant.total_epsilon == float("inf")

    def test_no_accounting_means_no_accountant(self, engine):
        assert engine.accountant is None

    def test_constructor_snapshots_its_arguments(
        self, alphabet6, private_pattern, target_pattern
    ):
        patterns = [private_pattern]
        queries = [ContinuousQuery("q", target_pattern)]
        engine = CEPEngine(alphabet6, patterns=patterns, queries=queries)
        patterns.append(Pattern.of_types("late", "e5"))
        queries.clear()
        assert engine.private_patterns == [private_pattern]
        assert [query.name for query in engine.queries] == ["q"]

    def test_accessors_return_copies(self, ready_engine, private_pattern):
        ready_engine.private_patterns.clear()
        ready_engine.queries.clear()
        assert ready_engine.private_patterns == [private_pattern]
        assert len(ready_engine.queries) == 1

    def test_generator_arguments_accepted(
        self, alphabet6, private_pattern, target_pattern
    ):
        engine = CEPEngine(
            alphabet6,
            patterns=(p for p in [private_pattern]),
            queries=(
                ContinuousQuery(name, target_pattern) for name in "ab"
            ),
        )
        assert engine.private_patterns == [private_pattern]
        assert [query.name for query in engine.queries] == ["a", "b"]

    def test_non_pattern_rejected(self, alphabet6):
        with pytest.raises(TypeError):
            CEPEngine(alphabet6, patterns=["nope"])  # type: ignore[list-item]

    def test_bad_alphabet_type_rejected(self):
        with pytest.raises(TypeError):
            CEPEngine(["a", "b"])  # type: ignore[arg-type]


class TestServicePhase:
    def test_without_mechanism_answers_equal_truth(self, ready_engine, stream200):
        report = ready_engine.process_indicators(stream200)
        answer = report.answer("q-target")
        truth = report.true_answers["q-target"]
        assert np.array_equal(answer.detections, truth.detections)

    def test_with_mechanism_perturbs_once(
        self, alphabet6, stream200, private_pattern, target_pattern
    ):
        ppm = UniformPatternPPM(private_pattern, epsilon=1.0)
        engine = ready(
            alphabet6, private_pattern, target_pattern, mechanism=ppm
        )
        report = engine.process_indicators(stream200, rng=3)
        # Non-private columns untouched.
        assert np.array_equal(
            report.perturbed.column("e5"), stream200.column("e5")
        )
        # Private columns perturbed (with overwhelming probability).
        assert not np.array_equal(
            report.perturbed.column("e1"), stream200.column("e1")
        )

    def test_answers_computed_on_perturbed(
        self, alphabet6, stream200, private_pattern, target_pattern
    ):
        ppm = UniformPatternPPM(private_pattern, epsilon=1.0)
        engine = ready(
            alphabet6, private_pattern, target_pattern, mechanism=ppm
        )
        report = engine.process_indicators(stream200, rng=3)
        expected = report.perturbed.detect_all(["e2", "e3", "e4"])
        assert np.array_equal(
            report.answer("q-target").detections, expected
        )

    def test_no_queries_raises(self, engine, stream200):
        with pytest.raises(RuntimeError):
            engine.process_indicators(stream200)

    def test_alphabet_mismatch_rejected(self, ready_engine):
        other = IndicatorStream(
            EventAlphabet(["x"]), np.zeros((2, 1), dtype=bool)
        )
        with pytest.raises(ValueError):
            ready_engine.process_indicators(other)

    def test_unknown_answer_key(self, ready_engine, stream200):
        report = ready_engine.process_indicators(stream200)
        with pytest.raises(KeyError):
            report.answer("nope")

    def test_non_sequential_query_rejected_in_indicator_mode(
        self, alphabet6, stream200
    ):
        engine = CEPEngine(
            alphabet6,
            queries=[
                ContinuousQuery("q-or", Pattern("p-or", OR("e1", "e2")))
            ],
        )
        with pytest.raises(ValueError, match="non-sequential"):
            engine.process_indicators(stream200)
