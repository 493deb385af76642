"""Tests for repro.cep.online — push-based service sessions."""

import pytest

from repro.baselines.budget_absorption import BudgetAbsorption
from repro.baselines.budget_distribution import BudgetDistribution
from repro.baselines.event_level import EventLevelRR
from repro.cep.engine import CEPEngine
from repro.cep.online import OnlineSession
from repro.cep.patterns import Pattern
from repro.cep.queries import ContinuousQuery
from repro.core.ppm import MultiPatternPPM
from repro.core.uniform import UniformPatternPPM


@pytest.fixture
def engine(make_engine):
    return make_engine()


class TestSessionBasics:
    def test_requires_queries(self, alphabet6):
        with pytest.raises(ValueError):
            OnlineSession(CEPEngine(alphabet6))

    def test_no_mechanism_passthrough(self, engine, stream200):
        session = OnlineSession(engine)
        answers = session.run(stream200)
        truth = stream200.detect_all(["e2", "e3", "e4"])
        assert answers["q"] == list(truth)

    def test_counts_pushes(self, engine, stream200):
        session = OnlineSession(engine)
        session.run(stream200)
        assert session.windows_processed == stream200.n_windows

    def test_unknown_types_ignored(self, engine):
        session = OnlineSession(engine)
        answers = session.push({"e2", "e3", "e4", "not-in-alphabet"})
        assert answers["q"] is True

    def test_unsupported_mechanism_rejected(self, make_engine):
        class Opaque:
            def perturb(self, stream, rng=None):
                return stream

        engine = make_engine(mechanism=Opaque())
        with pytest.raises(TypeError):
            OnlineSession(engine)


class TestBatchEquivalence:
    def test_single_ppm_matches_batch_bitwise(
        self, make_engine, stream200, private_pattern
    ):
        ppm = UniformPatternPPM(private_pattern, 2.0)
        engine = make_engine(mechanism=ppm)
        batch = engine.process_indicators(stream200, rng=42)
        online = OnlineSession(engine, rng=42).run(stream200)
        assert online["q"] == list(batch.answers["q"].detections)

    @pytest.mark.parametrize(
        "mechanism_cls", [BudgetDistribution, BudgetAbsorption]
    )
    def test_w_event_matches_batch_bitwise(
        self, make_engine, stream200, mechanism_cls
    ):
        mechanism = mechanism_cls(1.0, w=10)
        engine = make_engine(mechanism=mechanism)
        session = OnlineSession(engine, rng=7)
        online = session.run(stream200)
        # Re-run batch with the session's derivation so seeds align.
        from repro.utils.rng import derive_rng

        batch_released = mechanism.perturb(
            stream200, rng=derive_rng(7, "online")
        )
        expected = list(batch_released.detect_all(["e2", "e3", "e4"]))
        assert online["q"] == expected

    def test_multi_ppm_session_runs(
        self, make_engine, stream200, private_pattern
    ):
        other = Pattern.of_types("other", "e5", "e6")
        engine = make_engine(
            mechanism=MultiPatternPPM(
                [
                    UniformPatternPPM(private_pattern, 2.0),
                    UniformPatternPPM(other, 2.0),
                ]
            )
        )
        answers = OnlineSession(engine, rng=3).run(stream200)
        assert len(answers["q"]) == stream200.n_windows

    def test_event_level_session_runs(self, make_engine, stream200):
        engine = make_engine(mechanism=EventLevelRR(1.0))
        answers = OnlineSession(engine, rng=3).run(stream200)
        assert len(answers["q"]) == stream200.n_windows


class TestSessionCheckpointResume:
    @pytest.mark.parametrize(
        "make_mechanism",
        [
            lambda pattern: UniformPatternPPM(pattern, 2.0),
            lambda pattern: BudgetDistribution(1.0, w=10),
            lambda pattern: BudgetAbsorption(1.0, w=10),
            lambda pattern: EventLevelRR(1.0),
        ],
        ids=["uniform", "bd", "ba", "event-level"],
    )
    def test_restored_session_matches_uninterrupted(
        self, make_engine, stream200, private_pattern, make_mechanism
    ):
        import pickle

        engine = make_engine(mechanism=make_mechanism(private_pattern))
        straight = OnlineSession(engine, rng=5).run(stream200)

        crashed = OnlineSession(engine, rng=5)
        head = [
            crashed.push(stream200.window_types(index))
            for index in range(80)
        ]
        snapshot = pickle.loads(pickle.dumps(crashed.snapshot()))
        # "Crash": a brand-new session over the same configuration and
        # seed, restored mid-stream, continues with exactly the
        # randomness and budget state the uninterrupted run had.
        resumed = OnlineSession(engine, rng=5)
        resumed.restore(snapshot)
        assert resumed.windows_processed == 80
        tail = [
            resumed.push(stream200.window_types(index))
            for index in range(80, stream200.n_windows)
        ]
        combined = [answers["q"] for answers in head + tail]
        assert combined == straight["q"]

    def test_w_event_resume_preserves_trace(self, make_engine, stream200):
        mechanism = BudgetDistribution(1.0, w=10)
        engine = make_engine(mechanism=mechanism)
        OnlineSession(engine, rng=3).run(stream200)
        straight_trace = (
            list(mechanism.last_trace.published),
            list(mechanism.last_trace.publication_budgets),
        )
        crashed = OnlineSession(engine, rng=3)
        for index in range(60):
            crashed.push(stream200.window_types(index))
        snapshot = crashed.snapshot()
        resumed = OnlineSession(engine, rng=3)
        resumed.restore(snapshot)
        for index in range(60, stream200.n_windows):
            resumed.push(stream200.window_types(index))
        assert (
            list(mechanism.last_trace.published),
            list(mechanism.last_trace.publication_budgets),
        ) == straight_trace

    def test_restore_rejects_mechanism_mismatch(
        self, engine, make_engine, stream200
    ):
        unprotected = OnlineSession(engine)
        snapshot = unprotected.snapshot()
        protected = OnlineSession(
            make_engine(mechanism=BudgetDistribution(1.0, w=5)), rng=1
        )
        with pytest.raises(ValueError, match="mechanism"):
            protected.restore(snapshot)


class TestOnlineAccounting:
    def test_session_charges_once(
        self, make_engine, stream200, private_pattern
    ):
        engine = make_engine(
            mechanism=UniformPatternPPM(private_pattern, 1.0), accounting=2.5
        )
        session = OnlineSession(engine, rng=0)
        session.run(stream200)
        # One spend for the whole session, not one per window.
        assert engine.accountant.spent() == pytest.approx(1.0)

    def test_session_refused_when_over_budget(
        self, make_engine, stream200, private_pattern
    ):
        from repro.mechanisms.accountant import BudgetExceededError

        engine = make_engine(
            mechanism=UniformPatternPPM(private_pattern, 1.0), accounting=1.5
        )
        OnlineSession(engine, rng=0)
        with pytest.raises(BudgetExceededError):
            OnlineSession(engine, rng=1)


class TestOnlineStatistics:
    def test_flip_rate_matches_mechanism(self, engine, stream200, private_pattern):
        # Protected single-column query: the per-window answer differs
        # from truth at roughly the configured flip rate.
        ppm = UniformPatternPPM(Pattern.of_types("p", "e1"), 2.0)
        engine_q = CEPEngine(
            stream200.alphabet,
            queries=[ContinuousQuery("q1", Pattern.of_types("t1", "e1"))],
            mechanism=ppm,
        )
        expected_p = ppm.flip_probability_by_type()["e1"]
        disagreements = 0
        trials = 25
        for seed in range(trials):
            answers = OnlineSession(engine_q, rng=seed).run(stream200)
            truth = list(stream200.column("e1"))
            disagreements += sum(
                a != t for a, t in zip(answers["q1"], truth)
            )
        rate = disagreements / (trials * stream200.n_windows)
        assert rate == pytest.approx(expected_p, abs=0.03)
