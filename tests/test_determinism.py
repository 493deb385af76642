"""End-to-end determinism guarantees.

A reproduction repository must reproduce *itself*: every experiment run
with the same seed yields the same numbers, and distinct seeds yield
distinct randomness.  These tests pin that contract at the highest
level (full Fig. 4 sweeps), where any internal consumer of global RNG
state or dict-ordering-dependent draws would surface.
"""

from repro.datasets.synthetic import SyntheticConfig
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig4 import run_fig4_synthetic
from repro.experiments.runner import evaluate_mechanism

SMALL = ExperimentConfig(
    epsilon_grid=(1.0, 4.0),
    mechanisms=("uniform", "adaptive", "bd"),
    n_trials=2,
    seed=77,
)
SMALL_DATA = SyntheticConfig(n_windows=120, n_history_windows=80)


class TestFullRunDeterminism:
    def test_fig4_runs_identically_twice(self):
        first = run_fig4_synthetic(SMALL, SMALL_DATA, n_datasets=2)
        second = run_fig4_synthetic(SMALL, SMALL_DATA, n_datasets=2)
        assert first.table.rows == second.table.rows

    def test_different_seed_different_numbers(self):
        first = run_fig4_synthetic(SMALL, SMALL_DATA, n_datasets=2)
        other_config = ExperimentConfig(
            epsilon_grid=SMALL.epsilon_grid,
            mechanisms=SMALL.mechanisms,
            n_trials=SMALL.n_trials,
            seed=78,
        )
        second = run_fig4_synthetic(other_config, SMALL_DATA, n_datasets=2)
        assert first.table.rows != second.table.rows

    def test_per_cell_determinism(self, tiny_workload):
        first = evaluate_mechanism(
            tiny_workload, "adaptive", 2.0, n_trials=3, rng=5
        )
        second = evaluate_mechanism(
            tiny_workload, "adaptive", 2.0, n_trials=3, rng=5
        )
        assert first.mre == second.mre
        assert first.quality.precision == second.quality.precision

    def test_mechanism_order_does_not_leak_randomness(self, tiny_workload):
        # Evaluating bd before uniform must not change uniform's draws:
        # every cell derives its own child generators.
        lone = evaluate_mechanism(
            tiny_workload, "uniform", 2.0, n_trials=2, rng=9
        )
        evaluate_mechanism(tiny_workload, "bd", 2.0, n_trials=2, rng=9)
        repeated = evaluate_mechanism(
            tiny_workload, "uniform", 2.0, n_trials=2, rng=9
        )
        assert lone.mre == repeated.mre
