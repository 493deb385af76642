"""Budget Absorption (BA) — Kellaris et al., VLDB 2014, Algorithm 3.

BA assigns every timestamp the nominal budget ``ε_2/w``.  Timestamps
that skip publication (approximate with the last release) leave their
budget to be *absorbed* by the next publication, which may thus
accumulate up to ``ε_2``.  After a publication that absorbed ``k``
nominal budgets, the following ``k - 1`` timestamps are *nullified*
(forced to approximate) so that no sliding window of ``w`` timestamps
ever spends more than ``ε_2`` on publications.

The scheduler reads only its own state — the last publication and the
end of the nullified stretch — never the run's accounting trace.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.baselines.w_event import WEventMechanism


class BudgetAbsorption(WEventMechanism):
    """The BA scheduler for w-event DP."""

    mechanism_name = "ba"

    def _initial_scheduler_state(self) -> Dict:
        return {"last_publication": -1, "nullified_until": -1}

    def _publication_budget(self, t: int, state: Dict) -> float:
        if t <= state["nullified_until"]:
            return 0.0
        nominal = self.epsilon_publication / self.w
        # Absorb the nominal budgets of the timestamps skipped since the
        # last publication (inclusive of t itself), capped at w units.
        # Nullified timestamps contribute nothing: their budget was spent
        # in advance by the publication that absorbed it.
        barrier = max(state["last_publication"], state["nullified_until"])
        absorbed_units = min(t - barrier, self.w)
        return nominal * absorbed_units

    def _after_publication(self, t: int, budget: float, state: Dict) -> None:
        nominal = self.epsilon_publication / self.w
        absorbed_units = int(round(budget / nominal))
        # Nullify the next (absorbed_units - 1) timestamps.
        state["nullified_until"] = t + absorbed_units - 1
        state["last_publication"] = t

    def _budget_until(self, t: int, state: Dict) -> float:
        # Nullified timestamps get budget 0 whatever the data; the
        # release loop hops [t, nullified_until] without drawing
        # randomness.  Past them every skipped timestamp absorbs one
        # more nominal budget, until absorption is capped at w units.
        if t <= state["nullified_until"]:
            return state["nullified_until"] + 1
        barrier = max(state["last_publication"], state["nullified_until"])
        if t - barrier >= self.w:
            return math.inf
        return t + 1

    @property
    def max_single_publication_budget(self) -> float:
        """The largest budget one publication can receive (``ε_2``)."""
        return self.epsilon_publication
