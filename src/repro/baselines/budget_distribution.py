"""Budget Distribution (BD) — Kellaris et al., VLDB 2014, Algorithm 2.

BD halves the remaining publication budget at every publication: the
budget available at timestamp ``t`` is ``ε_rm/2`` where ``ε_rm`` is
``ε_2`` minus the publication budgets spent in the preceding ``w - 1``
timestamps.  Early publications in a calm stream are accurate; a burst
of changes quickly exhausts the window budget and forces
approximations until old spends slide out of the window.

The scheduler reads only its own state — the publications still inside
the window — never the run's accounting trace.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.baselines.w_event import WEventMechanism


class BudgetDistribution(WEventMechanism):
    """The BD scheduler for w-event DP."""

    mechanism_name = "bd"

    def _initial_scheduler_state(self) -> Dict:
        # Publications still inside the sliding window, as (t, budget)
        # pairs.  Summing these is bit-identical to summing the window's
        # slice of the trace's publication budgets — skipped timestamps
        # contribute exactly 0.0 there, and adding 0.0 never changes a
        # float — but costs O(publications in window), not O(w), per
        # step.
        return {"recent": []}

    def _publication_budget(self, t: int, state: Dict) -> float:
        start = t - (self.w - 1)
        recent = state["recent"]
        while recent and recent[0][0] < start:
            del recent[0]
        spent_recently = 0.0
        for _when, budget in recent:
            spent_recently += budget
        remaining = self.epsilon_publication - spent_recently
        if remaining <= 0:
            return 0.0
        return remaining / 2.0

    def _after_publication(self, t: int, budget: float, state: Dict) -> None:
        state["recent"].append((t, budget))

    def _budget_until(self, t: int, state: Dict) -> float:
        # The budget changes only when a spend enters the window (a
        # publication) or leaves it: the oldest in-window spend (the
        # budget hook just pruned the older ones) leaves at its
        # timestamp + w.
        recent = state["recent"]
        return recent[0][0] + self.w if recent else math.inf

    @property
    def max_single_publication_budget(self) -> float:
        """The largest budget one publication can receive (``ε_2/2``).

        Used by the pattern-level budget conversion: the privacy loss a
        single event can suffer at one timestamp is bounded by its
        window's publication budget plus its dissimilarity share.
        """
        return self.epsilon_publication / 2.0
