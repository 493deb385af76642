"""Non-pattern-level baseline PPMs (Section VI comparators).

- :class:`BudgetDistribution` / :class:`BudgetAbsorption` — the two
  classic w-event DP schedulers (Kellaris et al., VLDB 2014);
- :class:`LandmarkPrivacy` — the adaptive landmark-privacy allocation
  (Katsomallos et al., CODASPY 2022);
- :class:`EventLevelRR` / :class:`UserLevelRR` — reference points for
  the classical stream-DP protection levels (Dwork et al., 2010);
- :mod:`repro.baselines.conversion` — the Section VI-A.2 budget
  conversion aligning every native guarantee to pattern-level ε.
"""

from repro.baselines.base import StreamMechanism
from repro.baselines.budget_absorption import BudgetAbsorption
from repro.baselines.budget_distribution import BudgetDistribution
from repro.baselines.conversion import (
    BudgetConverter,
    ba_timestep_coefficient,
    bd_timestep_coefficient,
    event_level_timestep_coefficient,
    landmark_timestep_coefficient,
    native_epsilon_for_pattern,
    user_level_timestep_coefficient,
)
from repro.baselines.event_level import EventLevelRR
from repro.baselines.landmark import LandmarkPrivacy, landmarks_from_pattern
from repro.baselines.user_level import UserLevelRR
from repro.baselines.w_event import ReleaseTrace, WEventMechanism

__all__ = [
    "BudgetAbsorption",
    "BudgetConverter",
    "BudgetDistribution",
    "EventLevelRR",
    "LandmarkPrivacy",
    "ReleaseTrace",
    "StreamMechanism",
    "UserLevelRR",
    "WEventMechanism",
    "ba_timestep_coefficient",
    "bd_timestep_coefficient",
    "event_level_timestep_coefficient",
    "landmark_timestep_coefficient",
    "landmarks_from_pattern",
    "native_epsilon_for_pattern",
    "user_level_timestep_coefficient",
]
