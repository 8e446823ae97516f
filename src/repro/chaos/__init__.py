"""Named chaos scenarios: a deployment, its faults, end-to-end invariants.

``repro.faults`` is the mechanism (fault plans and the injector that
threads them through the stack); this package is what is asserted under
them.  It sits above ``repro.cluster``, ``repro.shard`` and
``repro.traffic`` and imports only downward.  See docs/robustness.md for
the fault model and how to add a scenario, and ``repro chaos`` for the
command-line sweep.
"""

from .harness import ChaosConfig, Scenario, ScenarioReport
from .scenarios import SCENARIOS, run_scenario

__all__ = [
    "ChaosConfig",
    "SCENARIOS",
    "Scenario",
    "ScenarioReport",
    "run_scenario",
]
