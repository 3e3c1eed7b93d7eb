"""``repro.mc`` — an exhaustive-schedule model checker for sans-IO protocols.

The simulator (:mod:`repro.sim`) samples *one* schedule per seed; the model
checker enumerates *every* message-delivery order of a protocol composition
(within an optional reorder budget) and checks safety invariants in each
reached state.  The pieces:

* :mod:`repro.mc.state` — :class:`McSystem`, the branchable execution state
  (protocol snapshots × pending-message multiset) with the exact effect
  semantics of the simulator;
* :mod:`repro.mc.fingerprint` — canonical state hashing, merging converging
  branches;
* :mod:`repro.mc.explorer` — DFS with sleep-set partial-order reduction and
  per-destination reorder budgets;
* :mod:`repro.mc.invariants` — agreement, condition-based one-step
  validity, decision-step bounds, IDB consistency;
* :mod:`repro.mc.counterexample` — minimized, serializable violation traces
  that replay deterministically on the simulator via
  :class:`repro.sim.scheduler.ReplayScheduler`;
* :mod:`repro.mc.abstraction` — the trusted oracle-IDB service, a sound
  modular abstraction that shrinks the schedule space for larger configs;
* :mod:`repro.mc.scenario` — serializable scenario specs, built through
  the algorithm registry, the fault plane and ``Deployment``, and bounded
  Byzantine-choice enumeration;
* :mod:`repro.mc.suite` — the named verification suite behind
  ``python -m repro check``.
"""

from .counterexample import Counterexample, minimize, replay_on_simulator
from .explorer import ExplorationResult, Explorer
from .fingerprint import fingerprint
from .invariants import (
    Agreement,
    DecisionStepBound,
    GuaranteedOneStep,
    IdbConsistency,
    Invariant,
    Unanimity,
    Violation,
    one_step_guarantee,
)
from .scenario import (
    UNDER_RESILIENT,
    UnderResilientPair,
    algorithm_scenario,
    build_invariants,
    build_simulation,
    build_system,
    byzantine_variants,
    idb_scenario,
)
from .state import McMessage, McSystem
from .suite import CheckReport, run_suite

__all__ = [
    "Agreement",
    "CheckReport",
    "Counterexample",
    "DecisionStepBound",
    "ExplorationResult",
    "Explorer",
    "GuaranteedOneStep",
    "IdbConsistency",
    "Invariant",
    "McMessage",
    "McSystem",
    "UNDER_RESILIENT",
    "Unanimity",
    "UnderResilientPair",
    "Violation",
    "algorithm_scenario",
    "build_invariants",
    "build_simulation",
    "build_system",
    "byzantine_variants",
    "fingerprint",
    "idb_scenario",
    "minimize",
    "one_step_guarantee",
    "replay_on_simulator",
    "run_suite",
]
