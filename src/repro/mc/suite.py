"""The named verification suite behind ``python -m repro check``.

Each check pairs a scenario spec with an adversary enumeration and explores
every message schedule within a delay budget, for every enumerated
byzantine variant.  Two kinds of check:

* **safety checks** (``expect_violation=False``) — the verdict is *verified
  within bounds*: no reachable state within the delay budget and state cap
  violates agreement, unanimity, or condition-based one-step validity.
  The report says exactly which bounds applied (``complete`` is False when
  a cap was hit) — bounded exhaustion is reported as such, never as full
  verification.
* **boundary checks** (``expect_violation=True``) — the checker must
  *discover* a violation (the under-resilient pair below ``n > 5t``).
  Budgets deepen iteratively (0, 1, 2, …), so the report also states the
  *minimum* number of delayed messages an attack needs.  The found trace is
  greedily minimized, re-executed on the discrete-event simulator via
  :class:`~repro.sim.scheduler.ReplayScheduler`, and the replayed decision
  vector is required to match the checker's — closing the loop between the
  two execution engines.

Known limitation, stated rather than hidden: a delay budget of ``d``
covers every schedule in which at most ``d`` messages are held back past
later traffic (FIFO per destination otherwise, with all cross-destination
interleavings).  Full exhaustion (``budget=None``) is feasible for the
smallest configurations only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from .counterexample import (
    Counterexample,
    minimize,
    replay_matches,
    replay_on_simulator,
    run_schedule,
)
from .explorer import ExplorationResult, Explorer
from .scenario import (
    UNDER_RESILIENT,
    algorithm_scenario,
    build_invariants,
    build_simulation,
    build_system,
    byzantine_variants,
    describe_variant,
    idb_scenario,
)


@dataclass
class CheckSpec:
    """One named check: scenario × adversary enumeration × bounds."""

    name: str
    description: str
    base_spec: dict[str, Any]
    byzantine_pid: int | None
    expect_violation: bool = False
    delay_budget: int | None = 1
    max_states: int = 50_000
    #: State cap for the sub-target budgets of an iterative-deepening
    #: boundary check (kept lower than ``max_states`` so certifying the
    #: cheap budgets stays cheap; capped sweeps are reported incomplete).
    deepening_max_states: int = 60_000
    variant_budget: int | None = None
    smoke: bool = True  # include in --smoke runs (with tightened bounds)


@dataclass
class CheckReport:
    """Outcome of one check across all its byzantine variants."""

    name: str
    description: str
    config: str
    expect_violation: bool
    delay_budget: int | None
    states: int = 0
    transitions: int = 0
    merged: int = 0
    max_depth: int = 0
    complete: bool = True
    variants: list[dict[str, Any]] = field(default_factory=list)
    violation_found: bool = False
    #: For boundary checks: the smallest delay budget that produced the
    #: violation (how many messages the adversary's schedule holds back).
    violation_budget: int | None = None
    counterexample: Counterexample | None = None
    replay_verified: bool | None = None
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        if self.expect_violation:
            return self.violation_found and bool(self.replay_verified)
        return not self.violation_found

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "config": self.config,
            "ok": self.ok,
            "expect_violation": self.expect_violation,
            "violation_found": self.violation_found,
            "violation_budget": self.violation_budget,
            "replay_verified": self.replay_verified,
            "delay_budget": self.delay_budget,
            "states": self.states,
            "transitions": self.transitions,
            "merged": self.merged,
            "max_depth": self.max_depth,
            "complete": self.complete,
            "elapsed_s": round(self.elapsed, 3),
            "variants": self.variants,
            "counterexample": (
                None
                if self.counterexample is None
                else {
                    "invariant": self.counterexample.invariant,
                    "detail": self.counterexample.detail,
                    "schedule_length": len(self.counterexample.schedule),
                    "decisions": {
                        str(pid): decision
                        for pid, decision in self.counterexample.decisions.items()
                    },
                }
            ),
        }


def _variant_specs(spec: CheckSpec) -> list[tuple[str, dict[str, Any]]]:
    base = spec.base_spec
    if spec.byzantine_pid is None:
        if base.get("byzantine"):
            label = ", ".join(
                f"p{pid}:{describe_variant(variant)}"
                for pid, variant in sorted(base["byzantine"].items())
            )
            return [(label, base)]
        return [("fault-free", base)]
    return [
        (
            describe_variant(variant),
            {**base, "byzantine": {str(spec.byzantine_pid): variant}},
        )
        for variant in byzantine_variants(
            base, spec.byzantine_pid, spec.variant_budget
        )
    ]


def _explore(
    scenario: dict[str, Any],
    budget: int | None,
    max_states: int,
    order: str = "fifo",
) -> ExplorationResult:
    explorer = Explorer(
        build_system(scenario),
        build_invariants(scenario),
        delay_budget=budget,
        max_states=max_states,
        order=order,
    )
    return explorer.run()


def _absorb(
    report: CheckReport, label: str, budget: int | None, result: ExplorationResult
) -> None:
    report.states += result.states
    report.transitions += result.transitions
    report.merged += result.merged
    report.max_depth = max(report.max_depth, result.max_depth)
    report.complete = report.complete and result.complete
    report.variants.append(
        {
            "variant": label,
            "budget": budget,
            "states": result.states,
            "complete": result.complete,
            "ok": result.ok,
        }
    )


def _attach_counterexample(
    report: CheckReport, scenario: dict[str, Any], result: ExplorationResult
) -> None:
    """Minimize the violating trace, replay it on the simulator, compare."""
    violation = result.violations[0]
    counterexample = Counterexample(
        spec=scenario,
        schedule=list(result.trace or []),
        invariant=violation.invariant,
        detail=violation.detail,
        decisions={
            pid: list(decision) for pid, decision in violation.decisions.items()
        },
    )
    counterexample = minimize(counterexample, build_system, build_invariants)
    # Re-record the violating decision vector from the *minimized* trace so
    # the simulator comparison matches like for like.
    final = run_schedule(build_system(counterexample.spec), counterexample.schedule)
    if final is not None:
        counterexample.decisions = {
            pid: [value, kind.value, step]
            for pid, (value, kind, step) in final.correct_decisions().items()
        }
    report.counterexample = counterexample
    replay = replay_on_simulator(counterexample, build_simulation)
    report.replay_verified = replay_matches(counterexample, replay)


def run_check(spec: CheckSpec) -> CheckReport:
    """Explore every byzantine variant of one check and aggregate.

    Safety checks sweep all variants at the full delay budget.  Boundary
    checks deepen the budget iteratively so the reported counterexample
    uses the minimum number of delayed messages.
    """
    base = spec.base_spec
    report = CheckReport(
        name=spec.name,
        description=spec.description,
        config=f"n={base['n']} t={base['t']} {base.get('algorithm', base['kind'])}",
        expect_violation=spec.expect_violation,
        delay_budget=spec.delay_budget,
    )
    started = time.perf_counter()
    variant_specs = _variant_specs(spec)
    if not spec.expect_violation:
        for label, scenario in variant_specs:
            result = _explore(scenario, spec.delay_budget, spec.max_states)
            _absorb(report, label, spec.delay_budget, result)
            if not result.ok:
                report.violation_found = True
                _attach_counterexample(report, scenario, result)
                break
    else:
        top = spec.delay_budget if spec.delay_budget is not None else 8
        for budget in range(top + 1):
            # Sub-target budgets run under the (smaller) deepening cap —
            # they exist to witness that the violation *needs* the delays,
            # so a capped clean sweep is acceptable and reported as such.
            max_states = (
                spec.max_states if budget == top else spec.deepening_max_states
            )
            for label, scenario in variant_specs:
                result = _explore(scenario, budget, max_states, order="adversarial")
                _absorb(report, label, budget, result)
                if not result.ok:
                    report.violation_found = True
                    report.violation_budget = budget
                    _attach_counterexample(report, scenario, result)
                    break
            if report.violation_found:
                break
    report.elapsed = time.perf_counter() - started
    return report


#: The adversary that breaks the under-resilient margins: equivocate the
#: minority value towards everyone except one majority-value process, which
#: is fed the majority value so it fast-decides on a gap the others never
#: see.  Boundary checks pin it (the *schedule* — three precisely placed
#: delayed messages — is what the checker has to discover); the safety
#: checks keep the full adversary enumeration.
def _splitter(correct_peers: list[int]) -> dict[str, Any]:
    return {
        "kind": "equivocate",
        "value_a": 2,
        "value_b": 1,
        "group_a": correct_peers,
    }


def suite_checks(smoke: bool = False) -> list[CheckSpec]:
    """The named checks, with bounds tightened for ``--smoke``: one
    safety row per registered algorithm, the IDB check and the boundary
    checks below the resilience bound."""

    def row(
        algorithm: str, inputs: list, what: str, smoke_variants: int | None = None
    ) -> CheckSpec:
        """A registered algorithm at ``t = 1`` against every adversary
        variant of its last process, FIFO channels (delay budget 0)."""
        n = len(inputs)
        return CheckSpec(
            name=f"{algorithm}-n{n}",
            description=f"{what} at n={n},t=1",
            base_spec=algorithm_scenario(algorithm, n, 1, inputs),
            byzantine_pid=n - 1,
            delay_budget=0,
            max_states=40_000 if not smoke else 3_000,
            variant_budget=None if not smoke else smoke_variants,
        )

    checks = [
        CheckSpec(
            name="idb-n5",
            description=(
                "Identical Broadcast consistency at n=5,t=1 against silence, "
                "partial crashes and every two-faced equivocation"
            ),
            base_spec=idb_scenario(5, 1, [1, 1, 1, 2, 2]),
            byzantine_pid=4,
            delay_budget=1,
            max_states=40_000 if not smoke else 3_000,
            variant_budget=None if not smoke else 4,
        ),
        row(
            "dex-freq",
            [1, 1, 1, 1, 1, 2, 2],
            "DEX agreement + condition-based one-step validity with the "
            "frequency pair (oracle-IDB abstraction)",
            4,
        ),
        row(
            "dex-prv",
            [1, 1, 1, 1, 2, 2, 2],
            "DEX agreement + one-step validity with the privileged pair "
            "(m=1, oracle-IDB abstraction)",
            3,
        ),
        row("bosco-weak", [1, 1, 1, 1, 2, 2], "BOSCO (weak) agreement + unanimity", 4),
        row("bosco-strong", [1] * 6 + [2, 2], "BOSCO (strong) agreement + unanimity", 3),
        row("brasileiro", [1, 1, 2, 2], "Brasileiro agreement + unanimity, crash template"),
        row("izumi", [1, 1, 2, 2], "Izumi agreement + unanimity, crash template"),
        row("twostep", [1, 1, 2, 2], "underlying-only agreement + unanimity"),
        CheckSpec(
            name="dex-freq-n5-below-bound",
            description=(
                "The shipped frequency margins stay safe even below n > 5t "
                "(n=5,t=1, resilience check disabled): full margins tolerate "
                "t=1 equivocation"
            ),
            base_spec=algorithm_scenario(
                "dex-freq", 5, 1, [1, 1, 1, 2, 2], enforce_resilience=False
            ),
            byzantine_pid=4,
            delay_budget=0,
            max_states=40_000,
            variant_budget=None,
            smoke=False,
        ),
        CheckSpec(
            name="dex-under-resilient-n4",
            description=(
                "Resilience boundary: halved (crash-grade) margins at n=4,t=1 "
                "lose agreement — the checker must find the attack schedule"
            ),
            base_spec=algorithm_scenario(
                UNDER_RESILIENT.name,
                4,
                1,
                [1, 1, 2, 2],
                byzantine={3: _splitter([1, 2])},
                enforce_resilience=False,
            ),
            byzantine_pid=None,
            expect_violation=True,
            delay_budget=3,
            max_states=300_000,
            deepening_max_states=60_000,
            smoke=False,
        ),
        CheckSpec(
            name="dex-under-resilient-n5",
            description=(
                "Resilience boundary at the paper's margin: n=5,t=1 (n = 5t) "
                "with halved margins — discovered agreement violation"
            ),
            base_spec=algorithm_scenario(
                UNDER_RESILIENT.name,
                5,
                1,
                [1, 1, 1, 2, 2],
                byzantine={4: _splitter([1, 2, 3])},
                enforce_resilience=False,
            ),
            byzantine_pid=None,
            expect_violation=True,
            delay_budget=3,
            max_states=1_500_000,
            deepening_max_states=60_000,
            smoke=False,
        ),
    ]
    if smoke:
        checks = [check for check in checks if check.smoke]
    return checks


def run_suite(smoke: bool = False) -> list[CheckReport]:
    """Run the (smoke subset of the) verification suite."""
    return [run_check(check) for check in suite_checks(smoke=smoke)]
