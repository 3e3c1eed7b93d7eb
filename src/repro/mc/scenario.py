"""Serializable scenario specs: one recipe, two runtimes.

A *spec* is a JSON-safe dict naming a run — a registered algorithm
(``{"kind": "algorithm", "algorithm": <AlgorithmSpec.name>, ...}``) or the
standalone Identical Broadcast (``{"kind": "idb", ...}``), ``(n, t)``,
inputs and the Byzantine assignment.  It is built the way every engine
builds a run: the algorithm's ``make`` for the honest processes, the
:class:`~repro.engine.faults.FaultPlane` for the faulty ones, a
:class:`~repro.harness.Deployment` for the engine.  The same spec gives

* an :class:`~repro.mc.state.McSystem` for exploration
  (:func:`build_system`),
* a :class:`~repro.sim.runner.Simulation` for counterexample replay
  (:func:`build_simulation`),
* the invariant set the scenario is checked against
  (:func:`build_invariants`),

so a counterexample carries everything needed to rebuild the execution in
another process.  Under the checker DEX runs on the oracle-IDB abstraction
(:mod:`repro.mc.abstraction`) and the underlying consensus on its oracle.

Byzantine nondeterminism is handled as *choice points at the root*: a
behavior template (equivocation values and targets, crash budgets, UC
poison values) is expanded by :func:`byzantine_variants` into a bounded,
deterministically-ordered list of concrete fault specs, and each variant
is explored as its own tree.  This trades tree-width inside the DPOR for a
visible, budgetable enumeration — the report says exactly which adversaries
were covered.

:data:`UNDER_RESILIENT` lives here rather than in :mod:`repro.harness`
because it is deliberately *illegal*: DEX over a frequency pair with its
crash-grade margins halved (``P1: gap > 2t``, ``P2: gap > t``), accepted
down to ``n > 3t``.  Against a Byzantine process it loses agreement — the
checker finds the trace automatically (EXPERIMENTS.md E17), which is the
point: it demonstrates that the paper's ``n > 5t``/margin requirements are
load-bearing, not conservative.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..broadcast.idb import IdenticalBroadcast
from ..conditions.frequency import FrequencyPair
from ..conditions.views import View
from ..engine.faults import Crash, Equivocate, Fault, FaultPlane, Saboteur, Silent
from ..errors import ConfigurationError
from ..harness import AlgorithmSpec, Deployment, algorithm_named, dex_freq, dex_over
from ..sim.runner import Simulation
from ..types import ProcessId, SystemConfig, Value
from ..underlying.oracle import SERVICE_NAME as UC_SERVICE_NAME
from ..underlying.oracle import OracleConsensus, OracleService
from .abstraction import IDB_SERVICE_NAME, OracleIdbService, oracle_idb_factory
from .invariants import (
    Agreement,
    DecisionStepBound,
    GuaranteedOneStep,
    IdbConsistency,
    Invariant,
    Unanimity,
)
from .state import McSystem


class UnderResilientPair(FrequencyPair):
    """A frequency pair with crash-grade margins — deliberately illegal.

    ``P1: gap > 2t`` and ``P2: gap > t`` would be adequate against *crash*
    faults; against Byzantine equivocation the halved margins leave room
    for one process to fast-decide on a gap another quorum never sees.
    Used only to demonstrate the resilience boundary (E17).
    """

    required_ratio = 3

    def p1(self, view: View) -> bool:
        return view.frequency_gap() > 2 * self.t

    def p2(self, view: View) -> bool:
        return view.frequency_gap() > self.t


#: DEX over :class:`UnderResilientPair` — resolved beside the registered
#: algorithms by name, never registered with them.
UNDER_RESILIENT = dataclasses.replace(
    dex_freq(), name="dex-under-resilient", make=dex_over(UnderResilientPair),
    required_ratio=3, table1={},
)

#: The standalone Identical Broadcast, as the spec the ``"idb"`` kind runs.
IDB = AlgorithmSpec(
    name="idb",
    make=lambda pid, config, value, uc_factory, **_: IdenticalBroadcast(
        pid, config, initial_value=value
    ),
    required_ratio=4,
)

#: Byzantine variant kinds → the fault-plane faults they decode to.
_FAULTS = {"silent": Silent, "crash": Crash, "equivocate": Equivocate, "saboteur": Saboteur}


# -- scenario constructors -----------------------------------------------------------

def algorithm_scenario(
    algorithm: str,
    n: int,
    t: int,
    inputs: list[Value],
    byzantine: dict[int, dict[str, Any]] | None = None,
    enforce_resilience: bool = True,
    step_bound: int | None = None,
) -> dict[str, Any]:
    """A spec running the algorithm registered as ``algorithm``."""
    return {
        **idb_scenario(n, t, inputs, byzantine),
        "kind": "algorithm",
        "algorithm": algorithm,
        "enforce_resilience": bool(enforce_resilience),
        "step_bound": step_bound,
    }


def idb_scenario(
    n: int,
    t: int,
    inputs: list[Value],
    byzantine: dict[int, dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """Build a standalone Identical-Broadcast scenario spec."""
    if len(inputs) != n:
        raise ConfigurationError(f"need {n} inputs, got {len(inputs)}")
    return {
        "kind": "idb",
        "n": n,
        "t": t,
        "inputs": list(inputs),
        "byzantine": {
            str(pid): dict(spec) for pid, spec in (byzantine or {}).items()
        },
    }


# -- builders ------------------------------------------------------------------------

def _algorithm(spec: dict[str, Any]) -> AlgorithmSpec:
    if spec["kind"] == "idb":
        return IDB
    if spec["kind"] == "algorithm":
        return algorithm_named(spec["algorithm"], UNDER_RESILIENT)
    raise ConfigurationError(f"unknown scenario kind {spec['kind']!r}")


def _fault(variant: dict[str, Any]) -> Fault:
    params = dict(variant)
    kind = params.pop("kind")
    if kind not in _FAULTS:
        raise ConfigurationError(f"unknown byzantine kind {kind!r}")
    return _FAULTS[kind](**params)


def _correct_inputs(spec: dict[str, Any]) -> dict[ProcessId, Value]:
    return {
        pid: value
        for pid, value in enumerate(spec["inputs"])
        if str(pid) not in spec["byzantine"]
    }


def _deployment(spec: dict[str, Any], **engine: Any) -> Deployment:
    """The spec's run, wired as every engine wires one."""
    algorithm = _algorithm(spec)
    config = SystemConfig(spec["n"], spec["t"])
    plane = FaultPlane(
        config,
        {int(pid): _fault(variant) for pid, variant in spec["byzantine"].items()},
        failure_model=algorithm.failure_model,
        algorithm_name=algorithm.name,
    )
    protocols = plane.protocols(
        algorithm,
        spec["inputs"],
        OracleConsensus,
        idb_factory=oracle_idb_factory(),
        enforce_resilience=spec.get("enforce_resilience", True),
    )
    services = {
        UC_SERVICE_NAME: OracleService(config),
        IDB_SERVICE_NAME: OracleIdbService(config),
    }
    return Deployment(config, protocols, services, faulty=plane.faulty, **engine)


def build_system(spec: dict[str, Any], event_sink=None) -> McSystem:
    """Instantiate a fresh, unstarted :class:`McSystem` from a spec.

    ``event_sink`` (an :class:`~repro.engine.events.EventSink`) makes the
    system emit the cross-engine structured event stream while it runs —
    used by counterexample replay to render traces comparably to every
    other backend.
    """
    return _deployment(spec, event_sink=event_sink).build_mc()


def build_simulation(spec: dict[str, Any], **engine: Any) -> Simulation:
    """Instantiate the *same* composition on the discrete-event simulator
    (``engine``: the :class:`~repro.harness.Deployment` knobs
    ``scheduler``, ``latency``, ``seed``, ``event_sink``)."""
    return _deployment(spec, **engine).build_sim()


def build_invariants(spec: dict[str, Any]) -> list[Invariant]:
    """The invariant set a scenario is checked against: agreement and
    unanimity, plus condition-based one-step validity when the built
    process carries a condition pair."""
    if spec["kind"] == "idb":
        return [IdbConsistency()]
    correct_inputs = _correct_inputs(spec)
    invariants: list[Invariant] = [Agreement(), Unanimity(correct_inputs)]
    honest = _deployment(spec).protocols[min(correct_inputs)]
    if hasattr(honest, "pair"):
        invariants.append(GuaranteedOneStep(honest.pair, correct_inputs))
    if spec.get("step_bound") is not None:
        invariants.append(DecisionStepBound(spec["step_bound"]))
    return invariants


# -- bounded byzantine choice --------------------------------------------------------

def byzantine_variants(
    spec: dict[str, Any],
    pid: ProcessId,
    budget: int | None = None,
) -> list[dict[str, Any]]:
    """Enumerate concrete byzantine behaviors for process ``pid``.

    Deterministic order, cheapest adversaries first: silence, partial
    crashes, then every equivocation over the input-value domain crossed
    with singleton/complement target groups, and (for an algorithm, which
    falls back to the underlying consensus) the UC saboteur per domain
    value.  A crash-model algorithm gets the silent and crash variants
    only.  ``budget`` truncates the list; ``None`` keeps all of them.  The
    returned dicts slot into a spec's ``byzantine`` map.
    """
    n = spec["n"]
    correct = [p for p in range(n) if p != pid]
    domain = sorted(set(spec["inputs"]), key=repr)
    variants: list[dict[str, Any]] = [{"kind": "silent"}]
    for crash_budget in sorted({1, n // 2}):
        variants.append({"kind": "crash", "budget": crash_budget})
    if _algorithm(spec).failure_model == "crash":
        return variants[:budget]
    seen: set[str] = set()
    # Complement splits (lie to one process, tell the rest the other story)
    # are the canonical equivocation and the most likely to break a
    # protocol, so they come before singleton splits — checks that stop at
    # the first violation, and truncated budgets, meet them first.
    group_kinds = (
        [[p for p in correct if p != c] for c in correct]
        + [[c] for c in correct]
    )
    for group_a in group_kinds:
        for value_a in domain:
            for value_b in domain:
                if value_a == value_b:
                    continue
                key = f"{value_a!r}|{value_b!r}|{group_a!r}"
                if key in seen:
                    continue
                seen.add(key)
                variants.append(
                    {
                        "kind": "equivocate",
                        "value_a": value_a,
                        "value_b": value_b,
                        "group_a": group_a,
                    }
                )
    if spec["kind"] == "algorithm":
        for value in domain:
            variants.append({"kind": "saboteur", "uc_value": value})
    return variants[:budget]


def describe_variant(variant: dict[str, Any]) -> str:
    """Short human-readable label for a byzantine variant."""
    kind = variant["kind"]
    if kind == "crash":
        return f"crash@{variant['budget']}"
    if kind == "equivocate":
        return (
            f"equivocate({variant['value_a']!r}→{{{','.join(map(str, variant['group_a']))}}}, "
            f"{variant['value_b']!r}→rest)"
        )
    if kind == "saboteur":
        return f"saboteur(uc={variant['uc_value']!r})"
    return kind
