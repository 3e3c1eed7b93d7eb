"""Serializable scenario specs: one recipe, two runtimes.

A *spec* is a JSON-safe dict describing a protocol composition — algorithm,
``(n, t)``, condition pair, inputs, byzantine assignment, abstraction
choices.  The same spec builds

* an :class:`~repro.mc.state.McSystem` for exploration
  (:func:`build_system`),
* a :class:`~repro.sim.runner.Simulation` for counterexample replay
  (:func:`build_simulation`),
* the invariant set the scenario is checked against
  (:func:`build_invariants`),

so a counterexample carries everything needed to rebuild the execution in
another process.

Byzantine nondeterminism is handled as *choice points at the root*: a
behavior template (equivocation values and targets, crash budgets, UC
poison values) is expanded by :func:`byzantine_variants` into a bounded,
deterministically-ordered list of concrete behavior specs, and each variant
is explored as its own tree.  This trades tree-width inside the DPOR for a
visible, budgetable enumeration — the report says exactly which adversaries
were covered.

:class:`UnderResilientPair` lives here rather than in
:mod:`repro.conditions` because it is deliberately *illegal*: a frequency
pair with its crash-grade margins halved (``P1: gap > 2t``,
``P2: gap > t``), accepted down to ``n > 3t``.  Against a Byzantine
process it loses agreement — the checker finds the trace automatically
(EXPERIMENTS.md E17), which is the point: it demonstrates that the paper's
``n > 5t``/margin requirements are load-bearing, not conservative.
"""

from __future__ import annotations

from typing import Any

from ..broadcast.idb import IdenticalBroadcast
from ..byzantine.adversary import (
    ByzantineBehavior,
    CrashBehavior,
    SilentBehavior,
    TwoFacedBehavior,
)
from ..byzantine.targeted import FallbackSaboteur
from ..conditions.base import ConditionSequencePair
from ..conditions.frequency import FrequencyPair
from ..conditions.privileged import PrivilegedPair
from ..conditions.views import View
from ..core.dex import DexConsensus
from ..errors import ConfigurationError
from ..runtime.protocol import Protocol
from ..sim.latency import LatencyModel
from ..sim.runner import Simulation
from ..sim.scheduler import DeliveryScheduler
from ..types import ProcessId, SystemConfig, Value
from ..underlying.oracle import SERVICE_NAME as UC_SERVICE_NAME
from ..underlying.oracle import OracleService
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


# -- pair registry -------------------------------------------------------------------

def make_pair(spec: dict[str, Any], n: int, t: int) -> ConditionSequencePair:
    kind = spec["kind"]
    enforce = bool(spec.get("enforce_resilience", True))
    if kind == "freq":
        return FrequencyPair(n, t, enforce_resilience=enforce)
    if kind == "prv":
        return PrivilegedPair(
            n, t, spec["privileged"], enforce_resilience=enforce
        )
    if kind == "under-freq":
        return UnderResilientPair(n, t, enforce_resilience=enforce)
    raise ConfigurationError(f"unknown pair kind {kind!r}")


# -- scenario constructors -----------------------------------------------------------

def dex_scenario(
    n: int,
    t: int,
    inputs: list[Value],
    pair: dict[str, Any] | None = None,
    byzantine: dict[int, dict[str, Any]] | None = None,
    oracle_idb: bool = True,
    enforce_resilience: bool = True,
    step_bound: int | None = None,
) -> dict[str, Any]:
    """Build a DEX scenario spec (see module docstring)."""
    if len(inputs) != n:
        raise ConfigurationError(f"need {n} inputs, got {len(inputs)}")
    return {
        "kind": "dex",
        "n": n,
        "t": t,
        "pair": dict(pair or {"kind": "freq"}),
        "inputs": list(inputs),
        "byzantine": {
            str(pid): dict(spec) for pid, spec in (byzantine or {}).items()
        },
        "oracle_idb": bool(oracle_idb),
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

def _faulty(spec: dict[str, Any]) -> frozenset[ProcessId]:
    return frozenset(int(pid) for pid in spec.get("byzantine", {}))


def _correct_inputs(spec: dict[str, Any]) -> dict[ProcessId, Value]:
    faulty = _faulty(spec)
    return {
        pid: value
        for pid, value in enumerate(spec["inputs"])
        if pid not in faulty
    }


def _build_components(
    spec: dict[str, Any]
) -> tuple[SystemConfig, dict[ProcessId, Protocol], dict[str, Any], frozenset[ProcessId]]:
    config = SystemConfig(spec["n"], spec["t"])
    faulty = _faulty(spec)
    if spec["kind"] == "dex":
        services: dict[str, Any] = {UC_SERVICE_NAME: OracleService(config)}
        idb_factory = None
        if spec.get("oracle_idb", True):
            services[IDB_SERVICE_NAME] = OracleIdbService(config)
            idb_factory = oracle_idb_factory()
        enforce = bool(spec.get("enforce_resilience", True))
        pair_spec = dict(spec["pair"])
        pair_spec.setdefault("enforce_resilience", enforce)

        def honest(pid: ProcessId, value: Value) -> DexConsensus:
            return DexConsensus(
                pid,
                config,
                make_pair(pair_spec, config.n, config.t),
                value,
                idb_factory=idb_factory,
                enforce_resilience=enforce,
            )

    elif spec["kind"] == "idb":
        services = {}

        def honest(pid: ProcessId, value: Value) -> IdenticalBroadcast:
            return IdenticalBroadcast(pid, config, initial_value=value)

    else:
        raise ConfigurationError(f"unknown scenario kind {spec['kind']!r}")

    protocols: dict[ProcessId, Protocol] = {}
    for pid in config.processes:
        behavior = spec.get("byzantine", {}).get(str(pid))
        if behavior is None:
            protocols[pid] = honest(pid, spec["inputs"][pid])
        else:
            protocols[pid] = _build_behavior(
                behavior, pid, config, honest, spec["inputs"][pid]
            )
    return config, protocols, services, faulty


def _build_behavior(
    behavior: dict[str, Any],
    pid: ProcessId,
    config: SystemConfig,
    honest,
    base_value: Value,
) -> ByzantineBehavior:
    kind = behavior["kind"]
    if kind == "silent":
        return SilentBehavior(pid, config)
    if kind == "crash":
        return CrashBehavior(honest(pid, base_value), behavior["budget"])
    if kind == "two-faced":
        group_a = frozenset(behavior["group_a"])
        return TwoFacedBehavior(
            honest(pid, behavior["value_a"]),
            honest(pid, behavior["value_b"]),
            group_of=lambda dst: "a" if dst in group_a else "b",
        )
    if kind == "saboteur":
        return FallbackSaboteur(honest(pid, base_value), behavior["uc_value"])
    raise ConfigurationError(f"unknown byzantine kind {kind!r}")


def build_system(spec: dict[str, Any], event_sink=None) -> McSystem:
    """Instantiate a fresh, unstarted :class:`McSystem` from a spec.

    ``event_sink`` (an :class:`~repro.engine.events.EventSink`) makes the
    system emit the cross-engine structured event stream while it runs —
    used by counterexample replay to render traces comparably to every
    other backend.
    """
    config, protocols, services, faulty = _build_components(spec)
    return McSystem(
        config, protocols, services=services, faulty=faulty, event_sink=event_sink
    )


def build_simulation(
    spec: dict[str, Any],
    scheduler: DeliveryScheduler | None = None,
    latency: LatencyModel | None = None,
    seed: int = 0,
    event_sink=None,
) -> Simulation:
    """Instantiate the *same* composition on the discrete-event simulator."""
    config, protocols, services, faulty = _build_components(spec)
    return Simulation(
        config,
        protocols,
        faulty=faulty,
        latency=latency,
        scheduler=scheduler,
        services=services,
        seed=seed,
        event_sink=event_sink,
    )


def build_invariants(spec: dict[str, Any]) -> list[Invariant]:
    """The invariant set a scenario is checked against."""
    if spec["kind"] == "idb":
        return [IdbConsistency()]
    correct_inputs = _correct_inputs(spec)
    pair = make_pair(
        {**spec["pair"], "enforce_resilience": False}, spec["n"], spec["t"]
    )
    invariants: list[Invariant] = [
        Agreement(),
        Unanimity(correct_inputs),
        GuaranteedOneStep(pair, correct_inputs),
    ]
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
    crashes, then every two-faced equivocation over the input-value domain
    crossed with singleton/complement target groups, and (for DEX) the
    underlying-consensus saboteur per domain value.  ``budget`` truncates
    the list; ``None`` keeps all of them.  The returned dicts slot into a
    spec's ``byzantine`` map.
    """
    n = spec["n"]
    correct = [p for p in range(n) if p != pid]
    domain = sorted(set(spec["inputs"]), key=repr)
    variants: list[dict[str, Any]] = [{"kind": "silent"}]
    for crash_budget in sorted({1, n // 2}):
        variants.append({"kind": "crash", "budget": crash_budget})
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
                        "kind": "two-faced",
                        "value_a": value_a,
                        "value_b": value_b,
                        "group_a": group_a,
                    }
                )
    if spec["kind"] == "dex":
        for value in domain:
            variants.append({"kind": "saboteur", "uc_value": value})
    if budget is not None:
        variants = variants[:budget]
    return variants


def describe_variant(variant: dict[str, Any]) -> str:
    """Short human-readable label for a byzantine variant."""
    kind = variant["kind"]
    if kind == "silent":
        return "silent"
    if kind == "crash":
        return f"crash@{variant['budget']}"
    if kind == "two-faced":
        return (
            f"two-faced({variant['value_a']!r}→{{{','.join(map(str, variant['group_a']))}}}, "
            f"{variant['value_b']!r}→rest)"
        )
    if kind == "saboteur":
        return f"saboteur(uc={variant['uc_value']!r})"
    return kind
