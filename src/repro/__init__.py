"""repro — a full reproduction of *Doubly-Expedited One-Step Byzantine
Consensus* (Banu, Izumi, Wada; DSN 2010).

The package provides:

* :mod:`repro.core` — algorithm **DEX** (Figure 1), generic over legal
  condition-sequence pairs;
* :mod:`repro.conditions` — the condition-based machinery of §3: views,
  adaptive condition sequences, the frequency-based and
  privileged-value-based pairs, and a mechanical legality checker for
  criteria LT1–LU5;
* :mod:`repro.broadcast` — Identical Broadcast (appendix Figure 3) and
  Bracha reliable broadcast;
* :mod:`repro.underlying` — the underlying-consensus abstraction (§2.2) as
  a trusted oracle *and* a real signature-free stack (RBC + common-coin
  binary agreement + asynchronous common subset);
* :mod:`repro.baselines` — BOSCO (weak/strong), Brasileiro's one-step
  converter, and a plain two-step reference;
* :mod:`repro.runtime` / :mod:`repro.sim` — the sans-IO protocol
  interface and a deterministic discrete-event simulator interpreting it,
  with causal step accounting matching the paper's communication-step
  metric;
* :mod:`repro.byzantine` — a programmable adversary library;
* :mod:`repro.harness` — declarative scenario construction;
* :mod:`repro.workloads`, :mod:`repro.metrics`, :mod:`repro.analysis`,
  :mod:`repro.apps` — experiment support and the atomic-commit application;
* :mod:`repro.shard` — the replicated state machine of §1.1 as a
  keyspace-sharded service (many concurrent instances of any registered
  algorithm, batched, multiplexed over one engine).

Quickstart::

    from repro import Scenario, dex_freq

    result = Scenario(dex_freq(), inputs=[1] * 7, seed=1).run()
    print(result.decided_value, result.max_correct_step)   # 1 1

The names below are re-exported lazily: ``import repro`` loads nothing
until a name is read, and reading one loads the module defining it (DESIGN §4).
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__ = lazy_exports(
    __name__,
    {
        ".core": ("DexConsensus",),
        ".conditions": (
            "View",
            "ConditionSequence",
            "ConditionSequencePair",
            "FrequencyPair",
            "PrivilegedPair",
            "LegalityChecker",
        ),
        ".harness": (
            "Scenario",
            "Deployment",
            "AlgorithmSpec",
            "run_once",
            "all_algorithms",
            "dex_freq",
            "dex_prv",
            "bosco_weak",
            "bosco_strong",
            "brasileiro",
            "izumi",
            "twostep",
            "Fault",
            "Silent",
            "Crash",
            "Equivocate",
            "Garbage",
            "Spoiler",
            "Collapse",
            "Custom",
        ),
        ".sim": ("Simulation",),
        ".engine.run": ("RunResult",),
        ".types": ("BOTTOM", "SystemConfig", "Decision", "DecisionKind"),
        ".errors": (
            "ReproError",
            "ConfigurationError",
            "ResilienceError",
            "SimulationError",
            "SimulationDeadlock",
            "LegalityError",
        ),
    },
)
__all__.insert(0, "__version__")
