"""Regeneration of the paper's Table 1 — with empirical validation.

Table 1 of the paper is a *property* table: for each algorithm it states
the system model, failure type, resilience and the situations in which
one-/two-step decision is feasible.  :func:`paper_table1` reprints those
rows from the algorithm registry; :func:`validated_table1` goes further
and **checks each implemented row empirically**: for every algorithm it
runs the scenarios its feasibility claims describe (on-condition inputs
must decide fast, off-condition inputs must still terminate and agree)
and appends a measured-validation column.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..conditions.frequency import FrequencyPair
from ..conditions.privileged import PrivilegedPair
from ..conditions.views import View
from ..harness import (
    AlgorithmSpec,
    RoundCrash,
    Scenario,
    Silent,
    all_algorithms,
    sync_onestep,
)
from ..types import DecisionKind, SystemConfig
from ..workloads.inputs import split, unanimous, with_frequency_gap


def _paper_rows() -> list[AlgorithmSpec]:
    """The paper's rows in its order: every registered algorithm but the
    two-step reference (our own reference point), the synchronous row third."""
    specs = [spec for spec in all_algorithms() if spec.name != "twostep"]
    specs.insert(2, sync_onestep())
    return specs


def paper_table1() -> list[dict[str, str]]:
    """The comparison table, straight from the registry metadata."""
    return [{"algorithm": spec.name, **spec.table1, "validated": ""} for spec in _paper_rows()]


def validate_sync_row(n: int = 5, t: int = 2, seeds: range = range(3)) -> ValidationOutcome:
    """Empirically validate the synchronous-model row on the lockstep engine.

    Checks: unanimous inputs decide in round 1; contended inputs agree and
    terminate within ``t + 1`` rounds; crashes mid-round-1 never break
    agreement; a level-``k`` condition input decides in round 1 with
    ``f ≤ k`` crashes.  A decision's step is its round.
    """
    from ..baselines.crash_onestep import crash_one_step_level

    spec = sync_onestep()
    fast = True
    terminates = True
    agreement = True
    details = []

    def run(inputs, faults, seed):
        return Scenario(spec, inputs, t=t, faults=faults, seed=seed, engine="sync").run()

    for seed in seeds:
        result = run(unanimous(1, n), {}, seed)
        agreement &= result.agreement_holds()
        if {d.step for d in result.correct_decisions.values()} != {1}:
            fast = False
            details.append(f"seed {seed}: unanimous not one-round")

        contended = split(1, 2, n, n // 2)
        result = run(contended, {}, seed)
        agreement &= result.agreement_holds()
        terminates &= result.all_correct_decided()
        terminates &= result.max_correct_step <= t + 1

        crashes = {n - 1: RoundCrash(1, seed=seed), n - 2: RoundCrash(2, seed=seed)}
        result = run(unanimous(1, n), crashes, seed)
        agreement &= result.agreement_holds()
        level = crash_one_step_level(View(unanimous(1, n)), t)
        if level is not None and level >= 2:
            if {d.step for d in result.correct_decisions.values()} != {1}:
                fast = False
                details.append(f"seed {seed}: f=2 unanimous not one-round")

    return ValidationOutcome(
        algorithm=spec.name,
        n=n,
        t=t,
        fast_on_claimed=fast,
        terminates_off_condition=terminates,
        agreement_everywhere=agreement,
        detail="; ".join(details) or "ok",
    )


@dataclass
class ValidationOutcome:
    """Result of empirically checking one algorithm's Table 1 claims."""

    algorithm: str
    n: int
    t: int
    fast_on_claimed: bool
    terminates_off_condition: bool
    agreement_everywhere: bool
    detail: str

    @property
    def ok(self) -> bool:
        return (
            self.fast_on_claimed
            and self.terminates_off_condition
            and self.agreement_everywhere
        )


def _expected_fast_kinds(spec: AlgorithmSpec) -> set[DecisionKind]:
    if spec.name.startswith("dex") or spec.name == "izumi":
        return {DecisionKind.ONE_STEP}
    return {DecisionKind.FAST}


def validate_algorithm(spec: AlgorithmSpec, n: int, seeds: range = range(3)) -> ValidationOutcome:
    """Empirically check one algorithm's feasibility claims at size ``n``.

    Three scenarios per seed:

    1. **claimed fast input** — unanimous proposals (the weakest claim every
       row makes); all correct processes must decide in one step;
    2. **off-condition input** — a maximally contended vector; the run must
       terminate with agreement (fast decision not required);
    3. **claimed input with failures** — unanimous with ``f = t`` silent
       processes; DEX/BOSCO-strong still claim the fast path here, the
       others only agreement + termination.
    """
    t = spec.max_t(n)
    fast_on_claimed = True
    terminates = True
    agreement = True
    details = []
    fast_kinds = _expected_fast_kinds(spec)

    for seed in seeds:
        unanimous_result = Scenario(spec, unanimous(1, n), t=t, seed=seed).run()
        kinds = {d.kind for d in unanimous_result.correct_decisions.values()}
        steps = {d.step for d in unanimous_result.correct_decisions.values()}
        if not kinds <= fast_kinds or steps != {1}:
            fast_on_claimed = False
            details.append(f"seed {seed}: unanimous decided {kinds}/{steps}")
        agreement &= unanimous_result.agreement_holds()

        contended = split(1, 2, n, n // 2)
        contended_result = Scenario(spec, contended, t=t, seed=seed).run()
        terminates &= contended_result.all_correct_decided()
        agreement &= contended_result.agreement_holds()

        if t > 0:
            faults = {pid: Silent() for pid in range(n - t, n)}
            faulty_result = Scenario(
                spec, unanimous(1, n), t=t, faults=faults, seed=seed
            ).run()
            agreement &= faulty_result.agreement_holds()
            terminates &= faulty_result.all_correct_decided()
            claims_fast_under_faults = spec.name in (
                "dex-freq",
                "dex-prv",
                "bosco-strong",
                "izumi",
            )
            if claims_fast_under_faults:
                kinds = {d.kind for d in faulty_result.correct_decisions.values()}
                if not kinds <= fast_kinds:
                    fast_on_claimed = False
                    details.append(f"seed {seed}: f={t} unanimous decided {kinds}")

    return ValidationOutcome(
        algorithm=spec.name,
        n=n,
        t=t,
        fast_on_claimed=fast_on_claimed,
        terminates_off_condition=terminates,
        agreement_everywhere=agreement,
        detail="; ".join(details) or "ok",
    )


def validated_table1(n_by_ratio: dict[int, int] | None = None) -> list[dict[str, str]]:
    """Table 1 with a measured-validation column for every implemented row.

    Args:
        n_by_ratio: system size per resilience ratio; defaults to the
            smallest size exercising ``t = 1`` for each row
            (``n = ratio + 2`` keeps ``(n − gap)`` parities simple).
    """
    sizes = n_by_ratio or {3: 7, 5: 11, 6: 13, 7: 15}
    rows = []
    for spec in _paper_rows():
        if spec.table1["system"] == "Syn.":
            outcome = validate_sync_row()
        else:
            n = sizes.get(spec.required_ratio, spec.required_ratio * 2 + 1)
            outcome = validate_algorithm(spec, n)
        rows.append(
            {
                "algorithm": spec.name,
                **spec.table1,
                "validated": "yes" if outcome.ok else f"NO: {outcome.detail}",
            }
        )
    return rows


def dex_condition_examples(n: int = 13) -> list[dict[str, str]]:
    """Worked examples of the adaptive conditions at size ``n`` — the rows
    that make Table 1's "Condition-Based" entries concrete."""
    config = SystemConfig(n, (n - 1) // 6)
    t = config.t
    freq = FrequencyPair(n, t)
    prv = PrivilegedPair(n, t, privileged=1)
    rows = []
    for label, vector in [
        ("unanimous", View(unanimous(1, n))),
        ("gap 4t+2", View(with_frequency_gap(1, 2, n, 4 * t + 2 if (n - 4 * t - 2) % 2 == 0 else 4 * t + 3))),
        ("gap 2t+2", View(with_frequency_gap(1, 2, n, 2 * t + 2 if (n - 2 * t - 2) % 2 == 0 else 2 * t + 3))),
        ("even split", View(split(1, 2, n, n // 2))),
    ]:
        rows.append(
            {
                "input": label,
                "gap": str(vector.frequency_gap()),
                "freq 1-step level": str(freq.one_step_level(vector)),
                "freq 2-step level": str(freq.two_step_level(vector)),
                "prv 1-step level": str(prv.one_step_level(vector)),
                "prv 2-step level": str(prv.two_step_level(vector)),
            }
        )
    return rows
