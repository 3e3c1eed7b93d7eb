"""Byzantine adversaries: behavior framework and concrete attack library."""

from .adversary import (
    ByzantineBehavior,
    CrashBehavior,
    MutatingBehavior,
    Mutator,
    SilentBehavior,
    TwoFacedBehavior,
    expand_broadcasts,
)
from .targeted import GapCollapser, SpoilerBehavior
from .behaviors import (
    RandomGarbageBehavior,
    compose_mutators,
    dropping_mutator,
    equivocating_mutator,
    rewrite_value,
    split_mutator,
)

__all__ = [
    "ByzantineBehavior",
    "SilentBehavior",
    "CrashBehavior",
    "MutatingBehavior",
    "TwoFacedBehavior",
    "Mutator",
    "expand_broadcasts",
    "RandomGarbageBehavior",
    "rewrite_value",
    "equivocating_mutator",
    "split_mutator",
    "dropping_mutator",
    "compose_mutators",
    "SpoilerBehavior",
    "GapCollapser",
]
