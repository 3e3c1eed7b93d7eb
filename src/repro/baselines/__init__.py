"""Baseline consensus algorithms compared against DEX (paper Table 1)."""

from .bosco import BoscoConsensus, BoscoVote
from .brasileiro import BrasileiroConsensus, BrasileiroValue
from .crash_onestep import CrashValue, IzumiCrashConsensus, crash_one_step_level
from .sync_onestep import SyncFlood, SyncOneStepConsensus, SyncRound1
from .twostep import TwoStepConsensus

__all__ = [
    "BoscoConsensus",
    "BoscoVote",
    "BrasileiroConsensus",
    "BrasileiroValue",
    "TwoStepConsensus",
    "IzumiCrashConsensus",
    "CrashValue",
    "crash_one_step_level",
    "SyncOneStepConsensus",
    "SyncRound1",
    "SyncFlood",
]
