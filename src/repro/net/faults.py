"""Link conditions of the socket engine, and unannounced process death.

A fault is the wrapper protocol the :class:`~repro.engine.faults.FaultPlane`
builds; on the socket engine it runs inside the faulty node's worker, as
on every other engine, and nothing here declares or enforces it again.

Two things live here:

* the :class:`LinkFault` behaviors and the :class:`LinkPlan` the hub
  routes every frame through — transport conditions (drop, delay,
  duplicate, reorder, cut) a caller passes per source link or on every
  link, independent of the fault plane;
* :class:`ProcessCrash`, the chaos spec for an *unannounced* OS-process
  death.  It is deliberately not a :class:`~repro.engine.faults.Fault`:
  the fault plane (and therefore the correct set, validation, and every
  invariant check) must not know about it — that is the point.  The node
  worker calls ``os._exit`` mid-run, which only a real-process engine can
  model at all.
"""

from __future__ import annotations

import abc
import copy
import os
from dataclasses import dataclass
from random import Random
from typing import Iterable, Mapping, Sequence

from ..types import ProcessId

__all__ = [
    "LinkFault",
    "DropLink",
    "DelayLink",
    "DuplicateLink",
    "ReorderLink",
    "CutAfter",
    "LinkPlan",
    "ProcessCrash",
    "EXIT_PROCESS_CRASH",
]

#: Environment marker set by the node worker's main; :class:`ProcessCrash`
#: refuses to kill any process that does not carry it, so a chaos spec
#: that leaks into the wrong engine (or the test runner) is inert.
NODE_ENV_MARKER = "REPRO_NET_NODE"

#: Exit code of a node worker killed by its :class:`ProcessCrash`.
EXIT_PROCESS_CRASH = 17


class LinkFault(abc.ABC):
    """How one source link mistreats the frames crossing it.

    A fault maps each message to the list of *extra delays* of the copies
    that survive it: ``[]`` drops the message, ``[0.0]`` passes it
    unchanged, ``[0.0, 0.0]`` duplicates it.  Faults on a link compose in
    order, each applied to every surviving copy.  Instances may keep
    per-run state (:class:`CutAfter` counts messages), so build a fresh
    plan per run.
    """

    @abc.abstractmethod
    def deliveries(self, src: ProcessId, dst: ProcessId, rng: Random) -> list[float]:
        """Extra delays of the surviving copies of one message."""

    def clone(self) -> "LinkFault":
        """A fresh instance with pristine per-run state.

        Parallel-hub topologies (:mod:`repro.mesh`) project one link plan
        onto every hub; each hub is an independent enforcement point, so
        stateful faults (:class:`CutAfter`'s counter) must not share state
        across hubs.  The default deep-copies — correct for the stateless
        faults; stateful ones override to reset.
        """
        return copy.deepcopy(self)

    def describe(self) -> str:
        """The fault's parameters, one line."""
        return ""


class DropLink(LinkFault):
    """Drop each message with probability ``probability`` (1.0 = dead link)."""

    def __init__(self, probability: float = 1.0) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"drop probability {probability} outside [0, 1]")
        self.probability = probability

    def deliveries(self, src: ProcessId, dst: ProcessId, rng: Random) -> list[float]:
        if self.probability >= 1.0 or rng.random() < self.probability:
            return []
        return [0.0]

    def describe(self) -> str:
        return f"p={self.probability}"


class DelayLink(LinkFault):
    """Add ``extra`` seconds (plus uniform ``jitter``) to every message."""

    def __init__(self, extra: float, jitter: float = 0.0) -> None:
        if extra < 0.0 or jitter < 0.0:
            raise ValueError("link delay must be non-negative")
        self.extra = extra
        self.jitter = jitter

    def deliveries(self, src: ProcessId, dst: ProcessId, rng: Random) -> list[float]:
        return [self.extra + (rng.uniform(0.0, self.jitter) if self.jitter else 0.0)]

    def describe(self) -> str:
        return f"extra={self.extra}s"


class DuplicateLink(LinkFault):
    """Deliver ``copies`` of each message with probability ``probability``."""

    def __init__(self, probability: float = 1.0, copies: int = 2) -> None:
        if copies < 1:
            raise ValueError("a duplicated message has at least one copy")
        self.probability = probability
        self.copies = copies

    def deliveries(self, src: ProcessId, dst: ProcessId, rng: Random) -> list[float]:
        if self.probability >= 1.0 or rng.random() < self.probability:
            return [0.0] * self.copies
        return [0.0]

    def describe(self) -> str:
        return f"copies={self.copies}"


class ReorderLink(LinkFault):
    """Scramble arrival order: each message is independently held back by
    a random delay in ``[0, window]`` with probability ``probability``.

    A later message that draws no (or a smaller) extra delay overtakes an
    earlier one, so FIFO order on the link is destroyed while every
    message still arrives — pure reordering, the one asynchrony the
    existing drop/delay/duplicate faults never isolate.  Safety must be
    indifferent to it: an asynchronous-model algorithm's agreement
    argument never assumes link order.
    """

    def __init__(self, probability: float = 0.5, window: float = 0.005) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"reorder probability {probability} outside [0, 1]")
        if window <= 0.0:
            raise ValueError("reorder window must be positive")
        self.probability = probability
        self.window = window

    def deliveries(self, src: ProcessId, dst: ProcessId, rng: Random) -> list[float]:
        if self.probability >= 1.0 or rng.random() < self.probability:
            return [rng.uniform(0.0, self.window)]
        return [0.0]

    def describe(self) -> str:
        return f"p={self.probability}, window={self.window}s"


class CutAfter(LinkFault):
    """Pass the first ``budget`` messages, then cut the link forever."""

    def __init__(self, budget: int) -> None:
        if budget < 0:
            raise ValueError("cut budget must be non-negative")
        self.budget = budget
        self._passed = 0

    def deliveries(self, src: ProcessId, dst: ProcessId, rng: Random) -> list[float]:
        if self._passed >= self.budget:
            return []
        self._passed += 1
        return [0.0]

    def clone(self) -> "CutAfter":
        return CutAfter(self.budget)

    def describe(self) -> str:
        return f"budget={self.budget}"


class LinkPlan:
    """The transport's full fault mapping: faults per source link.

    Args:
        per_source: fault chain applied to every frame *from* each pid.
        everywhere: fault chain applied to every frame on every link
            (after the per-source chain) — ambient loss/delay/duplication.
    """

    def __init__(
        self,
        per_source: Mapping[ProcessId, Sequence[LinkFault]] | None = None,
        everywhere: Sequence[LinkFault] = (),
    ) -> None:
        self.per_source = {pid: list(chain) for pid, chain in (per_source or {}).items()}
        self.everywhere = list(everywhere)

    def __bool__(self) -> bool:
        return bool(self.per_source) or bool(self.everywhere)

    def chain_for(self, src: ProcessId) -> Iterable[LinkFault]:
        yield from self.per_source.get(src, ())
        yield from self.everywhere

    def route(self, src: ProcessId, dst: ProcessId, rng: Random) -> list[float]:
        """Extra delays of the copies that survive the link, ``[]`` = dropped."""
        if not self.everywhere and not self.per_source.get(src):
            return [0.0]  # no fault on this link: one copy, on time, no draw
        copies = [0.0]
        for fault in self.chain_for(src):
            if not copies:
                return copies
            copies = [
                base + extra
                for base in copies
                for extra in fault.deliveries(src, dst, rng)
            ]
        return copies

    def project(self, hub: int) -> "LinkPlan":
        """This plan's projection onto one hub of a parallel-hub mesh.

        Same per-source/everywhere structure, fresh fault instances
        (:meth:`LinkFault.clone`): every hub enforces the plan on the
        frames *it* owns with its own state and its own seeded RNG stream,
        so multi-hub runs stay deterministic regardless of how traffic
        interleaves across hubs.  Note the semantics this fixes for
        stateful faults: a :class:`CutAfter` budget counts per owning hub,
        matching "the link out of this node dies after ``b`` messages" as
        observed at each enforcement point.  ``hub`` is taken for the
        call-site's readability; the projection itself is hub-agnostic.
        """
        del hub
        return LinkPlan(
            {pid: [f.clone() for f in chain] for pid, chain in self.per_source.items()},
            [f.clone() for f in self.everywhere],
        )


@dataclass(frozen=True)
class ProcessCrash:
    """Unannounced chaos: the node's OS process dies abruptly mid-run.

    The process calls ``os._exit`` (no cleanup, no goodbye frame) once it
    has written ``after`` point-to-point messages — the send that would be
    message ``after + 1`` kills it instead.  ``after=0`` dies at the first
    send attempt.  Unlike every :class:`~repro.engine.faults.Fault`, this
    is invisible to the fault plane: the dead pid stays in the correct
    set, which is exactly the straggler regime the cluster's deadline and
    EOF handling must survive.  The process exits with
    :data:`EXIT_PROCESS_CRASH` and stays dead.
    """

    after: int = 0

    def maybe_kill(self, sent: int) -> None:
        """Kill the current process if its send budget is exhausted.

        Inert unless ``REPRO_NET_NODE`` is set in the environment — only a
        net-engine node worker may ever be killed, never the test runner
        or an in-memory backend that a chaos spec leaked into.
        """
        if sent >= self.after and os.environ.get(NODE_ENV_MARKER):
            os._exit(EXIT_PROCESS_CRASH)
