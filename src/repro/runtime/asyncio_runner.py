"""asyncio runtime: the same sans-IO protocols on a real event loop.

Where :mod:`repro.sim` interprets effects against a virtual clock, this
runner executes them over an in-memory asyncio transport: one task and one
:class:`asyncio.Queue` mailbox per process, real ``asyncio.sleep`` delays,
wall-clock timing.  Protocols are byte-for-byte the same objects — the
sans-IO design is what makes this a one-file addition — so the asyncio
numbers (bench E8) validate that nothing in the simulator results is a
simulation artifact.  Effect semantics come from
:mod:`repro.engine.interpreter`: this class only implements the
:class:`~repro.engine.interpreter.ExecutionPorts` scheduling (delayed
mailbox puts), which is also why Byzantine behaviors — ordinary protocols
wrapping honest ones — run here exactly as they do on the simulator.

Determinism caveat: delays are seeded, but asyncio's internal scheduling
makes interleavings only *mostly* reproducible; property tests that need
exact replay belong on the simulator.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Mapping

from ..engine.events import DeliverEvent, EventSink, SendEvent
from ..engine.interpreter import interpret
from ..engine.run import Engine, RunResult
from ..types import ProcessId, SystemConfig
from .effects import SERVICE_SENDER
from .protocol import Protocol, guarded
from .services import Service, ServiceReply


class AsyncioRunner(Engine):
    """Run one protocol deployment over in-memory asyncio transport.

    Args:
        config: system parameters.
        protocols: one protocol (or Byzantine behavior) per process.
        faulty: Byzantine process ids (bookkeeping only).
        services: trusted services by name (same objects as the simulator).
        seed: seeds the per-message delay sampling.
        mean_delay: average one-way message delay in seconds.
        event_sink: optional structured-event sink
            (:mod:`repro.engine.events`); event times are wall-clock
            seconds since the run started.
    """

    def __init__(
        self,
        config: SystemConfig,
        protocols: Mapping[ProcessId, Protocol],
        faulty: frozenset[ProcessId] | set[ProcessId] = frozenset(),
        services: Mapping[str, Service] | None = None,
        seed: int = 0,
        mean_delay: float = 0.001,
        event_sink: EventSink | None = None,
    ) -> None:
        super().__init__(config, protocols, faulty, services, event_sink)
        self.protocols = dict(protocols)
        self.rng = random.Random(seed)
        self.mean_delay = mean_delay
        self._t0 = 0.0
        self._mailboxes: dict[ProcessId, asyncio.Queue] = {}
        self._all_decided = asyncio.Event()
        self._pending: set[asyncio.Task] = set()

    # -- transport ------------------------------------------------------------------

    def now(self) -> float:
        return time.monotonic() - self._t0

    def _delay(self) -> float:
        return self.rng.uniform(0.5, 1.5) * self.mean_delay

    def _deliver_later(
        self, dst: ProcessId, sender: ProcessId, payload: Any, depth: int, delay: float
    ) -> None:
        async def deliver() -> None:
            if delay > 0:
                await asyncio.sleep(delay)
            await self._mailboxes[dst].put((sender, payload, depth))

        task = asyncio.ensure_future(deliver())
        self._pending.add(task)
        task.add_done_callback(self._pending.discard)

    # -- ExecutionPorts (broadcast inherits the per-destination default) --------------

    def send(self, src: ProcessId, dst: ProcessId, payload: Any, depth: int) -> None:
        self.stats.messages_sent += 1
        self._deliver_later(dst, src, payload, depth, 0.0 if dst == src else self._delay())
        if self._sends is not None:
            self._sends.emit(SendEvent(self.now(), src, dst, payload, depth))

    def decide(self, pid: ProcessId, value: Any, kind: Any, depth: int) -> None:
        super().decide(pid, value, kind, depth)
        if not self._undecided_correct:
            self._all_decided.set()

    def _deliver_reply(self, reply: ServiceReply, payload: Any) -> None:
        self._deliver_later(reply.dst, SERVICE_SENDER, payload, reply.depth, self._delay())

    # -- process loop -----------------------------------------------------------------

    async def _process_loop(self, pid: ProcessId) -> None:
        mailbox = self._mailboxes[pid]
        while True:
            sender, payload, depth = await mailbox.get()
            self.stats.messages_delivered += 1
            if self._delivers is not None:
                self._delivers.emit(DeliverEvent(self.now(), pid, sender, payload, depth))
            effects = guarded(self.protocols[pid], sender, payload)
            interpret(self, pid, effects, depth)

    async def run(self, timeout: float = 30.0) -> RunResult:
        """Run until every correct process decided (or ``timeout``).

        On timeout every in-flight delivery task is cancelled (nothing
        leaks into later event loops) and the partial result is returned
        with ``timed_out=True``.
        """
        self._t0 = time.monotonic()
        self._mailboxes = {pid: asyncio.Queue() for pid in self.config.processes}
        loops = [
            asyncio.ensure_future(self._process_loop(pid))
            for pid in self.config.processes
        ]
        for pid in self.config.processes:
            interpret(self, pid, self.protocols[pid].on_start(), 0)
        timed_out = False
        try:
            await asyncio.wait_for(self._all_decided.wait(), timeout)
        except asyncio.TimeoutError:
            timed_out = True
        finally:
            drained = not self._pending
            for task in loops:
                task.cancel()
            for task in list(self._pending):
                task.cancel()
            await asyncio.gather(*loops, *self._pending, return_exceptions=True)
        return self._result(drained=drained, timed_out=timed_out)

    def run_sync(self, timeout: float = 30.0) -> RunResult:
        """Convenience wrapper: ``asyncio.run`` the deployment."""
        return asyncio.run(self.run(timeout))
