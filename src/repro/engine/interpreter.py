"""The one effect interpreter shared by every execution backend.

Historically each runtime — the discrete-event :class:`~repro.sim.runner.
Simulation`, an in-memory event-loop runner, the model checker's
:class:`~repro.mc.state.McSystem`, and the Byzantine behavior wrappers —
privately re-parsed the effect vocabulary of
:mod:`repro.runtime.effects`.  Four copies of ``isinstance(effect, Send)``
meant four places where the fast path and the fallback could drift apart,
which is fatal for a speculative-path consensus reproduction: the paper's
guarantees hold only if every engine gives effects *identical* semantics.

This module is now the only place that inspects effect types:

* :func:`interpret` turns an effect list into calls on an
  :class:`ExecutionPorts` implementation — the small port interface
  (``send``/``broadcast``/``decide``/``output``/``service_call``/
  ``log_record``) each backend provides.  Backends decide *scheduling*
  (virtual clock, event loop, pending multiset, lockstep rounds); the
  *meaning* of each effect is decided here, once.
* :func:`dispatch_service_call` owns the trusted-service calling
  convention (lookup, reply-path envelope wrapping) every backend shares.
* :class:`EffectRewriter` is the matching single dispatch path for the
  Byzantine behavior wrappers, which *transform* effect lists rather than
  execute them (mutate/drop sends, censor upcalls).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..errors import SimulationError
from ..runtime.effects import (
    Broadcast,
    Decide,
    Deliver,
    Effect,
    Envelope,
    Log,
    Send,
    ServiceCall,
)
from ..runtime.services import Service, ServiceReply
from ..types import ProcessId


class ExecutionPorts:
    """The port interface a backend implements to execute effects.

    Implementations must expose a ``config`` attribute (a
    :class:`~repro.types.SystemConfig`); the default :meth:`broadcast`
    fans out over ``config.processes`` in process-id order, which is the
    semantics every backend shares — a broadcast includes the sender's
    self-copy and enumerates destinations deterministically.

    The ``depth`` argument of :meth:`send`/:meth:`broadcast` is the causal
    depth *carried by the outgoing message* (the triggering event's depth
    plus one — :func:`interpret` adds the one); for the remaining ports it
    is the depth of the event being handled.
    """

    def send(self, src: ProcessId, dst: ProcessId, payload: Any, depth: int) -> None:
        """Ship one point-to-point message."""
        raise NotImplementedError

    def broadcast(self, src: ProcessId, payload: Any, depth: int) -> None:
        """Ship one message to every process, the sender included."""
        for dst in self.config.processes:  # type: ignore[attr-defined]
            self.send(src, dst, payload, depth)

    def decide(self, pid: ProcessId, value: Any, kind: Any, depth: int) -> None:
        """Record a terminal decision (backends keep first-decision-only)."""
        raise NotImplementedError

    def output(self, pid: ProcessId, effect: Deliver, depth: int) -> None:
        """Record a top-level protocol upcall."""
        raise NotImplementedError

    def service_call(self, pid: ProcessId, call: ServiceCall, depth: int) -> None:
        """Invoke a trusted service (usually via :func:`dispatch_service_call`)."""
        raise NotImplementedError

    def log_record(self, pid: ProcessId, record: Log, depth: int) -> None:
        """Record a structured trace effect; backends may drop it."""


def interpret(
    ports: ExecutionPorts, pid: ProcessId, effects: list[Effect], depth: int
) -> None:
    """Execute ``effects`` emitted by process ``pid`` at causal ``depth``.

    This is the single effect-interpretation code path of the library:
    every backend routes its handler results through here, so a new effect
    type (or a semantics fix) lands in exactly one place.
    """
    for effect in effects:
        if isinstance(effect, Send):
            ports.send(pid, effect.dst, effect.payload, depth + 1)
        elif isinstance(effect, Broadcast):
            ports.broadcast(pid, effect.payload, depth + 1)
        elif isinstance(effect, Decide):
            ports.decide(pid, effect.value, effect.kind, depth)
        elif isinstance(effect, Deliver):
            ports.output(pid, effect, depth)
        elif isinstance(effect, ServiceCall):
            ports.service_call(pid, effect, depth)
        elif isinstance(effect, Log):
            ports.log_record(pid, effect, depth)
        else:
            raise SimulationError(f"unknown effect {effect!r}")


def dispatch_service_call(
    services: Mapping[str, Service],
    pid: ProcessId,
    call: ServiceCall,
    depth: int,
    now: float,
    deliver_reply: Callable[[ServiceReply, Any], None],
) -> None:
    """The shared trusted-service calling convention.

    Looks up the service, executes the call synchronously, wraps each
    reply's payload in envelopes per its ``reply_path`` (outermost first on
    the wire, so wrapping iterates the path innermost-first), and hands
    ``(reply, wrapped_payload)`` to the backend's ``deliver_reply`` for
    scheduling.
    """
    service = services.get(call.service)
    if service is None:
        raise SimulationError(f"no service registered under {call.service!r}")
    for reply in service.on_call(pid, call.payload, depth, now, call.reply_path):
        payload: Any = reply.payload
        for component in reversed(reply.reply_path):
            payload = Envelope(component, payload)
        deliver_reply(reply, payload)


def expand_broadcasts(effects: list[Effect] | Any, config) -> list[Effect]:
    """Replace every ``Broadcast`` with one ``Send`` per process (id order).

    Used by adversary wrappers whose perturbations differ per receiver.
    """
    out: list[Effect] = []
    for effect in effects:
        if isinstance(effect, Broadcast):
            out.extend(Send(dst, effect.payload) for dst in config.processes)
        else:
            out.append(effect)
    return out


class EffectRewriter:
    """Single dispatch path for *transforming* effect lists — the base of
    the Byzantine behavior wrappers (:mod:`repro.byzantine.adversary`).

    Subclasses override the ``rewrite_*`` visitors they care about; each
    visitor returns an effect (kept), ``None`` (dropped), or a list of
    effects (spliced in).  The defaults keep everything unchanged, so a
    rewriter only states its deviations from honest pass-through.

    With :attr:`rewriter_expands_broadcasts` set, every ``Broadcast`` is
    expanded into per-destination ``Send`` effects (process-id order,
    self-copy included) *before* visiting, so per-receiver perturbations —
    equivocation, selective omission, partial crashes — see each
    destination individually.  Expansion reads ``self.config``, which the
    Byzantine behavior wrappers (protocols) already carry.

    :meth:`stop_rewrite` aborts the current rewrite after the running
    visitor's result is applied — how a crashing process drops the tail of
    its own output.  The stop flag is saved and restored around each
    rewrite, so a re-entrant rewrite (a visitor that rewrites another
    list) cannot clobber an outer rewrite's state.
    """

    rewriter_expands_broadcasts = False

    def rewrite_effects(self, effects: list[Effect]) -> list[Effect]:
        outer = getattr(self, "_rewrite_stopped", False)
        self._rewrite_stopped = False
        out: list[Effect] = []
        try:
            for effect in effects:
                if self._rewrite_stopped:
                    break
                if self.rewriter_expands_broadcasts and isinstance(effect, Broadcast):
                    for dst in self.config.processes:  # type: ignore[attr-defined]
                        if self._rewrite_stopped:
                            break
                        self._emit(out, self.rewrite_send(Send(dst, effect.payload)))
                    continue
                self._emit(out, self._dispatch(effect))
        finally:
            self._rewrite_stopped = outer
        return out

    def stop_rewrite(self) -> None:
        """Drop every effect after the currently visited one."""
        self._rewrite_stopped = True

    # -- dispatch ------------------------------------------------------------------

    def _dispatch(self, effect: Effect) -> Effect | list[Effect] | None:
        if isinstance(effect, Send):
            return self.rewrite_send(effect)
        if isinstance(effect, Broadcast):
            return self.rewrite_broadcast(effect)
        if isinstance(effect, Decide):
            return self.rewrite_decide(effect)
        if isinstance(effect, Deliver):
            return self.rewrite_deliver(effect)
        if isinstance(effect, ServiceCall):
            return self.rewrite_service_call(effect)
        if isinstance(effect, Log):
            return self.rewrite_log(effect)
        return self.rewrite_other(effect)

    @staticmethod
    def _emit(out: list[Effect], result: Effect | list[Effect] | None) -> None:
        if result is None:
            return
        if isinstance(result, Effect):
            out.append(result)
        else:
            out.extend(result)

    # -- visitors (defaults: identity) -----------------------------------------------

    def rewrite_send(self, effect: Send) -> Effect | list[Effect] | None:
        return effect

    def rewrite_broadcast(self, effect: Broadcast) -> Effect | list[Effect] | None:
        return effect

    def rewrite_decide(self, effect: Decide) -> Effect | list[Effect] | None:
        return effect

    def rewrite_deliver(self, effect: Deliver) -> Effect | list[Effect] | None:
        return effect

    def rewrite_service_call(self, effect: ServiceCall) -> Effect | list[Effect] | None:
        return effect

    def rewrite_log(self, effect: Log) -> Effect | list[Effect] | None:
        return effect

    def rewrite_other(self, effect: Effect) -> Effect | list[Effect] | None:
        return effect


class CensoringRewriter(EffectRewriter):
    """Rewriter base for faulty-process wrappers: a Byzantine process's
    ``Decide``/``Deliver`` upcalls are meaningless to the experiment and
    are censored; everything else passes through the visitors."""

    def rewrite_decide(self, effect: Decide) -> None:
        return None

    def rewrite_deliver(self, effect: Deliver) -> None:
        return None
