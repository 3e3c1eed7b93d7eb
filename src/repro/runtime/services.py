"""Trusted harness services.

The paper assumes the system "is equipped with the underlying consensus
primitive" without committing to an implementation (§2.2).  A
:class:`Service` is the harness-side realisation of such an assumed
primitive: protocols reach it through the
:class:`~repro.runtime.effects.ServiceCall` effect, and the runtime
delivers its replies back as ordinary payloads.

Reply routing: composite protocols tag each request with a *reply path*
(the chain of component names the runtime must wrap the reply in so it
reaches the right sub-protocol — e.g. ``("s0.3", "uc")`` for the
underlying consensus of shard 0's log slot 3).  The runtime hands the request's path
to :meth:`Service.on_call`, and every :class:`ServiceReply` carries the
path to wrap its payload with — services that answer several callers (like
the oracle consensus announcing a decision) must remember each caller's
own path and reply along it.

Services are trusted — they model abstractions, not processes — but they
still participate in causal step accounting so that the cost of the
abstraction shows up in measured step counts.  Every engine drives the
same service objects (on ``net``, hub 0 hosts them).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

from ..types import ProcessId


@dataclass(frozen=True, slots=True)
class ServiceReply:
    """One payload a service wants delivered.

    Attributes:
        dst: receiving process.
        payload: reply payload.
        depth: causal depth the reply carries.
        delay: extra simulated latency before delivery.
        reply_path: component path (outermost first) the runtime wraps the
            payload in; use the requesting call's path so the reply reaches
            the component that asked.
    """

    dst: ProcessId
    payload: Any
    depth: int
    delay: float = 0.0
    reply_path: tuple[str, ...] = field(default=())


class Service(abc.ABC):
    """Base class for trusted harness services."""

    @abc.abstractmethod
    def on_call(
        self,
        caller: ProcessId,
        payload: Any,
        depth: int,
        time: float,
        reply_path: tuple[str, ...] = (),
    ) -> list[ServiceReply]:
        """Handle one request.

        Args:
            caller: the process issuing the :class:`ServiceCall`.
            payload: the request payload (untrusted when the caller is
                Byzantine — services must validate).
            depth: causal depth of the request.
            time: current simulated (or wall-clock) time.
            reply_path: the request's component path; copy it onto replies
                addressed to ``caller`` (and remember it if you will reply
                to this caller later).

        Returns:
            Replies to schedule.  May be empty (e.g. while a quorum of
            requests is still being collected).
        """

    def reset(self) -> None:
        """Clear state between runs; default is stateless."""
