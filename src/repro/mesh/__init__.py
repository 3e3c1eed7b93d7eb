"""repro.mesh — parallel hub groups and multi-host transport.

The socket engine's answer to the single-hub ceiling (EXPERIMENTS E19):
instead of one orchestrator process routing every frame, a mesh run
splits the shard space across *hub groups* — hub 0 stays inside the
orchestrator and keeps the control plane (events, services, liveness,
fault plans), while each extra hub is its own process running the same
data plane (:class:`repro.net.cluster.DataPlane`) over only the shard
traffic it owns, relaying stray frames hub-to-hub.  Hubs can live
on other hosts (``repro hub`` + :attr:`MeshTopology.remote`).

Entry points: :class:`MeshTopology` (surfaced as ``Scenario(mesh=...)``
and ``--hubs N`` on the CLI) and :class:`MeshCluster` (constructed by the
harness when a topology is present).
"""

from .cluster import MeshCluster
from .hub import HubLink, HubWorker, serve_hub
from ..net.node import EXIT_HUB_LOST
from .topology import MeshTopology, hub_rng, peek_shard, shard_of_payload
from .wire import CONTROL_LINK, HubHello, HubReady, HubSaturated, HubStats, MsgRelay

__all__ = [
    "MeshTopology",
    "MeshCluster",
    "HubWorker",
    "HubLink",
    "serve_hub",
    "EXIT_HUB_LOST",
    "hub_rng",
    "peek_shard",
    "shard_of_payload",
    "CONTROL_LINK",
    "HubHello",
    "HubReady",
    "HubSaturated",
    "HubStats",
    "MsgRelay",
]
