"""Multi-worker PDP cluster: membership, supervisor, live-ops.

One supervisor process forks N single-loop ``PDPServer`` workers and
fronts them with a :class:`~repro.cluster.router.ShardRouter` that
answers the cluster's membership: clients
(:class:`~repro.service.client.RemotePDPClient`) build the same
consistent-hash ring from it and send each decision straight to the
worker owning its shard key (tenant, else subject), keeping every
decision cache hot for its own key range.  The supervisor restarts
dead workers with backoff, drives cluster-wide two-phase policy
reloads (prepare everywhere, then activate everywhere or abort
everywhere), and aggregates per-worker metrics, health, traces and
flight-recorder tails into one cluster view.

The names below load on first use: the client imports
:mod:`repro.cluster.ring`, and the supervisor imports the client.
"""

import importlib
from typing import Any

_EXPORTS = {
    "ClusterAdminServer": "repro.cluster.admin",
    "ClusterSupervisor": "repro.cluster.supervisor",
    "ConsistentHashRing": "repro.cluster.ring",
    "ShardRouter": "repro.cluster.router",
    "WorkerHandle": "repro.cluster.supervisor",
    "merge_flight": "repro.cluster.liveops",
    "merge_health": "repro.cluster.liveops",
    "merge_prometheus": "repro.cluster.liveops",
    "stable_hash": "repro.cluster.ring",
}


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = sorted(_EXPORTS)
