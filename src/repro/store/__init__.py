"""Versioned multi-tenant policy store (append-only lineage + LRU)."""

from repro.policy.admin import DEFAULT_TENANT
from repro.store.snapshots import CompiledSnapshotCache
from repro.store.store import (
    Activation,
    PolicyStore,
    PolicyVersion,
    TenantLineage,
    content_hash,
)

__all__ = [
    "Activation",
    "CompiledSnapshotCache",
    "DEFAULT_TENANT",
    "PolicyStore",
    "PolicyVersion",
    "TenantLineage",
    "content_hash",
]
