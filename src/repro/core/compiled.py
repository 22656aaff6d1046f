"""Compiled policy snapshots — the fast mediation substrate.

The GRBAC mediation rule (§4.2.4) is an existential match over three
role sets.  The policy changes rarely (every mutation bumps
:attr:`~repro.core.policy.GrbacPolicy.decision_revision`) while
decisions happen constantly, so we compile the policy into an
immutable :class:`CompiledPolicy` once per revision and serve every
decision from it:

* role names are interned to dense integer IDs per role kind
  (:class:`~repro.core.hierarchy.InternedHierarchy`);
* hierarchy closures are precomputed as Python ``int`` bitsets — the
  upward (generalization) closure of each role is one integer, so
  "does the requester possess role *r*" is a single ``&`` test;
* permissions are laid out as flat tuples bucketed by
  ``(transaction, subject role id)``, each carrying the object-role
  and environment-role closure test as a one-bit mask, plus the
  resolved sign / confidence / wildcard flags the decision loop needs.

The mediation engine keys its snapshot on ``decision_revision``;
entities and transactions registered *without* touching roles,
assignments, or permissions (which do not move the revision) are
resolved against the live policy on the miss path, so the snapshot can
never serve stale decisions.  Equivalence of the engine with the
literal §4.2.4 quantifier (:mod:`repro.core.oracle`) is property-tested
(``tests/core/test_properties.py``) and asserted point-by-point by
benchmark E11 before anything is timed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, List, NamedTuple, Tuple

from repro.core.hierarchy import InternedHierarchy
from repro.core.permissions import Permission, Sign
from repro.core.roles import ANY_ENVIRONMENT, ANY_OBJECT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.policy import GrbacPolicy


class CompiledRule(NamedTuple):
    """One permission, flattened for the compiled decision loop.

    The loop tests ``object_bit & object_mask`` and
    ``environment_bit & environment_mask`` — everything else here is
    payload for building the :class:`~repro.core.precedence.Match`
    once a rule survives those tests.
    """

    #: Policy insertion position (resolution is order-deterministic).
    order: int
    permission: Permission
    subject_id: int
    #: ``1 << object_role_id`` — a match requires this bit in the
    #: request's expanded object-role mask.
    object_bit: int
    #: ``1 << environment_role_id`` — ditto for environment roles.
    environment_bit: int
    is_deny: bool
    min_confidence: float
    #: Wildcard flags feed specificity: wildcards take the fixed
    #: :data:`~repro.core.mediation.WILDCARD_DISTANCE` penalty.
    object_is_wildcard: bool
    environment_is_wildcard: bool
    object_id: int
    environment_id: int


class CompiledPolicy:
    """An immutable, ID-interned snapshot of one policy revision."""

    __slots__ = (
        "revision",
        "subjects",
        "objects",
        "environments",
        "any_object_bit",
        "any_environment_bit",
        "any_environment_id",
        "rules",
        "transactions",
        "rule_count",
    )

    def __init__(self, policy: "GrbacPolicy") -> None:
        #: The ``decision_revision`` this snapshot serves.
        self.revision: int = policy.decision_revision
        #: Interned views of the three role hierarchies.
        self.subjects: InternedHierarchy = policy.subject_roles.interned()
        self.objects: InternedHierarchy = policy.object_roles.interned()
        self.environments: InternedHierarchy = policy.environment_roles.interned()
        self.any_object_bit: int = 1 << self.objects.ids[ANY_OBJECT.name]
        self.any_environment_id: int = self.environments.ids[ANY_ENVIRONMENT.name]
        self.any_environment_bit: int = 1 << self.any_environment_id
        #: transaction name -> subject role id -> compiled rules, in
        #: policy insertion order within each bucket.
        self.rules: Dict[str, Dict[int, List[CompiledRule]]] = {}
        #: Transaction names known at compile time.  A request naming a
        #: transaction outside this set falls back to the live policy
        #: lookup (transactions can be registered without bumping the
        #: decision revision).
        self.transactions = frozenset(t.name for t in policy.transactions())
        self.rule_count: int = 0
        for order, permission in enumerate(policy.permissions()):
            object_id = self.objects.ids[permission.object_role.name]
            environment_id = self.environments.ids[permission.environment_role.name]
            rule = CompiledRule(
                order=order,
                permission=permission,
                subject_id=self.subjects.ids[permission.subject_role.name],
                object_bit=1 << object_id,
                environment_bit=1 << environment_id,
                is_deny=permission.sign is Sign.DENY,
                min_confidence=permission.min_confidence,
                object_is_wildcard=permission.object_role.name == ANY_OBJECT.name,
                environment_is_wildcard=(
                    permission.environment_role.name == ANY_ENVIRONMENT.name
                ),
                object_id=object_id,
                environment_id=environment_id,
            )
            bucket = self.rules.setdefault(permission.transaction.name, {})
            bucket.setdefault(rule.subject_id, []).append(rule)
            self.rule_count += 1

    # ------------------------------------------------------------------
    # Request-side profiles
    # ------------------------------------------------------------------
    def subject_profile(
        self, direct_names
    ) -> Tuple[Tuple[int, ...], Tuple[str, ...], int, Dict[int, int]]:
        """Expand direct subject roles into the compiled request shape.

        Returns ``(effective ids, effective names, possession mask,
        merged distance table)``.  All four are derived from the baked
        closure bitsets — no per-request graph traversal.
        """
        interned = self.subjects
        ids = interned.ids
        direct_ids = [ids[name] for name in direct_names]
        mask = 0
        for role_id in direct_ids:
            mask |= interned.up_masks[role_id]
        effective_ids = _mask_ids(mask)
        effective_names = tuple(interned.names[i] for i in effective_ids)
        return (
            effective_ids,
            effective_names,
            mask,
            interned.merged_distances(direct_ids),
        )

    def object_profile(
        self, direct_names
    ) -> Tuple[int, FrozenSet[str], Dict[int, int]]:
        """(possession mask incl. ``any-object``, expanded names, distances).

        Names come back as a ``frozenset`` so the decision can embed
        them without another copy.
        """
        interned = self.objects
        ids = interned.ids
        direct_ids = [ids[name] for name in direct_names]
        mask = self.any_object_bit
        for role_id in direct_ids:
            mask |= interned.up_masks[role_id]
        names = frozenset(interned.names[i] for i in _mask_ids(mask))
        return mask, names, interned.merged_distances(direct_ids)

    def environment_profile(
        self, active_names
    ) -> Tuple[int, FrozenSet[str], Dict[int, int]]:
        """(active mask incl. ``any-environment``, expanded names, distances).

        Unregistered names in ``active_names`` are ignored, mirroring
        :meth:`MediationEngine._environment_role_names`.
        """
        interned = self.environments
        ids = interned.ids
        direct_ids = [
            role_id
            for role_id in (ids.get(name) for name in active_names)
            if role_id is not None
        ]
        mask = self.any_environment_bit
        for role_id in direct_ids:
            mask |= interned.up_masks[role_id]
        names = frozenset(interned.names[i] for i in _mask_ids(mask))
        return mask, names, interned.merged_distances(direct_ids)


def _mask_ids(mask: int) -> Tuple[int, ...]:
    """Decode a bitset into ascending role ids."""
    ids: List[int] = []
    while mask:
        bit = mask & -mask
        ids.append(bit.bit_length() - 1)
        mask ^= bit
    return tuple(ids)
