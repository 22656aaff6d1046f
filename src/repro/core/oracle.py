"""The §4.2.4 quantifier, transcribed literally — the reference oracle.

*s* may perform *t* on *o* iff ∃ a subject role ``rs`` possessed by
*s*, an object role ``ro`` possessed by *o* and an active environment
role ``re`` such that some permission authorizes ``(rs, ro, re, t)``.
:func:`reference_decide` evaluates exactly that, one permission at a
time over plain string sets, then applies the §5.2 confidence gate and
the policy's precedence strategy.

It exists so the production engine has something independent to be
checked against: the equivalence properties in ``tests/core`` and
E11's ablation column call it, and nothing else does.  It is built
from the string-set helpers of :mod:`repro.core.pipeline` only and
shares no code with :mod:`repro.core.compiled` or the engine's match
stage — no interning, no bitsets, no memos, no snapshot.  Decision
constraints, observers, tallies and traces are engine concerns and
are deliberately absent.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.core.activation import Session
from repro.core.decision import AccessRequest, Decision
from repro.core.permissions import Sign
from repro.core.pipeline import (
    apply_confidence_gate,
    direct_subject_confidences,
    environment_role_names,
    expand_subject_confidences,
    object_role_names,
    rule_specificity,
)
from repro.core.precedence import Match, resolve


def reference_decide(
    policy,
    request: AccessRequest,
    active_env: Iterable[str],
    session: Optional[Session] = None,
    confidence_threshold: float = 0.0,
) -> Decision:
    """Mediate ``request`` by visiting every permission of ``policy``.

    :param active_env: the *directly* active environment role names.
    :param session: restricts identity-derived roles to the session's
        active set (§4.1.2), as in :meth:`MediationEngine.decide`.
    :param confidence_threshold: the engine-wide §5.2 gate.
    """
    direct = direct_subject_confidences(policy, request, session)
    confidences = expand_subject_confidences(policy, direct)
    object_roles, direct_objects = object_role_names(policy, request.obj)
    env_roles, direct_envs = environment_role_names(
        policy, frozenset(active_env)
    )
    policy.transaction(request.transaction)
    directs = (set(direct), direct_objects, direct_envs)
    matches: List[Match] = []
    for permission in policy.permissions():
        if (
            permission.transaction.name == request.transaction
            and permission.subject_role.name in confidences
            and permission.object_role.name in object_roles
            and permission.environment_role.name in env_roles
        ):
            matches.append(
                Match(
                    permission=permission,
                    subject_role=permission.subject_role,
                    object_role=permission.object_role,
                    environment_role=permission.environment_role,
                    specificity=rule_specificity(policy, permission, directs),
                    confidence=confidences[permission.subject_role.name],
                )
            )
    matches = apply_confidence_gate(matches, confidence_threshold)
    resolution = resolve(matches, policy.precedence, policy.default_sign)
    return Decision(
        request=request,
        granted=resolution.sign is Sign.GRANT,
        resolution=resolution,
        matches=tuple(matches),
        subject_role_confidence=confidences,
        object_roles=frozenset(object_roles),
        environment_roles=frozenset(env_roles),
    )
