"""Role-precedence / conflict resolution (§4.1.2 "Role Precedence").

When a subject possesses multiple roles with inconsistent access rules
(the paper's example: Bobby is both *family-member*, which may read the
medical records, and *child*, which may not), "the system must decide
which access rule takes precedence".  The paper enumerates the design
space — always deny, always allow, a predefined rule or algorithm, or
active-over-inactive via role activation — and we implement all of
them as pluggable strategies:

* :attr:`PrecedenceStrategy.DENY_OVERRIDES` — a matching deny beats any
  grant (the paper's "always give precedence to the role that denies").
* :attr:`PrecedenceStrategy.ALLOW_OVERRIDES` — a matching grant beats
  any deny.
* :attr:`PrecedenceStrategy.PRIORITY` — highest :attr:`Permission.priority`
  wins; ties fall back to deny-overrides among the tied rules.
* :attr:`PrecedenceStrategy.MOST_SPECIFIC` — the rule whose matched
  roles are closest (in hierarchy distance) to the directly-possessed
  roles wins; ties fall back to deny-overrides.
* :attr:`PrecedenceStrategy.ACTIVE_OVER_INACTIVE` is realized
  structurally rather than as a resolver: when a session is supplied,
  only *active* roles produce matches at all (§4.1.2 "active roles
  take precedence over inactive roles").

The default throughout the library is deny-overrides — the
fail-closed choice appropriate for a home full of sensitive data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.permissions import Permission, Sign
from repro.core.roles import Role
from repro.exceptions import PolicyError


class PrecedenceStrategy(enum.Enum):
    """Selectable conflict-resolution strategies."""

    DENY_OVERRIDES = "deny-overrides"
    ALLOW_OVERRIDES = "allow-overrides"
    PRIORITY = "priority"
    MOST_SPECIFIC = "most-specific"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Match:
    """A permission that matched an access request.

    ``specificity`` is the total hierarchy distance between the
    request's direct roles and the roles the rule was written against
    (0 = the rule names the direct roles themselves); smaller is more
    specific.  ``confidence`` is the authentication confidence of the
    matched subject-role claim.
    """

    permission: Permission
    subject_role: Role
    object_role: Role
    environment_role: Role
    specificity: int = 0
    confidence: float = 1.0

    @property
    def sign(self) -> Sign:
        return self.permission.sign


@dataclass(frozen=True)
class Resolution:
    """The outcome of conflict resolution over a match set."""

    sign: Sign
    winner: Optional[Match]
    rationale: str


def resolve(
    matches: Sequence[Match],
    strategy: PrecedenceStrategy,
    default_sign: Sign = Sign.DENY,
) -> Resolution:
    """Resolve ``matches`` into a single signed decision.

    :param matches: all permissions that matched the request, in
        policy insertion order.  The engine and the reference oracle
        both normalize to this same :class:`Match` shape, so
        resolution semantics are identical regardless of how the match
        set was computed.
    :param strategy: the conflict-resolution strategy to apply.
    :param default_sign: decision when *nothing* matched.  The library
        default is the closed-world :attr:`Sign.DENY`.
    """
    if not matches:
        return Resolution(
            default_sign, None, f"no matching rule; default is {default_sign.value}"
        )
    if strategy is PrecedenceStrategy.DENY_OVERRIDES:
        return _deny_overrides(matches)
    if strategy is PrecedenceStrategy.ALLOW_OVERRIDES:
        return _allow_overrides(matches)
    if strategy is PrecedenceStrategy.PRIORITY:
        return _priority(matches)
    if strategy is PrecedenceStrategy.MOST_SPECIFIC:
        return _most_specific(matches)
    raise PolicyError(f"unknown precedence strategy {strategy!r}")


def _first_with_sign(matches: Sequence[Match], sign: Sign) -> Optional[Match]:
    for match in matches:
        if match.sign is sign:
            return match
    return None


def _deny_overrides(matches: Sequence[Match]) -> Resolution:
    deny = _first_with_sign(matches, Sign.DENY)
    if deny is not None:
        return Resolution(
            Sign.DENY, deny, f"deny-overrides: {deny.permission.describe()}"
        )
    grant = matches[0]
    return Resolution(
        Sign.GRANT, grant, f"deny-overrides: no deny matched; {grant.permission.describe()}"
    )


def _allow_overrides(matches: Sequence[Match]) -> Resolution:
    grant = _first_with_sign(matches, Sign.GRANT)
    if grant is not None:
        return Resolution(
            Sign.GRANT, grant, f"allow-overrides: {grant.permission.describe()}"
        )
    deny = matches[0]
    return Resolution(
        Sign.DENY, deny, f"allow-overrides: no grant matched; {deny.permission.describe()}"
    )


def _priority(matches: Sequence[Match]) -> Resolution:
    # Single pass: track the top priority and its tied matches together
    # (resolve sits on the mediation hot path; the compiled engine
    # feeds it one Match list per decision).
    top: Optional[int] = None
    tied: List[Match] = []
    for match in matches:
        priority = match.permission.priority
        if top is None or priority > top:
            top = priority
            tied = [match]
        elif priority == top:
            tied.append(match)
    inner = _deny_overrides(tied)
    return Resolution(
        inner.sign,
        inner.winner,
        f"priority {top} rule(s) win; {inner.rationale}",
    )


def _most_specific(matches: Sequence[Match]) -> Resolution:
    # Single pass, mirroring _priority (smaller distance wins).
    best: Optional[int] = None
    tied: List[Match] = []
    for match in matches:
        specificity = match.specificity
        if best is None or specificity < best:
            best = specificity
            tied = [match]
        elif specificity == best:
            tied.append(match)
    inner = _deny_overrides(tied)
    return Resolution(
        inner.sign,
        inner.winner,
        f"most-specific (distance {best}) rule(s) win; {inner.rationale}",
    )
