"""The benchmark's own seeded generators and its §4.2.4 oracle.

Nothing here imports ``repro``: a later PR that edits
``repro.workload`` or ``repro.service.loadgen`` cannot change the load,
and the oracle survives any rewrite of the mediation engine.

A policy is one *home template* (people, devices, role edges, rules,
with ``{h}`` standing for the home number) instanced ``homes`` times
as DSL text.  A request is a :class:`Shape` — home-relative names —
so the oracle evaluates the paper's quantifier

    GRANT  iff  no matching deny, and some rule (rs, ro, re, t, +)
                with rs in closure(subject roles), ro in closure(object
                roles), re active, confidence(rs) >= the rule's minimum

over the template's own rule tuples (rules of another home name only
that home's roles, which this home's subject cannot hold).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

ANY = None  # a rule's "any-object" / "any-environment"


class Rule(NamedTuple):
    sign: str  # "allow" | "deny"
    subject_role: str
    transaction: str
    object_role: Optional[str]
    environment_role: Optional[str]
    min_confidence: float


class HomeTemplate(NamedTuple):
    name: str
    #: DSL lines shared by every home (base roles, shared env roles).
    shared: Tuple[str, ...]
    #: person -> directly assigned subject role.
    people: Dict[str, str]
    #: device -> directly assigned object role.
    devices: Dict[str, str]
    #: role -> its generalization (one parent each is all we need).
    subject_parent: Dict[str, str]
    object_parent: Dict[str, str]
    #: environment roles declared once per home.
    home_env_roles: Tuple[str, ...]
    rules: Tuple[Rule, ...]

    @property
    def transactions(self) -> Tuple[str, ...]:
        return tuple(sorted({rule.transaction for rule in self.rules}))


#: §5.1's entertainment policy (one §5.1 rule, the §3 negative right on
#: safety-critical devices, parents' standing rights), with §5.2's 90%
#: gate on the two rules a weakly identified resident should not pass.
ENTERTAINMENT = HomeTemplate(
    name="entertainment",
    shared=(
        "subject role family-member",
        "subject role parent extends family-member",
        "subject role child extends family-member",
        "environment role weekday-free-time",
        "environment role weekend",
        "environment role kitchen-occupied",
    ),
    people={"mom": "parent-{h}", "alice": "child-{h}"},
    devices={
        "tv": "television-{h}",
        "stereo": "entertainment-{h}",
        "console": "game-devices-{h}",
        "oven": "safety-critical-{h}",
    },
    subject_parent={
        "parent-{h}": "parent",
        "child-{h}": "child",
        "parent": "family-member",
        "child": "family-member",
    },
    object_parent={
        "television-{h}": "entertainment-{h}",
        "game-devices-{h}": "entertainment-{h}",
    },
    home_env_roles=(),
    rules=(
        Rule("allow", "child-{h}", "watch", "entertainment-{h}", "weekday-free-time", 0.9),
        Rule("allow", "child-{h}", "power_on", "game-devices-{h}", "weekend", 0.0),
        Rule("allow", "parent-{h}", "watch", "entertainment-{h}", ANY, 0.0),
        Rule("allow", "parent-{h}", "power_on", "entertainment-{h}", ANY, 0.0),
        Rule("allow", "parent-{h}", "power_on", "safety-critical-{h}", "kitchen-occupied", 0.9),
        Rule("deny", "child-{h}", "power_on", "safety-critical-{h}", ANY, 0.0),
        Rule("allow", "child-{h}", "query_status", "entertainment-{h}", ANY, 0.0),
        Rule("allow", "parent-{h}", "query_status", "safety-critical-{h}", ANY, 0.0),
    ),
)

#: The explicit environment sets requests carry on the static-policy
#: workloads (7 of the 8 subsets of the three shared roles).
ENV_SETS: Tuple[FrozenSet[str], ...] = tuple(
    frozenset(combo)
    for size in range(3)
    for combo in itertools.combinations(
        ("weekday-free-time", "weekend", "kitchen-occupied"), size
    )
)

#: §4.2.2's videophone: the child may call only while in the kitchen;
#: the location role is per home and bound over the wire at set-up.
VIDEOPHONE = HomeTemplate(
    name="videophone",
    shared=(
        "subject role family-member",
        "subject role parent extends family-member",
        "subject role child extends family-member",
    ),
    people={"mom": "parent-{h}", "kid": "child-{h}"},
    devices={"videophone": "comms-{h}"},
    subject_parent={
        "parent-{h}": "parent",
        "child-{h}": "child",
        "parent": "family-member",
        "child": "family-member",
    },
    object_parent={},
    home_env_roles=("in-kitchen-{h}",),
    rules=(
        Rule("allow", "child-{h}", "call", "comms-{h}", "in-kitchen-{h}", 0.0),
        Rule("allow", "parent-{h}", "call", "comms-{h}", ANY, 0.0),
        Rule("allow", "family-member", "query_status", "comms-{h}", ANY, 0.0),
        Rule("deny", "child-{h}", "configure", "comms-{h}", ANY, 0.0),
        Rule("allow", "family-member", "configure", "comms-{h}", ANY, 0.0),
    ),
)


class Shape(NamedTuple):
    """One request in home-relative names."""

    home: int
    person: str
    transaction: str
    device: str
    #: Index into ENV_SETS, or ``None`` to resolve against the server's
    #: live environment.
    env: Optional[int] = None
    #: §5.2: (claimed role template, confidence) and the confidence of
    #: the identity itself; ``None`` = fully identified, no claims.
    claim: Optional[Tuple[str, float]] = None
    identity_confidence: float = 1.0
    subscribe: bool = False


def subject_name(person: str, home: int) -> str:
    return f"{person}-{home}"


def object_name(device: str, home: int) -> str:
    return f"home{home}/{device}"


def role_name(template: str, home: int) -> str:
    return template.replace("{h}", str(home))


# ----------------------------------------------------------------------
# Policy text
# ----------------------------------------------------------------------
def policy_text(template: HomeTemplate, homes: int) -> str:
    """The template instanced ``homes`` times, as DSL text."""
    lines: List[str] = [f"# perf: {template.name} x{homes}"]
    lines.extend(template.shared)
    home_lines: List[str] = []
    declared = {line.split()[2] for line in template.shared}

    def declare(kind: str, role: str, parents: Dict[str, str]) -> None:
        if role in declared or "{h}" not in role:
            return
        declared.add(role)
        parent = parents.get(role)
        if parent is not None:
            declare(kind, parent, parents)
        suffix = f" extends {parent}" if parent is not None else ""
        home_lines.append(f"{kind} role {role}{suffix}")

    for role in template.people.values():
        declare("subject", role, template.subject_parent)
    for role in template.devices.values():
        declare("object", role, template.object_parent)
    for role in template.home_env_roles:
        home_lines.append(f"environment role {role}")
    for person, role in template.people.items():
        home_lines.append(f"subject {person}-{{h}} is {role}")
    for device, role in template.devices.items():
        home_lines.append(f"object home{{h}}/{device} is {role}")
    for rule in template.rules:
        line = f"{rule.sign} {rule.subject_role} to {rule.transaction}"
        if rule.object_role is not ANY:
            line += f" on {rule.object_role}"
        if rule.environment_role is not ANY:
            line += f" when {rule.environment_role}"
        if rule.min_confidence:
            line += f" if confidence >= {rule.min_confidence * 100:g}%"
        home_lines.append(line)
    block = "\n".join(home_lines)
    for home in range(homes):
        lines.append(block.replace("{h}", str(home)))
    lines.append("precedence deny-overrides")
    lines.append("default deny")
    return "\n".join(lines) + "\n"


def permission_count(template: HomeTemplate, homes: int) -> int:
    return len(template.rules) * homes


# ----------------------------------------------------------------------
# The oracle: the literal §4.2.4 quantifier
# ----------------------------------------------------------------------
def _closure(role: str, parent: Dict[str, str]) -> Tuple[str, ...]:
    chain = [role]
    while chain[-1] in parent:
        chain.append(parent[chain[-1]])
    return tuple(chain)


def oracle(
    template: HomeTemplate, shape: Shape, active_env: FrozenSet[str]
) -> bool:
    """GRANT or DENY for ``shape`` under ``active_env`` (role templates
    for per-home roles, plain names for shared ones).

    Subject roles held: the person's assigned role at the identity's
    confidence, a claimed role at the claim's, each propagated to its
    generalizations, the maximum winning (§5.2).  Deny-overrides: one
    matching deny refuses; a grant needs one matching allow whose
    minimum confidence the requester meets; otherwise default deny.
    """
    confidence: Dict[str, float] = {}
    held = [(template.people[shape.person], shape.identity_confidence)]
    if shape.claim is not None:
        held.append(shape.claim)
    for role, value in held:
        for name in _closure(role, template.subject_parent):
            if value > confidence.get(name, -1.0):
                confidence[name] = value
    object_roles = _closure(
        template.devices[shape.device], template.object_parent
    )
    granted = False
    for rule in template.rules:
        if rule.transaction != shape.transaction:
            continue
        if rule.subject_role not in confidence:
            continue
        if rule.object_role is not ANY and rule.object_role not in object_roles:
            continue
        if (
            rule.environment_role is not ANY
            and rule.environment_role not in active_env
        ):
            continue
        if rule.sign == "deny":
            return False
        if confidence[rule.subject_role] >= rule.min_confidence:
            granted = True
    return granted


def expected_static(
    template: HomeTemplate, shapes: Sequence[Shape]
) -> List[bool]:
    """Oracle answers for shapes that carry their own environment set."""
    memo: Dict[Tuple, bool] = {}
    answers: List[bool] = []
    for shape in shapes:
        key = shape[1:]  # the answer does not depend on the home number
        answer = memo.get(key)
        if answer is None:
            answer = oracle(template, shape, ENV_SETS[shape.env])
            memo[key] = answer
        answers.append(answer)
    return answers


# ----------------------------------------------------------------------
# Seeded streams and schedules
# ----------------------------------------------------------------------
def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"perf:{seed}:{purpose}")


#: Requests sharing one environment set before the stream moves to the
#: next: the environment is a property of the moment, not of a request.
ENV_PHASE = 16384


def hot_stream(seed: int, purpose: str, homes: int, count: int) -> List[Shape]:
    """Zipf(1) over homes (home 0 hottest), uniform person, device and
    transaction; the environment set advances every ENV_PHASE requests."""
    rng = _rng(seed, purpose)
    template = ENTERTAINMENT
    weights = list(
        itertools.accumulate(1.0 / (rank + 1) for rank in range(homes))
    )
    home_draws = rng.choices(range(homes), cum_weights=weights, k=count)
    people = rng.choices(sorted(template.people), k=count)
    devices = rng.choices(sorted(template.devices), k=count)
    transactions = rng.choices(template.transactions, k=count)
    first_env = rng.randrange(len(ENV_SETS))
    return [
        Shape(
            home_draws[i],
            people[i],
            transactions[i],
            devices[i],
            (first_env + i // ENV_PHASE) % len(ENV_SETS),
        )
        for i in range(count)
    ]


#: Share of cold requests identified §5.2-style: a weak identity plus a
#: sensor's role claim.  Their answers depend on confidences, so no
#: decision template keyed on names alone can serve them.
CLAIMS_SHARE = 0.25
_IDENTITY_CONFIDENCES = (0.75, 0.6)
_CLAIM_CONFIDENCES = (0.98, 0.85)


def cold_pool(seed: int, homes: int, count: int) -> List[Shape]:
    """Uniform over homes x people x devices x transactions x ENV_SETS."""
    rng = _rng(seed, "cold")
    template = ENTERTAINMENT
    people = sorted(template.people)
    devices = sorted(template.devices)
    transactions = template.transactions
    shapes: List[Shape] = []
    for _ in range(count):
        person = rng.choice(people)
        claim = None
        identity = 1.0
        if rng.random() < CLAIMS_SHARE:
            claim = (template.people[person], rng.choice(_CLAIM_CONFIDENCES))
            identity = rng.choice(_IDENTITY_CONFIDENCES)
        shapes.append(
            Shape(
                rng.randrange(homes),
                person,
                rng.choice(transactions),
                rng.choice(devices),
                rng.randrange(len(ENV_SETS)),
                claim,
                identity,
            )
        )
    return shapes


def churn_stream(
    seed: int, purpose: str, homes: int, count: int
) -> List[Shape]:
    """Live-environment requests against the videophone homes: mostly
    the child's ``call`` (the answer that flips), half subscribed."""
    rng = _rng(seed, purpose)
    mix = (
        [("kid", "call")] * 6
        + [("mom", "call")] * 2
        + [("kid", "query_status"), ("kid", "configure")]
    )
    return [
        Shape(
            rng.randrange(homes),
            *rng.choice(mix),
            "videophone",
            None,
            subscribe=rng.random() < 0.5,
        )
        for _ in range(count)
    ]


def poisson_arrivals(
    seed: int, purpose: str, rate: float, seconds: float
) -> List[float]:
    """Intended send times (seconds from phase start), Poisson at ``rate``."""
    rng = _rng(seed, purpose)
    times: List[float] = []
    now = rng.expovariate(rate)
    while now < seconds:
        times.append(now)
        now += rng.expovariate(rate)
    return times


def flip_schedule(
    seed: int, purpose: str, homes: int, rate: float, seconds: float
) -> List[Tuple[float, int]]:
    """``(time, home)`` location flips: evenly spaced at ``rate``,
    round-robin over a seeded order of the homes."""
    rng = _rng(seed, purpose + "-flips")
    order = list(range(homes))
    rng.shuffle(order)
    phase = rng.random() / rate
    count = int((seconds - phase) * rate)
    return [(phase + i / rate, order[i % homes]) for i in range(count)]


def initially_in_kitchen(seed: int, homes: int) -> List[bool]:
    rng = _rng(seed, "kitchen")
    return [rng.random() < 0.5 for _ in range(homes)]


def stream_digest(shapes: Sequence[Shape], arrivals: Sequence[float]) -> str:
    """Digest of a phase's requests and intended send times: equal
    digests mean two workloads were offered the same load."""
    digest = hashlib.sha256()
    for shape, when in zip(shapes, arrivals):
        digest.update(repr((tuple(shape), when)).encode())
    return digest.hexdigest()[:16]
