"""Core GRBAC model — the paper's primary contribution.

This subpackage implements the Generalized Role-Based Access Control
model of §4: subjects, objects, transactions, the three role kinds,
role hierarchies, assignment, activation/sessions, permissions with
positive and negative signs, separation-of-duty constraints, role
precedence, and the access mediation engine.
"""

from repro.core.activation import Session, SessionManager
from repro.core.admin import AdminAction, PolicyAdministrator
from repro.core.delegation import Delegation, DelegationManager, DelegationState
from repro.core.assignment import AssignmentTable
from repro.core.audit import AuditLog, AuditRecord
from repro.core.constraints import (
    CardinalityConstraint,
    ConstraintSet,
    PrerequisiteConstraint,
    SeparationOfDuty,
)
from repro.core.compiled import CompiledPolicy, CompiledRule
from repro.core.hierarchy import InternedHierarchy, RoleHierarchy
from repro.core.mediation import (
    AccessRequest,
    Decision,
    EnvironmentSource,
    MediationEngine,
    RuleDiagnosis,
    StaticEnvironment,
)
from repro.core.objects import Object, Resource
from repro.core.pipeline import STAGE_ORDER, DecisionContext, DecisionPipeline
from repro.core.permissions import Permission, Sign
from repro.core.policy import GrbacPolicy
from repro.core.precedence import Match, PrecedenceStrategy, Resolution, resolve
from repro.core.roles import (
    ANY_ENVIRONMENT,
    ANY_OBJECT,
    Role,
    RoleKind,
    environment_role,
    object_role,
    subject_role,
)
from repro.core.subjects import Subject
from repro.core.transactions import Operation, Transaction

__all__ = [
    "ANY_ENVIRONMENT",
    "ANY_OBJECT",
    "AccessRequest",
    "AdminAction",
    "Delegation",
    "DelegationManager",
    "DelegationState",
    "PolicyAdministrator",
    "AssignmentTable",
    "AuditLog",
    "AuditRecord",
    "CardinalityConstraint",
    "CompiledPolicy",
    "CompiledRule",
    "ConstraintSet",
    "Decision",
    "DecisionContext",
    "DecisionPipeline",
    "STAGE_ORDER",
    "InternedHierarchy",
    "EnvironmentSource",
    "GrbacPolicy",
    "Match",
    "MediationEngine",
    "Object",
    "Operation",
    "Permission",
    "PrecedenceStrategy",
    "PrerequisiteConstraint",
    "Resolution",
    "Resource",
    "RuleDiagnosis",
    "Role",
    "RoleHierarchy",
    "RoleKind",
    "SeparationOfDuty",
    "Session",
    "SessionManager",
    "Sign",
    "StaticEnvironment",
    "Subject",
    "Transaction",
    "environment_role",
    "object_role",
    "resolve",
    "subject_role",
]
