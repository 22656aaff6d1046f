"""Policy authoring and analysis: builder, DSL, lint, MLS, templates."""

from repro.policy.admin import (
    PolicyAdministrator,
    PolicyFileWatcher,
    PrepareResult,
    ReloadAudit,
    ReloadRecord,
    ReloadResult,
    load_policy_text,
)
from repro.policy.analysis import Conflict, Finding, PolicyAnalyzer
from repro.policy.builder import PolicyBuilder
from repro.policy.diff import CategoryDiff, PolicyDiff, diff_policies
from repro.policy.dsl import compile_policy, parse
from repro.policy.dsl.printer import print_policy
from repro.policy.serialize import from_dict, from_json, to_dict, to_json
from repro.policy.mls import (
    DEFAULT_LEVELS,
    MlsEncoding,
    ReferenceBlp,
    agreement,
    build_pair,
)
from repro.policy.templates import (
    FIGURE2_ASSIGNMENTS,
    FIGURE2_EDGES,
    install_figure2_household,
    install_figure2_roles,
    install_standard_object_roles,
    section51_rule,
)

__all__ = [
    "DEFAULT_LEVELS",
    "FIGURE2_ASSIGNMENTS",
    "FIGURE2_EDGES",
    "CategoryDiff",
    "Conflict",
    "PolicyDiff",
    "diff_policies",
    "from_dict",
    "from_json",
    "print_policy",
    "to_dict",
    "to_json",
    "Finding",
    "MlsEncoding",
    "PolicyAdministrator",
    "PolicyAnalyzer",
    "PolicyBuilder",
    "PolicyFileWatcher",
    "PrepareResult",
    "ReferenceBlp",
    "ReloadAudit",
    "ReloadRecord",
    "ReloadResult",
    "agreement",
    "build_pair",
    "compile_policy",
    "load_policy_text",
    "install_figure2_household",
    "install_figure2_roles",
    "install_standard_object_roles",
    "parse",
    "section51_rule",
]
