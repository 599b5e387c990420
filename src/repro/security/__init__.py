"""Generic security-policy framework: definition, detection, enforcement,
and trust management (the paper's self-protection contribution)."""

from .detection import DetectionEngine, Violation
from .enforcement import (
    BlobSeerEnforcementTarget,
    EnforcementTarget,
    PolicyEnforcement,
    Sanction,
)
from .framework import PolicyManagement, PolicyScanLoop, SecurityConfig
from .history import IntrospectionActivitySource, UserActivityHistory, UserEvent
from .policy import (
    Action,
    AndCondition,
    ConditionNode,
    MetricCondition,
    NotCondition,
    OrCondition,
    Policy,
    PolicyError,
    Severity,
    dos_flood_policy,
    parse_condition,
    read_flood_policy,
)
from .trust import TrustManager, TrustRecord

__all__ = [
    "PolicyManagement",
    "PolicyScanLoop",
    "SecurityConfig",
    "UserEvent",
    "UserActivityHistory",
    "IntrospectionActivitySource",
    "Policy",
    "PolicyError",
    "Severity",
    "Action",
    "ConditionNode",
    "MetricCondition",
    "AndCondition",
    "OrCondition",
    "NotCondition",
    "parse_condition",
    "dos_flood_policy",
    "read_flood_policy",
    "DetectionEngine",
    "Violation",
    "PolicyEnforcement",
    "EnforcementTarget",
    "BlobSeerEnforcementTarget",
    "Sanction",
    "TrustManager",
    "TrustRecord",
]
