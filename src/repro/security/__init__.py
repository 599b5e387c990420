"""Generic security-policy framework: definition, detection, enforcement,
and trust management (the paper's self-protection contribution)."""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "framework": ["PolicyManagement", "PolicyScanLoop", "SecurityConfig"],
    "history": ["UserEvent", "UserActivityHistory",
                "IntrospectionActivitySource"],
    "policy": ["Policy", "PolicyError", "Severity", "Action", "ConditionNode",
               "MetricCondition", "AndCondition", "OrCondition",
               "NotCondition", "parse_condition", "dos_flood_policy",
               "read_flood_policy"],
    "detection": ["DetectionEngine", "Violation"],
    "enforcement": ["PolicyEnforcement", "EnforcementTarget",
                    "BlobSeerEnforcementTarget", "Sanction"],
    "trust": ["TrustManager", "TrustRecord"],
})
