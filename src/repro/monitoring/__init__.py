"""Monitoring layer (MonALISA substitute): agents, services, filters,
and the introspection storage repository with burst cache."""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "pipeline": ["MonitoringStack", "MonitoringConfig"],
    "service": ["MonitoringService"],
    "repository": ["StorageRepository", "StorageServer"],
    "filters": ["DataFilter", "FilterChain", "TypeFilter", "SamplingFilter",
                "WindowAggregateFilter"],
})
