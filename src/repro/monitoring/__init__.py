"""Monitoring layer (MonALISA substitute): agents, services, filters,
and the introspection storage repository with burst cache."""

from .filters import (
    DataFilter,
    FilterChain,
    SamplingFilter,
    TypeFilter,
    WindowAggregateFilter,
)
from .pipeline import MonitoringConfig, MonitoringStack
from .repository import StorageRepository, StorageServer
from .service import MonitoringService

__all__ = [
    "MonitoringStack",
    "MonitoringConfig",
    "MonitoringService",
    "StorageRepository",
    "StorageServer",
    "DataFilter",
    "FilterChain",
    "TypeFilter",
    "SamplingFilter",
    "WindowAggregateFilter",
]
