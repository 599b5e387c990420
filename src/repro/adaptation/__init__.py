"""Self-* adaptation engines: elasticity (self-configuration),
replication, removal & cache tuning (self-optimization), built on the
MAPE-K loop of :mod:`repro.decision`."""

from .cache_tuner import CacheTuner
from .controller import AdaptationDecision, ControlLoop
from .elasticity import ElasticityController
from .removal import (
    ColdDataRemoval,
    LRURemoval,
    OrphanRemoval,
    RemovalManager,
    RemovalStrategy,
    TTLRemoval,
)
from .replication_manager import ReplicationManager, migrate_chunks

__all__ = [
    "ControlLoop",
    "AdaptationDecision",
    "CacheTuner",
    "ElasticityController",
    "ReplicationManager",
    "migrate_chunks",
    "RemovalManager",
    "RemovalStrategy",
    "TTLRemoval",
    "ColdDataRemoval",
    "LRURemoval",
    "OrphanRemoval",
]
