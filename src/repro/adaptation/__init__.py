"""Self-* adaptation engines: elasticity (self-configuration),
replication, removal & cache tuning (self-optimization), built on the
MAPE-K loop of :mod:`repro.decision`."""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "controller": ["ControlLoop", "AdaptationDecision"],
    "cache_tuner": ["CacheTuner"],
    "elasticity": ["ElasticityController"],
    "replication_manager": ["ReplicationManager", "migrate_chunks"],
    "removal": ["RemovalManager", "RemovalStrategy", "TTLRemoval",
                "ColdDataRemoval", "LRURemoval", "OrphanRemoval"],
})
