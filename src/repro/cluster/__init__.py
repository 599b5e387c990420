"""Simulated cluster substrate: physical nodes, testbed topology, faults."""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "node": ["PhysicalNode", "NodeDownError"],
    "testbed": ["Testbed", "TestbedConfig"],
    "faults": ["FaultInjector", "FaultEvent"],
})
