"""repro — reproduction of "Towards a Self-Adaptive Data Management
System for Cloud Environments" (Carpen-Amarie, IPDPS PhD Forum 2011).

Subpackages
-----------
- ``repro.simulation``    discrete-event kernel + flow-level network
- ``repro.cluster``       simulated physical testbed (Grid'5000 substitute)
- ``repro.blobseer``      the BlobSeer storage substrate (five actors)
- ``repro.cache``         version-aware cache tiers of the substrate
- ``repro.monitoring``    MonALISA-substitute monitoring layer
- ``repro.introspection`` aggregation + visualization of system state
- ``repro.security``      policy definition / detection / enforcement / trust
- ``repro.decision``      MAPE-K framework: signals, planners, arbiter, loop
- ``repro.adaptation``    self-configuration & self-optimization engines
- ``repro.cloud``         S3-compatible (Cumulus-style) gateway
- ``repro.workloads``     correct / malicious client behaviours, scenarios
- ``repro.telemetry``     sim-time tracing spans, metrics, kernel profiling
- ``repro.robustness``    retry policies + heartbeat failure detection

Importing a package is free: each package lists its public names in one
``{submodule: names}`` map handed to :func:`lazy_exports`, and a
submodule is compiled only when one of its names is first used.
"""

from __future__ import annotations

import importlib
import sys

__version__ = "1.0.0"


def lazy_exports(package: str, exports: dict):
    """PEP 562 ``(__getattr__, __dir__, __all__)`` for *package*.

    *exports* maps each submodule to the public names it supplies; a name
    equal to its submodule's stands for the submodule itself.  A name is
    resolved — its submodule imported — on first access and then bound in
    the package namespace, so ``__getattr__`` runs at most once per name.
    """
    namespace = sys.modules[package].__dict__
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{owner[name]}")
        value = module if name == owner[name] else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__, list(owner)


__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    package: [package] for package in (
        "simulation", "cluster", "blobseer", "cache", "monitoring",
        "introspection", "security", "decision", "adaptation", "cloud",
        "workloads", "telemetry", "robustness")})
__all__.append("__version__")
