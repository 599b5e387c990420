"""Discrete-event simulation kernel and flow-level network substrate.

This package replaces the physical Grid'5000 testbed used in the paper:
:class:`Environment` provides the clock and process scheduler, and
:class:`FlowNetwork` provides max-min fair bandwidth sharing between
simulated nodes.
"""

from .. import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "engine": ["Environment"],
    "events": ["Event", "Timeout", "ScheduledCall", "Condition", "AllOf",
               "AnyOf", "SimulationError", "StopSimulation"],
    "process": ["Process"],
    "resources": ["Resource", "Request", "Container"],
    "rng": ["RandomStreams"],
    "network": ["NetNode", "Flow", "FlowNetwork", "TransferAborted"],
})
