"""Discrete-event simulation kernel and flow-level network substrate.

This package replaces the physical Grid'5000 testbed used in the paper:
:class:`Environment` provides the clock and process scheduler, and
:class:`FlowNetwork` provides max-min fair bandwidth sharing between
simulated nodes.
"""

from .engine import Environment
from .events import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Interrupt,
    ScheduledCall,
    SimulationError,
    StopSimulation,
    Timeout,
)
from .network import Flow, FlowNetwork, NetNode, TransferAborted
from .process import Process
from .resources import Container, Request, Resource
from .rng import RandomStreams

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "ScheduledCall",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "StopSimulation",
    "Process",
    "Resource",
    "Request",
    "Container",
    "RandomStreams",
    "NetNode",
    "Flow",
    "FlowNetwork",
    "TransferAborted",
]
