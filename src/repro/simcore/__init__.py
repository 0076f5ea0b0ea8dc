"""Deterministic discrete-event simulation kernel.

A compact, SimPy-flavoured kernel written from scratch for this
reproduction. Generator functions become :class:`Process` objects that
``yield`` events; the :class:`Environment` advances simulated time
between event firings.

On top of the classic event/process machinery it adds a **fluid
scheduler** (:mod:`repro.simcore.fluid`): continuously divisible tasks
(network transfers, CPU work) that share capacity-constrained
resources under max-min fairness. Network links, NICs and CPU pools
are all fluid resources, which lets one allocator express both WAN
bandwidth sharing and the paper's CPU contention between reader
threads and render processes on single-CPU cluster nodes.
"""

from repro.simcore.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)
from repro.simcore.process import Process
from repro.simcore.env import Environment
from repro.simcore.sync import BoundedBuffer, SimBarrier, SimSemaphore
from repro.simcore.fairshare import FlowSpec, ResourceSpec, max_min_allocation
from repro.simcore.fluid import (
    AllocStats,
    FluidResource,
    FluidScheduler,
    FluidTask,
)
from repro.simcore.flowclass import FlowClass, FlowClassPool, FlowClassStats

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "SimulationError",
    "Timeout",
    "Process",
    "Environment",
    "BoundedBuffer",
    "SimBarrier",
    "SimSemaphore",
    "FlowSpec",
    "ResourceSpec",
    "max_min_allocation",
    "AllocStats",
    "FluidResource",
    "FluidScheduler",
    "FluidTask",
    "FlowClass",
    "FlowClassPool",
    "FlowClassStats",
]
