"""Discrete-event simulation kernel (SimPy-style, dependency-free)."""

from repro.sim.core import (
    Environment,
    Event,
    Process,
    Timeout,
)
from repro.sim.resources import Resource
from repro.sim.sync import EOF, Gate, Mailbox, Signal

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Resource",
    "EOF",
    "Gate",
    "Mailbox",
    "Signal",
]
