"""Test-support utilities shipped with the library.

The only resident so far is the crash-injection fault-point registry
(:mod:`repro.testing.faults`).  It lives in the package proper — not under
``tests/`` — because production modules embed named :func:`crash_point`
probes, and those probes must import from an installed location.
"""

from .faults import (
    KNOWN_FAULT_POINTS,
    SimulatedCrash,
    arm,
    armed,
    clear,
    crash_point,
    simulate_kill,
)

__all__ = [
    "KNOWN_FAULT_POINTS",
    "SimulatedCrash",
    "arm",
    "armed",
    "clear",
    "crash_point",
    "simulate_kill",
]
