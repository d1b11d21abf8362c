"""Trace-driven CPU front-end: cores, shared LLC and the system runner.

This reproduces Ramulator's CPU-trace mode at the same abstraction
level the paper used: a 3-wide core with a 128-entry instruction window
and 8 MSHRs, a shared 4 MB LLC, and a DRAM clock domain bridged at the
4 GHz / 800 MHz ratio.
"""

from repro.cpu.trace import TraceRecord, trace_from_tuples
from repro.cpu.core import Core
from repro.cpu.cache import SharedCache
from repro.cpu.system import System, RunResult

__all__ = [
    "TraceRecord",
    "trace_from_tuples",
    "Core",
    "SharedCache",
    "System",
    "RunResult",
]
