"""Trace-driven CPU front-end: cores, shared LLC and the system runner.

This reproduces Ramulator's CPU-trace mode at the same abstraction
level the paper used: a 3-wide core with a 128-entry instruction window
and 8 MSHRs, a shared 4 MB LLC, and a DRAM clock domain bridged at the
4 GHz / 800 MHz ratio.
"""
