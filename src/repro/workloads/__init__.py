"""Workloads: synthetic trace generators, SPEC/TPC/STREAM-like
profiles and the paper's multiprogrammed 8-core mixes.
"""
