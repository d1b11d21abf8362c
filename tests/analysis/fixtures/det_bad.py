"""Determinism-rule fixture: every entry here is parsed, never run.

Each marked line triggers (or suppresses) one exact finding asserted
by tests/analysis/test_determinism.py.
"""

import os
import random
import time
from datetime import datetime

import numpy as np


def wall_clock() -> float:
    return time.time()  # entropy source


def stamp() -> str:
    return datetime.now().isoformat()  # entropy source


def token() -> bytes:
    return os.urandom(16)  # entropy source


def roll() -> float:
    return random.random()  # global RNG


def unseeded() -> "random.Random":
    return random.Random()  # unseeded constructor


def seeded(seed: int) -> "random.Random":
    return random.Random(seed)  # fine: explicit seed


def np_global() -> float:
    return np.random.rand()  # numpy global RNG


def np_seeded(seed: int):
    return np.random.default_rng(seed)  # fine: explicit seed


def iterate_set() -> list:
    out = []
    for item in {"b", "a", "c"}:  # set iteration
        out.append(item)
    return out


def comprehend_set() -> list:
    return [x for x in set("abc")]  # set iteration


def listify_set() -> list:
    return list({"b", "a"})  # list() of a set


def sorted_set() -> list:
    return sorted({"b", "a"})  # fine: sorted() defines the order


def excused() -> float:
    return time.time()  # repro: allow(determinism) -- fixture: justified pragma suppresses

def unjustified() -> float:
    return time.time()  # repro: allow(determinism)

def unknown_rule() -> float:
    return time.time()  # repro: allow(no-such-rule) -- reason given

def malformed() -> float:
    return time.time()  # repro: allowed(determinism) -- typo body


def unused_pragma() -> int:
    return 1  # repro: allow(determinism) -- nothing to suppress here


def unseeded_trace_rng():
    from repro.workloads.rng import Generator
    return Generator()  # unseeded trace RNG


def seeded_trace_rng(seed: int):
    from repro.workloads import rng
    return rng.Generator(seed)  # fine: explicit seed
