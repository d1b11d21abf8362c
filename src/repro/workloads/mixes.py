"""The 20 multiprogrammed 8-core workloads (paper Section 5).

"For multi-core evaluations, we use 20 multi-programmed workloads by
assigning a randomly-chosen application to each core."  The draw is
seeded so w1..w20 are stable across runs and machines.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from repro.cpu.trace import TraceRecord
from repro.workloads.spec_like import WORKLOAD_NAMES, make_trace

#: Seed fixing the composition of the 20 mixes.
MIX_SEED = 2016  # the paper's publication year, for memorability

MIX_NAMES = tuple(f"w{i}" for i in range(1, 21))


def _compositions(num_cores: int = 8) -> Dict[str, List[str]]:
    from repro.workloads.rng import Generator
    rng = Generator(MIX_SEED)
    names = list(WORKLOAD_NAMES)
    mixes = {}
    for mix in MIX_NAMES:
        picks = rng.integers(0, len(names), num_cores)
        mixes[mix] = [names[i] for i in picks]
    return mixes


#: The drawn compositions; drawn by the first :func:`mix_composition`
#: call, so a process that only names mixes never loads the RNG.
_COMPOSITIONS: Optional[Dict[str, List[str]]] = None


def mix_composition(mix: str) -> List[str]:
    """The 8 workload names assigned to the cores of ``mix``."""
    global _COMPOSITIONS
    if _COMPOSITIONS is None:
        _COMPOSITIONS = _compositions()
    try:
        return list(_COMPOSITIONS[mix])
    except KeyError:
        raise KeyError(
            f"unknown mix {mix!r}; known: {MIX_NAMES}") from None


def make_mix_traces(apps: Sequence[str], org, seed: int = 1
                    ) -> List[Iterator[TraceRecord]]:
    """Build one trace per core, core ``k`` running ``apps[k]``.

    Every harness run of synthetic workloads builds its traces here:
    a single-core run passes its one application, a mix its
    :func:`mix_composition`.  Core
    ``k`` is seeded ``seed + 7919 * k``, so each core gets an
    independent RNG stream even when two cores run the same
    application.
    """
    return [make_trace(name, org, seed=seed + 7919 * core)
            for core, name in enumerate(apps)]
