"""SPICE-like transient runs and latency extraction (paper Figure 6,
Table 2).

These helpers drive :class:`~repro.circuit.sense_amp.SenseAmpModel` to
regenerate the paper's circuit-level artefacts:

* :func:`bitline_transient` - the bitline voltage waveform for a cell
  of a given age (Figure 6's two curves are ages 0 and 64 ms).
* :func:`find_latency_pair` - (ready, restore) times for a given age.
* :func:`derive_timing_table` - caching-duration -> (tRCD, tRAS) in ns
  with spec margins calibrated so the worst case (64 ms) reproduces the
  DDR3 baseline of 13.75 / 35 ns - the model-derived analogue of the
  paper's Table 2.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.circuit.sense_amp import (
    SenseAmpModel,
    TransientResult,
)
from repro.circuit.latency_tables import BASELINE_TIMINGS_NS

#: Worst-case cell age assumed by the DDR3 standard (refresh deadline).
WORST_CASE_AGE_MS = 64.0

_DEFAULT_MODEL = SenseAmpModel()
_latency_cache: Dict[Tuple[float, int], Tuple[float, float]] = {}


def bitline_transient(age_ms: float,
                      model: Optional[SenseAmpModel] = None,
                      t_end_ns: float = 60.0) -> TransientResult:
    """Full waveform for a cell last charged ``age_ms`` ago."""
    model = model or _DEFAULT_MODEL
    return model.simulate(age_ms, t_end_ns=t_end_ns, stop_early=False)


def find_latency_pair(age_ms: float,
                      model: Optional[SenseAmpModel] = None
                      ) -> Tuple[float, float]:
    """(ready_ns, restore_ns) for a cell of the given age.

    Results from the default model are memoised - the harness queries
    the same handful of ages repeatedly.
    """
    if model is None or model is _DEFAULT_MODEL:
        key = (age_ms, 0)
        cached = _latency_cache.get(key)
        if cached is not None:
            return cached
        model = _DEFAULT_MODEL
    else:
        key = None
    result = model.simulate(age_ms)
    if result.ready_time_ns is None or result.restore_time_ns is None:
        raise RuntimeError(
            f"transient did not converge for age {age_ms} ms; "
            "check model parameters")
    pair = (result.ready_time_ns, result.restore_time_ns)
    if key is not None:
        _latency_cache[key] = pair
    return pair


def spec_margins(model: Optional[SenseAmpModel] = None
                 ) -> Tuple[float, float]:
    """(tRCD, tRAS) margins added on top of model latencies.

    Calibrated so the worst-case (64 ms) cell exactly meets the DDR3
    baseline (13.75 ns / 35 ns).  DRAM vendors guard-band the same way:
    the datasheet numbers are worst-case cell behaviour plus margin.
    """
    ready, restore = find_latency_pair(WORST_CASE_AGE_MS, model)
    base_trcd, base_tras = BASELINE_TIMINGS_NS
    return base_trcd - ready, base_tras - restore


def derive_timing_table(durations_ms=(1.0, 4.0, 8.0, 16.0),
                        model: Optional[SenseAmpModel] = None
                        ) -> Dict[float, Tuple[float, float]]:
    """Model-derived Table 2: duration -> (tRCD ns, tRAS ns).

    A row cached for duration ``d`` is at worst ``d`` old when
    activated, so its timings are the model latencies at age ``d`` plus
    the spec margins.  Values are clamped to the baseline from above.
    """
    margin_rcd, margin_ras = spec_margins(model)
    base_trcd, base_tras = BASELINE_TIMINGS_NS
    table = {}
    for duration in durations_ms:
        # A cached row can never be older than the refresh deadline:
        # refresh would have replenished it.  Clamp so durations beyond
        # 64 ms degrade to the worst-case (baseline) timings.
        age = min(float(duration), WORST_CASE_AGE_MS)
        ready, restore = find_latency_pair(age, model)
        trcd = min(base_trcd, ready + margin_rcd)
        tras = min(base_tras, restore + margin_ras)
        table[float(duration)] = (trcd, tras)
    return table
