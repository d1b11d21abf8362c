"""SPEC CPU2006 / TPC / STREAM-like workload profiles.

One profile per workload the paper evaluates (Section 5: 22 workloads
from SPEC CPU2006, TPC and STREAM).  We cannot replay the authors'
Pin traces, so each profile parameterises the synthetic generators of
:mod:`repro.workloads.synthetic` to reproduce the workload's
*qualitative* memory behaviour as characterised in the paper and the
literature:

* **hmmer** is LLC-resident (paper footnote 1: "effectively uses the
  on-chip cache hierarchy ... no requests to main memory").
* **mcf / omnetpp** have large footprints with near-uniform row reuse,
  giving ChargeCache a low hit rate and a visible gap to LL-DRAM
  (paper Section 6.1 discusses exactly these two).
* **libquantum / STREAMcopy / lbm / leslie3d / bwaves** are streaming
  and memory-intensive (high RMPKC); multiple concurrent streams and
  write drains produce the bank conflicts behind their high RLTL.
* **tpch/tpcc/apache** reuse hot rows (zipfian row popularity).
* Intensity (mean bubbles per access) is tuned so the RMPKC *ordering*
  follows Figure 7a: tpch6/apache20 lightest, libquantum/soplex/
  tpch17/STREAMcopy heaviest.

The numbers here are calibration constants, not measurements; see
DESIGN.md's substitution table and EXPERIMENTS.md for validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from repro.cpu.trace import TraceRecord

MB = 1024 * 1024


@dataclass(frozen=True)
class WorkloadProfile:
    """Recipe for one named workload."""

    name: str
    pattern: str            # stream | random | chase | zipf | mix
    footprint_bytes: int
    mean_bubbles: float     # non-memory instructions per access
    write_fraction: float = 0.0
    num_streams: int = 2
    stride_lines: int = 1
    zipf_alpha: float = 1.3
    #: For "mix": (stream_weight, random_weight, zipf_weight).
    mix_weights: Tuple[float, float, float] = (1.0, 1.0, 0.0)

    def build(self, org, seed: int) -> Iterator[TraceRecord]:
        """Instantiate the infinite trace for a DRAM organization.

        The generators load here, on the first trace a process draws:
        declaring or keying a run never needs them."""
        from repro.workloads import synthetic
        if self.pattern == "stream":
            return synthetic.stream_trace(
                org, self.footprint_bytes, self.mean_bubbles, seed,
                num_streams=self.num_streams,
                write_fraction=self.write_fraction,
                stride_lines=self.stride_lines)
        if self.pattern == "random":
            return synthetic.random_trace(
                org, self.footprint_bytes, self.mean_bubbles, seed,
                write_fraction=self.write_fraction)
        if self.pattern == "chase":
            return synthetic.chase_trace(
                org, self.footprint_bytes, self.mean_bubbles, seed)
        if self.pattern == "zipf":
            return synthetic.zipf_trace(
                org, self.footprint_bytes, self.mean_bubbles, seed,
                alpha=self.zipf_alpha,
                write_fraction=self.write_fraction)
        if self.pattern == "mix":
            children = [
                synthetic.stream_trace(org, self.footprint_bytes,
                                       self.mean_bubbles, seed + 1,
                                       num_streams=self.num_streams,
                                       write_fraction=self.write_fraction,
                                       stride_lines=self.stride_lines),
                synthetic.random_trace(org, self.footprint_bytes,
                                       self.mean_bubbles, seed + 2,
                                       write_fraction=self.write_fraction),
                synthetic.zipf_trace(org, self.footprint_bytes,
                                     self.mean_bubbles, seed + 3,
                                     alpha=self.zipf_alpha,
                                     write_fraction=self.write_fraction),
            ]
            return synthetic.mixed_trace(children, self.mix_weights,
                                         seed + 4)
        raise ValueError(f"unknown pattern {self.pattern!r}")


#: The 22 workloads of the paper's evaluation, with qualitative
#: calibration (see module docstring).
PROFILES: Dict[str, WorkloadProfile] = {p.name: p for p in [
    # --- light (low RMPKC) ------------------------------------------
    WorkloadProfile("tpch6", "zipf", 16 * MB, 90.0, 0.05, zipf_alpha=1.5),
    WorkloadProfile("apache20", "zipf", 24 * MB, 80.0, 0.10, zipf_alpha=1.4),
    WorkloadProfile("hmmer", "zipf", 128 * 1024, 60.0, 0.10,
                    zipf_alpha=1.6),
    WorkloadProfile("tonto", "zipf", 12 * MB, 70.0, 0.05, zipf_alpha=1.5),
    WorkloadProfile("bzip2", "mix", 8 * MB, 60.0, 0.15,
                    mix_weights=(2.0, 1.0, 1.0)),
    WorkloadProfile("sjeng", "random", 12 * MB, 55.0, 0.05),
    WorkloadProfile("GemsFDTD", "stream", 32 * MB, 45.0, 0.20,
                    num_streams=3),
    WorkloadProfile("sphinx3", "mix", 12 * MB, 40.0, 0.05,
                    mix_weights=(2.0, 1.0, 1.0)),
    # --- medium ------------------------------------------------------
    WorkloadProfile("tpch2", "zipf", 24 * MB, 35.0, 0.05, zipf_alpha=1.35),
    WorkloadProfile("astar", "chase", 16 * MB, 35.0),
    WorkloadProfile("mcf", "random", 48 * MB, 18.0, 0.05),
    WorkloadProfile("milc", "stream", 32 * MB, 30.0, 0.15, num_streams=2,
                    stride_lines=2),
    WorkloadProfile("bwaves", "stream", 48 * MB, 25.0, 0.10,
                    num_streams=3, stride_lines=2),
    WorkloadProfile("cactusADM", "stream", 24 * MB, 28.0, 0.20,
                    num_streams=2, stride_lines=2),
    WorkloadProfile("omnetpp", "random", 32 * MB, 16.0, 0.10),
    WorkloadProfile("tpcc64", "zipf", 64 * MB, 22.0, 0.25, zipf_alpha=1.2),
    # --- heavy (high RMPKC) -----------------------------------------
    WorkloadProfile("lbm", "stream", 48 * MB, 14.0, 0.30, num_streams=3,
                    stride_lines=4),
    WorkloadProfile("leslie3d", "stream", 32 * MB, 14.0, 0.15,
                    num_streams=3, stride_lines=4),
    WorkloadProfile("libquantum", "stream", 32 * MB, 8.0, 0.05,
                    num_streams=2, stride_lines=16),
    WorkloadProfile("soplex", "mix", 32 * MB, 9.0, 0.10,
                    mix_weights=(2.0, 1.0, 1.0), stride_lines=4),
    WorkloadProfile("tpch17", "zipf", 32 * MB, 9.0, 0.10,
                    zipf_alpha=1.25),
    WorkloadProfile("STREAMcopy", "stream", 32 * MB, 6.0, 0.45,
                    num_streams=2, stride_lines=16),
]}

#: Names in the paper's Figure 4a order (used for report rows).
WORKLOAD_NAMES = tuple(PROFILES)


def get_profile(name: str) -> WorkloadProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(PROFILES)}") from None


def make_trace(name: str, org, seed: int = 1) -> Iterator[TraceRecord]:
    """Build the infinite trace for workload ``name``."""
    profile = get_profile(name)
    # Derive a stable per-workload seed so different workloads never
    # share RNG streams even with the same user seed.
    offset = sum(ord(c) for c in name) * 1009
    return profile.build(org, seed + offset)
