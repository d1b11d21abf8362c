"""Synthetic trace generators.

These replace the paper's Pin-collected SPEC CPU2006 / TPC / STREAM
traces (see DESIGN.md, substitution table).  Each generator is an
infinite iterator of :class:`~repro.cpu.trace.TraceRecord` and exposes
the three knobs the ChargeCache results are sensitive to:

* **memory intensity** - mean non-memory instructions ("bubbles")
  between accesses,
* **footprint** - how many distinct cache lines are touched (drives
  LLC hit rate and HCRAC reuse distance),
* **row-access structure** - streaming (row hits), multi-stream
  streaming (bank conflicts -> high RLTL), uniform random (low RLTL,
  high reuse distance), zipfian row reuse (high RLTL) and dependent
  pointer chasing (serialised misses).

Each generator draws from its own seeded
:class:`~repro.workloads.rng.Generator`, so a trace is a pure function
of its arguments: the stream ``numpy.random.default_rng(seed)`` yields
for the same draws, defined in :mod:`repro.workloads.rng` so no numpy
install can change it.  Draws come in batches of :data:`_BATCH`
records, each batch column an ``array('q')``, except the store flags,
which close every batch and so are drawn one record at a time as
records are yielded: the order of draws is unchanged and records
nobody reads cost no flag draws.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Sequence

from repro.config import LINE_BYTES
from repro.cpu.trace import TraceRecord
from repro.workloads.rng import Generator

#: Records generated per RNG batch.
_BATCH = 2048


def bounded_footprint_lines(org, footprint_bytes: int) -> int:
    """Clamp a byte footprint to the organization's capacity, in lines."""
    lines = max(1, footprint_bytes // LINE_BYTES)
    return min(lines, org.total_lines)


def _bubble_batch(rng: Generator, mean_bubbles: float,
                  size: int) -> array[int]:
    """Geometric bubble counts with the requested mean (>= 0)."""
    if mean_bubbles <= 0:
        return array("q", (0,)) * size
    p = 1.0 / (mean_bubbles + 1.0)
    bubbles = rng.geometric(p, size)
    for i in range(size):
        bubbles[i] -= 1
    return bubbles


def _is_write(rng: Generator, write_fraction: float) -> bool:
    """One record's store flag, drawn as the record is yielded.

    The flags are every batch's last draws, so drawing them one at a
    time keeps the order of draws of a whole-batch ``random(_BATCH)``.
    """
    return write_fraction > 0 and rng.random() < write_fraction


# ----------------------------------------------------------------------
# Streaming
# ----------------------------------------------------------------------

def stream_trace(org, footprint_bytes: int, mean_bubbles: float,
                 seed: int, num_streams: int = 2,
                 write_fraction: float = 0.0,
                 stride_lines: int = 1) -> Iterator[TraceRecord]:
    """Interleaved sequential streams.

    ``num_streams`` regions are walked round-robin.  Regions are offset
    by whole DRAM rows in the *same* banks, so concurrent streams
    conflict in the row buffer - the effect that gives streaming
    workloads their high RLTL in the paper (Section 3).  One stream
    yields pure row-hit behaviour.

    ``stride_lines`` > 1 models strided array sweeps (fewer column
    hits per row, hence more activations per access - the
    high-RMPKC streaming behaviour of libquantum/STREAM in Figure 7a).
    """
    if num_streams < 1:
        raise ValueError("num_streams must be >= 1")
    if stride_lines < 1:
        raise ValueError("stride_lines must be >= 1")
    return _stream_impl(org, footprint_bytes, mean_bubbles, seed,
                        num_streams, write_fraction, stride_lines)


def _stream_impl(org, footprint_bytes, mean_bubbles, seed, num_streams,
                 write_fraction, stride_lines):
    rng = Generator(seed)
    total = bounded_footprint_lines(org, footprint_bytes)
    region = max(1, total // num_streams)
    # Offset regions by a whole-row stride so streams share banks.
    row_stride = org.encode(0, 0, 0, 1, 0) or 1
    bases = [(i * ((region // row_stride + 1) * row_stride))
             % org.total_lines for i in range(num_streams)]
    positions = [0] * num_streams
    stream = 0
    while True:
        bubbles = _bubble_batch(rng, mean_bubbles, _BATCH)
        for i in range(_BATCH):
            line = (bases[stream] + positions[stream]) % org.total_lines
            positions[stream] = (positions[stream] + stride_lines) % region
            stream = (stream + 1) % num_streams
            yield TraceRecord(bubbles[i], line,
                              _is_write(rng, write_fraction))


# ----------------------------------------------------------------------
# Uniform random
# ----------------------------------------------------------------------

def random_trace(org, footprint_bytes: int, mean_bubbles: float,
                 seed: int, write_fraction: float = 0.0,
                 dependent: bool = False) -> Iterator[TraceRecord]:
    """Uniform random lines over the footprint.

    Low RLTL and high row-reuse distance: the pattern the paper calls
    out for mcf/omnetpp, where ChargeCache trails LL-DRAM because the
    HCRAC cannot retain rows long enough.
    """
    rng = Generator(seed)
    total = bounded_footprint_lines(org, footprint_bytes)
    while True:
        lines = rng.integers(0, total, _BATCH)
        bubbles = _bubble_batch(rng, mean_bubbles, _BATCH)
        for i in range(_BATCH):
            yield TraceRecord(bubbles[i], lines[i],
                              _is_write(rng, write_fraction), dependent)


def chase_trace(org, footprint_bytes: int, mean_bubbles: float,
                seed: int) -> Iterator[TraceRecord]:
    """Pointer chasing: every load depends on the previous one.

    Serialised misses (memory-level parallelism of one), modelling
    linked-data-structure traversals (astar, parts of mcf).
    """
    return random_trace(org, footprint_bytes, mean_bubbles, seed,
                        write_fraction=0.0, dependent=True)


# ----------------------------------------------------------------------
# Zipfian row reuse
# ----------------------------------------------------------------------

def zipf_trace(org, footprint_bytes: int, mean_bubbles: float,
               seed: int, alpha: float = 1.3,
               write_fraction: float = 0.0) -> Iterator[TraceRecord]:
    """Zipf-distributed *row* popularity with random columns.

    Hot rows are re-activated shortly after being closed (by competing
    accesses or write drains), producing the high RLTL of the
    database/web workloads (tpch*, tpcc64, apache20).
    """
    if alpha <= 1.0:
        raise ValueError("alpha must be > 1 for a proper zipf")
    return _zipf_impl(org, footprint_bytes, mean_bubbles, seed, alpha,
                      write_fraction)


def _zipf_impl(org, footprint_bytes, mean_bubbles, seed, alpha,
               write_fraction):
    rng = Generator(seed)
    total = bounded_footprint_lines(org, footprint_bytes)
    lines_per_row = org.columns * org.channels * org.ranks
    num_rows = max(2, total // max(1, lines_per_row))
    # Spread hot ranks over banks with a multiplicative hash.
    spread = 0x9E3779B1
    while True:
        ranks = rng.zipf(alpha, _BATCH)
        cols = rng.integers(0, org.columns, _BATCH)
        chans = rng.integers(0, org.channels, _BATCH)
        bubbles = _bubble_batch(rng, mean_bubbles, _BATCH)
        for i in range(_BATCH):
            row_id = (ranks[i] * spread) % num_rows
            bank = row_id % org.banks
            row = (row_id // org.banks) % org.rows
            line = org.encode(chans[i], row_id % org.ranks, bank, row,
                              cols[i])
            yield TraceRecord(bubbles[i], line,
                              _is_write(rng, write_fraction))


# ----------------------------------------------------------------------
# Mixtures
# ----------------------------------------------------------------------

def mixed_trace(children: Sequence[Iterator[TraceRecord]],
                weights: Sequence[float], seed: int) -> Iterator[TraceRecord]:
    """Probabilistic interleaving of sub-generators."""
    if len(children) != len(weights) or not children:
        raise ValueError("children and weights must match and be non-empty")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    probabilities = [w / total for w in weights]
    return _mixed_impl(list(children), probabilities, seed)


def _mixed_impl(children, probabilities, seed):
    rng = Generator(seed)
    while True:
        for pick in rng.choice(len(children), _BATCH, p=probabilities):
            yield next(children[pick])
