"""Differential test: the stdlib trace RNG against numpy.

:class:`repro.workloads.rng.Generator` must reproduce, draw for draw,
the ``numpy.random.default_rng(seed)`` stream for every method and
parameter the trace generators use.  The generators' numpy-based
bodies are kept verbatim below as the reference (their last version
before the port), and every workload profile and mix composition must
yield the same records from them as from :mod:`repro.workloads`.

numpy is the oracle only.  Without it the oracle tests skip, while the
pinned digest still fixes the stream: a numpy whose stream drifts from
the port fails the oracle tests and names its version, and the digest
tells whether the port moved.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from array import array
from types import SimpleNamespace
from typing import Dict, Iterator, List, Sequence

import pytest

from repro.cpu.trace import TraceRecord
from repro.dram.organization import Organization
import repro.workloads
from repro.workloads import mixes, spec_like, synthetic
from repro.workloads.mixes import MIX_NAMES, MIX_SEED, mix_composition
from repro.workloads.rng import _KE, Generator
from repro.workloads.spec_like import PROFILES, WORKLOAD_NAMES
from repro.workloads.synthetic import _BATCH, bounded_footprint_lines

try:
    import numpy as np
except ImportError:  # the oracle is optional; the digest is not
    np = None

needs_numpy = pytest.mark.skipif(np is None, reason="numpy is the oracle")

#: Seeds: zero, the trace seeds, the mix seed, and multi-word entropy
#: (two words, three words, and more words than SeedSequence's pool).
SEEDS = (0, 1, 2, MIX_SEED, (1 << 32) - 1, 1 << 32, (1 << 64) + 12345,
         (1 << 160) + 7)

#: Records compared per trace: two RNG batches.
RECORDS = 2 * _BATCH

#: The single-core (one channel) and eight-core (two channel) layouts.
ORGS = (Organization(), Organization(channels=2))

#: sha256 of every profile's first RECORDS records on both ORGS for
#: seeds 1 and 2, then every mix composition (see _profile_pass).
STREAM_DIGEST = \
    "a186e9dd1d35d5b8d44ff55d0684547f1637f90b1d4decce18b3ee6612cfd0f7"


def _numpy_version() -> str:
    return np.__version__ if np is not None else "absent"


def _same(ours, theirs, what: str) -> None:
    """Assert equality, naming numpy's version on a mismatch.

    An ``array`` result of the port becomes a list, so it compares
    value by value, exactly, with numpy's ``tolist()``.
    """
    if isinstance(ours, array):
        ours = list(ours)
    if hasattr(theirs, "tolist"):
        theirs = theirs.tolist()
    assert ours == theirs, (
        f"{what}: the port and numpy {_numpy_version()} disagree")


def _pair(seed: int):
    return Generator(seed), np.random.default_rng(seed)


# ----------------------------------------------------------------------
# The generators' numpy-based bodies, verbatim
# ----------------------------------------------------------------------

def _bubble_batch(rng: np.random.Generator, mean_bubbles: float,
                  size: int) -> np.ndarray:
    """Geometric bubble counts with the requested mean (>= 0)."""
    if mean_bubbles <= 0:
        return np.zeros(size, dtype=np.int64)
    p = 1.0 / (mean_bubbles + 1.0)
    return rng.geometric(p, size=size).astype(np.int64) - 1


def _write_batch(rng: np.random.Generator, write_fraction: float,
                 size: int) -> np.ndarray:
    if write_fraction <= 0:
        return np.zeros(size, dtype=bool)
    return rng.random(size) < write_fraction


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
    rng = np.random.default_rng(seed)
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
        writes = _write_batch(rng, write_fraction, _BATCH)
        for i in range(_BATCH):
            line = (bases[stream] + positions[stream]) % org.total_lines
            positions[stream] = (positions[stream] + stride_lines) % region
            stream = (stream + 1) % num_streams
            yield TraceRecord(int(bubbles[i]), line, bool(writes[i]))


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
    rng = np.random.default_rng(seed)
    total = bounded_footprint_lines(org, footprint_bytes)
    while True:
        lines = rng.integers(0, total, size=_BATCH)
        bubbles = _bubble_batch(rng, mean_bubbles, _BATCH)
        writes = _write_batch(rng, write_fraction, _BATCH)
        for i in range(_BATCH):
            yield TraceRecord(int(bubbles[i]), int(lines[i]),
                              bool(writes[i]), dependent)


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
    rng = np.random.default_rng(seed)
    total = bounded_footprint_lines(org, footprint_bytes)
    lines_per_row = org.columns * org.channels * org.ranks
    num_rows = max(2, total // max(1, lines_per_row))
    # Spread hot ranks over banks with a multiplicative hash.
    spread = 0x9E3779B1
    while True:
        ranks = rng.zipf(alpha, size=_BATCH)
        cols = rng.integers(0, org.columns, size=_BATCH)
        chans = rng.integers(0, org.channels, size=_BATCH)
        bubbles = _bubble_batch(rng, mean_bubbles, _BATCH)
        writes = _write_batch(rng, write_fraction, _BATCH)
        for i in range(_BATCH):
            row_id = (int(ranks[i]) * spread) % num_rows
            bank = row_id % org.banks
            row = (row_id // org.banks) % org.rows
            line = org.encode(int(chans[i]), row_id % org.ranks, bank, row,
                              int(cols[i]))
            yield TraceRecord(int(bubbles[i]), line, bool(writes[i]))


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
    rng = np.random.default_rng(seed)
    while True:
        picks = rng.choice(len(children), size=_BATCH, p=probabilities)
        for i in range(_BATCH):
            yield next(children[picks[i]])


def _compositions(num_cores: int = 8) -> Dict[str, List[str]]:
    rng = np.random.default_rng(MIX_SEED)
    names = list(WORKLOAD_NAMES)
    mixes = {}
    for mix in MIX_NAMES:
        picks = rng.integers(0, len(names), size=num_cores)
        mixes[mix] = [names[i] for i in picks]
    return mixes


def _reference_profile_trace(name: str, org, seed: int):
    """``make_trace`` built from the numpy-based bodies above (a
    profile imports ``synthetic`` from its package when it builds)."""
    reference = SimpleNamespace(
        stream_trace=stream_trace, random_trace=random_trace,
        chase_trace=chase_trace, zipf_trace=zipf_trace,
        mixed_trace=mixed_trace)
    repro.workloads.synthetic = reference
    try:
        return spec_like.make_trace(name, org, seed)
    finally:
        repro.workloads.synthetic = synthetic


def _records(trace, count: int = RECORDS):
    return list(itertools.islice(trace, count))


# ----------------------------------------------------------------------
# Seeding and the raw stream
# ----------------------------------------------------------------------

@needs_numpy
@pytest.mark.parametrize("seed", SEEDS)
def test_seeding_and_raw_words(seed):
    ours, theirs = _pair(seed)
    _same([ours._next64() for _ in range(64)],
          theirs.bit_generator.random_raw(64), f"raw words, seed {seed}")


def test_negative_seed_rejected():
    with pytest.raises(ValueError):
        Generator(-1)


@pytest.mark.parametrize("draw, typecode", [
    (lambda rng: rng.random(5), "d"),
    (lambda rng: rng.integers(0, 22, 5), "q"),
    (lambda rng: rng.integers(7, 8, 5), "q"),          # draws nothing
    (lambda rng: rng.geometric(0.5, 5), "q"),          # search
    (lambda rng: rng.geometric(0.05, 5), "q"),         # inversion
    (lambda rng: rng.zipf(1.3, 5), "q"),
    (lambda rng: rng.zipf(2000.0, 5), "q"),            # all ones
    (lambda rng: rng.choice(3, 5, p=[0.5, 0.25, 0.25]), "q"),
])
def test_sized_draws_are_typed_arrays(draw, typecode):
    values = draw(Generator(1))
    assert type(values) is array
    assert values.typecode == typecode
    assert len(values) == 5


# ----------------------------------------------------------------------
# Every method and parameter the generators use
# ----------------------------------------------------------------------

@needs_numpy
@pytest.mark.parametrize("seed", SEEDS)
def test_random(seed):
    ours, theirs = _pair(seed)
    _same(ours.random(1000), theirs.random(1000), "random(1000)")
    _same([ours.random() for _ in range(10)],
          [theirs.random() for _ in range(10)], "random()")


#: Ranges: 1 (draws nothing), 2 and 8 (channel counts), 22 (the
#: workload menu), 128 (columns), footprints in lines, and 2**32.
SPANS = (1, 2, 8, 22, 128, 3, 1000, 786432, (1 << 32) - 1, 1 << 32)


@needs_numpy
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("span", SPANS)
def test_integers(seed, span):
    ours, theirs = _pair(seed)
    for low in (0, 5):
        _same(ours.integers(low, low + span, 333),
              theirs.integers(low, low + span, size=333),
              f"integers({low}, {low + span}, 333)")
        _same(ours.integers(low, low + span, 1),
              [int(theirs.integers(low, low + span))],
              f"integers({low}, {low + span})")
    # The buffered 32-bit half, if any, carries into the next draws.
    _same(ours.random(3), theirs.random(3), "random after integers")
    _same(ours.integers(0, 22, 3), theirs.integers(0, 22, size=3),
          "integers after random")


def test_integers_rejects_unported_ranges():
    ours = Generator(1)
    for low, high in ((0, 0), (5, 4), (0, (1 << 32) + 1)):
        with pytest.raises(ValueError):
            ours.integers(low, high, 1)


def _geometric_ps():
    means = {profile.mean_bubbles for profile in PROFILES.values()}
    return sorted({1.0 / (mean + 1.0) for mean in means}
                  | {1.0 / 3.0, 0.3333, 0.5, 1.0, 0.9, 1e-6})


@needs_numpy
@pytest.mark.parametrize("seed", SEEDS[:4])
@pytest.mark.parametrize("p", _geometric_ps())
def test_geometric(seed, p):
    ours, theirs = _pair(seed)
    _same(ours.geometric(p, 2000), theirs.geometric(p, size=2000),
          f"geometric({p}, 2000)")
    _same(ours.geometric(p, 1), [int(theirs.geometric(p))],
          f"geometric({p})")


def test_geometric_search_threshold_is_a_third():
    # p = 1/3 exactly takes the search (one random draw per value).
    search, direct = Generator(3), Generator(3)
    search.geometric(1.0 / 3.0, 10)
    direct.random(10)
    assert search._state == direct._state
    with pytest.raises(ValueError):
        search.geometric(0.0, 1)


def _zipf_alphas():
    return sorted({profile.zipf_alpha for profile in PROFILES.values()}
                  | {1.3, 1.05, 3.0, 2000.0})


@needs_numpy
@pytest.mark.parametrize("seed", SEEDS[:4])
@pytest.mark.parametrize("alpha", _zipf_alphas())
def test_zipf(seed, alpha):
    ours, theirs = _pair(seed)
    _same(ours.zipf(alpha, 2000), theirs.zipf(alpha, size=2000),
          f"zipf({alpha}, 2000)")
    _same(ours.zipf(alpha, 1), [int(theirs.zipf(alpha))], f"zipf({alpha})")
    _same(ours.random(), theirs.random(), "random after zipf")


def _choice_ps():
    ps = []
    for weights in sorted({profile.mix_weights
                           for profile in PROFILES.values()}
                          | {(1.0, 1.0, 0.0), (0.0, 0.0, 1.0)}):
        total = float(sum(weights))
        ps.append([w / total for w in weights])
    return ps


@needs_numpy
@pytest.mark.parametrize("seed", SEEDS[:4])
@pytest.mark.parametrize("p", _choice_ps())
def test_choice(seed, p):
    ours, theirs = _pair(seed)
    _same(ours.choice(len(p), 2000, p=p),
          theirs.choice(len(p), size=2000, p=p), f"choice(p={p})")
    _same(ours.choice(len(p), 1, p=p), [int(theirs.choice(len(p), p=p))],
          f"choice(p={p}) scalar")


def _ziggurat_paths(words):
    """(layer, path) of each exponential draw made from raw ``words``.

    Replays the ziggurat's control flow: a draw whose layer test fails
    consumes the next word as its uniform (the tail for layer 0, the
    wedge test otherwise), and a rejected wedge starts a fresh draw.
    """
    paths = []
    stream = iter(words)
    for word in stream:
        layer = (word >> 3) & 0xFF
        if word >> 11 < _KE[layer]:
            paths.append((layer, "fast"))
        else:
            next(stream)
            paths.append((layer, "tail" if layer == 0 else "wedge"))
    return paths


class _RecordingGenerator(Generator):
    """A Generator that keeps every raw 64-bit word it draws."""

    __slots__ = ("words",)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.words = []

    def _next64(self) -> int:
        word = super()._next64()
        self.words.append(word)
        return word


@needs_numpy
@pytest.mark.parametrize("seed", (1, 2))
def test_standard_exponential_covers_every_path(seed):
    ours = _RecordingGenerator(seed)
    theirs = np.random.default_rng(seed)
    _same([ours._exponential() for _ in range(60000)],
          theirs.standard_exponential(60000), "standard_exponential")
    paths = _ziggurat_paths(ours.words)
    # Every layer but layer 1 (whose _KE entry is 0: always the wedge).
    fast = {layer for layer, path in paths if path == "fast"}
    assert fast == {layer for layer in range(256) if _KE[layer]}
    assert len(fast) == 255
    assert any(path == "tail" for _, path in paths)
    assert any(path == "wedge" for _, path in paths)
    # A rejected wedge restarts the draw, so paths outnumber values.
    assert len(paths) > 60000
    _same(ours._exponential(), theirs.standard_exponential(),
          "standard_exponential()")


@needs_numpy
@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_methods_share_one_stream(seed):
    ours, theirs = _pair(seed)
    for round_ in range(200):
        span = (1, 2, 22, 128)[round_ % 4]
        _same(ours.integers(0, span, 1), [int(theirs.integers(0, span))],
              f"round {round_}: integers")
        _same(ours.random(), theirs.random(), f"round {round_}: random")
        _same(ours.integers(0, 22, 3), theirs.integers(0, 22, size=3),
              f"round {round_}: integers x3")
        _same(ours.geometric(0.05, 1), [int(theirs.geometric(0.05))],
              f"round {round_}: geometric inversion")
        _same(ours.geometric(0.5, 1), [int(theirs.geometric(0.5))],
              f"round {round_}: geometric search")
        _same(ours.zipf(1.3, 1), [int(theirs.zipf(1.3))],
              f"round {round_}: zipf")
        _same(ours.choice(3, 1, p=[0.5, 0.25, 0.25]),
              [int(theirs.choice(3, p=[0.5, 0.25, 0.25]))],
              f"round {round_}: choice")
        _same(ours._exponential(), theirs.standard_exponential(),
              f"round {round_}: exp")


# ----------------------------------------------------------------------
# Whole traces: every profile and every mix composition
# ----------------------------------------------------------------------

@needs_numpy
def test_mix_compositions_match():
    reference = _compositions()
    assert [mix_composition(mix) for mix in MIX_NAMES] \
        == [reference[mix] for mix in MIX_NAMES], \
        f"mix compositions differ under numpy {_numpy_version()}"


@functools.lru_cache(maxsize=None)
def _profile_pass():
    """(digest, mismatches) over every profile's first RECORDS records
    on both ORGS for seeds 1 and 2.

    One pass serves both the pinned digest and, when numpy is there,
    the comparison with the numpy-based reference.
    """
    digest = hashlib.sha256()
    mismatches = []
    for org in ORGS:
        for seed in (1, 2):
            for name in WORKLOAD_NAMES:
                ours = _records(spec_like.make_trace(name, org, seed))
                for record in ours:
                    digest.update(repr(tuple(record)).encode("ascii"))
                if np is not None and ours != _records(
                        _reference_profile_trace(name, org, seed)):
                    mismatches.append((name, org.channels, seed))
    for mix in MIX_NAMES:
        digest.update(repr(mix_composition(mix)).encode("ascii"))
    return digest.hexdigest(), mismatches


@needs_numpy
def test_profile_traces_match():
    digest, mismatches = _profile_pass()
    assert not mismatches, (
        f"(workload, channels, seed) traces differ from the numpy "
        f"{_numpy_version()} reference: {mismatches}; the port's digest "
        f"{'still matches' if digest == STREAM_DIGEST else 'changed'}")


def test_stream_digest_is_pinned():
    """The port's stream, pinned without numpy: a change here changes
    every trace, and so every figure."""
    assert _profile_pass()[0] == STREAM_DIGEST


@needs_numpy
@pytest.mark.parametrize("seed", (1, 2))
def test_mix_traces_match(seed):
    """Every core of every mix, seeded ``seed + 7919 * core``, matches.

    Mixes share (application, core) pairs, so each distinct pair is
    compared once.
    """
    org = ORGS[1]
    pairs = {}
    for mix in MIX_NAMES:
        apps = mix_composition(mix)
        for core, trace in enumerate(mixes.make_mix_traces(apps, org,
                                                           seed)):
            pairs.setdefault((apps[core], core), (trace, []))[1].append(mix)
    for (app, core), (trace, owners) in sorted(pairs.items()):
        reference = _reference_profile_trace(app, org, seed + 7919 * core)
        assert _records(trace) == _records(reference), \
            f"core {core} of {owners} ({app}, seed {seed}) differs " \
            f"from the numpy {_numpy_version()} reference"


def test_records_are_plain_python():
    record = next(spec_like.make_trace("tpch17", ORGS[1], 1))
    assert isinstance(record, TraceRecord)
    assert [type(value) for value in record] == [int, int, bool, bool]
