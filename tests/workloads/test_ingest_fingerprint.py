"""Normalization and fingerprint math: golden values, round-trips,
property-based codec tests, and the reference-table contract."""

import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LINE_BYTES
from repro.cpu.trace import TraceRecord
from repro.dram.organization import Organization
from repro.workloads.ingest import (
    MemTraceRecord,
    TraceFormatError,
    denormalize_records,
    fingerprint_file,
    fingerprint_records,
    fingerprint_workload,
    ingest_trace_file,
    normalize_records,
    read_mem_trace,
    trace_file_sha256,
    write_mem_trace,
)
from repro.workloads.ingest.reference import (
    PAPER_AVG_RLTL_1MS,
    REFERENCE_FINGERPRINTS,
    REFERENCE_INTERVAL_MS,
    fingerprint_delta,
)
from repro.workloads.spec_like import WORKLOAD_NAMES

from tests.helpers import tiny_trace, write_trace

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir,
                        "fixtures", "traces")

#: One bank, so the golden-value bank model is trivial to hand-walk:
#: line = row * 4 + column.
ONE_BANK = Organization(channels=1, ranks=1, banks=1, rows=8, columns=4)


class TestNormalization:
    def test_gap_to_bubbles(self):
        records = [MemTraceRecord(4, 0x40, False),
                   MemTraceRecord(5, 0x80, True),
                   MemTraceRecord(25, 0x00, False)]
        internal = normalize_records(records, ONE_BANK)
        # Gaps 4, 1, 20 -> bubbles max(0, gap-1) = 3, 0, 19.
        assert internal == [TraceRecord(3, 1, False),
                            TraceRecord(0, 2, True),
                            TraceRecord(19, 0, False)]

    def test_addresses_wrap_to_modelled_capacity(self):
        capacity_bytes = ONE_BANK.total_lines * LINE_BYTES
        records = [MemTraceRecord(1, capacity_bytes + 0x40, False)]
        internal = normalize_records(records, ONE_BANK)
        assert internal[0].line_address == 1

    def test_cpi_scales_time(self):
        records = [MemTraceRecord(8, 0x0, False)]
        assert normalize_records(records, ONE_BANK)[0].bubbles == 7
        assert normalize_records(
            records, ONE_BANK,
            cycles_per_instruction=4.0)[0].bubbles == 1

    def test_bad_cpi(self):
        with pytest.raises(ValueError, match="cycles_per_instruction"):
            normalize_records([], ONE_BANK, cycles_per_instruction=0)

    def test_denormalize_inverts_at_cpi_1(self):
        records = tiny_trace(20, gap=3, stride=64)
        internal = normalize_records(records, Organization())
        assert denormalize_records(internal, Organization()) == records


class TestIngestFile:
    def test_ingest_matches_manual_pipeline(self, tmp_path):
        path = write_trace(tmp_path / "t.trace", n=24)
        org = Organization()
        assert ingest_trace_file(path, org) == \
            normalize_records(read_mem_trace(path), org)

    def test_hash_verification(self, tmp_path):
        path = write_trace(tmp_path / "t.trace", n=8)
        good = trace_file_sha256(path)
        assert ingest_trace_file(path, Organization(),
                                 expected_sha256=good)
        with open(path, "a") as fh:
            fh.write("999 0x40 R\n")
        with pytest.raises(TraceFormatError,
                           match="content hash mismatch"):
            ingest_trace_file(path, Organization(), expected_sha256=good)


class TestFingerprintGoldenValues:
    """Hand-walked bank model on the one-bank organization."""

    def test_basic_counters(self):
        # line 0 (row0)  -> cold ACT;  line 1 (row0) -> row hit;
        # line 4 (row1)  -> precharge row0 @now=3, cold ACT;
        # line 0 (row0)  -> precharge row1 @now=4, ACT with
        #                   prev-precharge gap 4-3 = 1 cycle.
        records = [TraceRecord(0, 0, False), TraceRecord(0, 1, False),
                   TraceRecord(0, 4, True), TraceRecord(0, 0, False)]
        fp = fingerprint_records(records, ONE_BANK, name="golden")
        assert fp.records == 4
        assert fp.instructions == 4        # IPC=1: bubbles+1 each
        assert fp.activations == 3
        assert fp.cold_activations == 2
        assert fp.row_hits == 1
        assert fp.writes == 1
        assert fp.footprint_lines == 3
        assert fp.row_hit_rate == pytest.approx(0.25)
        assert fp.rmpkc == pytest.approx(3 * 1000 / 4)
        assert fp.write_fraction == pytest.approx(0.25)
        # Gap 1 cycle is inside every tracked interval; cold ACTs stay
        # in the denominator.
        for ms in fp.intervals_ms:
            assert fp.rltl(ms) == pytest.approx(1 / 3), ms

    def test_interval_edges_exclude_long_gaps(self):
        # time_scale 125000 at 4 GHz puts the 0.125 ms edge at exactly
        # round(0.125/125000 * 1e6 * 4) = 4 CPU cycles.
        records = [TraceRecord(0, 0, False),   # now=1 cold ACT row0
                   TraceRecord(0, 4, False),   # now=2 pre row0, cold ACT
                   TraceRecord(0, 0, False),   # now=3 pre row1, gap 1 ok
                   TraceRecord(5, 4, False)]   # now=9 pre row0, gap 6 > 4
        fp = fingerprint_records(records, ONE_BANK,
                                 intervals_ms=(0.125,),
                                 time_scale=125000.0, cpu_freq_ghz=4.0)
        assert fp.activations == 4
        assert fp.cold_activations == 2
        assert fp.rltl_counts == (1,)
        assert fp.rltl(0.125) == pytest.approx(0.25)

    def test_untracked_interval_is_an_error(self):
        fp = fingerprint_records([TraceRecord(0, 0, False)], ONE_BANK)
        with pytest.raises(KeyError, match="not tracked"):
            fp.rltl(7.0)

    def test_empty_stream(self):
        fp = fingerprint_records([], ONE_BANK)
        assert fp.records == 0
        assert fp.row_hit_rate == 0.0
        assert fp.rmpkc == 0.0
        assert fp.rltl(REFERENCE_INTERVAL_MS) == 0.0


class TestFingerprintDeterminism:
    def test_workload_fingerprint_is_reproducible(self):
        a = fingerprint_workload("libquantum", num_records=2000)
        b = fingerprint_workload("libquantum", num_records=2000)
        assert a == b

    def test_limit_truncates(self):
        a = fingerprint_workload("mcf", num_records=500)
        assert a.records == 500

    def test_file_fingerprint_named_after_stem(self):
        fp = fingerprint_file(os.path.join(FIXTURES, "pingpong.trace"))
        assert fp.name == "pingpong"
        assert fp.rltl(1.0) > 0.9          # ChargeCache's best case
        assert fp.row_hit_rate < 0.05


class TestReferenceTable:
    def test_covers_every_workload(self):
        assert set(REFERENCE_FINGERPRINTS) == set(WORKLOAD_NAMES)

    def test_every_workload_calibrates_against_its_reference(self):
        # The regression anchor itself: measured fingerprints at the
        # provenance point must sit inside the tolerances.
        for name in WORKLOAD_NAMES:
            fp = fingerprint_workload(name)
            delta = fingerprint_delta(fp, REFERENCE_FINGERPRINTS[name])
            assert delta["status"] == "ok", (name, delta)

    def test_average_rltl_tracks_paper_figure_4a(self):
        avg = sum(ref["rltl_1ms"]
                  for ref in REFERENCE_FINGERPRINTS.values()) \
            / len(REFERENCE_FINGERPRINTS)
        assert abs(avg - PAPER_AVG_RLTL_1MS) < 0.15

    def test_mcf_and_omnetpp_have_weakest_locality(self):
        # Paper Section 6.1: mcf/omnetpp benefit least from
        # ChargeCache because their RLTL is lowest.  mcf is the
        # weakest outright; omnetpp lands in the bottom three (sjeng's
        # generator sits marginally below it).
        ordered = sorted(REFERENCE_FINGERPRINTS,
                         key=lambda n:
                         REFERENCE_FINGERPRINTS[n]["rltl_1ms"])
        assert ordered[0] == "mcf"
        assert "omnetpp" in ordered[:3]

    def test_delta_flags_drift(self):
        fp = fingerprint_workload("hmmer")
        ref = dict(REFERENCE_FINGERPRINTS["hmmer"])
        ref["rltl_1ms"] = max(0.0, ref["rltl_1ms"] - 0.5)
        assert fingerprint_delta(fp, ref)["status"] == "drift"


# ----------------------------------------------------------------------
# Property-based codec round-trips
# ----------------------------------------------------------------------

_orgs = st.sampled_from([
    Organization(),                                     # paper default
    Organization(banks=4, rows=256, columns=16),
    Organization(channels=2, ranks=2, banks=8, rows=128, columns=32),
    Organization(channels=2, ranks=1, banks=4, rows=64, columns=16),
])


@st.composite
def _mem_traces(draw):
    """Non-empty record lists with non-decreasing cycles."""
    gaps = draw(st.lists(st.integers(min_value=0, max_value=500),
                         min_size=1, max_size=60))
    cycle = 0
    records = []
    for gap in gaps:
        cycle += gap
        records.append(MemTraceRecord(
            cycle,
            draw(st.integers(min_value=0, max_value=(1 << 36) - 1)),
            draw(st.booleans())))
    return records


class TestCodecProperties:
    @settings(max_examples=60, deadline=None)
    @given(records=_mem_traces())
    def test_write_read_is_identity(self, tmp_path_factory, records):
        path = str(tmp_path_factory.mktemp("rt") / "t.trace")
        write_mem_trace(path, records)
        assert read_mem_trace(path) == records
        # Re-writing what was read reproduces the file byte for byte.
        path2 = str(tmp_path_factory.mktemp("rt") / "u.trace")
        write_mem_trace(path2, read_mem_trace(path))
        with open(path, "rb") as a, open(path2, "rb") as b:
            assert a.read() == b.read()

    @settings(max_examples=40, deadline=None)
    @given(records=_mem_traces(), org=_orgs)
    def test_reingest_preserves_fingerprint(self, tmp_path_factory,
                                            records, org):
        """write -> ingest -> denormalize -> write -> ingest must give
        the identical internal stream and fingerprint on any geometry."""
        tmp = tmp_path_factory.mktemp("fp")
        path = str(tmp / "t.trace")
        write_mem_trace(path, records)
        internal = ingest_trace_file(path, org)
        path2 = str(tmp / "u.trace")
        write_mem_trace(path2, denormalize_records(internal, org))
        internal2 = ingest_trace_file(path2, org)
        assert internal2 == internal
        fp1 = fingerprint_records(internal, org)
        fp2 = fingerprint_records(internal2, org)
        assert fp1 == fp2

    @settings(max_examples=40, deadline=None)
    @given(records=_mem_traces(), org=_orgs)
    def test_normalized_stream_is_in_range(self, records, org):
        for rec in normalize_records(records, org):
            assert 0 <= rec.line_address < org.total_lines
            assert rec.bubbles >= 0
            assert not rec.dependent

    @settings(max_examples=30, deadline=None)
    @given(records=_mem_traces())
    def test_fingerprint_counters_are_consistent(self, records):
        org = Organization(banks=4, rows=256, columns=16)
        fp = fingerprint_records(normalize_records(records, org), org)
        assert fp.records == len(records)
        assert fp.activations + fp.row_hits == fp.records
        assert fp.cold_activations <= fp.activations
        assert all(c <= fp.activations - fp.cold_activations
                   for c in fp.rltl_counts)
        # Larger intervals can only admit more activations.
        assert list(fp.rltl_counts) == sorted(fp.rltl_counts)
        assert fp.instructions == sum(r.bubbles + 1 for r in
                                      normalize_records(records, org))
        assert not math.isnan(fp.rmpkc)
