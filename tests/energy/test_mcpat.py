"""Tests for the ChargeCache overhead model (paper Section 6.3)."""

import pytest

from repro.config import eight_core_config
from repro.energy.mcpat import (
    LLC_AREA_MM2_4MB_22NM,
    hcrac_entry_bits,
    hcrac_overhead,
    hcrac_storage_bits,
    overhead_for_config,
)


class TestPaperEquations:
    def test_entry_size_equation_2(self):
        """EntrySize = log2(R) + log2(B) + log2(Ro) + 1 = 20 bits for
        the paper's 1 rank, 8 banks, 64K rows."""
        assert hcrac_entry_bits(1, 8, 64 * 1024) == 20

    def test_storage_equation_1_paper_total(self):
        """8 cores x 2 channels x 128 entries x 21 bits = 5376 bytes."""
        bits = hcrac_storage_bits(cores=8, channels=2, entries=128,
                                  associativity=2, ranks=1, banks=8,
                                  rows=64 * 1024)
        assert bits == 43008
        assert bits // 8 == 5376

    def test_per_core_storage_672_bytes(self):
        bits = hcrac_storage_bits(cores=1, channels=2, entries=128,
                                  associativity=2, ranks=1, banks=8,
                                  rows=64 * 1024)
        assert bits // 8 == 672

    def test_lru_bits_scale_with_associativity(self):
        direct = hcrac_storage_bits(1, 1, 128, 1, 1, 8, 64 * 1024)
        two_way = hcrac_storage_bits(1, 1, 128, 2, 1, 8, 64 * 1024)
        four_way = hcrac_storage_bits(1, 1, 128, 4, 1, 8, 64 * 1024)
        assert two_way - direct == 128      # +1 LRU bit per entry
        assert four_way - two_way == 128    # +1 more


class TestAreaAndPower:
    def test_paper_area(self):
        overhead = hcrac_overhead()
        assert overhead.area_mm2 == pytest.approx(0.022, rel=0.01)

    def test_area_fraction_of_llc(self):
        overhead = hcrac_overhead()
        assert overhead.area_fraction_of_llc() == \
            pytest.approx(0.0024, rel=0.05)

    def test_average_power_near_paper(self):
        """At a representative 8-core access rate (~25M HCRAC ops/s)
        the model lands near the paper's 0.149 mW."""
        overhead = hcrac_overhead()
        power = overhead.average_power_w(25e6)
        assert power == pytest.approx(0.149e-3, rel=0.15)

    def test_leakage_dominates_at_idle(self):
        overhead = hcrac_overhead()
        assert overhead.average_power_w(0) == overhead.leakage_w

    def test_power_monotone_in_rate(self):
        overhead = hcrac_overhead()
        assert overhead.average_power_w(1e8) > overhead.average_power_w(1e6)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            hcrac_overhead().average_power_w(-1)

    def test_llc_reference_sane(self):
        assert 5.0 < LLC_AREA_MM2_4MB_22NM < 20.0


class TestConfigBridge:
    def test_overhead_for_paper_config(self):
        overhead = overhead_for_config(eight_core_config())
        assert overhead.storage_bytes == 5376

    def test_shared_table_drops_the_per_core_factor(self):
        """sharing="shared" builds one table per channel (paper
        footnote 2), so equation (1)'s C factor is 1, not 8."""
        shared = eight_core_config("chargecache(sharing=shared)")
        assert overhead_for_config(shared).storage_bytes == 5376 // 8

    def test_bills_the_table_the_spec_simulates(self):
        """The bill reads the run's mechanism spec, the only place a
        run's HCRAC size and sharing live."""
        from repro.harness.runner import build_config
        cfg = build_config("eight", "chargecache(entries=256,sharing=shared)")
        assert overhead_for_config(cfg) == hcrac_overhead(
            cores=1, channels=2, entries=256)
        assert overhead_for_config(cfg).storage_bits == 2 * 5376

    def test_bigger_table_bigger_area(self):
        small = hcrac_overhead(entries=128)
        large = hcrac_overhead(entries=1024)
        assert large.area_mm2 == pytest.approx(8 * small.area_mm2)


class TestValidation:
    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            hcrac_storage_bits(0, 1, 128, 2, 1, 8, 64 * 1024)
        with pytest.raises(ValueError):
            hcrac_storage_bits(1, 1, 128, 0, 1, 8, 64 * 1024)
        with pytest.raises(ValueError):
            hcrac_entry_bits(3, 8, 64 * 1024)  # non power of two
