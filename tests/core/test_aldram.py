"""Tests for the AL-DRAM extension mechanism (paper Section 7.1)."""

from repro.core.aldram import ALDRAM, aldram_timings_at
from repro.core import registry
from repro.dram.refresh import RefreshScheduler
from repro.dram.timing import DDR3_1600


class TestDeratedTimings:
    def test_worst_case_is_baseline(self):
        t = aldram_timings_at(85.0, DDR3_1600)
        assert (t.trcd, t.tras) == (DDR3_1600.tRCD, DDR3_1600.tRAS)

    def test_above_worst_case_is_baseline(self):
        t = aldram_timings_at(95.0, DDR3_1600)
        assert (t.trcd, t.tras) == (DDR3_1600.tRCD, DDR3_1600.tRAS)

    def test_cooler_is_faster(self):
        t55 = aldram_timings_at(55.0, DDR3_1600)
        t85 = aldram_timings_at(85.0, DDR3_1600)
        assert t55.trcd < t85.trcd
        assert t55.tras < t85.tras

    def test_monotone_in_temperature(self):
        temps = (45.0, 55.0, 65.0, 75.0, 85.0)
        trcds = [aldram_timings_at(t, DDR3_1600).trcd for t in temps]
        trass = [aldram_timings_at(t, DDR3_1600).tras for t in temps]
        assert trcds == sorted(trcds)
        assert trass == sorted(trass)

    def test_never_below_one_cycle(self):
        t = aldram_timings_at(-40.0, DDR3_1600)
        assert t.trcd >= 1 and t.tras >= 1


class TestMechanism:
    def test_hot_device_never_hits(self):
        mech = ALDRAM(DDR3_1600, temperature_c=85.0)
        assert mech.on_activate(0, 0, 1, 0, 0) is None
        assert mech.hits == 0

    def test_cool_device_always_hits(self):
        mech = ALDRAM(DDR3_1600, temperature_c=55.0)
        timings = mech.on_activate(0, 0, 1, 0, 0)
        assert timings is not None
        assert mech.hits == mech.lookups == 1

    def test_aldram_weaker_than_chargecache_hit(self):
        """A ChargeCache hit row (1 ms old) is always at least as
        charged as AL-DRAM's worst-case cell, at any temperature
        at or above ~45 C."""
        cc_hit = DDR3_1600.reduced_by(4, 8)
        for temp in (45.0, 65.0, 85.0):
            al = aldram_timings_at(temp, DDR3_1600)
            assert al.trcd >= cc_hit.trcd
            assert al.tras >= cc_hit.tras


class TestFactory:
    def _build(self, mechanism):
        refresh = RefreshScheduler(DDR3_1600, 1, 64 * 1024)
        return registry.build(mechanism, registry.MechanismContext(
            timing=DDR3_1600, num_cores=1, refresh_scheduler=refresh))

    def test_aldram_from_config(self):
        mech = self._build("aldram(temperature_c=55.0)")
        assert isinstance(mech, ALDRAM)
        assert mech.temperature_c == 55.0
        assert self._build("aldram").temperature_c == 85.0

    def test_combined_with_chargecache(self):
        mech = self._build("chargecache+aldram(temperature=55)")
        # Cool device: even a cold row hits (AL-DRAM side).
        assert mech.on_activate(0, 0, 1, 0, 0) is not None
        # A recently-precharged row gets the stronger of the two.
        mech.on_precharge(0, 0, 2, 0, 10)
        timings = mech.on_activate(0, 0, 2, 0, 20)
        cc_hit = DDR3_1600.reduced_by(4, 8)
        assert timings.trcd <= cc_hit.trcd
        assert timings.tras <= cc_hit.tras
