"""Integration: the paper's qualitative performance orderings.

* ChargeCache never degrades performance (Section 1: "As ChargeCache
  can only reduce the latency of certain accesses, it does not degrade
  performance").
* LL-DRAM is an upper bound on ChargeCache (it is ChargeCache with a
  100% hit rate).
* ChargeCache outperforms NUAT on high-RLTL workloads (Section 6.1).
* ChargeCache + NUAT is at least as good as NUAT alone.
"""

import pytest

from repro.harness.runner import (Scale, clear_caches, run_spec,
                                  workload_spec)

SCALE = Scale(single_core_instructions=12_000,
              multi_core_instructions=4000,
              warmup_cpu_cycles=4000, max_mem_cycles=2_000_000)

HIGH_RLTL = "libquantum"   # streaming with bank conflicts
LOW_RLTL = "mcf"           # large random footprint


@pytest.fixture(scope="module", autouse=True)
def _fresh():
    clear_caches()
    yield


def ipc(workload, mechanism):
    return run_spec(workload_spec(workload, mechanism, SCALE)).total_ipc


class TestNoDegradation:
    @pytest.mark.parametrize("workload", [HIGH_RLTL, LOW_RLTL, "hmmer"])
    def test_chargecache_never_hurts(self, workload):
        assert ipc(workload, "chargecache") >= \
            ipc(workload, "none") * 0.995


class TestUpperBound:
    @pytest.mark.parametrize("workload", [HIGH_RLTL, LOW_RLTL])
    def test_lldram_bounds_chargecache(self, workload):
        assert ipc(workload, "lldram") >= \
            ipc(workload, "chargecache") * 0.995


class TestChargeCacheVsNUAT:
    def test_cc_beats_nuat_on_high_rltl(self):
        base = ipc(HIGH_RLTL, "none")
        cc_gain = ipc(HIGH_RLTL, "chargecache") / base - 1
        nuat_gain = ipc(HIGH_RLTL, "nuat") / base - 1
        assert cc_gain > nuat_gain

    def test_combined_at_least_nuat(self):
        both = ipc(HIGH_RLTL, "chargecache+nuat")
        nuat = ipc(HIGH_RLTL, "nuat")
        assert both >= nuat * 0.995


class TestHitRates:
    def test_high_rltl_has_high_hit_rate(self):
        # Paper Figure 9: single-core 128-entry hit rate averages 38%;
        # a high-RLTL streaming workload should sit near or above that,
        # and far above the random-footprint one.
        high = run_spec(workload_spec(HIGH_RLTL, "chargecache", SCALE))
        low = run_spec(workload_spec(LOW_RLTL, "chargecache", SCALE))
        assert high.mechanism_hit_rate > low.mechanism_hit_rate
        assert high.mechanism_hit_rate > 0.25
        assert low.mechanism_hit_rate < 0.25

    def test_mcf_gap_to_lldram(self):
        """The paper singles out mcf: CC hit rate too low to approach
        LL-DRAM (Section 6.1)."""
        base = ipc(LOW_RLTL, "none")
        cc_gain = ipc(LOW_RLTL, "chargecache") / base - 1
        ll_gain = ipc(LOW_RLTL, "lldram") / base - 1
        assert ll_gain > 2 * max(cc_gain, 0.001)


class TestEnergyOrdering:
    def test_chargecache_saves_dram_energy(self):
        from repro.energy.drampower import energy_for_run
        base = run_spec(workload_spec(HIGH_RLTL, "none", SCALE))
        cc = run_spec(workload_spec(HIGH_RLTL, "chargecache", SCALE))
        # Timing/IDD resolve from each run's config (DDR3 here).
        e_base = energy_for_run(base).total_pj
        e_cc = energy_for_run(cc).total_pj
        assert e_cc <= e_base * 1.001
