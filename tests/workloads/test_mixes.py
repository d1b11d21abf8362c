"""Tests for the 20 multiprogrammed 8-core mixes."""

import itertools

import pytest

from repro.dram.organization import Organization
from repro.workloads.mixes import (
    MIX_NAMES,
    make_mix_traces,
    mix_composition,
)
from repro.workloads.spec_like import WORKLOAD_NAMES


class TestComposition:
    def test_twenty_mixes(self):
        assert len(MIX_NAMES) == 20
        assert MIX_NAMES[0] == "w1" and MIX_NAMES[-1] == "w20"

    def test_eight_apps_per_mix(self):
        for mix in MIX_NAMES:
            assert len(mix_composition(mix)) == 8

    def test_compositions_stable(self):
        assert mix_composition("w1") == mix_composition("w1")

    def test_apps_are_known_workloads(self):
        for mix in MIX_NAMES:
            for app in mix_composition(mix):
                assert app in WORKLOAD_NAMES

    def test_mixes_differ(self):
        compositions = {tuple(mix_composition(m)) for m in MIX_NAMES}
        assert len(compositions) > 15  # random draw, near-distinct

    def test_unknown_mix_rejected(self):
        with pytest.raises(KeyError):
            mix_composition("w21")


class TestTraces:
    def test_traces_built_per_core(self):
        org = Organization(channels=2, ranks=1, banks=8, rows=64 * 1024,
                           columns=128)
        traces = make_mix_traces(mix_composition("w3"), org, seed=1)
        assert len(traces) == 8
        for trace in traces:
            records = list(itertools.islice(trace, 20))
            assert len(records) == 20

    def test_same_app_twice_gets_distinct_streams(self):
        org = Organization(channels=2, ranks=1, banks=8, rows=64 * 1024,
                           columns=128)
        # Find a mix with a duplicated app (very likely among 20).
        for mix in MIX_NAMES:
            apps = mix_composition(mix)
            dupes = {a for a in apps if apps.count(a) > 1}
            if dupes:
                app = dupes.pop()
                idx = [i for i, a in enumerate(apps) if a == app][:2]
                traces = make_mix_traces(apps, org, seed=1)
                a = list(itertools.islice(traces[idx[0]], 50))
                b = list(itertools.islice(traces[idx[1]], 50))
                assert a != b
                return
        pytest.skip("no mix with duplicate apps in this draw")
