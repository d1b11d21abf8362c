"""Tests for the process-pool sweep executor."""

import pytest

from repro.harness import pool, runner
from repro.harness.pool import SweepError, execute_sweep, resolve_jobs
from repro.harness.spec import RunSpec, Scale

TINY = Scale(single_core_instructions=1500, multi_core_instructions=1000,
             warmup_cpu_cycles=1000, max_mem_cycles=300_000)

SWEEP = [
    RunSpec(kind="single", name=name, mechanism=mech, scale=TINY,
            engine="event")
    for name in ("hmmer", "libquantum")
    for mech in ("none", "chargecache")
]


@pytest.fixture(autouse=True)
def _fresh(tmp_path):
    runner.clear_memo()
    with runner.executing(cache_dir=str(tmp_path / "cache")):
        yield
    runner.clear_memo()


class TestResolveJobs:
    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_all_cpus(self):
        assert resolve_jobs(0) >= 1

    @pytest.mark.parametrize("value", ["abc", "-2"])
    def test_bad_env_value_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ValueError, match=f"REPRO_JOBS.*'{value}'"):
            resolve_jobs(None)

    def test_execution_jobs_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")  # never consulted
        with runner.executing(jobs=2):
            assert resolve_jobs(None) == 2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestDeterminism:
    def test_parallel_matches_serial_in_order(self):
        serial = execute_sweep(SWEEP, jobs=1)
        assert [p.spec for p in serial.points] == SWEEP
        runner.clear_caches()
        parallel = execute_sweep(SWEEP, jobs=4)
        assert [p.spec for p in parallel.points] == SWEEP
        for ser, par in zip((p.result for p in serial.points),
                            (p.result for p in parallel.points)):
            assert par.ipcs == ser.ipcs
            assert par.mem_cycles == ser.mem_cycles
            assert par.instructions == ser.instructions
            assert par.activations == ser.activations
            assert par.row_hit_rate == ser.row_hit_rate
            assert par.average_read_latency_cycles == \
                ser.average_read_latency_cycles
            assert par.config == ser.config

    def test_parallel_results_land_in_memo(self):
        execute_sweep(SWEEP, jobs=2)
        # Aggregation code re-requesting the same runs must not fork
        # or recompute: every point is now an in-process memory hit.
        again = execute_sweep(SWEEP, jobs=2)
        assert all(p.source == "memory" for p in again.points)

    def test_second_process_level_run_hits_disk(self):
        execute_sweep(SWEEP, jobs=2)
        runner.clear_memo()  # simulate a fresh process, same cache dir
        again = execute_sweep(SWEEP, jobs=1)
        assert all(p.source == "disk" for p in again.points)

    def test_duplicate_specs_computed_once(self):
        sweep = execute_sweep([SWEEP[0], SWEEP[0], SWEEP[1]], jobs=1)
        assert len(sweep.points) == 3
        assert sweep.points[0].result is sweep.points[1].result
        assert sweep.counts()["points"] == 2
        assert sweep.counts()["computed"] == 2


class TestProgressAndAnnotation:
    def test_progress_callback_sees_every_point(self):
        seen = []
        execute_sweep(SWEEP, jobs=1,
                      progress=lambda done, total, p:
                      seen.append((done, total, p.spec)))
        assert [s[0] for s in seen] == [1, 2, 3, 4]
        assert all(s[1] == len(SWEEP) for s in seen)
        assert {s[2] for s in seen} == set(SWEEP)

    def test_annotation_shape(self):
        sweep = execute_sweep(SWEEP[:2], jobs=1)
        info = sweep.annotation()
        assert info["points"] == 2
        assert info["computed"] == 2
        assert info["jobs"] == 1
        assert len(info["points_detail"]) == 2
        assert all(d["source"] == "computed"
                   for d in info["points_detail"])


class TestFailureSurfacing:
    BAD = RunSpec(kind="single", name="no-such-workload", scale=TINY,
                  engine="event")

    def test_serial_failure_names_the_spec(self):
        with pytest.raises(SweepError) as err:
            execute_sweep([SWEEP[0], self.BAD], jobs=1)
        assert err.value.spec == self.BAD
        assert "no-such-workload" in str(err.value)

    def test_parallel_failure_names_the_spec_without_hanging(self):
        with pytest.raises(SweepError) as err:
            execute_sweep([SWEEP[0], self.BAD, SWEEP[1]], jobs=2)
        assert err.value.spec == self.BAD
        assert "no-such-workload" in str(err.value)

    def test_bad_kind_rejected_at_declaration(self):
        with pytest.raises(ValueError):
            RunSpec(kind="dual", name="hmmer", scale=TINY)


class TestSerialParallelEquivalenceViaCodec:
    def test_parallel_result_equals_disk_decode(self):
        """A pool-returned result and a disk hit decode identically
        (they share the codec), so jobs=N can never leak state the
        persistent layer would not."""
        parallel = execute_sweep(SWEEP[:2], jobs=2)
        runner.clear_memo()
        disk = execute_sweep(SWEEP[:2], jobs=1)
        assert all(p.source == "disk" for p in disk.points)
        for a, b in zip((p.result for p in parallel.points),
                        (p.result for p in disk.points)):
            assert a.ipcs == b.ipcs
            assert a.mem_cycles == b.mem_cycles
            assert a.config == b.config


def test_stderr_progress_smoke(capsys):
    point = pool.SweepPoint(SWEEP[0], None, "disk", 1.5)
    pool.stderr_progress(1, 4, point)
    err = capsys.readouterr().err
    assert "[1/4]" in err and "disk" in err
