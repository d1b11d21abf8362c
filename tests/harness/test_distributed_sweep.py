"""Resumable + work-stealing sweep tests (journal, claimer, drain).

The ISSUE-level guarantees under test:

* a killed-and-resumed sweep re-simulates **zero** checkpointed specs
  and its journal converges to one line per key;
* racing claimers partition a sweep with per-key simulation count
  exactly one, and the union of their stores is byte-identical to a
  serial run;
* keys claimed by peers are drained from the shared store (source
  ``"remote"``); dead peers' claims are stolen, or the sweep fails
  loudly after its wait budget.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time

import pytest

import repro

from repro.harness import cache as run_cache
from repro.harness import pool, runner
from repro.harness.journal import SweepJournal
from repro.harness.pool import SweepError, execute_sweep
from repro.harness.spec import RunSpec, Scale
from repro.harness.store import FileClaimer

TINY = Scale(single_core_instructions=1500, multi_core_instructions=1000,
             warmup_cpu_cycles=1000, max_mem_cycles=300_000)

SWEEP = [
    RunSpec(kind="single", name=name, mechanism=mech, scale=TINY,
            engine="event")
    for name in ("hmmer", "libquantum", "mcf")
    for mech in ("none", "chargecache")
]

KEYS = [run_cache.cache_key(spec) for spec in SWEEP]


@pytest.fixture(autouse=True)
def _fresh(tmp_path):
    runner.clear_memo()
    with runner.executing(cache_dir=str(tmp_path / "store")):
        yield
    runner.clear_memo()


def _claimer(tmp_path, owner, **kwargs):
    """A claimer over the shared store directory the sweep is bound to."""
    return FileClaimer(run_cache.RunCache(str(tmp_path / "store")),
                       owner=owner, **kwargs)


def _leases(tmp_path):
    return os.listdir(tmp_path / "store" / "claims")


@pytest.fixture
def sim_log(monkeypatch):
    """Log of every actual simulation (cache keys, in call order)."""
    calls = []
    real = runner._execute_spec

    def counting(spec):
        calls.append(run_cache.cache_key(spec))
        return real(spec)

    monkeypatch.setattr(runner, "_execute_spec", counting)
    return calls


def _serial_reference(tmp_path):
    """Envelope bytes of a plain serial run, from a pristine store."""
    ref_dir = str(tmp_path / "serial-ref")
    runner.configure_disk_cache(ref_dir)
    runner.clear_memo()
    execute_sweep(SWEEP, batch=False)
    runner.clear_memo()
    store = run_cache.RunCache(ref_dir)
    bytes_by_key = {}
    for key in KEYS:
        with open(store.path_for(key), "rb") as fh:
            bytes_by_key[key] = fh.read()
    runner.configure_disk_cache(str(tmp_path / "store"))
    return bytes_by_key


class TestResumption:
    def test_killed_sweep_resumes_without_resimulating(
            self, tmp_path, sim_log):
        journal_path = str(tmp_path / "w.journal")
        kill_after = 2

        def dying_progress(done, total, point):
            if done >= kill_after:
                raise KeyboardInterrupt("simulated worker death")

        with pytest.raises(BaseException):
            execute_sweep(SWEEP, journal=journal_path,
                          claimer=_claimer(tmp_path, "w1"),
                          batch=False, progress=dying_progress)
        first_run = list(sim_log)
        journal = SweepJournal(journal_path)
        checkpointed = journal.completed_keys()
        assert len(checkpointed) == kill_after

        # Restart: same journal, same store, a fresh process (memo
        # cleared).  Dead-claim stealing lets the restart reclaim any
        # lease its dead predecessor left behind.
        runner.clear_memo()
        sim_log.clear()
        sweep = execute_sweep(
            SWEEP, journal=journal_path,
            claimer=_claimer(tmp_path, "w1-restart", steal_stale_s=0.0),
            batch=False)
        assert [p.spec for p in sweep.points] == SWEEP

        # Zero checkpointed specs re-simulated, and per-key simulation
        # count across both runs is exactly one.
        assert not (set(sim_log) & checkpointed)
        assert sorted(first_run + sim_log) == sorted(KEYS)

        # The journal converged: one line per key, every key present.
        converged = SweepJournal(journal_path)
        assert converged.completed_keys() == set(KEYS)
        with open(journal_path, encoding="ascii") as fh:
            assert len(fh.readlines()) == len(KEYS)
        assert _leases(tmp_path) == []

    def test_rerun_of_finished_sweep_is_all_store_hits(
            self, tmp_path, sim_log):
        journal_path = str(tmp_path / "w.journal")
        claimer = _claimer(tmp_path, "w1")
        execute_sweep(SWEEP, journal=journal_path, claimer=claimer,
                      batch=False)
        runner.clear_memo()
        sim_log.clear()
        sweep = execute_sweep(SWEEP, journal=journal_path,
                              claimer=claimer, batch=False)
        assert sim_log == []
        assert sweep.counts()["disk"] == len(SWEEP)
        with open(journal_path, encoding="ascii") as fh:
            assert len(fh.readlines()) == len(KEYS)


class TestPartitioning:
    def test_racing_claimers_split_with_exactly_one_sim_per_key(
            self, tmp_path, sim_log):
        reference = _serial_reference(tmp_path)
        half = SWEEP[:3]

        # "Peer" wins its chunk first; we deliver its results midway
        # through our own sweep, as a live remote worker would.
        peer_keys = [run_cache.cache_key(spec) for spec in half]
        peer = _claimer(tmp_path, "peer")
        assert peer.claim_many(peer_keys) == [True] * 3
        store = run_cache.RunCache(str(tmp_path / "store"))

        # Compute peer results out of band (separate store), then
        # replicate their envelopes after a short delay.
        peer_dir = str(tmp_path / "peer-store")
        runner.configure_disk_cache(peer_dir)
        runner.clear_memo()
        execute_sweep(half, batch=False)
        runner.clear_memo()
        peer_store = run_cache.RunCache(peer_dir)
        runner.configure_disk_cache(str(tmp_path / "store"))

        def deliver():
            # The peer publishes each envelope (temp file + atomic
            # rename, as RunCache.put does), then drops its lease.
            for key in peer_keys:
                with open(peer_store.path_for(key), "rb") as fh:
                    data = fh.read()
                tmp = store.path_for(key) + ".tmp"
                with open(tmp, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, store.path_for(key))
                peer.done(key)

        sim_log.clear()
        timer = threading.Timer(0.3, deliver)
        timer.start()
        try:
            sweep = execute_sweep(
                SWEEP, claimer=_claimer(tmp_path, "me"),
                batch=False, remote_wait_s=30.0, remote_poll_s=0.01)
        finally:
            timer.cancel()

        counts = sweep.counts()
        assert counts["computed"] == 3
        assert counts["remote"] == 3
        assert sorted(sim_log) == sorted(
            run_cache.cache_key(spec) for spec in SWEEP[3:])
        # Union of both workers' output is byte-identical to serial.
        for key in KEYS:
            with open(store.path_for(key), "rb") as fh:
                assert fh.read() == reference[key]
        # Results are correct in order.
        assert [p.spec for p in sweep.points] == SWEEP
        assert _leases(tmp_path) == []

    def test_dead_peer_claims_are_stolen(self, tmp_path, sim_log):
        half = SWEEP[:3]
        assert all(_claimer(tmp_path, "dead-peer").claim_many(
            [run_cache.cache_key(s) for s in half]))
        sweep = execute_sweep(
            SWEEP,
            claimer=_claimer(tmp_path, "me", steal_stale_s=0.0),
            batch=False, remote_wait_s=5.0, remote_poll_s=0.01)
        assert sweep.counts()["computed"] == len(SWEEP)
        assert sorted(sim_log) == sorted(KEYS)
        assert _leases(tmp_path) == []

    def test_unserved_peer_claims_time_out(self, tmp_path):
        spec = SWEEP[0]
        assert _claimer(tmp_path, "silent-peer").claim_many(
            [run_cache.cache_key(spec)]) == [True]
        with pytest.raises(SweepError):
            execute_sweep([spec],
                          claimer=_claimer(tmp_path, "me"),
                          batch=False, remote_wait_s=0.2,
                          remote_poll_s=0.01)

    def test_distributed_needs_a_store(self, tmp_path):
        runner.configure_disk_cache(None, enabled=False)
        with pytest.raises(SweepError):
            execute_sweep(SWEEP[:1],
                          claimer=_claimer(tmp_path, "me"))


class TestChunking:
    def test_chunks_pack_whole_units(self):
        units = [["a", "b"], ["c"], ["d", "e"], ["f"]]
        chunks = pool._chunk_units(units, chunk_specs=2)
        # Units are never split across chunks.
        flattened = [unit for chunk in chunks for unit in chunk]
        assert flattened == units
        assert [sum(len(u) for u in chunk) for chunk in chunks] \
            == [2, 3, 1]

    def test_batched_distributed_matches_unbatched(
            self, tmp_path, sim_log):
        batched = execute_sweep(
            SWEEP, claimer=_claimer(tmp_path, "me"),
            batch=True, chunk_specs=2)
        runner.clear_memo()
        runner.configure_disk_cache(str(tmp_path / "other"))
        plain = execute_sweep(SWEEP, batch=False)
        for a, b in zip(batched.results, plain.results):
            assert a.ipcs == b.ipcs
            assert a.mem_cycles == b.mem_cycles
            assert a.mechanism_hits == b.mechanism_hits


class TestCLI:
    def test_sweep_shares_the_main_execution_flags(self):
        from repro.harness import cli
        flags = ["--scale", "tiny", "--engine", "dense", "-j", "2",
                 "--no-batch", "--progress", "--store", "/tmp/s"]
        sweep = cli.build_sweep_parser().parse_args(
            ["--workloads", "hmmer"] + flags)
        main = cli.build_parser().parse_args(["fig7a"] + flags)
        for args in (sweep, main):
            assert (args.scale, args.engine, args.jobs, args.batch,
                    args.progress, args.cache_dir) == \
                (0.05, "dense", 2, False, True, "/tmp/s")

    @pytest.mark.parametrize("scale", ["0", "-0.5", "huge"])
    def test_sweep_rejects_a_bad_scale(self, scale, capsys):
        """``--scale 0`` used to run silently at default scale."""
        from repro.harness import cli
        with pytest.raises(SystemExit) as excinfo:
            cli.build_sweep_parser().parse_args(
                ["--workloads", "hmmer", "--scale", scale])
        assert excinfo.value.code == 2
        assert "--scale" in capsys.readouterr().err

    def test_sweep_then_query_the_store_directory(self, tmp_path,
                                                  capsys):
        from repro.harness import cli
        store = str(tmp_path / "cli-store")
        assert cli.main(["sweep", "--workloads", "hmmer", "libquantum",
                         "--mechanisms", "none", "chargecache",
                         "--scale", "0.03", "--store", store,
                         "--owner", "w1", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["owner"] == "w1"
        assert summary["store"] == store
        assert summary["counts"]["computed"] == 4
        assert os.listdir(os.path.join(store, "claims")) == []

        assert cli.main(["query", "--cache-dir", store, "--mechanism",
                         "chargecache", "--json"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["count"] == 2
        assert [row["name"] for row in table["rows"]] \
            == ["hmmer", "libquantum"]
        assert {row["standard"] for row in table["rows"]} \
            == {"DDR3-1600"}
        assert all(row["total_ipc"] > 0 for row in table["rows"])

        assert cli.main(["query", "--cache-dir", store, "--limit", "1",
                         "--csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("kind,name,scenario,mechanism,standard")
        assert len(lines) == 2

        assert cli.main(["query", "--cache-dir", store, "--standard",
                         "GDDR5-4000"]) == 0
        assert capsys.readouterr().out.endswith("0 row(s)\n")


N_WORKERS = 4

WORKER = """
import hashlib, json, os, sys, time

cache_dir, out_dir, go_file = sys.argv[1:4]

from repro.harness import runner
from repro.harness.cache import RunCache, cache_key, result_to_json
from repro.harness.runner import Scale, run_spec_ex, workload_spec
from repro.harness.store import FileClaimer

TINY = Scale(single_core_instructions=1500,
             multi_core_instructions=1000,
             warmup_cpu_cycles=1000, max_mem_cycles=300_000)

pid = os.getpid()
real_execute = runner._execute_spec

def counted_execute(spec):
    open(os.path.join(out_dir, "sim-%d" % pid), "a").close()
    return real_execute(spec)

runner._execute_spec = counted_execute
runner.configure_disk_cache(cache_dir)
cache = RunCache(cache_dir)
claimer = FileClaimer(cache, owner=str(pid))
spec = workload_spec("libquantum", "chargecache", TINY)
key = cache_key(spec)

# Line up on the barrier so the claim race is a real race.
open(os.path.join(out_dir, "ready-%d" % pid), "w").close()
while not os.path.exists(go_file):
    time.sleep(0.005)

if claimer.claim_many([key]) == [True]:
    result, source = run_spec_ex(spec)   # read-through persists it
    assert source == "computed", source
    claimer.done(key)
    open(os.path.join(out_dir, "winner-%d" % pid), "w").close()
else:
    deadline = time.monotonic() + 240.0
    result = cache.get(key)
    while result is None:
        assert time.monotonic() < deadline, "timed out on the winner"
        time.sleep(0.02)
        result = cache.get(key)

canonical = json.dumps(result_to_json(result), sort_keys=True)

# Hammer the shared key: concurrent re-puts must never expose a
# torn/corrupt envelope to any concurrent reader.
for _ in range(15):
    cache.put(key, spec, result)
    seen = cache.get(key)
    assert seen is not None, "reader observed a corrupt envelope"
    got = json.dumps(result_to_json(seen), sort_keys=True)
    assert got == canonical, "reader observed a torn write"

digest = hashlib.sha256(canonical.encode("ascii")).hexdigest()
with open(os.path.join(out_dir, "ok-%d" % pid), "w") as fh:
    fh.write(digest)
"""


def test_n_processes_one_key_one_simulation(tmp_path):
    """N processes racing FileClaimer on one key: exactly one claims
    and simulates, every process reads the same bits, and the store
    ends with one intact envelope and no lease."""
    cache_dir = tmp_path / "cache"
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    go_file = tmp_path / "go"
    script = tmp_path / "worker.py"
    script.write_text(WORKER)

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("REPRO_NO_CACHE", None)

    workers = [
        subprocess.Popen(
            [sys.executable, str(script), str(cache_dir), str(out_dir),
             str(go_file)],
            env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        for _ in range(N_WORKERS)
    ]
    try:
        deadline = time.monotonic() + 120.0
        while len([f for f in os.listdir(out_dir)
                   if f.startswith("ready-")]) < N_WORKERS:
            assert time.monotonic() < deadline, "workers never lined up"
            time.sleep(0.02)
        go_file.touch()
        for worker in workers:
            output, _ = worker.communicate(timeout=300)
            assert worker.returncode == 0, output
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.kill()

    names = os.listdir(out_dir)
    winners = [f for f in names if f.startswith("winner-")]
    sims = [f for f in names if f.startswith("sim-")]
    oks = [f for f in names if f.startswith("ok-")]
    assert len(winners) == 1, f"expected one winner, saw {winners}"
    assert sims == [winners[0].replace("winner-", "sim-")], sims
    assert len(oks) == N_WORKERS

    # Every process saw the same bits.
    digests = {(out_dir / f).read_text() for f in oks}
    assert len(digests) == 1

    # One intact envelope, no claim left behind.
    spec = runner.workload_spec("libquantum", "chargecache", TINY)
    key = run_cache.cache_key(spec)
    cache = run_cache.RunCache(str(cache_dir))
    assert cache.keys() == [key]
    assert os.listdir(cache_dir / "claims") == []
    result = cache.get(key)
    assert result is not None
    canonical = json.dumps(run_cache.result_to_json(result),
                           sort_keys=True)
    assert hashlib.sha256(
        canonical.encode("ascii")).hexdigest() == digests.pop()
