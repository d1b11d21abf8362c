"""Unit tests for the DRAM command vocabulary."""

import pytest

from repro.config import BANKS_PER_RANK
from repro.cpu.system import System
from repro.dram.commands import Command, IssuedCommand
from repro.dram.organization import Organization
from repro.workloads.synthetic import random_trace

from tests.conftest import tiny_config


@pytest.fixture(scope="module")
def logged_run():
    """One short logged run long enough to span several refreshes."""
    cfg = tiny_config(instruction_limit=20_000)
    org = Organization.from_config(cfg.dram)
    system = System(cfg, [random_trace(org, 1 << 22, 30.0, 1,
                                       write_fraction=0.2)],
                    log_commands=True)
    system.run(max_mem_cycles=600_000)
    return cfg, system.controllers[0].channel.command_log


class TestCommandProperties:
    """Each command's scope, as the issued stream records it."""

    def test_bank_scoped(self, logged_run):
        cfg, log = logged_run
        seen = set()
        for c in log:
            if c.command in (Command.ACT, Command.PRE, Command.RD,
                             Command.WR):
                assert 0 <= c.bank < BANKS_PER_RANK, c
                seen.add(c.command)
                if c.command in (Command.ACT, Command.PRE):
                    assert c.row >= 0, c
                else:
                    assert c.row == -1, c
        assert seen == {Command.ACT, Command.PRE, Command.RD, Command.WR}

    def test_rank_scoped(self, logged_run):
        _, log = logged_run
        rank_cmds = [c for c in log
                     if c.command in (Command.PREA, Command.REF)]
        assert any(c.command is Command.REF for c in rank_cmds)
        for c in rank_cmds:
            assert c.bank == -1 and c.row == -1, c


class TestIssuedCommand:
    def test_fields_and_defaults(self):
        cmd = IssuedCommand(Command.ACT, 100, channel=0, rank=0, bank=3,
                            row=42, reduced=True)
        assert cmd.cycle == 100
        assert cmd.reduced

    def test_rank_scope_defaults(self):
        cmd = IssuedCommand(Command.REF, 5, channel=1, rank=0)
        assert cmd.bank == -1
        assert cmd.row == -1

    def test_frozen(self):
        import dataclasses
        import pytest
        cmd = IssuedCommand(Command.PRE, 1, 0, 0, 0, 7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cmd.cycle = 2
