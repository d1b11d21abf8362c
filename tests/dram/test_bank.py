"""Unit tests for the per-bank state machine."""

import pytest

from repro.dram.bank import Bank, BankState
from repro.dram.timing import DDR3_1600


@pytest.fixture
def bank():
    return Bank(DDR3_1600)


class TestActivation:
    def test_initially_closed(self, bank):
        assert bank.state is BankState.CLOSED
        assert not bank.is_open()

    def test_activate_opens_row(self, bank):
        bank.do_activate(42, 0, DDR3_1600.default_timings())
        assert bank.state is BankState.OPEN
        assert bank.is_open(42)
        assert not bank.is_open(43)

    def test_activate_sets_trcd_gate(self, bank):
        bank.do_activate(1, 100, DDR3_1600.default_timings())
        assert bank.earliest_rd() == 100 + DDR3_1600.tRCD
        assert bank.earliest_wr() == 100 + DDR3_1600.tRCD

    def test_activate_sets_tras_gate(self, bank):
        bank.do_activate(1, 100, DDR3_1600.default_timings())
        assert bank.earliest_pre() == 100 + DDR3_1600.tRAS

    def test_reduced_activation_lowers_gates(self, bank):
        reduced = DDR3_1600.reduced_by(4, 8)
        bank.do_activate(1, 100, reduced)
        assert bank.earliest_rd() == 100 + DDR3_1600.tRCD - 4
        assert bank.earliest_pre() == 100 + DDR3_1600.tRAS - 8
        assert bank.act_reduced

    def test_double_activate_rejected(self, bank):
        bank.do_activate(1, 0, DDR3_1600.default_timings())
        with pytest.raises(RuntimeError):
            bank.do_activate(2, 100, DDR3_1600.default_timings())

    def test_early_activate_rejected(self, bank):
        bank.do_activate(1, 0, DDR3_1600.default_timings())
        bank.do_precharge(DDR3_1600.tRAS)
        with pytest.raises(RuntimeError):
            bank.do_activate(2, DDR3_1600.tRAS + 1,
                             DDR3_1600.default_timings())

    def test_act_reduced_marks_the_last_activation(self, bank):
        bank.do_activate(1, 0, DDR3_1600.reduced_by(4, 8))
        assert bank.act_reduced
        bank.do_precharge(DDR3_1600.tRAS)
        bank.do_activate(2, DDR3_1600.tRAS + DDR3_1600.tRP,
                         DDR3_1600.default_timings())
        assert not bank.act_reduced


class TestColumnCommands:
    def test_read_before_trcd_rejected(self, bank):
        bank.do_activate(1, 0, DDR3_1600.default_timings())
        with pytest.raises(RuntimeError):
            bank.do_read(DDR3_1600.tRCD - 1)

    def test_read_at_trcd_ok(self, bank):
        bank.do_activate(1, 0, DDR3_1600.default_timings())
        bank.do_read(DDR3_1600.tRCD)

    def test_read_extends_pre_gate(self, bank):
        bank.do_activate(1, 0, DDR3_1600.default_timings())
        late = DDR3_1600.tRAS  # read issued very late
        bank.do_read(late)
        assert bank.earliest_pre() == late + DDR3_1600.read_to_pre

    def test_write_extends_pre_gate_more(self, bank):
        bank.do_activate(1, 0, DDR3_1600.default_timings())
        bank.do_write(DDR3_1600.tRCD)
        expected = DDR3_1600.tRCD + DDR3_1600.write_to_pre
        assert bank.earliest_pre() == max(expected, DDR3_1600.tRAS)

    def test_column_to_closed_bank_rejected(self, bank):
        with pytest.raises(RuntimeError):
            bank.do_read(100)
        with pytest.raises(RuntimeError):
            bank.do_write(100)


class TestPrecharge:
    def test_precharge_before_tras_rejected(self, bank):
        bank.do_activate(1, 0, DDR3_1600.default_timings())
        with pytest.raises(RuntimeError):
            bank.do_precharge(DDR3_1600.tRAS - 1)

    def test_precharge_returns_row(self, bank):
        bank.do_activate(7, 0, DDR3_1600.default_timings())
        assert bank.do_precharge(DDR3_1600.tRAS) == 7
        assert bank.state is BankState.CLOSED

    def test_precharge_sets_trp_gate(self, bank):
        bank.do_activate(1, 0, DDR3_1600.default_timings())
        bank.do_precharge(DDR3_1600.tRAS)
        assert bank.earliest_act() == DDR3_1600.tRAS + DDR3_1600.tRP

    def test_trc_enforced_transitively(self, bank):
        """ACT->PRE->ACT spacing is at least tRC = tRAS + tRP."""
        bank.do_activate(1, 0, DDR3_1600.default_timings())
        bank.do_precharge(DDR3_1600.tRAS)
        assert bank.earliest_act() >= DDR3_1600.tRC

    def test_precharge_closed_rejected(self, bank):
        with pytest.raises(RuntimeError):
            bank.do_precharge(100)


class TestAccounting:
    def test_open_cycles_accumulate(self, bank):
        bank.do_activate(1, 0, DDR3_1600.default_timings())
        bank.do_precharge(30)
        assert bank.open_cycles == 30
        bank.do_activate(2, 50, DDR3_1600.default_timings())
        assert bank.active_cycles_until(60) == 40

    def test_refresh_block(self, bank):
        bank.do_refresh_block(500)
        assert bank.earliest_act() == 500

    def test_refresh_block_open_bank_rejected(self, bank):
        bank.do_activate(1, 0, DDR3_1600.default_timings())
        with pytest.raises(RuntimeError):
            bank.do_refresh_block(500)
