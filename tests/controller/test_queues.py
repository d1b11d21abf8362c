"""Unit tests for request queues."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.queues import RequestQueue
from repro.controller.request import read_request, write_request

from tests.helpers import requests_for_bank, requests_for_row


class TestCapacity:
    def test_push_until_full(self):
        q = RequestQueue(2)
        assert q.push(read_request(1), 0)
        assert q.push(read_request(2), 0)
        assert len(q.items) == q.capacity
        assert not q.push(read_request(3), 0)

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            RequestQueue(0)


class TestOrdering:
    def test_iteration_is_arrival_order(self):
        q = RequestQueue(8)
        for line in (5, 3, 9):
            q.push(read_request(line), 0)
        assert [r.line_address for r in q] == [5, 3, 9]

    def test_remove_preserves_order(self):
        q = RequestQueue(8)
        reqs = [read_request(i) for i in range(3)]
        for r in reqs:
            q.push(r, 0)
        q.remove(reqs[1])
        assert [r.line_address for r in q] == [0, 2]


class TestIndexing:
    def test_find_line(self):
        q = RequestQueue(8)
        req = write_request(7)
        q.push(req, 0)
        assert q.find_line(7) is req
        assert q.find_line(8) is None

    def test_coalesce_write(self):
        q = RequestQueue(8)
        q.push(write_request(7), 0)
        assert q.coalesce_write(7)
        assert len(q) == 1
        assert not q.coalesce_write(8)

    def test_read_does_not_coalesce(self):
        q = RequestQueue(8)
        q.push(read_request(7), 0)
        assert not q.coalesce_write(7)

    def test_requests_for_row(self):
        q = RequestQueue(8)
        a, b = read_request(1), read_request(2)
        a.rank, a.bank, a.row = 0, 1, 42
        b.rank, b.bank, b.row = 0, 1, 42
        q.push(a, 0)
        q.push(b, 0)
        assert requests_for_row(q, 0, 1, 42) == 2
        assert requests_for_row(q, 0, 1, 43) == 0


class TestStats:
    def test_enqueue_cycle_recorded(self):
        q = RequestQueue(4)
        req = read_request(1)
        q.push(req, 77)
        assert req.enqueue_cycle == 77


class TestBankIndex:
    @given(st.lists(st.tuples(st.sampled_from(("push", "remove", "coalesce")),
                              st.integers(0, 2), st.integers(0, 3),
                              st.integers(0, 15), st.booleans()),
                    max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_per_bank_lists_mirror_the_queue(self, steps):
        """After any push/remove/coalesce sequence, the per-bank lists
        merged by ``seq`` are exactly the arrival-order queue, and
        ``requests_for_row`` equals a brute-force count for every
        (rank, bank, row)."""
        q = RequestQueue(16)
        for kind, rank, bank, pick, is_write in steps:
            items = list(q)
            if kind == "remove" and items:
                q.remove(items[pick % len(items)])
            elif kind == "coalesce" and items:
                q.coalesce_write(items[pick % len(items)].line_address)
            elif kind == "push":
                req = write_request(pick) if is_write else read_request(pick)
                req.rank, req.bank, req.row = rank, bank, pick % 3
                if q.coalesce_write(req.line_address):
                    continue
                q.push(req, 0)
            merged = sorted(entry for _, entries in q.by_bank.items()
                            for entry in entries)
            assert [req for _, req in merged] == list(q)
            for (rank_, bank_), entries in q.by_bank.items():
                assert len(entries) == requests_for_bank(q, rank_, bank_)
                seqs = [seq for seq, _ in entries]
                assert seqs == sorted(seqs)
                assert all(req.rank == rank_ and req.bank == bank_
                           for _, req in entries)
            assert sum(len(e) for _, e in q.by_bank.items()) == len(q)
            for rank_ in range(3):
                for bank_ in range(4):
                    for row in range(3):
                        assert requests_for_row(q, rank_, bank_, row) == sum(
                            1 for req in q if (req.rank, req.bank, req.row)
                            == (rank_, bank_, row))
