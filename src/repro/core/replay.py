"""Mechanism decision logs: record one run, replay against variants.

The batch evaluator (:meth:`repro.cpu.system.System.run_batch`) runs
one variant of a spec group in full while a :class:`RecordingMechanism`
wrapper logs every mechanism decision point — each ``on_activate`` call
with its decision (reduced timings or None) and each ``on_precharge``
call — per channel.  For the next variant it builds fresh mechanism
state (:meth:`~repro.core.timing_policy.LatencyMechanism.fork_state`)
and feeds the recorded event stream back through it
(:func:`replay_decisions_match`).

**Why matching decisions imply a bit-identical run.**  The simulated
system interacts with a latency mechanism only through the values
``on_activate`` returns; ``on_precharge``/``maintain`` mutate mechanism
state without feeding anything back, and ``next_wake`` only shapes the
event engine's visited-cycle set, which engine parity guarantees is
statistically invisible.  So if variant B, fed the witness's event
stream, makes the same decision at every decision point, then by
induction over decision points B's full closed-loop simulation follows
the witness's trajectory exactly: identical decisions produce identical
command timings, identical core progress, and therefore the identical
next decision point.  The first diverging decision breaks the
induction — the replay reports a mismatch and the caller falls back to
simulating that variant in full (which makes it another witness).

Soundness requires the replayed mechanism's decisions to be a pure
function of its observed (event stream, cycle numbers); mechanisms
advertise that with
:attr:`~repro.core.timing_policy.LatencyMechanism.supports_decision_replay`
(NUAT reads refresh-scheduler state and opts out).  The *witness* needs
no such property: its log records what actually happened.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.timing_policy import LatencyMechanism
from repro.dram.timing import ReducedTimings

#: Largest decision code one log can hold: code 0 is ``None`` and codes
#: 1..255 name the distinct reduced timings one channel's mechanism
#: returned (ChargeCache and LL-DRAM return one, NUAT one per bin).
MAX_DECISION_CODE = 255


class MechanismEventLog:
    """Per-channel log of one run's mechanism decision points, packed.

    Each decision point, in call order, is two int64 words of
    ``words``: a head word and the cycle.  The head word packs, from
    bit 0 up, the kind (1 for ``on_activate``, 0 for
    ``on_precharge``), the rank, the bank, ``core_id + 1`` (so -1
    fits), the decision code, and the row in the top bits.  Code 0 is
    ``None`` (default timings, and every precharge); code ``i > 0``
    is ``decisions[i]``, the :class:`~repro.dram.timing.ReducedTimings`
    that was applied (compared by value on replay).  No per-event
    Python object stays alive, so a witness log costs 16 bytes per
    decision point.

    The field widths come from the channel's ``organization`` and the
    core count, and are checked here, once: a field whose largest
    value does not fit in 63 bits beside the others raises
    ``ValueError`` naming it.  Events are not checked; a row too
    large for the top bits overflows int64, and ``words.append``
    raises ``OverflowError``.
    """

    __slots__ = ("words", "decisions", "codes", "shifts")

    def __init__(self, organization, cores: int):
        shifts, shift = [], 1  # bit 0 is the kind
        for field, largest in (("rank", organization.ranks - 1),
                               ("bank", organization.banks - 1),
                               ("core", cores),
                               ("decision", MAX_DECISION_CODE),
                               ("row", organization.rows - 1)):
            width = largest.bit_length()
            if shift + width > 63:
                raise ValueError(
                    f"{field}: {largest} does not fit in the {63 - shift} "
                    f"bits of the log's head word left above bit {shift}")
            shifts.append(shift)
            shift += width
        self.words = array("q")
        self.decisions: List[Optional[ReducedTimings]] = [None]
        self.codes: Dict[Optional[ReducedTimings], int] = {None: 0}
        #: The lowest bit of the rank, bank, core, decision and row.
        self.shifts: Tuple[int, ...] = tuple(shifts)

    def __len__(self) -> int:
        return len(self.words) // 2

    def code(self, decision: Optional[ReducedTimings]) -> int:
        """``decision``'s code, adding it to the table if new."""
        code = self.codes.get(decision)
        if code is None:
            code = len(self.decisions)
            if code > MAX_DECISION_CODE:
                raise ValueError(
                    f"decision: more than {MAX_DECISION_CODE} distinct "
                    "reduced timings on one channel")
            self.decisions.append(decision)
            self.codes[decision] = code
        return code

    def __iter__(self):
        """Decoded events: ``("A", rank, bank, row, core_id, cycle,
        decision)`` for ``on_activate`` and ``("P", rank, bank, row,
        core_id, cycle, None)`` for ``on_precharge``."""
        decisions = self.decisions
        _, bank_shift, core_shift, code_shift, row_shift = self.shifts
        rank_mask = (1 << bank_shift - 1) - 1
        bank_mask = (1 << core_shift - bank_shift) - 1
        core_mask = (1 << code_shift - core_shift) - 1
        code_mask = (1 << row_shift - code_shift) - 1
        words = iter(self.words)
        for head, cycle in zip(words, words):
            yield ("A" if head & 1 else "P", head >> 1 & rank_mask,
                   head >> bank_shift & bank_mask, head >> row_shift,
                   (head >> core_shift & core_mask) - 1, cycle,
                   decisions[head >> code_shift & code_mask])


class RecordingMechanism:
    """Transparent mechanism wrapper that logs every decision point.

    Behaviour-preserving by construction: every call is delegated to
    the wrapped mechanism and its return value passed through, so a
    recorded run is bit-identical to an unrecorded one.  Statistics
    and any mechanism-specific attributes resolve on the inner object
    via ``__getattr__``.
    """

    def __init__(self, inner: LatencyMechanism, log: MechanismEventLog):
        self._inner = inner
        # Called after every decision point and on due ticks, and
        # logged never: bind the inner methods directly instead of
        # delegating.
        self.maintain = inner.maintain
        self.next_wake = inner.next_wake
        # The hooks are closures over the log's layout: they run once
        # per ACT and PRE, and cells read faster than attributes.
        activate, precharge = inner.on_activate, inner.on_precharge
        append, codes, code_of = log.words.append, log.codes, log.code
        _, bank_shift, core_shift, code_shift, row_shift = log.shifts

        def on_activate(rank, bank, row, core_id, cycle):
            timings = activate(rank, bank, row, core_id, cycle)
            code = codes.get(timings)
            if code is None:
                code = code_of(timings)
            append(row << row_shift | code << code_shift
                   | core_id + 1 << core_shift | bank << bank_shift
                   | rank << 1 | 1)
            append(cycle)
            return timings

        def on_precharge(rank, bank, row, core_id, cycle):
            append(row << row_shift | core_id + 1 << core_shift
                   | bank << bank_shift | rank << 1)
            append(cycle)
            precharge(rank, bank, row, core_id, cycle)

        self.on_activate = on_activate
        self.on_precharge = on_precharge

    def reset_stats(self):
        self._inner.reset_stats()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def replay_decisions_match(logs: Sequence[MechanismEventLog],
                           mechanisms: Sequence[LatencyMechanism]) -> bool:
    """Feed recorded per-channel event streams to fresh mechanisms.

    Returns True iff every ``on_activate`` decision matches the log on
    every channel — the condition under which the candidate variant's
    full run would be bit-identical to the witness's (see module
    docstring).  Stops at the first mismatch.
    """
    if len(logs) != len(mechanisms):
        raise ValueError("one mechanism per recorded channel required")
    for log, mechanism in zip(logs, mechanisms):
        if not mechanism.supports_decision_replay:
            return False
        for kind, rank, bank, row, core_id, cycle, decision in log:
            if kind == "A":
                if mechanism.on_activate(rank, bank, row, core_id,
                                         cycle) != decision:
                    return False
            else:
                mechanism.on_precharge(rank, bank, row, core_id, cycle)
    return True


def fork_for_replay(prototype: LatencyMechanism,
                    channels: int) -> Optional[List[LatencyMechanism]]:
    """Fresh per-channel mechanism instances for replay verification.

    Returns None when the mechanism does not support decision replay
    (or cannot be forked), which the batch evaluator treats as "run
    this variant in full".
    """
    if not getattr(prototype, "supports_decision_replay", False):
        return None
    try:
        return [prototype.fork_state() for _ in range(channels)]
    except NotImplementedError:
        return None
