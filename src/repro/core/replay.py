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

from typing import List, Optional, Sequence, Tuple

from repro.core.timing_policy import LatencyMechanism


class MechanismEventLog:
    """Per-channel log of one run's mechanism decision points.

    Events are tuples, in call order:

    * ``("A", rank, bank, row, core_id, cycle, decision)`` for
      ``on_activate``, where ``decision`` is ``None`` (default
      timings) or the :class:`~repro.dram.timing.ReducedTimings` that
      was applied (compared by value on replay);
    * ``("P", rank, bank, row, core_id, cycle)`` for ``on_precharge``.
    """

    __slots__ = ("events",)

    def __init__(self):
        self.events: List[Tuple] = []

    def __len__(self) -> int:
        return len(self.events)


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
        self._activate = inner.on_activate
        self._precharge = inner.on_precharge
        self._append = log.events.append

    def on_activate(self, rank, bank, row, core_id, cycle):
        timings = self._activate(rank, bank, row, core_id, cycle)
        self._append(("A", rank, bank, row, core_id, cycle, timings))
        return timings

    def on_precharge(self, rank, bank, row, core_id, cycle):
        self._append(("P", rank, bank, row, core_id, cycle))
        self._precharge(rank, bank, row, core_id, cycle)

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
        for event in log.events:
            if event[0] == "A":
                _, rank, bank, row, core_id, cycle, decision = event
                if mechanism.on_activate(rank, bank, row, core_id,
                                         cycle) != decision:
                    return False
            else:
                _, rank, bank, row, core_id, cycle = event
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
