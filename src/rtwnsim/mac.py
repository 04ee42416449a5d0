"""Slot-level model of the multi-priority MAC.

Priority is encoded implicitly: a transmission's start-of-frame offset grows
by one tick per priority level, and every sender performs clear-channel
assessment first, so whoever starts earliest (numerically lowest level) owns
the slot and later senders defer.  Two senders at the same level start
simultaneously, cannot hear each other, and collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "SlotTiming",
    "TxOutcome",
    "priority_levels",
    "check_tick",
    "arbitrate_slot",
    "preemption_error_rate",
    "contention_latency_experiment",
]


# Hardware slot timing in microseconds.  A transmission at priority level p
# starts TX_OFFSET_US + p * tick into the slot, and the slot is extended from
# SLOT_US to EXT_SLOT_US; priority_levels counts the ticks the extension
# holds.  The largest offset, TX_OFFSET_US + (800 // tick) * tick, is at most
# 2,920 us, inside the extended slot for every positive tick.
SLOT_US = 10_000
EXT_SLOT_US = 10_800
TX_OFFSET_US = 2_120

# The levels a run's two senders use.  The disturbed route's dynamic
# (rhythmic) transmission starts a tick before any static periodic one, so a
# periodic sender contending for its slot hears it during CCA and defers:
# the rhythmic packets the disturbance plan relies on are never preempted.
RHYTHMIC_PRIORITY = 0
PERIODIC_PRIORITY = 1


@dataclass(frozen=True)
class SlotTiming:
    """The per-level start-of-frame offset step, in microseconds."""

    priority_tick_us: int = 60

    def __post_init__(self) -> None:
        if self.priority_tick_us <= 0:
            raise ValueError("priority tick must be positive")


class TxOutcome(str, Enum):
    WON_DELIVERED = "won_delivered"
    WON_LOST = "won_lost"
    DEFERRED = "deferred"
    COLLIDED = "collided"


def priority_levels(timing: SlotTiming) -> int:
    """Levels the slot extension supports: floor(extension / tick) + 1."""
    return (EXT_SLOT_US - SLOT_US) // timing.priority_tick_us + 1


def arbitrate_slot(
    priorities: Sequence[int],
    timing: SlotTiming,
    link_success: Sequence[bool],
) -> list[TxOutcome]:
    """Resolve one slot's contention among senders at the given priority
    levels (0 = highest).

    A unique highest-priority sender transmits; its delivery follows its link
    draw.  Strictly lower-priority senders hear the earlier start-of-frame
    during CCA and defer without transmitting.  A tie at the top level means
    the tied senders transmit simultaneously and all collide.
    """
    if len(link_success) != len(priorities):
        raise ValueError("need one link draw per contender")
    if not priorities:
        return []
    levels = priority_levels(timing)
    for level in priorities:
        if not 0 <= level < levels:
            raise ValueError(f"priority {level} outside the slot's level range 0..{levels - 1}")
    top = min(priorities)
    tied = sum(level == top for level in priorities) > 1
    outcomes: list[TxOutcome] = []
    for level, up in zip(priorities, link_success):
        if level != top:
            outcomes.append(TxOutcome.DEFERRED)
        elif tied:
            outcomes.append(TxOutcome.COLLIDED)
        else:
            outcomes.append(TxOutcome.WON_DELIVERED if up else TxOutcome.WON_LOST)
    return outcomes


# Preemption error rates read off hardware measurements: below 60 us the
# loser's CCA window starts missing the winner's start-of-frame.  Keyed by the
# priority distance between the top two contenders.
PER_TABLE: dict[int, float] = {1: 0.10, 2: 0.05}


def check_tick(tick_us: int) -> None:
    """Reject a tick the preemption-error measurements do not cover."""
    if not (30 <= tick_us <= 400):
        raise ValueError("tick must lie in the supported 30..400 us range")


def preemption_error_rate(tick_us: int, priority_distance: int) -> float:
    """Probability that the high-priority winner is corrupted by a contender.

    Zero for ticks of 60 us and above; at smaller ticks the rate falls as the
    priority distance grows.
    """
    check_tick(tick_us)
    if priority_distance < 1:
        raise ValueError("priority distance must be >= 1")
    if tick_us >= 60:
        return 0.0
    return PER_TABLE.get(priority_distance, PER_TABLE[max(PER_TABLE)])


@dataclass(frozen=True)
class SenderStats:
    sent: int
    delivered: int
    dropped: int
    drop_rate: float
    mean_latency_frames: float


def contention_latency_experiment(seed: int, frames: int) -> dict[int, SenderStats]:
    """Three senders at levels 0, 1 and 2 sharing one slot per frame at a
    60 us tick, retrying on deferral.

    Every frame each idle sender generates a packet with probability 0.6; all
    pending packets contend in the shared slot.  A deferred packet retries in
    the next frame; after 5 failed attempts it is dropped.  Returns
    per-priority drop rate and mean delivery latency in frames: the top
    priority never loses a contention, so its drop rate is exactly zero, and
    mean latency grows as priority falls.
    """
    timing, arrival_prob, max_retries, priorities = SlotTiming(), 0.6, 5, (0, 1, 2)
    rng = np.random.default_rng(seed)
    pending: dict[int, Optional[list[int]]] = {p: None for p in priorities}  # [born, attempts]
    stats = {p: [0, 0, 0, 0] for p in priorities}  # sent, delivered, dropped, latency sum

    for frame in range(frames):
        for p in priorities:
            if pending[p] is None and rng.random() < arrival_prob:
                pending[p] = [frame, 0]
                stats[p][0] += 1
        waiting = [(p, pending[p]) for p in priorities if pending[p] is not None]
        if not waiting:
            continue
        outcomes = arbitrate_slot([p for p, _ in waiting], timing, [True] * len(waiting))
        for (p, packet), outcome in zip(waiting, outcomes):
            if outcome is TxOutcome.WON_DELIVERED:
                stats[p][1] += 1
                stats[p][3] += frame - packet[0] + 1
                pending[p] = None
            else:
                packet[1] += 1
                if packet[1] > max_retries:
                    stats[p][2] += 1
                    pending[p] = None

    result = {}
    for p in priorities:
        sent, delivered, dropped, latency = stats[p]
        result[p] = SenderStats(
            sent=sent,
            delivered=delivered,
            dropped=dropped,
            drop_rate=dropped / sent if sent else 0.0,
            mean_latency_frames=latency / delivered if delivered else float("inf"),
        )
    return result
