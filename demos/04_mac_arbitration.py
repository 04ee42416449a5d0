#!/usr/bin/env python3
"""Priority-offset MAC behavior.

Priorities are encoded by delaying the start of frame one tick per level, so
clear-channel assessment lets the earliest (highest-priority) sender own the
slot.  Shows the level capacity per tick, slot arbitration outcomes, and a
three-sender saturation experiment where latency orders by priority.
"""

from rtwnsim import SlotTiming, arbitrate_slot, priority_levels
from rtwnsim.mac import TX_OFFSET_US, contention_latency_experiment, preemption_error_rate

print("== priority capacity vs tick ==")
for tick in (30, 60, 90, 120, 200, 400):
    timing = SlotTiming(priority_tick_us=tick)
    levels = priority_levels(timing)
    offsets = [TX_OFFSET_US + p * tick for p in range(min(levels, 4))]
    per = preemption_error_rate(tick, 1)
    print(f"tick {tick:3d} us: {levels:2d} levels, first offsets {offsets} us, "
          f"preemption error at distance 1: {per:.2f}")

print("\n== one slot, three contenders ==")
timing = SlotTiming(priority_tick_us=60)
contenders = [("urgent", 0), ("routine", 1), ("bulk", 3)]  # (sender, level)
outcomes = arbitrate_slot([level for _, level in contenders], timing, [True] * 3)
for (sender, level), outcome in zip(contenders, outcomes):
    print(f"  {sender:8s} (level {level}): {outcome.value}")

print("equal levels cannot hear each other:",
      [o.value for o in arbitrate_slot([2, 2], timing, [True, True])])

print("\n== saturated three-sender experiment ==")
stats = contention_latency_experiment(seed=6, frames=30_000)
for prio, s in stats.items():
    print(f"priority {prio}: sent {s.sent}, drop rate {s.drop_rate:.3f}, "
          f"mean latency {s.mean_latency_frames:.2f} frames")
