#!/usr/bin/env python3
"""Disturbance handling end to end on the bench scenario.

A disturbance detected at slot 46 shortens the four-hop task's period from 15
to 12 for five packets.  The route's nodes derive a dynamic schedule locally:
this script shows the end-point candidates, the drop decision at both
granularities, the resulting overlay, and the simulated outcome in which the
preempted periodic transmissions are visible.
"""

from pathlib import Path

from rtwnsim import EVENT_FIELDS, SchedulingMode, build_static_schedule, generate_dynamic_schedule, run
from rtwnsim.config import parse_scenario
from rtwnsim.rhythmic import end_point_upper_bound

cfg = parse_scenario(Path(__file__).resolve().parent.parent / "scenarios" / "testbed.yaml")
net, tasks, event = cfg.network, cfg.tasks, cfg.event()
print(f"detected at slot {event.detect_slot}; short-period state "
      f"[{event.enter_slot}, {event.exit_slot})")
print(f"notified nodes: {tasks[0].path}")

static = build_static_schedule(tasks, net, SchedulingMode.TBS, 0.95, horizon=260)

# Every node on the route derives the plans from the same inputs; one call
# plans both dropping levels over the same end-point candidates.
levels = ("packet", "transmission")
for level, plan in zip(levels, generate_dynamic_schedule(event, static.schedule, tasks, net, 0.95, 4, levels)):
    print(f"\n== {level}-level dropping ==")
    print(f"candidates evaluated: {plan.evaluations}")
    print(f"chosen end point: {plan.end_point} "
          f"(bound {end_point_upper_bound(event, 4)})")
    if level == "packet":
        print(f"dropped packets: {plan.decision.dropped_packets}")
    else:
        print(f"dropped slots:   {plan.decision.dropped_slots}")
    print(f"per-packet degradation: {plan.decision.degradations}")
    print(f"total degradation: {plan.decision.total_degradation:.4f}")

print("\n== simulated run (packet-level) ==")
trace, metrics = run(cfg)
print(f"response latency {metrics.drt_slots} slots, window length {metrics.dhl_slots}, "
      f"success={metrics.success}")
print(f"mean degradation over {metrics.periodic_in_window} in-window periodic "
      f"packets: {metrics.degradation_rate:.4f}")
print("preempted periodic transmissions (sender kept its static slot and "
      "deferred to the high-priority packet):")
for slot, kind, *values in trace.events:
    f = dict(zip(EVENT_FIELDS[kind], values))
    if kind == "outcome" and f["result"] == "deferred":
        print(f"  slot {slot}: task {f['task']} hop {f['hop']} from {f['sender']}")
for tid, stats in metrics.per_task.items():
    print(f"task {tid}: released {stats.released}, delivered {stats.delivered}, "
          f"missed {stats.missed}, dropped {stats.dropped}")
