#!/usr/bin/env python3
"""Static schedule synthesis for the seven-node bench network.

Builds the earliest-deadline-first slot table for three tasks with
retransmission budgets and prints the first two hyperperiods as a timeline.
"""

from rtwnsim import (
    Link,
    NetworkModel,
    SchedulingMode,
    TaskSpec,
    build_static_schedule,
    verify_schedulable,
)
from rtwnsim.static_schedule import hyperperiod

net = NetworkModel(
    nodes=("V0", "V1", "V2", "V3", "V4", "V5", "Vc"),
    controller="Vc",
    links=tuple(
        Link(a, b, 0.9)
        for a, b in [
            ("V0", "V1"), ("V1", "Vc"), ("Vc", "V3"), ("V3", "V4"),
            ("V2", "Vc"), ("Vc", "V5"),
        ]
    ),
)
tasks = (
    TaskSpec(id=0, path=("V0", "V1", "Vc", "V3", "V4"), period=15, deadline=15,
             slot_budget=8, phase=1),
    TaskSpec(id=1, path=("V2", "Vc", "V3"), period=30, deadline=30, slot_budget=6, phase=1),
    TaskSpec(id=2, path=("V1", "Vc", "V5"), period=20, deadline=20, slot_budget=4, phase=1),
)

result = build_static_schedule(tasks, net, SchedulingMode.TBS, required_pdr=0.95, horizon=121)
print(f"feasible: {result.feasible}, hyperperiod: {hyperperiod(tasks)} slots")
print(f"per-task budgets: { {tid: sum(rv) for tid, rv in result.retry_vectors.items()} }")
print(f"retry vectors:    {result.retry_vectors}")
verdict = verify_schedulable(result, tasks, net, 0.95)
print(f"independent verification: {'ok' if verdict.ok else verdict.violations[0]}")

print("\nslot timeline (task.hop, '.' idle):")
sched = result.schedule
task_at, hop_at = sched.task_at.tolist(), sched.hop_at.tolist()  # task -1 marks an idle slot
by_id = {t.id: t for t in tasks}
for base in range(0, 120, 30):
    row = [f"{task_at[t]}.{hop_at[t]}" if task_at[t] >= 0 else " . " for t in range(base, base + 30)]
    print(f"  {base:3d}+ " + " ".join(f"{c:>3}" for c in row))

print("\nsender/receiver of the first ten transmissions:")
for t in [t for t, task in enumerate(task_at) if task >= 0][:10]:
    sender, receiver = by_id[task_at[t]].hop_link(hop_at[t])
    print(f"  slot {t:3d}: task {task_at[t]} hop {hop_at[t]}  {sender} -> {receiver}")
