"""EDF static schedule synthesis and verification."""

import dataclasses

import numpy as np
import pytest

from rtwnsim.model import (
    ScheduleInfeasible,
    SchedulingMode,
    TaskSpec,
    generate_taskset,
    packet_pdr,
    random_chain_network,
)
from rtwnsim.static_schedule import (
    Schedule,
    build_static_schedule,
    hop_expansion,
    hyperperiod,
    plan_retry_vectors,
    verify_schedulable,
)

from support import chain_network, raised, testbed


def test_single_task_layout():
    net = chain_network(1, 1, pdr=1.0)
    task = TaskSpec(id=0, path=("S1", "C", "A1"), period=4, deadline=4)
    result = build_static_schedule((task,), net, SchedulingMode.TBS, 0.9, horizon=4)
    assert result.feasible
    sched = result.schedule
    assert sched.task_at.tolist() == [0, 0, -1, -1]
    assert sched.hop_at[:2].tolist() == [1, 2]


def test_testbed_set_is_feasible():
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    result = build_static_schedule(tasks, net, SchedulingMode.TBS, 0.95, horizon=240)
    assert result.feasible
    assert hyperperiod(tasks) == 60
    assert {tid: sum(rv) for tid, rv in result.retry_vectors.items()} == {0: 8, 1: 6, 2: 4}
    assert verify_schedulable(result, tasks, net, 0.95).ok


def test_overloaded_set_is_infeasible():
    net = chain_network(1, 1, pdr=1.0)
    tasks = (
        TaskSpec(id=0, path=("S1", "C", "A1"), period=3, deadline=3),
        TaskSpec(id=1, path=("S1", "C", "A1"), period=3, deadline=3),
    )
    result = build_static_schedule(tasks, net, SchedulingMode.TBS, 0.9, horizon=3)
    assert not result.feasible
    assert result.first_failure is not None


def test_schedule_and_build_name_bad_inputs():
    net = chain_network(1, 1)
    task = TaskSpec(id=0, path=("S1", "C", "A1"), period=10, deadline=10)
    short = np.full(3, -1, np.int32)
    assert raised(lambda: Schedule(SchedulingMode.TBS, 4, short, np.full(4, -1, np.int64), np.zeros(4, np.int16))) == (
        ValueError, "schedule arrays must match the horizon")
    assert raised(lambda: build_static_schedule([], net, SchedulingMode.TBS, 0.99, 10)) == (
        ValueError, "need at least one task")
    assert raised(lambda: build_static_schedule([task, task], net, SchedulingMode.TBS, 0.99, 10)) == (
        ValueError, "duplicate task ids")


def test_budget_below_reliability_minimum_rejected():
    net = chain_network(1, 1, pdr=0.9)
    task = TaskSpec(id=0, path=("S1", "C", "A1"), period=20, deadline=20, slot_budget=2)
    with pytest.raises(ScheduleInfeasible):
        build_static_schedule((task,), net, SchedulingMode.TBS, 0.95, horizon=20)


def test_budget_padding_is_round_robin():
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    vectors = plan_retry_vectors(tasks, net, 0.95)
    assert vectors == {0: (2, 2, 2, 2), 1: (3, 3), 2: (2, 2)}
    assert hop_expansion(vectors[1], 6) == [1, 1, 1, 2, 2, 2]
    # A count below the budget cuts the labels; one above it keeps them all.
    assert hop_expansion(vectors[1], 4) == [1, 1, 1, 2]
    assert hop_expansion(vectors[1], 9) == [1, 1, 1, 2, 2, 2]
    # A part round goes to the first hops; a budget of 2**31 + 1 slots is
    # padded at once, not one slot at a time.
    for budget, expected in [(11, (3, 3, 3, 2)), (2**31 + 1, (2**29 + 1, 2**29, 2**29, 2**29))]:
        task = dataclasses.replace(tasks[0], slot_budget=budget)
        assert plan_retry_vectors((task,), net, 0.95) == {0: expected}


def test_verify_flags_removed_slot():
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    result = build_static_schedule(tasks, net, SchedulingMode.TBS, 0.95, horizon=240)
    slot = int(result.schedule.packet_slots(1, 1)[0])
    result.schedule.task_at[slot] = -1
    verdict = verify_schedulable(result, tasks, net, 0.95)
    assert not verdict.ok
    assert "task 1" in verdict.violations[0]


def test_verify_flags_hop_order_violation():
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    result = build_static_schedule(tasks, net, SchedulingMode.TBS, 0.95, horizon=240)
    slots = result.schedule.packet_slots(2, 1)
    first, last = int(slots[0]), int(slots[-1])
    h = result.schedule.hop_at
    h[first], h[last] = h[last], h[first]
    verdict = verify_schedulable(result, tasks, net, 0.95)
    assert not verdict.ok
    assert "hop ordering" in " ".join(verdict.violations)


def _move_last_slot_out_of_window(sched, slots):
    """Hand the packet's last slot to the first idle slot past its deadline
    (slot 31 for task 1's packet released at 1)."""
    idle = int(np.nonzero(sched.task_at[31:] == -1)[0][0]) + 31
    last = int(slots[-1])
    for arr, free in ((sched.task_at, -1), (sched.release_at, -1), (sched.hop_at, 0)):
        arr[idle], arr[last] = arr[last], free


def _drop_first_slot(sched, slots):
    sched.task_at[int(slots[0])] = -1


def _relabel_last_first_hop_slot(sched, slots):
    # Labels 1,1,1,2,2,2 become 1,1,2,2,2,2: still ordered, wrong per hop.
    sched.hop_at[int(slots[2])] = 2


@pytest.mark.parametrize("mode, fault, violation", [
    (SchedulingMode.TBS, _move_last_slot_out_of_window, "task 1 release 1: slot outside [release, deadline)"),
    (SchedulingMode.PBS, _move_last_slot_out_of_window, "task 1 release 1: slot outside [release, deadline)"),
    (SchedulingMode.PBS, _drop_first_slot, "task 1 release 1: 5 slots assigned, budget 6"),
    (SchedulingMode.TBS, _relabel_last_first_hop_slot, "task 1 release 1: per-hop counts != retry vector"),
], ids=["outside_window_tbs", "outside_window_pbs", "count_pbs", "hop_counts"])
def test_verify_names_each_injected_fault(mode, fault, violation):
    # Each fault breaks one rule for task 1's packet released at slot 1
    # (window [1, 31), retry vector (3, 3)); the verifier names exactly it.
    # The TBS slot-count and hop-ordering faults are the two tests above.
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    result = build_static_schedule(tasks, net, mode, 0.95, horizon=240)
    assert verify_schedulable(result, tasks, net, 0.95).ok
    fault(result.schedule, result.schedule.packet_slots(1, 1))
    assert verify_schedulable(result, tasks, net, 0.95).violations == (violation,)


@pytest.mark.parametrize("mode", [SchedulingMode.TBS, SchedulingMode.PBS])
def test_verify_names_a_reliability_shortfall(mode):
    # The budgets were sized for links of pdr 0.9; over links of pdr 0.5
    # every task misses the requirement, and each is named once.
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    result = build_static_schedule(tasks, net, mode, 0.95, horizon=240)
    violations = verify_schedulable(result, tasks, testbed(0.5).network, 0.95).violations
    assert [v.split(":")[0] for v in violations] == ["task 0", "task 1", "task 2"]
    assert all("below requirement 0.95" in v for v in violations)


def test_determinism():
    net = random_chain_network(3)
    tasks = tuple(generate_taskset(3, 0.5, net, max_period=60))
    a = build_static_schedule(tasks, net, SchedulingMode.TBS, 0.99, horizon=400)
    b = build_static_schedule(tasks, net, SchedulingMode.TBS, 0.99, horizon=400)
    assert np.array_equal(a.schedule.task_at, b.schedule.task_at)
    assert np.array_equal(a.schedule.release_at, b.schedule.release_at)
    assert np.array_equal(a.schedule.hop_at, b.schedule.hop_at)


def test_pbs_assigns_budget_without_hop_pinning():
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    result = build_static_schedule(tasks, net, SchedulingMode.PBS, 0.95, horizon=240)
    assert result.feasible
    assert verify_schedulable(result, tasks, net, 0.95).ok
    assert int(result.schedule.hop_at.max()) == 0
    assert len(result.schedule.packet_slots(0, 1)) == 8


def test_random_feasible_schedules_verify():
    for seed in range(40):
        net = random_chain_network(seed, in_depth=3, out_depth=3)
        tasks = tuple(generate_taskset(seed, 0.6, net, hop_range=(2, 6), max_period=60))
        if not tasks:
            continue
        result = build_static_schedule(tasks, net, SchedulingMode.TBS, 0.99, horizon=360)
        assert result.feasible, f"seed {seed} generated an unschedulable set"
        verdict = verify_schedulable(result, tasks, net, 0.99)
        assert verdict.ok, verdict.violations
        for task in tasks:
            rv = result.retry_vectors[task.id]
            assert packet_pdr(net.path_pdrs(task.path), rv) >= 0.99


def _hop_blocks(sched: Schedule, task: TaskSpec, release: int) -> list[tuple[int, int]]:
    """(first slot, last slot) per hop transmission of one packet."""
    slots = sched.packet_slots(task.id, release, until=release + task.deadline)
    blocks: dict[int, list[int]] = {}
    for s in slots:
        blocks.setdefault(int(sched.hop_at[s]), []).append(int(s))
    return [(min(v), max(v)) for _, v in sorted(blocks.items())]


def test_idle_slot_between_consecutive_transmissions():
    """Among any three consecutive hop transmissions of a task at a
    non-controller node there is a slot where that node is uninvolved.

    This is the schedulability property the disturbance-notification window
    relies on; checked empirically over 500 random feasible instances.
    """
    checked = 0
    seed = 0
    while checked < 500:
        seed += 1
        net = random_chain_network(seed, in_depth=3, out_depth=3)
        tasks = tuple(generate_taskset(seed, 0.7, net, hop_range=(2, 6), max_period=50))
        if not tasks:
            continue
        result = build_static_schedule(tasks, net, SchedulingMode.TBS, 0.99, horizon=200)
        if not result.feasible:
            continue
        sched = result.schedule
        by_id = {t.id: t for t in tasks}

        def busy_at(node: str, t: int) -> bool:
            tid = int(sched.task_at[t])
            if tid < 0:
                return False
            hop = int(sched.hop_at[t])
            sender, receiver = by_id[tid].hop_link(hop)
            return node in (sender, receiver)

        for task in tasks:
            for node in task.path:
                if node == net.controller:
                    continue
                events: list[tuple[int, int]] = []  # hop blocks at this node
                k = 0
                while task.nominal_deadline(k) <= sched.horizon:
                    for lo, hi in _hop_blocks(sched, task, task.release(k)):
                        sender, receiver = by_id[task.id].hop_link(int(sched.hop_at[lo]))
                        if node in (sender, receiver):
                            events.append((lo, hi))
                    k += 1
                events.sort()
                for i in range(len(events) - 2):
                    lo = events[i][1]
                    hi = events[i + 2][0]
                    assert any(
                        not busy_at(node, t) for t in range(lo + 1, hi)
                    ), f"seed {seed}: node {node} task {task.id} has no idle slot in ({lo}, {hi})"
                checked += 1
                if checked >= 500:
                    return
