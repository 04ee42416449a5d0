"""Disturbance windows, end-point candidates, active packet sets and the
idle-slot witness."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtwnsim.config import parse_scenario
from rtwnsim.dropping import build_periodic_state, build_transmission_vectors
from rtwnsim.model import (
    CandidateInfeasible,
    DisturbanceInfeasible,
    RhythmicSpec,
    SchedulingMode,
    TaskSpec,
    chain_network,
    generate_taskset,
    random_chain_network,
)
from rtwnsim.rhythmic import (
    DisturbanceEvent,
    ScheduleSpan,
    actual_releases,
    build_active_sets,
    end_point_candidates,
    end_point_upper_bound,
    find_idle_slot,
)
from rtwnsim.static_schedule import build_static_schedule

import dropping_reference as oracle
from dropping_reference import build_demand_vector
from support import active_sets, empty_schedule, sets_outcome


def _event(period=10, phase=0, instance=1, periods=(8,), deadline=None):
    task = TaskSpec(
        id=0,
        path=("S1", "C", "A1"),
        period=period,
        deadline=deadline or period,
        rhythmic=RhythmicSpec(tuple(periods), tuple(periods)),
        phase=phase,
    )
    return task, DisturbanceEvent.from_task(task, instance)


# ----------------------------------------------------------- release timing

def test_event_timing_fields():
    _, event = _event(period=10, instance=3, periods=(4, 6))
    assert event.detect_slot == 30
    assert event.enter_slot == 40
    assert event.exit_slot == 50


def test_actual_releases_snap_to_grid():
    # Off-grid state exit: the release after it snaps backward onto the grid.
    _, event = _event(period=15, instance=2, periods=(12, 12))
    assert event.enter_slot == 45 and event.exit_slot == 69
    assert actual_releases(event, 120) == [45, 57, 69, 75, 90, 105, 120]


def test_actual_releases_grid_aligned_exit():
    _, event = _event(period=15, instance=2, periods=(15, 15))
    # Exit lands on the grid; the sequence continues naturally.
    assert actual_releases(event, 120) == [45, 60, 75, 90, 105, 120]


# ------------------------------------------------------ end point candidates

def test_candidates_are_filtered_releases():
    _, event = _event(period=10, instance=9, periods=(10, 10, 10))
    # releases: 100, 110, 120, 130 (exit), 140, ...
    assert end_point_candidates(event, f_last=105, beta=1) == [110, 120, 130]
    assert end_point_candidates(event, f_last=110, beta=1)[0] == 110  # closed lower bound


def test_candidates_sorted_unique_and_bounded():
    for seed in range(20):
        periods = tuple(int(p) for p in np.random.default_rng(seed).integers(5, 15, 3))
        periods = tuple(sorted(periods))
        task = TaskSpec(id=0, path=("S1", "C", "A1"), period=20, deadline=20,
                        rhythmic=RhythmicSpec(periods, periods))
        event = DisturbanceEvent.from_task(task, 2)
        f_last = event.enter_slot + sum(periods[:-1]) + task.hops
        upper = end_point_upper_bound(event, 4)
        cands = end_point_candidates(event, f_last, 4)
        assert cands == sorted(set(cands))
        assert all(f_last <= c <= upper for c in cands)


def test_candidates_singleton_at_boundary():
    _, event = _event(period=10, instance=9, periods=(10, 10, 10))
    upper = end_point_upper_bound(event, 1)
    assert end_point_candidates(event, f_last=upper, beta=1) == [upper]


def test_candidates_empty_is_an_error():
    _, event = _event(period=10, instance=9, periods=(10, 10, 10))
    with pytest.raises(DisturbanceInfeasible):
        end_point_candidates(event, f_last=end_point_upper_bound(event, 1) + 1, beta=1)


def test_candidates_testbed_enumeration():
    # Stepped releases 61..109, state exit 121 (on the phase-1 grid), then
    # grid releases; upper bound 121 + 3*15 = 166.
    task = TaskSpec(
        id=0, path=("V0", "V1", "Vc", "V3", "V4"), period=15, deadline=15,
        rhythmic=RhythmicSpec((12,) * 5, (12,) * 5), phase=1,
    )
    event = DisturbanceEvent.from_task(task, 3)
    assert event.enter_slot == 61 and event.exit_slot == 121
    assert end_point_upper_bound(event, 4) == 166
    f_last = 109 + task.hops
    assert end_point_candidates(event, f_last, beta=4) == [121, 136, 151, 166]


# --------------------------------------------------------- active packet sets

def _schedule_for(tasks, net, horizon, required=0.99):
    return build_static_schedule(tasks, net, SchedulingMode.TBS, required, horizon=horizon)


def test_active_sets_no_boundary_at_aligned_release():
    net = chain_network(1, 1, pdr=1.0)
    task, event = _event(period=10, instance=1, periods=(10,))
    result = _schedule_for((task,), net, 80)
    # exit = 30 on grid; candidate 40 follows the on-grid release at 30 whose
    # nominal deadline is exactly 40: whole packets only, no adjustment.
    sets = active_sets(40, event, result.schedule, (task,), full_demand=2)
    assert sets.boundary_case == 0
    assert sets.resume_release == 40
    assert [d.release for d in sets.rhythmic] == [20, 30]
    assert all(d.demand == 2 and not d.tail_slots for d in sets.rhythmic)


def test_active_sets_windows_disjoint_and_periodic_membership():
    for seed in range(25):
        net = random_chain_network(seed, 3, 3)
        tasks = generate_taskset(seed, 0.6, net, hop_range=(2, 5), max_period=40)
        if not tasks:
            continue
        task = tasks[0]
        spec = RhythmicSpec((max(3, task.period // 2),) * 3, (max(3, task.period // 2),) * 3)
        event = DisturbanceEvent.from_task(task, 1, spec)
        horizon = end_point_upper_bound(event, 4) + 2 * max(t.period for t in tasks)
        result = _schedule_for(tasks, net, horizon)
        if not result.feasible:
            continue
        span = ScheduleSpan(event, result.schedule, tasks, 4)
        for cand in end_point_candidates(event, event.exit_slot - spec.periods[-1] + task.hops, 4):
            try:
                sets = build_active_sets(cand, event, span, task.hops)
            except Exception:
                continue
            windows = [(d.release, d.deadline) for d in sets.rhythmic]
            for (a1, b1), (a2, b2) in zip(windows, windows[1:]):
                assert b1 <= a2, "windows must be pairwise disjoint"
            for lo, hi in windows:
                assert event.enter_slot <= lo < hi <= cand
            arr = result.schedule
            for tid, rel in sets.periodic:
                slots = arr.packet_slots(tid, rel)
                assert ((slots >= event.enter_slot) & (slots < cand)).any()


def test_active_sets_reject_a_candidate_at_the_window_start():
    # The window [enter, candidate) of a candidate at the enter slot is
    # empty: no packet could be placed in it.
    net = chain_network(1, 1, pdr=1.0)
    task, event = _event(period=10, instance=1, periods=(10,))
    result = _schedule_for((task,), net, 80)
    with pytest.raises(CandidateInfeasible, match="^end point must lie after the window start$"):
        active_sets(event.enter_slot, event, result.schedule, (task,), full_demand=2)


def test_active_sets_case2_deadline_clipped_to_static_takeover():
    # State exit at 115 (off grid); at candidate 115 the packet released at
    # 101 is the boundary: the grid instance at 105 resumes statically and the
    # boundary deadline clips to that instance's first slot.
    net = chain_network(1, 1, pdr=1.0)
    task = TaskSpec(
        id=0, path=("S1", "C", "A1"), period=15, deadline=15,
        rhythmic=RhythmicSpec((14,) * 5, (14,) * 5), phase=0,
    )
    event = DisturbanceEvent.from_task(task, 2)
    assert event.enter_slot == 45 and event.exit_slot == 115
    result = _schedule_for((task,), net, 180)
    sets = active_sets(115, event, result.schedule, (task,), full_demand=2)
    assert sets.boundary_case == 2
    assert sets.resume_release == 105
    t1 = int(result.schedule.packet_slots(0, 105)[0])
    assert t1 < 115
    boundary = sets.rhythmic[-1]
    assert boundary.release == 101
    assert boundary.deadline == min(115, t1)
    assert boundary.demand == 2 and boundary.tail_slots == ()


def test_active_sets_case1_truncates_demand():
    # Hand-built schedule: the disturbed task's grid instance at 20 owns slots
    # 25, 27, 28; candidate 28 sits before the realigned release at 30 and the
    # first task slot at/after it is that instance's third slot, so the
    # boundary packet needs only two dynamic slots and takes over slot 28.
    task, event = _event(period=10, instance=1, periods=(8,))
    assert event.enter_slot == 20 and event.exit_slot == 28
    sched = empty_schedule(SchedulingMode.TBS, 60)
    for slot, hop in [(25, 1), (27, 1), (28, 2)]:
        sched.task_at[slot] = 0
        sched.release_at[slot] = 20
        sched.hop_at[slot] = hop
    for slot, hop in [(31, 1), (33, 1), (34, 2)]:
        sched.task_at[slot] = 0
        sched.release_at[slot] = 30
        sched.hop_at[slot] = hop
    sets = active_sets(28, event, sched, (task,), full_demand=3)
    assert sets.boundary_case == 1
    assert sets.resume_release == 30
    boundary = sets.rhythmic[-1]
    assert boundary.release == 20
    assert boundary.deadline == 28
    assert boundary.demand == 2
    assert boundary.tail_slots == (28,)
    assert boundary.prefix_hops == (1, 1)
    # Every slot of [20, 28) is idle or the task's own: more than the demand,
    # so nothing is left to cover.  The frozen builder counts the same.
    assert boundary.available == 8 and sets.residual == (0,)
    assert build_demand_vector(sets, sched, 0, full_demand=3) == ((2,), (8,))


def test_active_sets_case1_full_demand_when_takeover_impossible():
    # Same shape but the instance at 20 has no slots at/after the candidate:
    # the first task slot after the end point belongs to the realigned
    # instance, so the boundary packet carries its full demand.
    task, event = _event(period=10, instance=1, periods=(8,))
    sched = empty_schedule(SchedulingMode.TBS, 60)
    for slot, hop in [(21, 1), (22, 1), (23, 2)]:
        sched.task_at[slot] = 0
        sched.release_at[slot] = 20
        sched.hop_at[slot] = hop
    for slot, hop in [(31, 1), (33, 1), (34, 2)]:
        sched.task_at[slot] = 0
        sched.release_at[slot] = 30
        sched.hop_at[slot] = hop
    sets = active_sets(28, event, sched, (task,), full_demand=3)
    assert sets.boundary_case == 1
    boundary = sets.rhythmic[-1]
    assert boundary.demand == 3
    assert boundary.tail_slots == ()


# The periodic tasks of ``_span_cases``: three hops each, so that every drawn
# TBS label is one of theirs, with deadlines below and above the drawn
# release offsets.
_SPAN_TASKS = (TaskSpec(id=1, path=("S3", "S2", "S1", "C"), period=6, deadline=6),
               TaskSpec(id=2, path=("S2", "S1", "C", "A1"), period=14, deadline=14))
_SPAN_NETWORK = chain_network(3, 1, pdr=0.9)


@st.composite
def _span_cases(draw):
    """A disturbed task 0 (period 4-12, a ramp of one to three steps, latency
    bound beta 1-3) over a drawn static schedule in TBS or PBS: runs of
    slots that are idle, task 0's (each labelled with the grid instance
    holding it) or one of the two periodic tasks of ``_SPAN_TASKS`` (the
    release of that task's previous run, as a preempted packet resumes, or
    one up to ten slots back, so some of task 1's slots lie past its
    deadline).  The horizon falls anywhere from before the window start to
    two periods past the latest end point.  Each slot is a (task, release,
    hop) cell."""
    mode = draw(st.sampled_from(list(SchedulingMode)))
    period = draw(st.integers(4, 12))
    phase = draw(st.integers(0, period - 1))
    instance = draw(st.integers(0, 2))
    periods = tuple(sorted(draw(st.lists(st.integers(2, period), min_size=1, max_size=3))))
    beta = draw(st.integers(1, 3))
    full_demand = draw(st.integers(1, 4))
    enter = phase + (instance + 1) * period
    upper = enter + sum(periods) + (beta - 1) * period
    horizon = draw(st.integers(enter - 2, upper + 2 * period))
    cells: list[tuple[int, int, int]] = []
    resumed: dict[int, int] = {}  # each periodic task's latest release
    while len(cells) < horizon:
        owner, start = draw(st.integers(-1, 2)), len(cells)
        release = start - draw(st.integers(0, 10))
        if owner in resumed and draw(st.booleans()):
            release = resumed[owner]
        resumed[owner] = release
        for slot in range(start, min(horizon, start + draw(st.integers(1, 4)))):
            hop = 0 if mode is SchedulingMode.PBS else draw(st.integers(1, 3))
            if owner == 0 and slot >= phase:
                cells.append((0, slot - (slot - phase) % period, hop))
            elif owner > 0 and release >= 0:
                cells.append((owner, release, hop))
            else:
                cells.append((-1, -1, 0))
    return mode, period, phase, instance, periods, beta, full_demand, cells


# The grid instance released at 20 owns slots 25, 27 and 28, across the
# latest end point 28: candidates 27 and 28 take over its static tail
# (boundary case 1 with demand k0 - 1), which no seeded trial reaches.
_TAKEOVER = [{21: (1, 18, 1), 22: (1, 18, 1), 23: (1, 18, 2), 25: (0, 20, 1), 27: (0, 20, 1), 28: (0, 20, 2),
              31: (0, 30, 1), 33: (0, 30, 1), 34: (0, 30, 2)}.get(slot, (-1, -1, 0)) for slot in range(40)]


def _span_case(case):
    """The disturbed task, its event, the static schedule, the task set and
    the schedule span of a ``_span_cases`` case."""
    mode, period, phase, instance, periods, beta, full_demand, cells = case
    task = TaskSpec(id=0, path=("S1", "C", "A1"), period=period, deadline=period, phase=phase,
                    rhythmic=RhythmicSpec(periods, periods))
    event = DisturbanceEvent.from_task(task, instance)
    static = empty_schedule(mode, len(cells))
    if cells:
        static.task_at[:], static.release_at[:], static.hop_at[:] = np.array(cells).T
    tasks = (task, *_SPAN_TASKS)
    return task, event, static, tasks, ScheduleSpan(event, static, tasks, beta)


@settings(max_examples=300, deadline=None)
@given(_span_cases())
@example((SchedulingMode.TBS, 10, 0, 1, (8,), 1, 3, _TAKEOVER))
def test_span_builder_matches_the_frozen_per_window_builder(case):
    # Every release candidate, a candidate at the span's last slot, one past
    # the schedule's horizon and one past the span: the same active sets or
    # the same error as the frozen builder, and a typed error past the span.
    full_demand, beta = case[6], case[5]
    _, event, static, _, span = _span_case(case)
    upper = end_point_upper_bound(event, beta)
    assert span.stop == upper
    candidates = {*actual_releases(event, upper), upper - 1, static.horizon + 1, upper + 1}
    for candidate in sorted(candidates):
        got = sets_outcome(lambda: build_active_sets(candidate, event, span, full_demand))
        if candidate > upper:
            assert got == ("raised", ValueError, f"end point {candidate} lies past the schedule span's end {upper}")
        else:
            expected = sets_outcome(lambda: oracle.build_active_sets(candidate, event, static, full_demand))
            assert got == expected, candidate


@settings(max_examples=300, deadline=None)
@given(_span_cases())
@example((SchedulingMode.TBS, 10, 0, 1, (8,), 1, 3, _TAKEOVER))
def test_span_groups_match_the_frozen_per_candidate_grouping(case):
    # Every release candidate whose active sets can be built: the span's
    # slot groups, the transmission vectors and the PeriodicState built
    # from them equal those the frozen per-candidate grouping gives.
    full_demand, beta = case[6], case[5]
    _, event, static, tasks, span = _span_case(case)
    path_pdrs = oracle.task_path_pdrs(tasks, _SPAN_NETWORK)
    for candidate in actual_releases(event, end_point_upper_bound(event, beta)):
        built = sets_outcome(lambda: build_active_sets(candidate, event, span, full_demand))
        if built[0] == "raised":
            continue
        sets = built[1]
        frozen = oracle.slot_groups(sets, static, tasks)
        assert all(np.array_equal(a, b) for a, b in zip(span.groups(sets), frozen)), candidate
        vectors = build_transmission_vectors(sets, span.groups(sets))
        assert np.array_equal(vectors, oracle.transmission_vectors(sets, frozen)), candidate
        expected = oracle.to_periodic_state(oracle.build_periodic_state(sets, static, tasks, _SPAN_NETWORK),
                                            sets.residual)
        assert vars(build_periodic_state(sets, span.groups(sets), path_pdrs)) == vars(expected), candidate


def test_the_takeover_example_truncates_the_boundary_packet():
    # The property's explicit example reaches a truncated boundary packet at
    # both candidates before the realigned release at 30.
    task = TaskSpec(id=0, path=("S1", "C", "A1"), period=10, deadline=10, rhythmic=RhythmicSpec((8,), (8,)))
    event = DisturbanceEvent.from_task(task, 1)
    static = empty_schedule(SchedulingMode.TBS, 40)
    static.task_at[:], static.release_at[:], static.hop_at[:] = np.array(_TAKEOVER).T
    span = ScheduleSpan(event, static, (task, *_SPAN_TASKS), 1)
    boundaries = [build_active_sets(c, event, span, 3).rhythmic[-1] for c in (27, 28)]
    assert [(b.demand, b.tail_slots, b.prefix_hops) for b in boundaries] == [(1, (27, 28), (1,)), (2, (28,), (1, 1))]


# ------------------------------------------------------------ idle-slot check

def test_idle_slot_witness_on_feasible_instances():
    found = 0
    for seed in range(30):
        net = random_chain_network(seed, 3, 3)
        tasks = generate_taskset(seed, 0.6, net, hop_range=(2, 5), max_period=40)
        if not tasks:
            continue
        task = tasks[0]
        spec = RhythmicSpec((max(task.hops, task.period // 2),) * 2,
                            (max(task.hops, task.period // 2),) * 2)
        event = DisturbanceEvent.from_task(task, 1, spec)
        result = _schedule_for(tasks, net, event.exit_slot + 3 * max(t.period for t in tasks))
        if not result.feasible:
            continue
        for node in task.path:
            if node == net.controller:
                continue
            witness = find_idle_slot(result.schedule, event, node, tasks)
            assert witness.ok, f"seed {seed} node {node}"
            assert witness.received_by < witness.idle_slot < witness.busy_from
            found += 1
    assert found > 20


def test_idle_slot_sensor_knows_at_detection():
    net = chain_network(1, 1, pdr=1.0)
    task, event = _event(period=10, instance=1, periods=(8,))
    result = _schedule_for((task,), net, 80)
    witness = find_idle_slot(result.schedule, event, "S1", (task,))
    assert witness.received_by == event.detect_slot


def test_idle_slot_violation_on_dense_schedule():
    # Hand-packed schedule keeping the sensor busy every slot between the
    # detection and the next instance: the premise fails and is flagged.
    task = TaskSpec(id=0, path=("S1", "C", "A1"), period=4, deadline=4,
                    rhythmic=RhythmicSpec((4,), (4,)))
    filler = TaskSpec(id=1, path=("S1", "C", "A1"), period=4, deadline=4)
    event = DisturbanceEvent.from_task(task, 0)
    sched = empty_schedule(SchedulingMode.TBS, 12)
    assignments = [
        (0, 0, 0, 1), (1, 0, 0, 1),  # detecting packet, sender S1
        (2, 1, 0, 1), (3, 1, 0, 1),  # filler keeps S1 transmitting
        (4, 0, 4, 1), (5, 0, 4, 2),  # next instance
    ]
    for slot, tid, rel, hop in assignments:
        sched.task_at[slot] = tid
        sched.release_at[slot] = rel
        sched.hop_at[slot] = hop
    witness = find_idle_slot(sched, event, "S1", (task, filler))
    assert not witness.ok


TESTBED = Path(__file__).resolve().parent.parent / "scenarios" / "testbed.yaml"


def _testbed_witness(mode, node, horizon=260):
    """The testbed's tasks, static schedule in ``mode`` and idle-slot
    witness for ``node``."""
    config = parse_scenario(TESTBED)
    static = build_static_schedule(config.tasks, config.network, mode, config.required_pdr, horizon=horizon)
    return config.tasks, static.schedule, find_idle_slot(static.schedule, config.event(), node, config.tasks)


@pytest.mark.parametrize("mode, node, received_by, busy_from, idle_slot", [
    (SchedulingMode.TBS, "V0", 46, 61, 48),
    (SchedulingMode.TBS, "V1", 47, 61, 50),
    (SchedulingMode.TBS, "Vc", 49, 63, 52),
    (SchedulingMode.TBS, "V3", 51, 65, 54),
    (SchedulingMode.TBS, "V4", 53, 67, 54),
    # PBS labels every slot hop 0: a route node may act in any slot of a
    # route packet, and hears of the disturbance by the detecting packet's
    # last slot.
    (SchedulingMode.PBS, "V0", 46, 61, 54),
    (SchedulingMode.PBS, "V1", 53, 61, 57),
    (SchedulingMode.PBS, "Vc", 53, 61, 57),
    (SchedulingMode.PBS, "V3", 53, 61, 54),
    (SchedulingMode.PBS, "V4", 53, 61, 54),
], ids=lambda v: v.value if isinstance(v, SchedulingMode) else None)
def test_idle_slot_witness_on_every_testbed_route_node(mode, node, received_by, busy_from, idle_slot):
    # The testbed disturbance is detected at 46 and the rhythmic state
    # enters at 61.
    tasks, schedule, witness = _testbed_witness(mode, node)
    assert witness.ok and witness.node == node
    assert (witness.received_by, witness.busy_from, witness.idle_slot) == (received_by, busy_from, idle_slot)
    # Independently: the node neither sends nor receives in the idle slot.
    task_id = int(schedule.task_at[idle_slot])
    if task_id >= 0:
        task = next(t for t in tasks if t.id == task_id)
        hop = int(schedule.hop_at[idle_slot])
        assert node not in (task.hop_link(hop) if hop else task.path)


@pytest.mark.parametrize("mode", list(SchedulingMode), ids=lambda m: m.value)
def test_idle_slot_witness_ends_at_the_horizon(mode):
    # A 60-slot schedule ends before the next instance of the disturbed task
    # (released at 61), so each node stays free of it up to the horizon.
    for node in ("V0", "V1", "Vc", "V3", "V4"):
        _, _, witness = _testbed_witness(mode, node, horizon=60)
        assert witness.ok and witness.busy_from == 60 and witness.received_by < witness.idle_slot < 60


def test_idle_slot_rejects_a_node_off_the_route():
    with pytest.raises(ValueError, match="^node 'V2' is not on the disturbed task's route$"):
        _testbed_witness(SchedulingMode.TBS, "V2")


def test_idle_slot_rejects_a_node_the_detecting_packet_never_reaches():
    # With a 47-slot horizon the detecting packet, released at 46, has one
    # slot: its first hop, V0 -> V1.  Nothing reaches the controller.
    with pytest.raises(ValueError, match="^detecting packet has no slots delivering to the node$"):
        _testbed_witness(SchedulingMode.TBS, "Vc", horizon=47)
