"""Dropping solvers: greedy heuristics, exhaustive oracle, set-cover embedding
and full dynamic schedule generation."""

import dataclasses
import itertools
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtwnsim.model import (
    CandidateInfeasible,
    Link,
    NetworkModel,
    RhythmicSpec,
    SchedulingMode,
    TaskSpec,
    allocate_retry_vector,
)
from rtwnsim.rhythmic import DisturbanceEvent, ScheduleSpan, end_point_upper_bound
from rtwnsim.static_schedule import build_static_schedule
import rtwnsim.dropping as dropping
from rtwnsim.dropping import (
    DropDecision,
    PlanInvariantError,
    build_transmission_vectors,
    drop_transmissions,
    generate_dynamic_schedule,
    greedy_drop_packets,
)
from rtwnsim.experiments import _trial_seed, make_trial
from rtwnsim.sim import DisturbanceSpec, Framework, SimConfig, plan_frameworks

from dropping_reference import (
    PeriodicPacketState,
    TransmissionVector,
    from_set_cover,
    optimal_drop_oracle,
    overlay_of,
    to_periodic_state,
    vector_matrix,
)
from support import active_sets, chain_network, dynamic_plan, empty_schedule


def _testbed():
    nodes = ("V0", "V1", "V2", "V3", "V4", "V5", "Vc")
    links = tuple(
        Link(a, b, 0.9)
        for a, b in [
            ("V0", "V1"), ("V1", "Vc"), ("Vc", "V3"), ("V3", "V4"),
            ("V2", "Vc"), ("Vc", "V5"),
        ]
    )
    net = NetworkModel(nodes=nodes, controller="Vc", links=links)
    tasks = (
        TaskSpec(id=0, path=("V0", "V1", "Vc", "V3", "V4"), period=15, deadline=15,
                 rhythmic=RhythmicSpec((12,) * 5, (12,) * 5), slot_budget=8, phase=1),
        TaskSpec(id=1, path=("V2", "Vc", "V3"), period=30, deadline=30, slot_budget=6, phase=1),
        TaskSpec(id=2, path=("V1", "Vc", "V5"), period=20, deadline=20, slot_budget=4, phase=1),
    )
    return net, tasks


# ------------------------------------------------------- transmission vectors

def _sets_for(net, tasks, event, candidate, full_demand):
    result = build_static_schedule(tasks, net, SchedulingMode.TBS, 0.95, horizon=260)
    assert result.feasible
    return result.schedule, active_sets(candidate, event, result.schedule, tasks, full_demand)


def test_vectors_empty_when_no_periodic_packets():
    net = chain_network(1, 1, pdr=1.0)
    task = TaskSpec(id=0, path=("S1", "C", "A1"), period=10, deadline=10,
                    rhythmic=RhythmicSpec((10,), (10,)))
    event = DisturbanceEvent.from_task(task, 1)
    result = build_static_schedule((task,), net, SchedulingMode.TBS, 0.9, horizon=80)
    sets = active_sets(40, event, result.schedule, (task,), full_demand=2)
    assert sets.periodic == ()
    counts = build_transmission_vectors(sets, ScheduleSpan(event, result.schedule, (task,), 4).groups(sets))
    assert counts.shape == (0, len(sets.rhythmic))


def test_vectors_count_slots_inside_one_window():
    # Hand-built: one periodic packet with three slots, all inside the second
    # rhythmic window.
    task0 = TaskSpec(id=0, path=("S1", "C", "A1"), period=12, deadline=12,
                     rhythmic=RhythmicSpec((4, 4, 4), (4, 4, 4)), phase=0)
    task1 = TaskSpec(id=1, path=("S1", "C", "A1"), period=24, deadline=24)
    event = DisturbanceEvent.from_task(task0, 0)
    sched = empty_schedule(SchedulingMode.TBS, 48)
    for slot, hop in [(16, 1), (17, 1), (18, 2)]:
        sched.task_at[slot] = 1
        sched.release_at[slot] = 0
        sched.hop_at[slot] = hop
    sets = active_sets(24, event, sched, (task0, task1), full_demand=2)
    assert [(d.release, d.deadline) for d in sets.rhythmic] == [(12, 16), (16, 20), (20, 24)]
    vectors = build_transmission_vectors(sets, ScheduleSpan(event, sched, (task0, task1), 4).groups(sets))
    assert sets.periodic == ((1, 0),) and vectors.tolist() == [[0, 3, 0]]


def test_vectors_match_naive_double_loop():
    net, tasks = _testbed()
    event = DisturbanceEvent.from_task(tasks[0], 3)
    sched, sets = _sets_for(net, tasks, event, 136, full_demand=8)
    span = ScheduleSpan(event, sched, tasks, 4)
    vectors = dict(zip(sets.periodic, map(tuple, build_transmission_vectors(sets, span.groups(sets)).tolist())))
    # Independent route: scan every slot of every periodic packet against
    # every window.
    for tid, rel in sets.periodic:
        expected = [0] * len(sets.rhythmic)
        for slot in sched.packet_slots(tid, rel):
            for i, d in enumerate(sets.rhythmic):
                if d.release <= slot < d.deadline:
                    expected[i] += 1
        assert vectors[(tid, rel)] == tuple(expected)
        assert sum(expected) <= 6  # never more than the packet's own budget


# ----------------------------------------------------------- rhythmic demand

def test_demand_zero_when_idle_slots_suffice():
    net = chain_network(1, 1, pdr=1.0)
    task = TaskSpec(id=0, path=("S1", "C", "A1"), period=10, deadline=10,
                    rhythmic=RhythmicSpec((10,), (10,)))
    event = DisturbanceEvent.from_task(task, 1)
    result = build_static_schedule((task,), net, SchedulingMode.TBS, 0.9, horizon=80)
    sets = active_sets(40, event, result.schedule, (task,), full_demand=2)
    assert [d.demand for d in sets.rhythmic] == [2] * len(sets.rhythmic)  # one slot per hop
    assert not any(sets.residual)


def test_demand_reliable_subtraction():
    # Three hops demanded, two slots available -> one extra needed.
    task0 = TaskSpec(id=0, path=("S2", "S1", "C", "A1"), period=10, deadline=10,
                     rhythmic=RhythmicSpec((5,), (5,)), phase=0)
    task1 = TaskSpec(id=1, path=("S1", "C", "A1"), period=30, deadline=30)
    event = DisturbanceEvent.from_task(task0, 0)
    sched = empty_schedule(SchedulingMode.TBS, 30)
    # window [10, 15): slots 11..13 belong to another task
    for slot in (11, 12, 13):
        sched.task_at[slot] = 1
        sched.release_at[slot] = 0
        sched.hop_at[slot] = 1
    # realigned instance of the disturbed task resumes statically at 20
    for slot, hop in [(20, 1), (21, 2), (22, 3)]:
        sched.task_at[slot] = 0
        sched.release_at[slot] = 20
        sched.hop_at[slot] = hop
    sets = active_sets(15, event, sched, (task0, task1), full_demand=3)
    (entry,) = sets.rhythmic
    assert entry.demand == 3  # one slot per hop
    assert entry.available == 2  # slots 10 and 14
    assert sets.residual == (1,)


def test_demand_lossy_uses_retry_budget():
    # A single 0.9 hop against a 0.99 target needs two trials; no slots free.
    task0 = TaskSpec(id=0, path=("S1", "C", "A1"), period=10, deadline=10,
                     rhythmic=RhythmicSpec((5,), (5,)), phase=0)
    task1 = TaskSpec(id=1, path=("S1", "C", "A1"), period=30, deadline=30)
    event = DisturbanceEvent.from_task(task0, 0)
    sched = empty_schedule(SchedulingMode.TBS, 30)
    for slot in range(10, 15):
        sched.task_at[slot] = 1
        sched.release_at[slot] = 0
        sched.hop_at[slot] = 1
    for slot, hop in [(20, 1), (21, 2)]:
        sched.task_at[slot] = 0
        sched.release_at[slot] = 20
        sched.hop_at[slot] = hop
    full_demand = sum(allocate_retry_vector([0.9], 0.99))
    assert full_demand == 2
    sets = active_sets(15, event, sched, (task0, task1), full_demand=full_demand)
    (entry,) = sets.rhythmic
    assert entry.demand == 2
    assert entry.available == 0
    assert sets.residual == (2,)


# ------------------------------------------------------------ greedy packets

def _vec(key, eps):
    return TransmissionVector(packet=key, replaceable=tuple(eps))


def _brute_force_min_drop(residual, vectors):
    for size in range(0, len(vectors) + 1):
        for combo in itertools.combinations(vectors, size):
            if all(sum(v.replaceable[i] for v in combo) >= residual[i]
                   for i in range(len(residual))):
                return size
    return None


def test_greedy_returns_empty_when_satisfied():
    residual = (0, 0)
    decision = greedy_drop_packets(residual, *vector_matrix(residual, [_vec((1, 0), (1, 1))]), required_pdr=0.99)
    assert decision.dropped_packets == ()
    assert decision.total_degradation == 0.0


def test_greedy_prefers_max_contribution():
    residual = (1, 1)
    vectors = [_vec((1, 0), (1, 0)), _vec((2, 0), (0, 1)), _vec((3, 0), (1, 1))]
    decision = greedy_drop_packets(residual, *vector_matrix(residual, vectors), required_pdr=0.99)
    assert decision.dropped_packets == ((3, 0),)
    assert _brute_force_min_drop(residual, vectors) == 1
    assert decision.total_degradation == pytest.approx(0.99)


def test_greedy_tie_break_by_release_then_task():
    residual = (2,)
    vectors = [_vec((2, 5), (1,)), _vec((1, 5), (1,))]
    decision = greedy_drop_packets(residual, *vector_matrix(residual, vectors), required_pdr=0.99)
    # equal contributions: lowest release first, then lowest task id
    assert decision.dropped_packets == ((1, 5), (2, 5))


def test_greedy_reclips_vectors_between_rounds():
    # After the first drop satisfies window 0, the packet whose value was
    # inflated by window 0 must not outrank a packet useful for window 1.
    residual = (3, 1)
    vectors = [
        _vec((1, 0), (3, 0)),
        _vec((2, 0), (2, 0)),  # large but useless once window 0 is covered
        _vec((3, 0), (0, 1)),
    ]
    decision = greedy_drop_packets(residual, *vector_matrix(residual, vectors), required_pdr=0.99)
    assert set(decision.dropped_packets) == {(1, 0), (3, 0)}
    # Only later rounds see clipped vectors: packet 1's three slots outrank
    # packet 2's two in round one, though one of them would cover window 0.
    # Clipping first would rank packet 2 first and drop it alone.
    residual = (1, 1)
    vectors = [_vec((1, 0), (3, 0)), _vec((2, 0), (1, 1))]
    decision = greedy_drop_packets(residual, *vector_matrix(residual, vectors), required_pdr=0.99)
    assert decision.dropped_packets == ((1, 0), (2, 0))


def test_greedy_infeasible_when_uncoverable():
    residual = (1, 2)
    vectors = [_vec((1, 0), (1, 0))]
    with pytest.raises(CandidateInfeasible):
        greedy_drop_packets(residual, *vector_matrix(residual, vectors), required_pdr=0.99)


# ------------------------------------------------------- transmission dropping

def _single_hop_state(key, pdr, slots, window_of):
    return PeriodicPacketState(
        packet=key, path_pdrs=(pdr,), slots=list(slots), hops=[1] * len(slots),
        window_of=dict(window_of),
    )


def test_drop_transmissions_empty_when_satisfied():
    residual = (0,)
    decision = drop_transmissions(residual, to_periodic_state([], residual), 0.99, SchedulingMode.TBS, {})
    assert decision.dropped_slots == ()


def test_drop_transmissions_single_retry_surrendered():
    # One packet on a 0.9 link with two trials; giving up one still delivers
    # at 0.9, degrading by 0.09 instead of the full 0.99 of a packet drop.
    residual = (1,)
    state = [_single_hop_state((1, 0), 0.9, [10, 11], {10: 0, 11: 0})]
    decision = drop_transmissions(residual, to_periodic_state(state, residual), 0.99, SchedulingMode.TBS, {})
    assert len(decision.dropped_slots) == 1
    assert decision.total_degradation == pytest.approx(0.09)
    assert dict(decision.degradations)[(1, 0)] == pytest.approx(0.09)


def test_drop_transmissions_picks_cheapest_first():
    # Hand-computed per-slot losses: 0.9 link with 2 trials loses
    # 0.99 - 0.9 = 0.09; 0.8 link with 2 trials loses 0.96 - 0.8 = 0.16.
    residual = (1,)
    state = [
        _single_hop_state((1, 0), 0.8, [10], {10: 0}),
        _single_hop_state((2, 0), 0.9, [11, 12], {11: 0, 12: 0}),
    ]
    # dropping (1,0)'s only slot kills it entirely (delta 0.8 > 0.09)
    decision = drop_transmissions(residual, to_periodic_state(state, residual), 0.99, SchedulingMode.TBS, {})
    assert decision.dropped_slots[0][0] == 2
    assert decision.total_degradation == pytest.approx(0.09)


def test_drop_transmissions_unselectable_slots_are_skipped():
    # The cheapest slot sits outside every needy window and must be ignored.
    residual = (0, 1)
    state = [
        _single_hop_state((1, 0), 0.9, [10, 11], {10: 0, 11: 0}),  # window 0: satisfied
        _single_hop_state((2, 0), 0.7, [20, 21], {20: 1, 21: 1}),
    ]
    decision = drop_transmissions(residual, to_periodic_state(state, residual), 0.99, SchedulingMode.TBS, {})
    assert all(slot in (20, 21) for _, _, slot in decision.dropped_slots)


def test_drop_transmissions_timing_violation_degrades_fully():
    # A packet stripped below its hop count can no longer be delivered and
    # loses the whole requirement.
    residual = (2,)
    state = [
        PeriodicPacketState(packet=(1, 0), path_pdrs=(0.9, 0.9), slots=[10, 11],
                            hops=[1, 2], window_of={10: 0, 11: 0}),
    ]
    decision = drop_transmissions(residual, to_periodic_state(state, residual), 0.99, SchedulingMode.TBS, {})
    assert len(decision.dropped_slots) == 2
    assert dict(decision.degradations)[(1, 0)] == pytest.approx(0.99)


def test_drop_transmissions_infeasible():
    residual = (2,)
    state = [_single_hop_state((1, 0), 0.9, [10], {10: 0})]
    with pytest.raises(CandidateInfeasible):
        drop_transmissions(residual, to_periodic_state(state, residual), 0.99, SchedulingMode.TBS, {})


def test_drop_transmissions_repushes_a_group_whose_window_is_satisfied_first():
    # Packet (1, 0)'s hop groups both start in window 0, which packet (2, 0)
    # satisfies with the cheaper drop.  The packet's key then moves on to its
    # groups' next needy slots in window 1, keeping their deltas: one of them
    # is dropped there, where discarding the key would leave the demand
    # uncovered.
    residual = (1, 1)
    two_hop = PeriodicPacketState(packet=(1, 0), path_pdrs=(0.5, 0.5), slots=[10, 11, 20, 21],
                                  hops=[1, 2, 1, 2], window_of={10: 0, 11: 0, 20: 1, 21: 1})
    state = [two_hop, _single_hop_state((2, 0), 0.9, [5, 6], {5: 0, 6: 0})]
    decision = drop_transmissions(residual, to_periodic_state(state, residual), 0.99, SchedulingMode.TBS, {})
    assert decision.dropped_slots == ((2, 0, 5), (1, 0, 20))
    assert dict(decision.degradations)[(1, 0)] == pytest.approx(0.99 - 0.5 * 0.75)


def test_drop_transmissions_pbs_selects_packet_granularity():
    residual = (1,)
    # PBS packets: hop labels 0, delivery via the shared-pool probability.
    a = PeriodicPacketState(packet=(1, 0), path_pdrs=(0.9, 0.9), slots=[10, 11, 12],
                            hops=[0, 0, 0], window_of={10: 0, 11: 0, 12: 0})
    b = PeriodicPacketState(packet=(2, 0), path_pdrs=(0.6, 0.6), slots=[13, 14, 15],
                            hops=[0, 0, 0], window_of={13: 0, 14: 0, 15: 0})
    decision = drop_transmissions(residual, to_periodic_state([a, b], residual), 0.99, SchedulingMode.PBS, {})
    # the sturdier packet loses a slot more cheaply
    assert decision.dropped_slots == ((1, 0, 10),)


def test_drop_transmissions_pbs_rejects_hop_labels():
    # PBS slots are interchangeable only when none is pinned to a hop.
    residual = (1,)
    state = [PeriodicPacketState(packet=(1, 0), path_pdrs=(0.9, 0.9), slots=[10, 11, 12],
                                 hops=[1, 1, 2], window_of={10: 0, 11: 0, 12: 0})]
    with pytest.raises(ValueError, match="hop label 0"):
        drop_transmissions(residual, to_periodic_state(state, residual), 0.99, SchedulingMode.PBS, {})


@st.composite
def _small_transmission_instances(draw, mode):
    """Up to four periodic packets of up to four slots over up to three
    rhythmic windows; link pdrs in [0.5, 0.99]."""
    windows = draw(st.integers(1, 3))
    residual = tuple(draw(st.lists(st.integers(0, 3), min_size=windows, max_size=windows)))
    state = []
    slot = 0
    for j in range(draw(st.integers(1, 4))):
        hop_count = draw(st.integers(1, 3))
        pdrs = tuple(draw(st.lists(st.floats(0.5, 0.99), min_size=hop_count, max_size=hop_count)))
        n = draw(st.integers(1, 4))
        slots = list(range(slot, slot + n))
        slot += n
        if mode is SchedulingMode.PBS:
            hops = [0] * n
        else:
            hops = sorted(draw(st.lists(st.integers(1, hop_count), min_size=n, max_size=n)))
        placement = draw(st.lists(st.integers(-1, windows - 1), min_size=n, max_size=n))
        window_of = {s: w for s, w in zip(slots, placement) if w >= 0}
        state.append(PeriodicPacketState((j + 1, 10 * j), pdrs, slots, hops, window_of))
    return residual, state


def _check_against_transmission_oracle(residual, state, mode):
    grouped = to_periodic_state(state, residual)
    before = {k: repr(v) for k, v in vars(grouped).items()}
    try:
        decision = drop_transmissions(residual, grouped, 0.99, mode, {})
    except CandidateInfeasible:
        with pytest.raises(CandidateInfeasible):
            optimal_drop_oracle(residual, level="transmission", state=state, required_pdr=0.99)
        return
    assert {k: repr(v) for k, v in vars(grouped).items()} == before  # the input is left as it was
    window_of = {(p.packet, s): w for p in state for s, w in p.window_of.items()}
    covered = Counter(window_of[((task, release), s)] for task, release, s in decision.dropped_slots)
    assert [covered[w] for w in range(len(residual))] == list(residual)
    oracle = optimal_drop_oracle(residual, level="transmission", state=state, required_pdr=0.99)
    assert decision.total_degradation >= oracle.total_degradation - 1e-12


@settings(max_examples=300, deadline=None)
@given(_small_transmission_instances(SchedulingMode.TBS))
def test_drop_transmissions_tbs_covers_and_never_beats_oracle(instance):
    _check_against_transmission_oracle(*instance, SchedulingMode.TBS)


@settings(max_examples=300, deadline=None)
@given(_small_transmission_instances(SchedulingMode.PBS))
def test_drop_transmissions_pbs_covers_and_never_beats_oracle(instance):
    _check_against_transmission_oracle(*instance, SchedulingMode.PBS)


# -------------------------------------------------------------------- oracle

def test_oracle_matches_greedy_example():
    residual = (1, 1)
    vectors = [_vec((1, 0), (1, 0)), _vec((2, 0), (0, 1)), _vec((3, 0), (1, 1))]
    decision = optimal_drop_oracle(residual, vectors=vectors, level="packet", required_pdr=0.99)
    assert decision.dropped_packets == ((3, 0),)


def test_oracle_zero_demand():
    residual = (0,)
    assert optimal_drop_oracle(residual, vectors=[], level="packet").packet_count == 0


def test_greedy_never_beats_oracle():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        vectors = [
            _vec((j + 1, 0), rng.integers(0, 3, n).tolist()) for j in range(m)
        ]
        required = rng.integers(0, 4, n)
        available = rng.integers(0, 2, n)
        residual = tuple(np.maximum(required - available, 0).tolist())
        try:
            greedy = greedy_drop_packets(residual, *vector_matrix(residual, vectors), required_pdr=0.99)
        except CandidateInfeasible:
            with pytest.raises(CandidateInfeasible):
                optimal_drop_oracle(residual, vectors=vectors, level="packet")
            continue
        oracle = optimal_drop_oracle(residual, vectors=vectors, level="packet", required_pdr=0.99)
        # greedy output must be feasible...
        remaining = list(residual)
        for key in greedy.dropped_packets:
            eps = next(v.replaceable for v in vectors if v.packet == key)
            for i in range(n):
                remaining[i] = max(0, remaining[i] - eps[i])
        assert all(v == 0 for v in remaining)
        # ...and never cheaper than the optimum
        assert greedy.packet_count >= oracle.packet_count


def test_oracle_size_limit():
    residual = (1,)
    vectors = [_vec((j, 0), (1,)) for j in range(25)]
    with pytest.raises(ValueError):
        optimal_drop_oracle(residual, vectors=vectors, level="packet")


# ----------------------------------------------------------------- set cover

def _brute_force_cover(universe, subsets):
    for size in range(0, len(subsets) + 1):
        for combo in itertools.combinations(range(len(subsets)), size):
            covered = set()
            for j in combo:
                covered |= set(subsets[j])
            if covered == set(range(universe)):
                return size
    return None


def test_set_cover_singleton():
    residual, vectors = from_set_cover(1, [[0]])
    assert optimal_drop_oracle(residual, vectors=vectors, level="packet").packet_count == 1


def test_set_cover_prefers_superset():
    residual, vectors = from_set_cover(2, [[0], [1], [0, 1]])
    assert optimal_drop_oracle(residual, vectors=vectors, level="packet").packet_count == 1


def test_set_cover_rejects_non_cover():
    with pytest.raises(ValueError):
        from_set_cover(3, [[0], [1]])
    with pytest.raises(ValueError):
        from_set_cover(2, [[0], []])


def test_set_cover_random_instances_agree_with_enumeration():
    rng = np.random.default_rng(17)
    done = 0
    while done < 30:
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 8))
        subsets = []
        for _ in range(m):
            size = int(rng.integers(1, n + 1))
            subsets.append(sorted(rng.choice(n, size=size, replace=False).tolist()))
        union = set().union(*map(set, subsets))
        if union != set(range(n)):
            continue
        residual, vectors = from_set_cover(n, subsets)
        oracle = optimal_drop_oracle(residual, vectors=vectors, level="packet")
        assert oracle.packet_count == _brute_force_cover(n, subsets)
        done += 1


# -------------------------------------------------------- dynamic generation

def test_dynamic_schedule_zero_drop_when_workload_fits():
    net = chain_network(1, 1, pdr=1.0)
    task = TaskSpec(id=0, path=("S1", "C", "A1"), period=10, deadline=10,
                    rhythmic=RhythmicSpec((5, 5), (5, 5)))
    other = TaskSpec(id=1, path=("S1", "C", "A1"), period=40, deadline=40)
    event = DisturbanceEvent.from_task(task, 1)
    result = build_static_schedule((task, other), net, SchedulingMode.TBS, 0.9, horizon=120)
    plan = dynamic_plan(event, result.schedule, (task, other), net, 0.9)
    assert plan.decision.packet_count == 0
    assert plan.decision.total_degradation == 0.0
    # overlay touches only idle or disturbed-task slots
    for slot in overlay_of(plan):
        assert result.schedule.task_at[slot] in (-1, 0)


def test_dynamic_schedule_testbed_packet_level():
    net, tasks = _testbed()
    event = DisturbanceEvent.from_task(tasks[0], 3)
    result = build_static_schedule(tasks, net, SchedulingMode.TBS, 0.95, horizon=260)
    plan = dynamic_plan(event, result.schedule, tasks, net, 0.95, level="packet")
    # both packets of the 30-slot task released inside the window are dropped
    assert plan.end_point == 121
    assert plan.decision.dropped_packets == ((1, 61), (1, 91))


def test_dynamic_schedule_rejects_an_unknown_level():
    net, tasks = _testbed()
    event = DisturbanceEvent.from_task(tasks[0], 3)
    result = build_static_schedule(tasks, net, SchedulingMode.TBS, 0.95, horizon=260)
    with pytest.raises(ValueError, match="level must be 'packet' or 'transmission'"):
        dynamic_plan(event, result.schedule, tasks, net, 0.95, level="slot")


def test_dynamic_schedule_constraints_hold():
    net, tasks = _testbed()
    event = DisturbanceEvent.from_task(tasks[0], 3)
    full_demand = sum(allocate_retry_vector(net.path_pdrs(tasks[0].path), 0.95))
    for mode, level in itertools.product(SchedulingMode, ("packet", "transmission")):
        result = build_static_schedule(tasks, net, mode, 0.95, horizon=260)
        plan = dynamic_plan(event, result.schedule, tasks, net, 0.95, level=level)
        # the overlay stays in the window, which the slot engine relies on
        # when it reads the overlay arrays whole
        assert np.all((plan.overlay_slots >= event.enter_slot) & (plan.overlay_slots < plan.end_point))
        # the overlay takes only idle, own or freed slots
        freed = plan.decision.freed_slots(ScheduleSpan(event, result.schedule, tasks, 4))
        for t in overlay_of(plan):
            assert result.schedule.task_at[t] in (-1, 0) or t in freed
        # every demanded slot was granted inside the window, hop-ordered
        for entry in plan.sets.rhythmic:
            need = entry.demand
            assert need == full_demand or entry.tail_slots  # only a truncated packet owes less
            slots = sorted((t, a.hop) for t, a in overlay_of(plan).items() if a.release == entry.release)
            assert len(slots) == need
            assert all(entry.release <= s < entry.deadline for s, _ in slots)
            hops = [h for _, h in slots]
            assert hops == sorted(hops)
        # completion constraint for the chosen end point
        last_stepped = event.enter_slot + sum(event.periods[:-1])
        finish = max(t for t, a in overlay_of(plan).items() if a.release == last_stepped) + 1
        assert finish <= plan.end_point <= end_point_upper_bound(event, 4)


def test_overlay_rejects_a_decision_that_frees_too_few_slots(monkeypatch):
    # Fault injection: a packet solver that frees nothing while the demand is
    # unmet leaves a rhythmic packet fewer usable slots than it needs.
    net, tasks = _testbed()
    event = DisturbanceEvent.from_task(tasks[0], 3)
    result = build_static_schedule(tasks, net, SchedulingMode.TBS, 0.95, horizon=260)
    monkeypatch.setattr(dropping, "greedy_drop_packets",
                        lambda residual, packets, counts, required_pdr: DropDecision(level="packet"))
    with pytest.raises(PlanInvariantError, match=r"usable slots for a demand of 8$"):
        dynamic_plan(event, result.schedule, tasks, net, 0.95, level="packet")


@pytest.mark.parametrize("level", ["packet", "transmission"])
def test_overlay_rejects_a_plan_that_breaks_the_completion_bound(monkeypatch, level):
    # Fault injection: with the latency bound moved to the window's start,
    # the chosen end point and the last stepped packet's realized finish
    # both lie past it.
    net, tasks = _testbed()
    event = DisturbanceEvent.from_task(tasks[0], 3)
    result = build_static_schedule(tasks, net, SchedulingMode.TBS, 0.95, horizon=260)
    monkeypatch.setattr(dropping, "end_point_upper_bound", lambda event, beta: event.enter_slot)
    message = (rf"^end point \d+ violates the completion constraint: the last stepped packet "
               rf"finishes at \d+, the bound is {event.enter_slot}$")
    with pytest.raises(PlanInvariantError, match=message):
        dynamic_plan(event, result.schedule, tasks, net, 0.95, level=level)


def test_overlay_rejects_a_solver_that_leaves_an_accepted_candidate_uncovered(monkeypatch):
    # Fault injection: a packet solver that finds no cover for a candidate
    # whose active sets were built.  The planner names the candidate instead
    # of skipping it.
    net, tasks = _testbed()
    event = DisturbanceEvent.from_task(tasks[0], 3)
    result = build_static_schedule(tasks, net, SchedulingMode.TBS, 0.95, horizon=260)

    def uncovered(residual, packets, counts, required_pdr):
        raise CandidateInfeasible("periodic packets cannot cover the rhythmic demand")

    monkeypatch.setattr(dropping, "greedy_drop_packets", uncovered)
    message = (r"^the packet-level solver left end-point candidate 121 uncovered: "
               r"periodic packets cannot cover the rhythmic demand$")
    with pytest.raises(PlanInvariantError, match=message):
        dynamic_plan(event, result.schedule, tasks, net, 0.95, level="packet")


@settings(max_examples=30, deadline=None)
@given(
    index=st.integers(0, 199),
    base_seed=st.integers(0, 3),
    cell=st.sampled_from([(0.3, 3), (0.5, 8), (0.7, 8)]),
    mode=st.sampled_from(list(SchedulingMode)),
)
def test_no_sweep_candidate_leaves_a_solver_uncovered(index, base_seed, cell, mode):
    # Every other-task slot of a rhythmic window belongs to a periodic
    # packet and each demand fits its window, so both solvers cover every
    # candidate whose active sets were built: planning a sweep trial at
    # either level never raises PlanInvariantError.  The known PBS rounding
    # defect (a delivery probability just above 1) may end a plan first.
    util, r_steps = cell
    trial = make_trial(_trial_seed(base_seed, util, r_steps, 60, index), util, r_steps)
    config = SimConfig(network=trial.network, tasks=trial.tasks, mode=mode,
                       disturbance=DisturbanceSpec(trial.rhythmic_task, trial.instance, trial.spec))
    for framework in (Framework.FDPAS_PACKET, Framework.FDPAS_TRANSMISSION):
        try:
            plan_frameworks(config, (framework,))
        except ValueError as exc:
            assert mode is SchedulingMode.PBS and "pdr values must lie in [0, 1]" in str(exc)


def test_dynamic_schedule_serves_only_the_plan_its_inputs_name():
    # A plan reads every input from its arguments: the event, schedule,
    # required pdr and beta of a call give the plan that a config with those
    # inputs gets from plan_frameworks, for each level of the call.
    net, tasks = _testbed()
    base = SimConfig(network=net, tasks=tasks, required_pdr=0.95, horizon=260, disturbance=DisturbanceSpec(0, 3))
    for config in [base, dataclasses.replace(base, disturbance=DisturbanceSpec(0, 4)),
                   dataclasses.replace(base, required_pdr=0.9), dataclasses.replace(base, beta=3)]:
        schedule = build_static_schedule(tasks, net, SchedulingMode.TBS, config.required_pdr, horizon=260).schedule
        levels = (("transmission", Framework.FDPAS_TRANSMISSION), ("packet", Framework.FDPAS_PACKET))
        planned = generate_dynamic_schedule(config.event(), schedule, tasks, net, config.required_pdr, config.beta,
                                            [level for level, _ in levels])
        for (level, framework), got in zip(levels, planned, strict=True):
            (expected,) = plan_frameworks(config, (framework,))
            assert got == expected.dynamic, (config, level)
            assert overlay_of(got) == overlay_of(expected.dynamic), (config, level)


def test_transmission_level_never_worse_than_packet_level():
    # The transmission search space strictly contains every packet-level
    # decision, so its optimum cannot degrade more; checked via the oracle on
    # random small instances.
    rng = np.random.default_rng(5)
    done = 0
    while done < 25:
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        state = []
        vectors = []
        for j in range(m):
            w = int(rng.integers(2, 4))
            slots = list(range(100 * j, 100 * j + w))
            window_of = {}
            for s in slots:
                wdx = int(rng.integers(0, n + 1))
                if wdx < n:
                    window_of[s] = wdx
            pdr = float(rng.uniform(0.7, 0.95))
            state.append(PeriodicPacketState(
                packet=(j + 1, 0), path_pdrs=(pdr,), slots=slots,
                hops=[1] * w, window_of=window_of,
            ))
            eps = [0] * n
            for s, wdx in window_of.items():
                eps[wdx] += 1
            vectors.append(_vec((j + 1, 0), eps))
        required = tuple(int(x) for x in rng.integers(0, 3, n))
        residual = required  # nothing available
        try:
            packet_opt = optimal_drop_oracle(residual, vectors=vectors, level="packet",
                                             required_pdr=0.99)
        except CandidateInfeasible:
            continue
        tx_opt = optimal_drop_oracle(residual, level="transmission", state=state,
                                     required_pdr=0.99)
        assert tx_opt.total_degradation <= packet_opt.total_degradation + 1e-12
        done += 1


def test_complexity_smoke():
    # Runtime growth of the heuristics, measured only (no hard bound): the
    # greedy packet dropper should scale roughly with n*m.
    rng = np.random.default_rng(1)

    def build(n, m):
        vectors = [_vec((j + 1, 0), rng.integers(0, 3, n).tolist()) for j in range(m)]
        return (2,) * n, vectors  # two slots short in every window

    def measure(n, m):
        residual, vectors = build(n, m)
        start = time.perf_counter()
        try:
            greedy_drop_packets(residual, *vector_matrix(residual, vectors), required_pdr=0.99)
        except CandidateInfeasible:
            pass
        return time.perf_counter() - start

    small = min(measure(10, 40) for _ in range(5))
    large = min(measure(20, 80) for _ in range(5))
    print(f"greedy packet dropping: n*m x4 -> time x{large / max(small, 1e-9):.1f}")
    assert large < 1.0  # sanity: stays desk-interactive
