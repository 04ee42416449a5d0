"""The incremental transmission-dropping solver against a frozen copy of the
full-rescan solver it replaced.

``reference_drop_transmissions`` below recomputes every periodic packet's
delivery probability and per-hop deltas on every round.  The library solver
caches those deltas in a lazy heap; both must return equal decisions (same
dropped-slot order, same degradation floats) and raise the same exceptions on
every end-point candidate of seeded sweep-style and constraint-suite trials,
under TBS and PBS.
"""

import pytest

from rtwnsim.dropping import (
    DropDecision,
    PeriodicPacketState,
    build_demand_vector,
    build_periodic_state,
    drop_transmissions,
)
from rtwnsim.experiments import make_trial
from rtwnsim.model import (
    CandidateInfeasible,
    SchedulingMode,
    allocate_retry_vector,
    pdr_degradation,
)
from rtwnsim.rhythmic import (
    DisturbanceEvent,
    build_active_sets,
    earliest_last_finish,
    end_point_candidates,
    end_point_upper_bound,
)
from rtwnsim.static_schedule import build_static_schedule

REQUIRED_PDR = 0.99
BETA = 4


def reference_drop_transmissions(demand, state, required_pdr, mode=SchedulingMode.TBS):
    """The full-rescan solver, kept verbatim as the equivalence reference."""
    residual = list(demand.residual)
    if all(v == 0 for v in residual):
        return DropDecision(level="transmission")

    packets = [
        PeriodicPacketState(p.packet, p.path_pdrs, list(p.slots), list(p.hops), dict(p.window_of))
        for p in state
    ]
    dropped = []
    touched = set()

    while True:
        best = None  # (delta, release, task, slot, packet index, ordinal)
        for idx, packet in enumerate(packets):
            current = packet.delivery_pdr()
            if mode is SchedulingMode.PBS:
                ordinal = next(
                    (
                        o
                        for o, slot in enumerate(packet.slots)
                        if packet.window_of.get(slot) is not None
                        and residual[packet.window_of[slot]] > 0
                    ),
                    None,
                )
                if ordinal is None:
                    continue
                delta = current - packet.pdr_without(ordinal)
                key = (delta, packet.packet[1], packet.packet[0], packet.slots[ordinal])
                if best is None or key < best[0]:
                    best = (key, idx, ordinal)
            else:
                per_hop = {}
                for ordinal, slot in enumerate(packet.slots):
                    w = packet.window_of.get(slot)
                    if w is None or residual[w] == 0:
                        continue
                    hop = packet.hops[ordinal]
                    if hop not in per_hop:
                        per_hop[hop] = current - packet.pdr_without(ordinal)
                    key = (per_hop[hop], packet.packet[1], packet.packet[0], slot)
                    if best is None or key < best[0]:
                        best = (key, idx, ordinal)
        if best is None:
            raise CandidateInfeasible("no periodic transmission can cover the remaining demand")
        _, idx, ordinal = best
        packet = packets[idx]
        slot = packet.slots[ordinal]
        window = packet.window_of[slot]
        packet.remove(ordinal)
        dropped.append((packet.packet[0], packet.packet[1], slot))
        touched.add(packet.packet)
        residual[window] -= 1
        if all(v == 0 for v in residual):
            break

    final_pdr = {p.packet: p.delivery_pdr() for p in packets}
    degradations = tuple(
        (key, pdr_degradation(required_pdr, final_pdr[key]))
        for key in sorted(touched, key=lambda k: (k[1], k[0]))
    )
    return DropDecision(
        level="transmission",
        dropped_slots=tuple(dropped),
        degradations=degradations,
        total_degradation=float(sum(d for _, d in degradations)),
    )


def _outcome(solver, demand, state, mode):
    try:
        decision = solver(demand, state, REQUIRED_PDR, mode=mode)
    except (CandidateInfeasible, ValueError) as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", decision.dropped_slots, decision.degradations, decision.total_degradation)


def _compare_trial(trial, mode, horizon):
    """Run both solvers on every candidate of the trial's disturbance; return
    how many unsatisfied candidates were compared and how many raised."""
    task = next(t for t in trial.tasks if t.id == trial.rhythmic_task)
    event = DisturbanceEvent.from_task(task, trial.instance, trial.spec)
    static = build_static_schedule(trial.tasks, trial.network, mode, REQUIRED_PDR, horizon=horizon)
    assert static.feasible
    path_pdrs = trial.network.path_pdrs(task.path)
    full_demand = sum(allocate_retry_vector(path_pdrs, REQUIRED_PDR))
    compared = raised = 0
    for candidate in end_point_candidates(event, earliest_last_finish(event, task.hops), BETA):
        try:
            sets = build_active_sets(candidate, event, static.schedule, trial.tasks, full_demand)
        except CandidateInfeasible:
            continue
        demand = build_demand_vector(sets, static.schedule, full_demand)
        if demand.satisfied:
            continue
        state = build_periodic_state(sets, static.schedule, trial.tasks, trial.network)
        expected = _outcome(reference_drop_transmissions, demand, state, mode)
        got = _outcome(drop_transmissions, demand, state, mode)
        assert got == expected, f"seed {trial.seed}, {mode.value}, candidate {candidate}"
        compared += 1
        raised += expected[0] == "raised"
    return compared, raised


@pytest.mark.parametrize("mode", [SchedulingMode.TBS, SchedulingMode.PBS])
def test_matches_reference_on_sweep_trials(mode):
    # The A2 trials (util 0.5, eight ramp steps), first 40 seeds.
    compared = 0
    for i in range(40):
        trial = make_trial(100_000 + i, 0.5, 8)
        task = next(t for t in trial.tasks if t.id == trial.rhythmic_task)
        event = DisturbanceEvent.from_task(task, trial.instance, trial.spec)
        horizon = end_point_upper_bound(event, BETA) + 2 * max(t.period for t in trial.tasks) + 1
        compared += _compare_trial(trial, mode, horizon)[0]
    assert compared > 50


@pytest.mark.parametrize("mode", [SchedulingMode.TBS, SchedulingMode.PBS])
def test_matches_reference_on_constraint_suite_trials(mode):
    # The A7 trials (small chains, short periods), first 150 seeds.
    compared = 0
    for seed in range(1, 151):
        try:
            trial = make_trial(300_000 + seed, 0.6, 3, gamma=0.5, in_depth=3, out_depth=3,
                               max_instance=4, max_period=60, hop_range=(2, 6))
        except Exception:
            continue
        task = next(t for t in trial.tasks if t.id == trial.rhythmic_task)
        event = DisturbanceEvent.from_task(task, trial.instance, trial.spec)
        horizon = event.exit_slot + (BETA - 1) * task.period + 2 * max(t.period for t in trial.tasks) + 1
        compared += _compare_trial(trial, mode, horizon)[0]
    assert compared > 50


def test_matches_reference_on_known_pbs_rounding_error():
    # Sweep trials 20 and 31 of base seed 1 at util 0.5, eight steps, tick 50,
    # under PBS with the simulator's default horizon: packet_pdr_flexible
    # returns 1.0000000000000002 for a touched packet and pdr_degradation
    # raises.  The new solver must raise the same error.
    from rtwnsim.experiments import _trial_seed
    from rtwnsim.sim import DisturbanceSpec, SimConfig, default_horizon

    raised = 0
    for i in (20, 31):
        trial = make_trial(_trial_seed(1, 0.5, 8, 50, i), 0.5, 8)
        config = SimConfig(network=trial.network, tasks=trial.tasks, mode=SchedulingMode.PBS,
                           disturbance=DisturbanceSpec(trial.rhythmic_task, trial.instance, trial.spec))
        raised += _compare_trial(trial, SchedulingMode.PBS, default_horizon(config))[1]
    assert raised > 0
