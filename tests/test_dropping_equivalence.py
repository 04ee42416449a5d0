"""The FD-PaS planner against frozen copies of the code it replaced.

The references below are kept verbatim from earlier versions of the library
and share none of its packet-state, periodic-set or solver code:

* ``FrozenPacketState`` recounts hop labels on every delivery probability and
  builds a probe object per ``pdr_without``; ``dropping_reference``'s
  ``PeriodicPacketState`` keeps per-hop counts instead.
* ``reference_drop_transmissions`` recomputes every periodic packet's delivery
  probability and per-hop deltas on every round, on frozen packet states.
  ``dropping_reference.drop_transmissions``, the oracle of the grouped
  solver, keeps one lazy heap key per (packet, hop label) on per-packet
  states and rescans a packet's slots for a group's earliest needy one; the
  library solver keeps one cursor per group and one heap key per packet on
  grouped slot arrays, from which the slots of satisfied windows are
  masked.  Both read delivery probabilities and deltas from a table that
  every candidate of a plan shares.
* ``frozen_periodic_keys``, ``frozen_build_periodic_state`` and
  ``frozen_build_transmission_vectors`` are the per-candidate builders as
  they were before they shared per-plan or per-trial work: a Python loop
  over the window for the periodic set, one ``packet_slots`` mask per packet
  and a scan of the window list per slot, and a per-slot counting loop over
  the candidate window.  The library cuts both solver inputs from the slot
  groups its ``ScheduleSpan`` reads once per trial.
* ``dropping_reference.slot_groups`` is the grouping as it was before the
  span held it: one packed-key pass over the static schedule per candidate.
* ``dropping_reference.greedy_drop_packets`` is the packet-level greedy as
  it was before it read the (packet x window) count matrix: one list per
  transmission vector in a dict, re-clipped entry by entry each round.
* ``dropping_reference.build_active_sets`` is the active-set builder as it
  was before a trial's candidates shared one ``ScheduleSpan``: one schedule
  slice per rhythmic window and a run-start pass over each candidate's own
  window.
* ``dropping_reference.build_demand_vector`` is the demand builder as it
  was before each rhythmic packet carried its own demand and available
  count: it counts them again from the static schedule.
* ``reference_plan`` is ``generate_dynamic_schedule`` assembled from those
  references, with the slot-by-slot scan for usable overlay slots and the
  overlay built as ``SlotAssignment`` objects.

Each must agree with the library exactly (same floats, same orders, same
exceptions) on every end-point candidate of seeded sweep-style and
constraint-suite trials, under TBS and PBS.  The solver must also decide the
same with a table shared by a plan's candidates as with a fresh one per call,
and the two FD-PaS levels planned in one pass over a trial's candidates must
give the plans each level gives alone.  Against its oracle, the grouped
solver must also fill the same table with the same number of
delivery-probability evaluations.
"""
import contextlib
import dataclasses
import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rtwnsim import dropping
from rtwnsim.dropping import (
    DropDecision,
    PeriodicState,
    PlanInvariantError,
    build_periodic_state,
    drop_transmissions,
    generate_dynamic_schedule,
    greedy_drop_packets,
)
from rtwnsim.experiments import ExperimentSpec, _trial_seed, make_trial, run_cell
from rtwnsim.model import (
    CandidateInfeasible,
    DisturbanceInfeasible,
    SchedulingMode,
    allocate_retry_vector,
    packet_pdr,
    packet_pdr_flexible,
    pdr_degradation,
)
from rtwnsim.rhythmic import (
    DisturbanceEvent,
    ScheduleSpan,
    build_active_sets,
    end_point_candidates,
    end_point_upper_bound,
)
from rtwnsim.sim import DisturbanceSpec, Framework, SimConfig, default_horizon
from rtwnsim.static_schedule import build_static_schedule, hop_expansion

import dropping_reference as oracle
from dropping_reference import (
    PeriodicPacketState,
    SlotAssignment,
    TransmissionVector,
    overlay_of,
    to_periodic_state,
    vector_matrix,
)
from support import dynamic_plan, sets_outcome, standalone_record

REQUIRED_PDR = 0.99
BETA = 4


def _same_groups(got, expected):
    """Whether two ``(owner, slots, hops, windows)`` slot groups hold the
    same values in the same order."""
    return all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True))


def _candidates(event, task):
    """The end-point candidates a plan tries: the disturbed task's releases
    from its last stepped release plus its hop count to the latency bound."""
    return end_point_candidates(event, event.enter_slot + sum(event.periods[:-1]) + task.hops, BETA)


# ------------------------------------------------------------ frozen copies

@dataclass
class FrozenPacketState:
    """The per-packet state with a recount per delivery probability."""

    packet: tuple
    path_pdrs: tuple
    slots: list
    hops: list
    window_of: dict

    @property
    def hop_count(self):
        return len(self.path_pdrs)

    def delivery_pdr(self):
        if not self.slots or len(self.slots) < self.hop_count:
            return 0.0
        if any(h == 0 for h in self.hops):
            return packet_pdr_flexible(self.path_pdrs, len(self.slots))
        counts = [0] * self.hop_count
        for h in self.hops:
            counts[h - 1] += 1
        if any(c == 0 for c in counts):
            return 0.0
        return packet_pdr(self.path_pdrs, counts)

    def pdr_without(self, ordinal):
        slots = self.slots[:ordinal] + self.slots[ordinal + 1 :]
        hops = self.hops[:ordinal] + self.hops[ordinal + 1 :]
        probe = FrozenPacketState(self.packet, self.path_pdrs, slots, hops, {})
        return probe.delivery_pdr()

    def remove(self, ordinal):
        slot = self.slots.pop(ordinal)
        self.hops.pop(ordinal)
        return slot


def frozen_periodic_keys(start, candidate, static, task_id):
    """Periodic packets owning a static slot in [start, candidate)."""
    window_tasks = static.task_at[start:candidate]
    window_releases = static.release_at[start:candidate]
    periodic = []
    seen = set()
    for owner, release in zip(window_tasks.tolist(), window_releases.tolist()):
        if owner < 0 or owner == task_id:
            continue
        key = (owner, release)
        if key not in seen:
            seen.add(key)
            periodic.append(key)
    periodic.sort(key=lambda k: (k[1], k[0]))
    return tuple(periodic)


def frozen_build_periodic_state(sets, static, tasks, network):
    by_id = {t.id: t for t in tasks}
    windows = [(d.release, d.deadline) for d in sets.rhythmic]
    state = []
    for task_id, release in sets.periodic:
        task = by_id[task_id]
        slots = [int(s) for s in static.packet_slots(task_id, release, until=release + task.deadline)]
        hops = [int(static.hop_at[s]) for s in slots]
        window_of = {}
        for slot in slots:
            for i, (lo, hi) in enumerate(windows):
                if lo <= slot < hi:
                    window_of[slot] = i
                    break
        state.append(FrozenPacketState((task_id, release), tuple(network.path_pdrs(task.path)),
                                       slots, hops, window_of))
    return state


def frozen_build_transmission_vectors(sets, static, task_id, start, candidate):
    """Per periodic packet, its slots inside each rhythmic window, counted by
    one Python loop over the in-window periodic slots of the candidate window
    [start, candidate) of the disturbed task ``task_id``."""
    n = len(sets.rhythmic)
    starts = np.array([d.release for d in sets.rhythmic])
    ends = np.array([d.deadline for d in sets.rhythmic])
    counts = {key: [0] * n for key in sets.periodic}
    lo, hi = start, candidate
    tasks_w = static.task_at[lo:hi]
    rel_w = static.release_at[lo:hi]
    slots = np.arange(lo, hi)
    widx = np.searchsorted(starts, slots, side="right") - 1
    in_window = (widx >= 0) & (slots < ends[np.clip(widx, 0, n - 1)])
    periodic_mask = (tasks_w >= 0) & (tasks_w != task_id) & in_window
    for t, task_id, release, w in zip(
        slots[periodic_mask].tolist(),
        tasks_w[periodic_mask].tolist(),
        rel_w[periodic_mask].tolist(),
        widx[periodic_mask].tolist(),
    ):
        counts[(task_id, release)][w] += 1
    return [TransmissionVector(packet=key, replaceable=tuple(counts[key])) for key in sets.periodic]


def reference_residual(sets, static, task_id, full_demand):
    """Each rhythmic packet's unmet demand, from the frozen demand builder."""
    required, available = oracle.build_demand_vector(sets, static, task_id, full_demand)
    return tuple(max(0, r - a) for r, a in zip(required, available))


def reference_drop_transmissions(residual, state, required_pdr, mode=SchedulingMode.TBS):
    """The full-rescan solver on frozen packet states."""
    residual = list(residual)
    if all(v == 0 for v in residual):
        return DropDecision(level="transmission")

    packets = [
        FrozenPacketState(p.packet, p.path_pdrs, list(p.slots), list(p.hops), dict(p.window_of))
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


def reference_plan(event, static, tasks, network, required_pdr, beta, level):
    """``generate_dynamic_schedule`` built from the frozen references; returns
    (evaluations, decision, overlay)."""
    task = next(t for t in tasks if t.id == event.task_id)
    retry_vector = allocate_retry_vector(network.path_pdrs(task.path), required_pdr)
    full_demand = sum(retry_vector)
    upper = end_point_upper_bound(event, beta)
    evaluations = []
    best: Optional[tuple] = None
    last_stepped = event.enter_slot + sum(event.periods[:-1])
    for candidate in end_point_candidates(event, last_stepped + task.hops, beta):
        try:
            sets = oracle.build_active_sets(candidate, event, static, full_demand)
            sets = dataclasses.replace(
                sets, periodic=frozen_periodic_keys(event.enter_slot, candidate, static, event.task_id))
            residual = reference_residual(sets, static, event.task_id, full_demand)
            if not any(residual):
                decision = DropDecision(level=level)
            elif level == "packet":
                vectors = frozen_build_transmission_vectors(sets, static, event.task_id, event.enter_slot,
                                                            candidate)
                decision = oracle.greedy_drop_packets(residual, vectors, required_pdr)
            else:
                state = frozen_build_periodic_state(sets, static, tasks, network)
                decision = reference_drop_transmissions(residual, state, required_pdr, mode=static.mode)
        except CandidateInfeasible:
            evaluations.append((candidate, None))
            continue
        cost = decision.cost()
        evaluations.append((candidate, cost))
        if best is None or cost < best[0] - 1e-15:
            best = (cost, candidate, sets, decision)
    if best is None:
        raise DisturbanceInfeasible(f"no feasible end point for the disturbance at slot {event.detect_slot}")
    _, end_point, sets, decision = best

    overlay = {}
    freed = {int(s) for task, release in decision.dropped_packets for s in static.packet_slots(task, release)}
    freed |= {slot for _, _, slot in decision.dropped_slots}
    required, _ = oracle.build_demand_vector(sets, static, event.task_id, full_demand)
    for entry, need in zip(sets.rhythmic, required):
        lo, hi = entry.release, entry.deadline
        usable = [
            t
            for t in range(lo, hi)
            if static.task_at[t] == -1 or static.task_at[t] == event.task_id or t in freed
        ]
        if len(usable) < need:
            raise PlanInvariantError(
                f"the drop decision left the rhythmic packet released at {entry.release} "
                f"{len(usable)} usable slots for a demand of {need}"
            )
        if static.mode is not SchedulingMode.TBS:
            labels = [0] * need
        elif entry.tail_slots:
            labels = list(entry.prefix_hops)
        else:
            labels = hop_expansion(retry_vector, need)
        chosen = usable[:need]
        for slot, hop in zip(chosen, labels):
            overlay[slot] = SlotAssignment(task=event.task_id, release=entry.release, hop=hop)
        if entry.release == last_stepped and chosen:
            realized_finish = chosen[-1] + 1
            if not (realized_finish <= end_point <= upper):
                raise PlanInvariantError(
                    f"end point {end_point} violates the completion constraint: the last "
                    f"stepped packet finishes at {realized_finish}, the bound is {upper}"
                )
    return tuple(evaluations), decision, overlay


# ------------------------------------------------------- packet state property

def _same_float(got, expected):
    assert got == expected and got.hex() == expected.hex()


@st.composite
def _packet_state_cases(draw):
    """Path PDRs in (0, 1]; TBS labels 1..H, all-0 PBS labels or a mixed
    hand-built state; a removal sequence of ordinals (taken modulo the slots
    left)."""
    hop_count = draw(st.integers(1, 4))
    pdrs = tuple(draw(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
                               min_size=hop_count, max_size=hop_count)))
    n = draw(st.integers(0, 10))
    low, high = draw(st.sampled_from([(1, hop_count), (0, 0), (0, hop_count)]))
    hops = draw(st.lists(st.integers(low, high), min_size=n, max_size=n))
    slots = sorted(draw(st.lists(st.integers(0, 500), min_size=n, max_size=n, unique=True)))
    removals = draw(st.lists(st.integers(0, 100), max_size=n))
    return pdrs, slots, hops, removals


@settings(max_examples=300, deadline=None)
@given(_packet_state_cases())
def test_packet_state_matches_frozen_copy(case):
    pdrs, slots, hops, removals = case
    state = PeriodicPacketState((1, 0), pdrs, list(slots), list(hops), {})
    frozen = FrozenPacketState((1, 0), pdrs, list(slots), list(hops), {})
    for step in range(len(removals) + 1):
        _same_float(state.delivery_pdr(), frozen.delivery_pdr())
        for ordinal in range(len(frozen.slots)):
            _same_float(state.pdr_without(ordinal), frozen.pdr_without(ordinal))
        if step < len(removals):
            ordinal = removals[step] % len(frozen.slots)
            assert state.remove(ordinal) == frozen.remove(ordinal)
            assert (state.slots, state.hops) == (frozen.slots, frozen.hops)


# ------------------------------------------------- packet greedy property

@st.composite
def _greedy_cases(draw):
    """Up to seven periodic packets with distinct keys in no particular
    order, over up to four rhythmic windows: small counts, so that sums tie
    and rows are often zero, against residuals that are zero, coverable or
    beyond what every packet together holds."""
    windows = draw(st.integers(1, 4))
    keys = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 5)), max_size=7, unique=True))
    rows = [draw(st.lists(st.integers(0, 2), min_size=windows, max_size=windows)) for _ in keys]
    residual = tuple(draw(st.lists(st.integers(0, 5), min_size=windows, max_size=windows)))
    return residual, [TransmissionVector(key, tuple(row)) for key, row in zip(keys, rows)]


def _greedy_outcome(solve):
    try:
        return solve()
    except CandidateInfeasible as exc:
        return ("raised", str(exc))


@settings(max_examples=500, deadline=None)
@given(_greedy_cases())
def test_packet_greedy_on_the_count_matrix_matches_frozen_greedy(case):
    residual, vectors = case
    got = _greedy_outcome(lambda: greedy_drop_packets(residual, *vector_matrix(residual, vectors), REQUIRED_PDR))
    expected = _greedy_outcome(lambda: oracle.greedy_drop_packets(residual, vectors, REQUIRED_PDR))
    assert got == expected


# ---------------------------------------------------------- seeded trials

def _fields(p):
    return (p.packet, p.path_pdrs, p.slots, p.hops, p.window_of)


def _outcome(solver, residual, state, mode):
    try:
        decision = solver(residual, state, REQUIRED_PDR, mode=mode)
    except (CandidateInfeasible, ValueError) as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", decision.dropped_slots, decision.degradations, decision.total_degradation)


def _plan_outcome(event, static, trial, level):
    args = (event, static, trial.tasks, trial.network, REQUIRED_PDR, BETA, level)
    try:
        plan = dynamic_plan(*args)
        assert (np.diff(plan.overlay_slots) > 0).all()  # ascending, as the engine's split reads them
        got = ("ok", plan.evaluations, plan.decision, overlay_of(plan))
    except (DisturbanceInfeasible, PlanInvariantError, ValueError) as exc:
        got = ("raised", type(exc), str(exc))
    try:
        expected = ("ok", *reference_plan(*args))
    except (DisturbanceInfeasible, PlanInvariantError, ValueError) as exc:
        expected = ("raised", type(exc), str(exc))
    return got, expected


def _compare_trial(trial, mode, horizon):
    """Compare builders, solver and whole plans on every candidate of the
    trial's disturbance; return how many unsatisfied candidates went through
    both solvers and how many of those raised."""
    task = next(t for t in trial.tasks if t.id == trial.rhythmic_task)
    event = DisturbanceEvent.from_task(task, trial.instance, trial.spec)
    static = build_static_schedule(trial.tasks, trial.network, mode, REQUIRED_PDR, horizon=horizon)
    assert static.feasible
    schedule = static.schedule
    path_pdrs = trial.network.path_pdrs(task.path)
    full_demand = sum(allocate_retry_vector(path_pdrs, REQUIRED_PDR))
    where = f"seed {trial.seed}, {mode.value}"
    span = ScheduleSpan(event, schedule, trial.tasks, BETA)
    path_pdrs = oracle.task_path_pdrs(trial.tasks, trial.network)
    compared = raised = 0
    for candidate in _candidates(event, task):
        built = sets_outcome(lambda: build_active_sets(candidate, event, span, full_demand))
        assert built == sets_outcome(lambda: oracle.build_active_sets(candidate, event, schedule, full_demand))
        if built[0] == "raised":
            continue
        sets = built[1]
        assert sets.periodic == frozen_periodic_keys(event.enter_slot, candidate, schedule, event.task_id), where
        groups = span.groups(sets)
        assert _same_groups(groups, oracle.slot_groups(sets, schedule, trial.tasks)), f"{where}, candidate {candidate}"
        vectors = frozen_build_transmission_vectors(sets, schedule, event.task_id, event.enter_slot, candidate)
        assert oracle.vectors_of(sets, span) == vectors, f"{where}, candidate {candidate}"
        packets = oracle.build_periodic_state(sets, schedule, trial.tasks, trial.network)
        frozen = frozen_build_periodic_state(sets, schedule, trial.tasks, trial.network)
        assert [_fields(p) for p in packets] == [_fields(p) for p in frozen], f"{where}, candidate {candidate}"
        residual = reference_residual(sets, schedule, event.task_id, full_demand)
        assert sets.residual == residual, f"{where}, candidate {candidate}"
        state = build_periodic_state(sets, groups, path_pdrs)
        assert vars(state) == vars(to_periodic_state(packets, residual)), f"{where}, candidate {candidate}"
        if not any(residual):
            continue
        expected = _outcome(reference_drop_transmissions, residual, frozen, mode)
        assert _outcome(oracle.drop_transmissions, residual, packets, mode) == expected
        got = _outcome(drop_transmissions, residual, state, mode)
        assert got == expected, f"{where}, candidate {candidate}"
        # The slots of satisfied windows, which the library masks, change no
        # decision: the unmasked state decides the same.
        unmasked = PeriodicState(sets.periodic, [path_pdrs[t] for t, _ in sets.periodic], *groups)
        assert _exact(_outcome(drop_transmissions, residual, unmasked, mode)) == _exact(got), where
        compared += 1
        raised += expected[0] == "raised"
    for level in ("packet", "transmission"):
        got, expected = _plan_outcome(event, schedule, trial, level)
        assert got == expected, f"{where}, {level} plan"
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


def _planned(event, schedule, trial, levels):
    """Each plan of one ``generate_dynamic_schedule`` call over ``levels``,
    with its overlay, or the exception the call raised."""
    try:
        plans = generate_dynamic_schedule(event, schedule, trial.tasks, trial.network, REQUIRED_PDR, BETA, levels)
    except (DisturbanceInfeasible, PlanInvariantError, ValueError) as exc:
        return ("raised", type(exc), str(exc))
    return [(plan, overlay_of(plan)) for plan in plans]  # plans compare without their overlay arrays


@pytest.mark.parametrize("mode", [SchedulingMode.TBS, SchedulingMode.PBS])
def test_levels_planned_through_one_table_match_levels_planned_alone(mode):
    # The A2 trials: one call with both levels, in either order, gives the
    # plan (end point, decision, overlay, evaluations, sets) that each level
    # gives alone, or raises what one of the levels raises alone.  Under
    # PBS some transmission plans hit the known ValueError.
    planned = raised = 0
    for i in range(30):
        trial = make_trial(100_000 + i, 0.5, 8)
        task = next(t for t in trial.tasks if t.id == trial.rhythmic_task)
        event = DisturbanceEvent.from_task(task, trial.instance, trial.spec)
        horizon = end_point_upper_bound(event, BETA) + 2 * max(t.period for t in trial.tasks) + 1
        schedule = build_static_schedule(trial.tasks, trial.network, mode, REQUIRED_PDR,
                                         horizon=horizon).schedule
        alone = {level: _planned(event, schedule, trial, (level,)) for level in ("packet", "transmission")}
        for order in (("packet", "transmission"), ("transmission", "packet")):
            where = f"seed {trial.seed}, {mode.value}, {order}"
            together = _planned(event, schedule, trial, order)
            if together[0] == "raised":
                assert together in alone.values(), where
                raised += 1
                continue
            for level, shared in zip(order, together, strict=True):
                assert alone[level] == [shared], f"{where}, {level}"
                planned += 1
    assert planned > 100
    assert (raised > 0) == (mode is SchedulingMode.PBS)


def test_run_cell_with_shared_tables_matches_standalone_evaluations():
    # run_cell plans each trial's FD-PaS levels in one planning pass;
    # standalone_record plans each (trial, framework) alone, through sim.plan.
    spec = ExperimentSpec(utils=(0.5,), r_steps=(8,), alphas=(1, 2), trials=30, base_seed=7)
    records = run_cell(spec, 0.5, 8, 60)
    assert len(records) == spec.trials * len(spec.frameworks) * len(spec.alphas)
    for record in records:
        trial = make_trial(record.seed, 0.5, 8, gamma=spec.gamma, required_pdr=spec.required_pdr)
        alone = standalone_record(trial, Framework(record.framework), alpha_mult=record.alpha_mult,
                                  beta=spec.beta, required_pdr=spec.required_pdr, tick=60)
        assert record == alone


def _exact(outcome):
    """An ``_outcome`` with each float as its hex string, so that equal
    outcomes carry the same floats bit for bit."""
    if outcome[0] == "raised":
        return outcome
    _, dropped, degradations, total = outcome
    return ("ok", dropped, tuple((key, d.hex()) for key, d in degradations), total.hex())


def _table_snapshot(table):
    return {key: (pdr.hex(), {h: d.hex() for h, d in deltas.items()}) for key, (pdr, deltas) in table.items()}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(list(SchedulingMode)), st.booleans())
def test_shared_table_matches_fresh_tables_and_reference(seed, mode, sweep_style):
    # Every candidate of one plan solved with one shared table, in candidate
    # order as the planner does, against a fresh table per call and the
    # frozen full-rescan solver, on an A2-style or an A7-style trial.
    if sweep_style:
        trial = make_trial(200_000 + seed, 0.5, 8)
    else:
        trial = make_trial(500_000 + seed, 0.6, 3, gamma=0.5, in_depth=3, out_depth=3,
                           max_instance=4, max_period=60, hop_range=(2, 6))
    task = next(t for t in trial.tasks if t.id == trial.rhythmic_task)
    event = DisturbanceEvent.from_task(task, trial.instance, trial.spec)
    horizon = end_point_upper_bound(event, BETA) + 2 * max(t.period for t in trial.tasks) + 1
    static = build_static_schedule(trial.tasks, trial.network, mode, REQUIRED_PDR, horizon=horizon)
    assume(static.feasible)
    schedule = static.schedule
    full_demand = sum(allocate_retry_vector(trial.network.path_pdrs(task.path), REQUIRED_PDR))
    span = ScheduleSpan(event, schedule, trial.tasks, BETA)
    table = {}
    shared_solver = functools.partial(drop_transmissions, table=table)
    solved = []
    for candidate in _candidates(event, task):
        try:
            sets = build_active_sets(candidate, event, span, full_demand)
        except CandidateInfeasible:
            continue
        residual = sets.residual
        if not any(residual):
            continue
        state = build_periodic_state(sets, span.groups(sets), oracle.task_path_pdrs(trial.tasks, trial.network))
        frozen = frozen_build_periodic_state(sets, schedule, trial.tasks, trial.network)
        shared = _exact(_outcome(shared_solver, residual, state, mode))
        assert shared == _exact(_outcome(drop_transmissions, residual, state, mode)), candidate
        assert shared == _exact(_outcome(reference_drop_transmissions, residual, frozen, mode)), candidate
        solved.append((residual, state, shared))
    # A second pass finds every delivery probability and delta it needs in
    # the table and decides the same.
    filled = _table_snapshot(table)
    for residual, state, shared in solved:
        assert _exact(_outcome(shared_solver, residual, state, mode)) == shared
    assert _table_snapshot(table) == filled


def test_matches_reference_on_known_pbs_rounding_error():
    # Sweep trials 20 and 31 of base seed 1 at util 0.5, eight steps, tick 50,
    # under PBS with the simulator's default horizon: packet_pdr_flexible
    # returns 1.0000000000000002 for a touched packet and pdr_degradation
    # raises.  The library must raise the same error.
    from rtwnsim.sim import default_horizon

    raised = 0
    for i in (20, 31):
        trial = make_trial(_trial_seed(1, 0.5, 8, 50, i), 0.5, 8)
        config = SimConfig(network=trial.network, tasks=trial.tasks, mode=SchedulingMode.PBS,
                           disturbance=DisturbanceSpec(trial.rhythmic_task, trial.instance, trial.spec))
        raised += _compare_trial(trial, SchedulingMode.PBS, default_horizon(config))[1]
    assert raised > 0


# ------------------------------------------------ grouped solver vs its oracle

@contextlib.contextmanager
def _counted_pdr_calls():
    """Count the delivery-probability evaluations of the library solver and
    of its oracle, each through its own module's bindings."""
    calls = {"library": 0, "oracle": 0}
    saved = []
    for module, side in ((dropping, "library"), (oracle, "oracle")):
        for name in ("packet_pdr", "packet_pdr_flexible"):
            fn = getattr(module, name)
            saved.append((module, name, fn))

            def counted(*args, _fn=fn, _side=side):
                calls[_side] += 1
                return _fn(*args)

            setattr(module, name, counted)
    try:
        yield calls
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def _solve_both(residual, packets, state, mode, library, reference):
    """The outcomes of the library solver on ``state`` and of its oracle on
    ``packets``, each with its own table."""
    got = _outcome(functools.partial(drop_transmissions, table=library), residual, state, mode)
    expected = _outcome(functools.partial(oracle.drop_transmissions, table=reference), residual, packets, mode)
    return got, expected


def _sweep_cell_trials(base_seed, trials, mode):
    """Each of the first ``trials`` trials of the sweep cell (util 0.5,
    eight ramp steps, tick 60) at ``base_seed``, as (index, trial, disturbed
    task, event, static schedule over the sweep's horizon, the
    ``ScheduleSpan`` the planner reads it through, full rhythmic demand)."""
    for index in range(trials):
        trial = make_trial(_trial_seed(base_seed, 0.5, 8, 60, index), 0.5, 8, required_pdr=REQUIRED_PDR)
        config = SimConfig(network=trial.network, tasks=trial.tasks, mode=mode, required_pdr=REQUIRED_PDR,
                           beta=BETA, framework=Framework.FDPAS_TRANSMISSION,
                           disturbance=DisturbanceSpec(trial.rhythmic_task, trial.instance, trial.spec))
        schedule = build_static_schedule(trial.tasks, trial.network, mode, REQUIRED_PDR,
                                         horizon=default_horizon(config)).schedule
        event = config.event()
        task = next(t for t in trial.tasks if t.id == trial.rhythmic_task)
        full_demand = sum(allocate_retry_vector(trial.network.path_pdrs(task.path), REQUIRED_PDR))
        yield index, trial, task, event, schedule, ScheduleSpan(event, schedule, trial.tasks, BETA), full_demand


def compare_sweep_cell_active_sets(base_seed, trials, mode):
    """Build every end-point candidate of the first ``trials`` trials of the
    sweep cell (util 0.5, eight ramp steps, tick 60) at ``base_seed``
    from the trial's ``ScheduleSpan``, the planner's one read of the static
    schedule, and through the frozen per-window builder:
    the same active sets or the same CandidateInfeasible message.  Each
    rhythmic packet carries the demand and available count the frozen demand
    builder counts, and its residual clips their difference at 0.  The
    span's slot groups of each built candidate equal those the frozen
    per-candidate grouping finds in the static schedule.  Returns how many
    candidates were compared, how many packets had more available slots
    than demand and how many periodic slots the compared groups held."""
    compared = surplus = grouped = 0
    for index, trial, task, event, static, span, full_demand in _sweep_cell_trials(base_seed, trials, mode):
        for candidate in _candidates(event, task):
            where = f"base seed {base_seed}, trial {index}, {mode.value}, candidate {candidate}"
            got = sets_outcome(lambda: build_active_sets(candidate, event, span, full_demand))
            assert got == sets_outcome(
                lambda: oracle.build_active_sets(candidate, event, static, full_demand)), where
            compared += 1
            if got[0] == "raised":
                continue
            sets = got[1]
            required, available = oracle.build_demand_vector(sets, static, event.task_id, full_demand)
            assert [(d.demand, d.available) for d in sets.rhythmic] == list(zip(required, available)), where
            assert sets.residual == tuple(max(0, r - a) for r, a in zip(required, available)), where
            surplus += sum(a > r for r, a in zip(required, available))
            groups = span.groups(sets)
            assert _same_groups(groups, oracle.slot_groups(sets, static, trial.tasks)), where
            grouped += len(groups[1])
    return compared, surplus, grouped


@pytest.mark.parametrize("mode", [SchedulingMode.TBS, SchedulingMode.PBS])
def test_candidate_demands_match_the_frozen_builder_on_sweep_cell_trials(mode):
    # Every candidate of the benchmark's 100-trial sweep cell at base seed 0,
    # against the frozen active-set and demand builders; CI runs base seeds
    # 0-2.  Some packets' windows hold more free slots than they need, so
    # the clip at 0 matters.  The cell has no truncated boundary packet;
    # test_rhythmic's span property holds a drawn one to the same builders.
    compared, surplus, grouped = compare_sweep_cell_active_sets(0, 100, mode)
    assert compared == 400 and surplus > 0 and grouped > 0


def compare_sweep_cell_with_oracle(base_seed, trials, mode):
    """Plan the first ``trials`` trials of the sweep cell (util 0.5, eight
    ramp steps, tick 60) at ``base_seed`` at the transmission level over the
    sweep's horizon.  Each unsatisfied end-point candidate is solved by the
    library solver and by its oracle, each with one table per plan as the
    planner keeps it: both must give the same decision or exception, fill
    the same table and evaluate as many delivery probabilities.  The plan
    must then report the oracle's cost for every candidate and choose the
    oracle's decision at its end point, or raise as the oracle did.  Returns
    how many candidates were compared."""
    compared = 0
    for index, trial, task, event, schedule, span, full_demand in _sweep_cell_trials(base_seed, trials, mode):
        where = f"base seed {base_seed}, trial {index}, {mode.value}"
        path_pdrs = oracle.task_path_pdrs(trial.tasks, trial.network)
        library, reference = {}, {}
        evaluations, decisions, error = [], {}, None
        with _counted_pdr_calls() as calls:
            for candidate in _candidates(event, task):
                try:
                    sets = build_active_sets(candidate, event, span, full_demand)
                except CandidateInfeasible:
                    evaluations.append((candidate, None))
                    continue
                if not any(sets.residual):
                    evaluations.append((candidate, 0.0))
                    continue
                packets = oracle.build_periodic_state(sets, schedule, trial.tasks, trial.network)
                got, expected = _solve_both(sets.residual, packets,
                                            build_periodic_state(sets, span.groups(sets), path_pdrs),
                                            mode, library, reference)
                assert _exact(got) == _exact(expected), f"{where}, candidate {candidate}"
                assert _table_snapshot(library) == _table_snapshot(reference), f"{where}, candidate {candidate}"
                assert calls["library"] == calls["oracle"], f"{where}, candidate {candidate}"
                compared += 1
                if expected[:2] == ("raised", ValueError):
                    error = expected
                    break
                if expected[0] == "ok":
                    decisions[candidate] = DropDecision("transmission", (), *expected[1:])
                evaluations.append((candidate, expected[3] if expected[0] == "ok" else None))
        planned = _planned(event, schedule, trial, ("transmission",))
        if error is not None:
            assert planned == error, where
        elif all(cost is None for _, cost in evaluations):
            assert planned[:2] == ("raised", DisturbanceInfeasible), where
        else:
            (plan, _), = planned
            assert plan.evaluations == tuple(evaluations), where
            if plan.end_point in decisions:
                assert plan.decision == decisions[plan.end_point], where
    return compared


@pytest.mark.parametrize("mode", [SchedulingMode.TBS, SchedulingMode.PBS])
def test_grouped_solver_matches_oracle_on_sweep_cell_trials(mode):
    # The first 30 trials of the benchmark's sweep cell at base seed 0; CI
    # runs all 100 at base seeds 0-2.
    assert compare_sweep_cell_with_oracle(0, 30, mode) > 40


@st.composite
def _tied_instances(draw):
    """Up to five periodic packets over up to three rhythmic windows, with
    path PDRs from a pool of three so that deltas tie across packets; TBS
    labels over up to three hops, or PBS labels; slots unique and
    interleaved across packets."""
    mode = draw(st.sampled_from(list(SchedulingMode)))
    windows = draw(st.integers(1, 3))
    residual = tuple(draw(st.lists(st.integers(0, 4), min_size=windows, max_size=windows)))
    sizes = draw(st.lists(st.integers(0, 6), min_size=1, max_size=5))
    slots = draw(st.lists(st.integers(0, 60), min_size=sum(sizes), max_size=sum(sizes), unique=True))
    state = []
    for j, n in enumerate(sizes):
        hop_count = draw(st.integers(1, 3))
        pdrs = tuple(draw(st.lists(st.sampled_from([0.5, 0.7, 0.9]), min_size=hop_count, max_size=hop_count)))
        mine, slots = sorted(slots[:n]), slots[n:]
        low = 0 if mode is SchedulingMode.PBS else 1
        hops = draw(st.lists(st.integers(low, low * hop_count), min_size=n, max_size=n))
        placement = draw(st.lists(st.integers(-1, windows - 1), min_size=n, max_size=n))
        window_of = {s: w for s, w in zip(mine, placement) if w >= 0}
        state.append(PeriodicPacketState((j % 2 + 1, 10 * (j // 2)), pdrs, mine, hops, window_of))
    return residual, state, mode


@settings(max_examples=300, deadline=None)
@given(_tied_instances())
def test_grouped_solver_matches_oracle_on_hand_built_states(instance):
    # The same decision or exception, the same table and as many delivery
    # probability evaluations, solved once with fresh tables and again with
    # the tables the first solve filled.
    residual, packets, mode = instance
    state = to_periodic_state(packets, residual)
    library, reference = {}, {}
    for _ in range(2):
        with _counted_pdr_calls() as calls:
            got, expected = _solve_both(residual, packets, state, mode, library, reference)
        assert _exact(got) == _exact(expected)
        assert _table_snapshot(library) == _table_snapshot(reference)
        assert calls["library"] == calls["oracle"]


@pytest.mark.parametrize("hops", [[1, 3, 2], [-1, 1, 2]])
def test_grouped_state_rejects_hop_labels_outside_the_path_as_the_oracle_does(hops):
    message = r"^hop labels must lie in 0\.\.2$"
    with pytest.raises(ValueError, match=message):
        PeriodicPacketState((1, 0), (0.9, 0.9), [10, 11, 12], list(hops), {})
    with pytest.raises(ValueError, match=message):
        PeriodicState([(1, 0)], [(0.9, 0.9)], np.zeros(3, dtype=np.int64), np.array([10, 11, 12]),
                      np.array(hops), np.zeros(3, dtype=np.int64))


def test_grouped_solver_rejects_pbs_hop_labels_as_the_oracle_does():
    packets = [PeriodicPacketState((1, 0), (0.9, 0.9), [10, 11, 12], [0, 1, 0], {10: 0, 11: 0, 12: 0})]
    got, expected = _solve_both((1,), packets, to_periodic_state(packets, (1,)), SchedulingMode.PBS, {}, {})
    assert got == expected == ("raised", ValueError, "PBS packet states carry hop label 0 on every slot")
