"""Frozen references for the dropping heuristics.

The paper argues that dropping is NP-hard by embedding set cover into it,
and it bounds the two greedy heuristics by the exhaustive optimum.  Neither
is part of the framework, which plans with the heuristics alone, so both live
here, next to the tests that hold the heuristics to them.

``TransmissionVector`` is a periodic packet's transmission vector as one
object, the form the set-cover embedding and the oracle take.
``vectors_of`` reads a candidate's count matrix as such objects,
``vector_matrix`` turns a list of them into the ``(packets, counts)`` pair
the library's ``greedy_drop_packets`` reads, and ``greedy_drop_packets``
here is that greedy as it was before it worked on the count matrix, with
each vector a list in a dict, the library greedy's frozen reference.
Like the library solvers, every solver here takes ``residual``, each
rhythmic packet's unmet demand.  ``build_demand_vector`` is the demand
builder as it was before each rhythmic packet carried its own demand and
available count; the tests hold those counts to it.

``build_active_sets`` is the active-set builder as it was before every
candidate of a disturbance read one ``ScheduleSpan``: it slices the static
schedule once per rhythmic window for the available counts and finds the
periodic packets from the run starts of the candidate's own window.
``slot_groups`` finds a candidate's periodic slots as they were found
before the span held them, from the static schedule for each candidate
alone, and ``transmission_vectors`` counts them per window; the span's
per-candidate groups are held to them.

``PeriodicPacketState``, ``build_periodic_state`` and ``drop_transmissions``
are the transmission-level solver as it was before it worked on grouped
slot arrays: one mutable state object per periodic packet, and a heap whose
groups rescan their packet's slots for the earliest needy one.  The library
solver must decide exactly as they do; ``to_periodic_state`` turns a list of
hand-built packet states into the library's ``PeriodicState``, masked as
``dropping.build_periodic_state`` masks it, and ``task_path_pdrs`` gives the
path PDRs the planner finds for the transmission level.
``overlay_of`` reads a ``DynamicPlan``'s overlay arrays as ``{slot:
SlotAssignment}``, the form the tests and the reference plan compare.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from rtwnsim.dropping import (
    DropDecision,
    DynamicPlan,
    PdrTable,
    PeriodicState,
    PlanInvariantError,
    build_transmission_vectors,
)
from rtwnsim.model import (
    CandidateInfeasible,
    NetworkModel,
    SchedulingMode,
    TaskSpec,
    packet_pdr,
    packet_pdr_flexible,
    pdr_degradation,
)
from rtwnsim.rhythmic import ActivePacketSets, DisturbanceEvent, RhythmicDemand, ScheduleSpan, actual_releases
from rtwnsim.static_schedule import Schedule

PacketKey = tuple[int, int]  # (task id, release slot)

ORACLE_PACKET_LIMIT = 20
ORACLE_SLOT_LIMIT = 22
ORACLE_COMBO_LIMIT = 2_000_000


@dataclass(frozen=True)
class TransmissionVector:
    """Per rhythmic packet, how many of this periodic packet's static slots
    could be handed over (slots falling inside that rhythmic packet's window)."""

    packet: PacketKey
    replaceable: tuple[int, ...]


def vectors_of(sets: ActivePacketSets, span: ScheduleSpan) -> list[TransmissionVector]:
    """The transmission vectors the library counts for ``sets`` from
    ``span``, one object per periodic packet."""
    rows = build_transmission_vectors(sets, span.groups(sets)).tolist()
    return [TransmissionVector(key, tuple(row)) for key, row in zip(sets.periodic, rows)]


def slot_groups(
    sets: ActivePacketSets, static: Schedule, tasks: Sequence[TaskSpec]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(owner, slots, hops, windows)``: the static slots of the periodic
    packets of ``sets``, grouped by packet in ``sets.periodic`` order and in
    slot order within a packet, found from ``static`` for this candidate
    alone.  ``owner`` is the packet's index in ``sets.periodic``, ``hops``
    the slot's hop label and ``windows`` the index of the rhythmic window
    holding the slot, or -1 when none does.

    One pass over the slots the periodic packets can own finds them all:
    a slot belongs to the packet whose packed (release, task) key it
    carries, if it lies in that packet's [release, release + deadline).
    ``sets.periodic`` is in (release, task) order, so the packed keys are
    sorted and one ``searchsorted`` matches every slot; one more finds
    each slot's window, since the windows are sorted and disjoint.

    One line differs from the library code it froze: the packing width lies
    above the periodic packets' task ids as well as above the owners of the
    slice.  The library took it from the owners alone, so a packet whose
    slots all lay outside its window, which no EDF schedule holds, could
    share its packed key with another task's packet.
    """
    if not sets.periodic:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty
    deadline = {t.id: t.deadline for t in tasks}
    task_ids = np.array([task for task, _ in sets.periodic], dtype=np.int64)
    releases = np.array([release for _, release in sets.periodic], dtype=np.int64)
    ends = releases + np.array([deadline[task] for task, _ in sets.periodic], dtype=np.int64)
    lo, hi = max(0, int(releases[0])), min(static.horizon, int(ends.max()))
    owners = static.task_at[lo:hi]
    width = max(int(owners.max(initial=-1)), int(task_ids.max()), 0) + 1  # above every task id in range
    keys = releases * width + task_ids
    slot_keys = static.release_at[lo:hi] * width + owners  # negative on idle slots
    idx = np.minimum(np.searchsorted(keys, slot_keys), len(keys) - 1)
    slots = np.arange(lo, hi)
    match = (keys[idx] == slot_keys) & (slots >= releases[idx]) & (slots < ends[idx])
    owner = idx[match]
    order = np.argsort(owner, kind="stable")
    owner, slots = owner[order], slots[match][order]
    starts = np.array([d.release for d in sets.rhythmic])
    stops = np.array([d.deadline for d in sets.rhythmic])
    w = np.searchsorted(starts, slots, side="right") - 1
    windows = np.where((w >= 0) & (slots < stops[np.maximum(w, 0)]), w, -1)
    return owner, slots, static.hop_at[slots], windows


def transmission_vectors(sets: ActivePacketSets, groups: tuple[np.ndarray, ...]) -> np.ndarray:
    """The (periodic packet x rhythmic window) counts of ``sets`` from its
    ``slot_groups``, as the library counted them from those groups."""
    n = len(sets.rhythmic)
    owner, _, _, windows = groups
    inside = windows >= 0
    counts = np.bincount(owner[inside] * n + windows[inside], minlength=len(sets.periodic) * n)
    return counts.reshape(len(sets.periodic), n)


def build_demand_vector(
    sets: ActivePacketSets, static: Schedule, task_id: int, full_demand: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(required, available)`` per rhythmic packet of ``sets``: the slots
    demanded (``full_demand``, the retry budget of a whole packet, or, for
    a boundary packet that takes over the static tail of an instance of the
    disturbed task ``task_id``, that instance's slots before its tail) and
    the slots already available in its window (idle plus ``task_id``'s)."""
    required = []
    available = []
    for entry in sets.rhythmic:
        if entry.tail_slots:
            first = entry.tail_slots[0]
            taken_over = static.packet_slots(task_id, int(static.release_at[first]))
            required.append(int((taken_over < first).sum()))
        else:
            required.append(full_demand)
        window = static.task_at[entry.release:entry.deadline]
        available.append(int(((window == -1) | (window == task_id)).sum()))
    return tuple(required), tuple(available)


def build_active_sets(
    candidate: int, event: DisturbanceEvent, static: Schedule, full_demand: int
) -> ActivePacketSets:
    """The packet sets one end-point candidate implies, with every window's
    available count sliced from ``static`` and the periodic packets read
    from the run starts of [enter_slot, candidate); see
    ``rhythmic.build_active_sets`` for the boundary cases."""
    start = event.enter_slot
    if candidate <= start:
        raise CandidateInfeasible("end point must lie after the window start")
    releases = [r for r in actual_releases(event, candidate - 1) if r < candidate]

    windows: list[tuple[int, int, int, tuple[int, ...], tuple[int, ...]]] = []
    p0 = event.nominal_period
    on_grid = (candidate - event.phase) % p0 == 0
    boundary_case = 0
    resume_release = candidate

    last_release = releases[-1]
    nominal_deadline_of_last = last_release + event.nominal_deadline
    needs_boundary = nominal_deadline_of_last > candidate or not on_grid

    for seq, release in enumerate(releases):
        if seq < len(event.deadlines):
            deadline = release + event.deadlines[seq]
        else:
            deadline = release + event.nominal_deadline
        if seq + 1 < len(releases):
            deadline = min(deadline, releases[seq + 1])  # keep windows disjoint
        demand = full_demand
        tail: tuple[int, ...] = ()
        prefix: tuple[int, ...] = ()
        if seq == len(releases) - 1:
            if needs_boundary:
                r_p = event.grid_release_after(last_release)
                resume_release = r_p
                if candidate < r_p:
                    boundary_case = 1
                    deadline = candidate
                    task0 = static.task_slots(event.task_id)
                    after = task0[task0 >= candidate]
                    if after.size == 0:
                        raise CandidateInfeasible("static schedule has no task slot after the end point")
                    t_k0 = int(after[0])
                    if t_k0 < r_p:
                        prev_release = r_p - p0
                        prev_slots = [
                            int(s)
                            for s in static.packet_slots(
                                event.task_id, prev_release, until=prev_release + event.nominal_deadline
                            )
                        ]
                        k0 = prev_slots.index(t_k0) + 1
                        demand = k0 - 1
                        tail = tuple(prev_slots[k0 - 1:])
                        prefix = tuple(int(static.hop_at[s]) for s in prev_slots[: k0 - 1])
                else:
                    boundary_case = 2
                    inst_slots = static.packet_slots(
                        event.task_id, r_p, until=r_p + event.nominal_deadline
                    )
                    first_static = int(inst_slots[0]) if inst_slots.size else candidate
                    deadline = min(candidate, first_static)
            else:
                deadline = min(deadline, candidate)
        if demand > deadline - release:
            raise CandidateInfeasible(
                f"packet released at {release} needs {demand} slots in a "
                f"{deadline - release}-slot window"
            )
        windows.append((release, deadline, demand, tail, prefix))

    rhythmic = []
    for release, deadline, demand, tail, prefix in windows:
        owners = static.task_at[release:deadline]
        available = int(((owners == -1) | (owners == event.task_id)).sum())
        rhythmic.append(RhythmicDemand(release, deadline, demand, available, tail, prefix))

    window_tasks = static.task_at[start:candidate]
    window_releases = static.release_at[start:candidate]
    run_start = np.ones(len(window_tasks), dtype=bool)
    run_start[1:] = (window_tasks[1:] != window_tasks[:-1]) | (window_releases[1:] != window_releases[:-1])
    keep = run_start & (window_tasks >= 0) & (window_tasks != event.task_id)
    keys = set(zip(window_releases[keep].tolist(), window_tasks[keep].tolist()))
    periodic = [(task_id, release) for release, task_id in sorted(keys)]

    return ActivePacketSets(
        rhythmic=tuple(rhythmic),
        periodic=tuple(periodic),
        resume_release=resume_release,
        boundary_case=boundary_case,
    )


def vector_matrix(
    residual: Sequence[int], vectors: Sequence[TransmissionVector]
) -> tuple[list[PacketKey], np.ndarray]:
    """``vectors`` as the packet keys and the (packet x rhythmic window)
    count matrix the library's ``greedy_drop_packets`` reads; ``residual``
    gives the window count when ``vectors`` is empty."""
    counts = np.array([v.replaceable for v in vectors], dtype=np.int64)
    return [v.packet for v in vectors], counts.reshape(len(vectors), len(residual))


def greedy_drop_packets(
    residual: Sequence[int], vectors: Sequence[TransmissionVector], required_pdr: float
) -> DropDecision:
    """Drop whole periodic packets until every rhythmic packet is covered.

    Each round removes the packet contributing the most replaceable slots
    (ties to the lowest release, then task id), subtracts its contribution
    from the residual demand, and re-clips the remaining vectors: entries for
    satisfied rhythmic packets go to zero and entries exceeding the residual
    are reduced to it, so later rounds rank packets by *useful* contribution.
    """
    residual = list(residual)
    if all(v == 0 for v in residual):
        return DropDecision(level="packet")

    live: dict[PacketKey, list[int]] = {v.packet: list(v.replaceable) for v in vectors}
    dropped: list[PacketKey] = []
    while True:
        best_key = None
        best_sum = -1
        for key in live:
            s = sum(live[key])
            if s > best_sum or (s == best_sum and (key[1], key[0]) < (best_key[1], best_key[0])):
                best_key, best_sum = key, s
        if best_key is None or best_sum == 0:
            raise CandidateInfeasible("periodic packets cannot cover the rhythmic demand")
        contribution = live.pop(best_key)
        dropped.append(best_key)
        for i in range(len(residual)):
            residual[i] = max(0, residual[i] - contribution[i])
        if all(v == 0 for v in residual):
            break
        for eps in live.values():
            for i in range(len(residual)):
                if residual[i] == 0:
                    eps[i] = 0
                elif eps[i] > residual[i]:
                    eps[i] = residual[i]

    degradations = tuple((key, required_pdr) for key in sorted(dropped, key=lambda k: (k[1], k[0])))
    return DropDecision(
        level="packet",
        dropped_packets=tuple(dropped),
        degradations=degradations,
        total_degradation=required_pdr * len(dropped),
    )


class SlotAssignment(NamedTuple):
    """The packet one overlay slot carries."""

    task: int
    release: int  # release slot of the owning packet (unique packet key)
    hop: int  # 1-based hop under TBS; 0 under PBS


def overlay_of(plan: DynamicPlan) -> dict[int, SlotAssignment]:
    """``plan``'s overlay arrays as ``{slot: SlotAssignment}``."""
    columns = (plan.overlay_slots.tolist(), plan.overlay_releases.tolist(), plan.overlay_hops.tolist())
    return {slot: SlotAssignment(plan.event.task_id, release, hop) for slot, release, hop in zip(*columns)}


def task_path_pdrs(tasks: Sequence[TaskSpec], network: NetworkModel) -> dict[int, tuple[float, ...]]:
    """Each task's path PDRs, as ``generate_dynamic_schedule`` finds them."""
    return {t.id: tuple(network.path_pdrs(t.path)) for t in tasks}

@dataclass
class PeriodicPacketState:
    """Mutable per-packet view used by the transmission-dropping heuristic.

    ``counts[h]`` is the number of remaining slots labelled hop ``h``; index 0
    counts PBS slots.  It is set up from ``hops`` once and kept in step by
    ``remove``, the only mutator, so a delivery probability costs O(hops).
    """

    packet: PacketKey
    path_pdrs: tuple[float, ...]
    slots: list[int]
    hops: list[int]  # hop label per remaining slot; 0 under PBS
    window_of: dict[int, int]  # slot -> rhythmic window index, in-window slots only
    counts: list[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        last = len(self.path_pdrs)  # the highest hop label
        if self.hops and not 0 <= min(self.hops) <= max(self.hops) <= last:
            raise ValueError(f"hop labels must lie in 0..{last}")
        counts = [0] * (last + 1)
        for h in self.hops:
            counts[h] += 1
        self.counts = counts

    def _pdr(self, slot_count: int) -> float:
        """Delivery probability of ``slot_count`` slots labelled as ``counts``."""
        if not slot_count or slot_count < len(self.path_pdrs):
            return 0.0
        if self.counts[0]:
            return packet_pdr_flexible(self.path_pdrs, slot_count)
        per_hop = self.counts[1:]
        if 0 in per_hop:
            return 0.0
        return packet_pdr(self.path_pdrs, per_hop)

    def delivery_pdr(self) -> float:
        return self._pdr(len(self.slots))

    def pdr_without(self, ordinal: int) -> float:
        hop = self.hops[ordinal]
        self.counts[hop] -= 1
        try:
            return self._pdr(len(self.slots) - 1)
        finally:
            self.counts[hop] += 1

    def remove(self, ordinal: int) -> int:
        slot = self.slots.pop(ordinal)
        self.counts[self.hops.pop(ordinal)] -= 1
        return slot

    def copy(self) -> PeriodicPacketState:
        """A copy with its own slot, label and count lists.  It skips
        ``__post_init__``: the labels were checked when this state was made,
        and ``remove`` keeps ``counts`` in step with them."""
        clone = object.__new__(PeriodicPacketState)
        clone.packet, clone.path_pdrs, clone.window_of = self.packet, self.path_pdrs, self.window_of
        clone.slots, clone.hops, clone.counts = self.slots[:], self.hops[:], self.counts[:]
        return clone


def build_periodic_state(
    sets: ActivePacketSets, static: Schedule, tasks: Sequence[TaskSpec], network: NetworkModel
) -> list[PeriodicPacketState]:
    """One fresh ``PeriodicPacketState`` per periodic packet of ``sets``,
    sliced from its ``slot_groups`` in ``static``."""
    by_id = {t.id: t for t in tasks}
    periodic = sets.periodic
    owner, slots, hops, windows = slot_groups(sets, static, tasks)
    inside = windows >= 0
    packets = np.arange(len(periodic) + 1)
    bounds = np.searchsorted(owner, packets).tolist()
    in_bounds = np.searchsorted(owner[inside], packets).tolist()
    slots_all, hops_all = slots.tolist(), hops.tolist()
    slots_in, windows_in = slots[inside].tolist(), windows[inside].tolist()
    path_pdrs: dict[int, tuple[float, ...]] = {}
    state: list[PeriodicPacketState] = []
    for i, (task_id, release) in enumerate(periodic):
        if task_id not in path_pdrs:
            path_pdrs[task_id] = tuple(network.path_pdrs(by_id[task_id].path))
        lo, hi, in_lo, in_hi = bounds[i], bounds[i + 1], in_bounds[i], in_bounds[i + 1]
        state.append(
            PeriodicPacketState(
                packet=(task_id, release),
                path_pdrs=path_pdrs[task_id],
                slots=slots_all[lo:hi],
                hops=hops_all[lo:hi],
                window_of=dict(zip(slots_in[in_lo:in_hi], windows_in[in_lo:in_hi])),
            )
        )
    return state


def drop_transmissions(
    residual: Sequence[int],
    state: Sequence[PeriodicPacketState],
    required_pdr: float,
    mode: SchedulingMode = SchedulingMode.TBS,
    table: Optional[PdrTable] = None,
) -> DropDecision:
    """Surrender individual periodic slots, cheapest reliability loss first.

    A candidate is a still-assigned periodic slot inside the window of a
    rhythmic packet that still needs slots.  Its key is ``(delta, release,
    task, slot)``, where ``delta = delivery_pdr() - pdr_without(ordinal)`` is
    the drop in its packet's delivery probability were it removed; the
    slots of one packet and hop label share a delta.  Under PBS a packet's
    slots are interchangeable (hop label 0 on every slot; any other label
    raises ``ValueError``).  Each round drops the smallest key's slot and
    decrements its window's residual demand, until no residual is left.

    The heap holds one key per (packet, hop label) group: the group's delta
    and its earliest slot in a needy window.  A drop changes only its own
    packet: that packet's version is bumped and its groups are pushed with
    fresh deltas, and every other key stays exact.  A popped entry is
    discarded when its packet's version is stale.  When its window's
    residual is already 0, the group's earliest needy slot has moved later
    (residuals only decrease, so a satisfied window never needs slots
    again), and the group is pushed again with the same delta and its next
    needy slot, if any.  Keys only grow, so the lazy heap pops the same
    minimum a full rescan of every slot of every packet would.

    Delivery probabilities and deltas come from ``table``, keyed by a
    packet's ``(path_pdrs, counts)``: each entry holds the delivery PDR and,
    filled as groups ask for them, the per-label deltas.  Both are pure
    functions of that key (PBS counts every slot at index 0, so the key also
    fixes the slot count), so a table entry is the same float a fresh
    evaluation gives.  ``generate_dynamic_schedule`` passes one table to
    every candidate of a plan, where packets reach the same states again;
    without one, each call makes its own.  A table is never kept across
    plans: then the PDR evaluations a plan makes would depend on what ran
    before it.
    """
    residual = list(residual)
    needed = sum(residual)
    if needed == 0:
        return DropDecision(level="transmission")

    if mode is SchedulingMode.PBS and any(p.counts[0] != len(p.hops) for p in state):
        raise ValueError("PBS packet states carry hop label 0 on every slot")
    if table is None:
        table = {}
    packets = [p.copy() for p in state]
    version = [0] * len(packets)
    # (delta, release, task, slot, packet index, version, ordinal, window)
    heap: list[tuple[float, int, int, int, int, int, int, int]] = []

    def lookup(packet: PeriodicPacketState) -> tuple[float, dict[int, float]]:
        key = (packet.path_pdrs, tuple(packet.counts))
        found = table.get(key)
        if found is None:
            found = table[key] = (packet.delivery_pdr(), {})
        return found

    def push_groups(idx: int, only: Optional[int] = None, delta: float = 0.0) -> None:
        """Push each hop group of packet ``idx`` on its earliest needy slot,
        or only group ``only``, whose delta is already known."""
        packet = packets[idx]
        window_of, hops = packet.window_of, packet.hops
        earliest: dict[int, tuple[int, int, int]] = {}  # hop -> (slot, ordinal, window)
        for ordinal, slot in enumerate(packet.slots):
            w = window_of.get(slot)
            if w is None or residual[w] == 0:
                continue
            hop = hops[ordinal]
            if (only is None or hop == only) and (hop not in earliest or slot < earliest[hop][0]):
                earliest[hop] = (slot, ordinal, w)
        if not earliest:
            return
        task, release = packet.packet
        if only is not None:
            slot, ordinal, w = earliest[only]
            heapq.heappush(heap, (delta, release, task, slot, idx, version[idx], ordinal, w))
            return
        current, deltas = lookup(packet)
        for hop, (slot, ordinal, w) in earliest.items():
            delta = deltas.get(hop)
            if delta is None:
                delta = deltas[hop] = current - packet.pdr_without(ordinal)
            heapq.heappush(heap, (delta, release, task, slot, idx, version[idx], ordinal, w))

    for idx in range(len(packets)):
        push_groups(idx)
    dropped: list[tuple[int, int, int]] = []
    touched: set[PacketKey] = set()
    while True:
        if not heap:
            raise CandidateInfeasible("no periodic transmission can cover the remaining demand")
        delta, release, task, slot, idx, ver, ordinal, window = heapq.heappop(heap)
        if ver != version[idx]:
            continue
        if residual[window] == 0:
            push_groups(idx, packets[idx].hops[ordinal], delta)
            continue
        packets[idx].remove(ordinal)
        dropped.append((task, release, slot))
        touched.add((task, release))
        residual[window] -= 1
        needed -= 1
        if needed == 0:
            break
        version[idx] += 1
        push_groups(idx)

    final = {p.packet: p for p in packets}
    degradations = tuple(
        (key, pdr_degradation(required_pdr, lookup(final[key])[0]))
        for key in sorted(touched, key=lambda k: (k[1], k[0]))
    )
    return DropDecision(
        level="transmission",
        dropped_slots=tuple(dropped),
        degradations=degradations,
        total_degradation=float(sum(d for _, d in degradations)),
    )


def to_periodic_state(state: Sequence[PeriodicPacketState], residual: Sequence[int]) -> PeriodicState:
    """The library's grouped state of the packet states ``state``, each
    packet's slots taken in ascending order; a slot in a window whose
    ``residual`` is 0 is masked to window -1, as the library masks it."""
    def window(packet: PeriodicPacketState, slot: int) -> int:
        w = packet.window_of.get(slot, -1)
        return w if w >= 0 and residual[w] else -1

    columns = np.array([
        (idx, slot, hop, window(packet, slot))
        for idx, packet in enumerate(state)
        for slot, hop in sorted(zip(packet.slots, packet.hops))
    ], dtype=np.int64).reshape(-1, 4)
    return PeriodicState([p.packet for p in state], [p.path_pdrs for p in state], *columns.T)


def optimal_drop_oracle(
    residual: Sequence[int],
    vectors: Optional[Sequence[TransmissionVector]] = None,
    level: str = "packet",
    state: Optional[Sequence[PeriodicPacketState]] = None,
    required_pdr: float = 0.99,
) -> DropDecision:
    """Exhaustive-enumeration optimum for desk-sized instances.

    Packet level: smallest packet subset whose raw replaceable counts cover
    the residual demand.  Transmission level: over all ways of picking exactly
    the residual number of in-window slots per rhythmic packet, the selection
    with the smallest total reliability degradation.
    """
    residual = list(residual)
    if all(v == 0 for v in residual):
        return DropDecision(level=level)

    if level == "packet":
        if vectors is None:
            raise ValueError("packet-level oracle needs transmission vectors")
        if len(vectors) > ORACLE_PACKET_LIMIT:
            raise ValueError(f"instance too large for the oracle (> {ORACLE_PACKET_LIMIT} packets)")
        ordered = sorted(vectors, key=lambda v: (v.packet[1], v.packet[0]))
        for size in range(1, len(ordered) + 1):
            for combo in itertools.combinations(ordered, size):
                if all(
                    sum(v.replaceable[i] for v in combo) >= residual[i]
                    for i in range(len(residual))
                ):
                    keys = tuple(v.packet for v in combo)
                    return DropDecision(
                        level="packet",
                        dropped_packets=keys,
                        degradations=tuple((k, required_pdr) for k in keys),
                        total_degradation=required_pdr * len(keys),
                    )
        raise CandidateInfeasible("no packet subset covers the demand")

    if state is None:
        raise ValueError("transmission-level oracle needs periodic packet state")
    candidates: list[list[tuple[int, int]]] = [[] for _ in residual]  # (packet idx, ordinal)
    total_slots = 0
    for idx, packet in enumerate(state):
        for ordinal, slot in enumerate(packet.slots):
            w = packet.window_of.get(slot)
            if w is not None and residual[w] > 0:
                candidates[w].append((idx, ordinal))
                total_slots += 1
    if total_slots > ORACLE_SLOT_LIMIT:
        raise ValueError(f"instance too large for the oracle (> {ORACLE_SLOT_LIMIT} slots)")

    combos = 1
    per_window: list[list[tuple[tuple[int, int], ...]]] = []
    for w, need in enumerate(residual):
        if need == 0:
            per_window.append([()])
            continue
        if len(candidates[w]) < need:
            raise CandidateInfeasible("a rhythmic packet's window lacks droppable slots")
        options = list(itertools.combinations(candidates[w], need))
        combos *= len(options)
        if combos > ORACLE_COMBO_LIMIT:
            raise ValueError("instance too large for the oracle (combination blow-up)")
        per_window.append(options)

    best_cost = None
    best_selection: Optional[tuple[tuple[int, int], ...]] = None
    best_costs: dict[int, float] = {}  # packet idx -> its degradation under the best selection
    for parts in itertools.product(*per_window):
        selection = tuple(itertools.chain.from_iterable(parts))
        removed: dict[int, list[int]] = {}
        for idx, ordinal in selection:
            removed.setdefault(idx, []).append(ordinal)
        costs: dict[int, float] = {}
        cost = 0.0
        for idx, ordinals in removed.items():
            packet = state[idx]
            keep = [o for o in range(len(packet.slots)) if o not in set(ordinals)]
            probe = PeriodicPacketState(
                packet.packet,
                packet.path_pdrs,
                [packet.slots[o] for o in keep],
                [packet.hops[o] for o in keep],
                {},
            )
            costs[idx] = pdr_degradation(required_pdr, probe.delivery_pdr())
            cost += costs[idx]
        if best_cost is None or cost < best_cost - 1e-15:
            best_cost, best_selection, best_costs = cost, selection, costs

    if best_selection is None:
        raise PlanInvariantError("the transmission oracle enumerated no selection")
    dropped = [
        (state[idx].packet[0], state[idx].packet[1], state[idx].slots[ordinal])
        for idx, ordinal in best_selection
    ]
    by_release = sorted(best_costs, key=lambda idx: (state[idx].packet[1], state[idx].packet[0]))
    return DropDecision(
        level="transmission",
        dropped_slots=tuple(sorted(dropped, key=lambda d: d[2])),
        degradations=tuple((state[idx].packet, best_costs[idx]) for idx in by_release),
        total_degradation=float(best_cost),
    )


def from_set_cover(
    universe: int, collection: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], list[TransmissionVector]]:
    """Embed a set-cover instance into packet-level dropping, as the
    residual demand and the transmission vectors.

    Element i becomes a rhythmic packet lacking one slot; subset j becomes a
    periodic packet whose vector has a 1 wherever it contains the element.
    The minimum drop count then equals the minimum cover size, which is what
    makes the dropping problem NP-hard.
    """
    if universe < 1:
        raise ValueError("universe must have at least one element")
    union: set[int] = set()
    vectors = []
    for j, subset in enumerate(collection):
        members = set(subset)
        if not members:
            raise ValueError(f"subset {j} is empty")
        if any(not (0 <= x < universe) for x in members):
            raise ValueError(f"subset {j} contains elements outside the universe")
        union |= members
        vectors.append(
            TransmissionVector(
                packet=(j + 1, 0),
                replaceable=tuple(1 if i in members else 0 for i in range(universe)),
            )
        )
    if union != set(range(universe)):
        raise ValueError("subsets do not cover the universe")
    return (1,) * universe, vectors
