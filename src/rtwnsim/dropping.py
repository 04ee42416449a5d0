"""Dropping heuristics and dynamic schedule generation.

When a disturbance inflates the short-period workload beyond what the idle
and disturbed-task slots of the static schedule can absorb, some periodic
traffic must yield.  This module provides the greedy packet-dropping
heuristic, the minimum-degradation transmission-dropping heuristic, and
the candidate sweep that turns a drop decision into the dynamic slot table.
The dropping problem is NP-hard, so planning uses the two heuristics only;
the set-cover embedding and the exhaustive optimum that bound them live
with the tests, in ``tests/dropping_reference.py``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .model import (
    CandidateInfeasible,
    DisturbanceInfeasible,
    NetworkModel,
    SchedulingMode,
    TaskSpec,
    allocate_retry_vector,
    packet_pdr,
    packet_pdr_flexible,
    pdr_degradation,
)
from .rhythmic import (
    ActivePacketSets,
    DisturbanceEvent,
    RhythmicWindow,
    build_active_sets,
    earliest_last_finish,
    end_point_candidates,
    end_point_upper_bound,
    resolved_demand,
)
from .static_schedule import Schedule, SlotAssignment, hop_expansion

__all__ = [
    "PlanInvariantError",
    "TransmissionVector",
    "DemandVector",
    "DropDecision",
    "PeriodicPacketState",
    "DynamicPlan",
    "build_transmission_vectors",
    "build_demand_vector",
    "build_periodic_state",
    "greedy_drop_packets",
    "drop_transmissions",
    "generate_dynamic_schedule",
]

PacketKey = tuple[int, int]  # (task id, release slot)


class PlanInvariantError(RuntimeError):
    """A chosen dynamic plan breaks a guarantee the heuristics must uphold; this
    signals a bug in the planner, never a property of the input."""


@dataclass(frozen=True)
class TransmissionVector:
    """Per rhythmic packet, how many of this periodic packet's static slots
    could be handed over (slots falling inside that rhythmic packet's window)."""

    packet: PacketKey
    replaceable: tuple[int, ...]


@dataclass(frozen=True)
class DemandVector:
    """Slot needs of the rhythmic packets versus what the static schedule
    already offers them (idle slots plus the disturbed task's own slots)."""

    required: tuple[int, ...]
    available: tuple[int, ...]

    @property
    def residual(self) -> tuple[int, ...]:
        return tuple(max(0, r - a) for r, a in zip(self.required, self.available))

    @property
    def satisfied(self) -> bool:
        return all(x == 0 for x in self.residual)


@dataclass(frozen=True)
class DropDecision:
    """Outcome of a dropping heuristic.

    Packet-level decisions abandon whole periodic packets (each degrades by
    the full requirement).  Transmission-level decisions surrender individual
    slots; a packet left with fewer slots than hops can no longer be delivered
    and degrades fully as well.
    """

    level: str  # "packet" | "transmission"
    dropped_packets: tuple[PacketKey, ...] = ()
    dropped_slots: tuple[tuple[int, int, int], ...] = ()  # (task, release, slot)
    degradations: tuple[tuple[PacketKey, float], ...] = ()
    total_degradation: float = 0.0

    @property
    def packet_count(self) -> int:
        return len(self.dropped_packets)

    @property
    def slot_count(self) -> int:
        return len(self.dropped_slots)

    def cost(self) -> float:
        """Candidate-selection metric: drop count at packet level, total
        reliability degradation at transmission level."""
        return float(self.packet_count) if self.level == "packet" else self.total_degradation

    def freed_slots(self, static: Schedule) -> set[int]:
        if self.level == "packet":
            freed: set[int] = set()
            for task, release in self.dropped_packets:
                freed.update(int(s) for s in static.packet_slots(task, release))
            return freed
        return {slot for _, _, slot in self.dropped_slots}


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


# Per-plan table of delivery probabilities: (path PDRs, per-hop counts) ->
# (delivery PDR, {hop label: delivery PDR - PDR without one slot of that label}).
PdrTable = dict[tuple[tuple[float, ...], tuple[int, ...]], tuple[float, dict[int, float]]]


def build_transmission_vectors(
    sets: ActivePacketSets, static: Schedule
) -> list[TransmissionVector]:
    """Count, for every periodic packet, its slots inside each rhythmic window.

    One pass over the candidate window suffices: the rhythmic windows are
    disjoint and contained in it, so each slot feeds at most one count.
    """
    n = len(sets.rhythmic)
    starts = np.array([d.release for d in sets.rhythmic])
    ends = np.array([d.deadline for d in sets.rhythmic])
    counts: dict[PacketKey, list[int]] = {key: [0] * n for key in sets.periodic}
    lo, hi = sets.start, sets.candidate
    tasks_w = static.task_at[lo:hi]
    rel_w = static.release_at[lo:hi]
    slots = np.arange(lo, hi)
    widx = np.searchsorted(starts, slots, side="right") - 1
    in_window = (widx >= 0) & (slots < ends[np.clip(widx, 0, n - 1)])
    periodic_mask = (tasks_w >= 0) & (tasks_w != sets.task_id) & in_window
    for t, task_id, release, w in zip(
        slots[periodic_mask].tolist(),
        tasks_w[periodic_mask].tolist(),
        rel_w[periodic_mask].tolist(),
        widx[periodic_mask].tolist(),
    ):
        counts[(task_id, release)][w] += 1
    return [
        TransmissionVector(packet=key, replaceable=tuple(counts[key]))
        for key in sets.periodic
    ]


def build_demand_vector(sets: ActivePacketSets, static: Schedule, full_demand: int) -> DemandVector:
    """Per rhythmic packet: slots demanded (``full_demand``, the retry budget
    of a whole packet, or the boundary truncation) and slots already
    available in its window (idle plus the disturbed task's)."""
    required = []
    available = []
    for entry in sets.rhythmic:
        required.append(resolved_demand(entry, full_demand))
        lo, hi = entry.window
        window = static.task_at[lo:hi]
        available.append(int(((window == -1) | (window == sets.task_id)).sum()))
    return DemandVector(required=tuple(required), available=tuple(available))


def build_periodic_state(
    sets: ActivePacketSets,
    static: Schedule,
    tasks: Sequence[TaskSpec],
    network: NetworkModel,
) -> list[PeriodicPacketState]:
    by_id = {t.id: t for t in tasks}
    # The rhythmic windows are sorted and disjoint, so a slot lies in the
    # last window starting at or before it, or in none.
    starts = [d.release for d in sets.rhythmic]
    ends = [d.deadline for d in sets.rhythmic]
    path_pdrs: dict[int, tuple[float, ...]] = {}
    state: list[PeriodicPacketState] = []
    for task_id, release in sets.periodic:
        task = by_id[task_id]
        if task_id not in path_pdrs:
            path_pdrs[task_id] = tuple(network.path_pdrs(task.path))
        found = static.packet_slots(task_id, release, until=release + task.deadline)
        slots = found.tolist()
        window_of: dict[int, int] = {}
        for slot in slots:
            i = bisect_right(starts, slot) - 1
            if i >= 0 and slot < ends[i]:
                window_of[slot] = i
        state.append(
            PeriodicPacketState(
                packet=(task_id, release),
                path_pdrs=path_pdrs[task_id],
                slots=slots,
                hops=static.hop_at[found].tolist(),
                window_of=window_of,
            )
        )
    return state


def greedy_drop_packets(
    demand: DemandVector, vectors: Sequence[TransmissionVector], required_pdr: float
) -> DropDecision:
    """Drop whole periodic packets until every rhythmic packet is covered.

    Each round removes the packet contributing the most replaceable slots
    (ties to the lowest release, then task id), subtracts its contribution
    from the residual demand, and re-clips the remaining vectors: entries for
    satisfied rhythmic packets go to zero and entries exceeding the residual
    are reduced to it, so later rounds rank packets by *useful* contribution.
    """
    residual = list(demand.residual)
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


def drop_transmissions(
    demand: DemandVector,
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
    residual = list(demand.residual)
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


@dataclass
class DynamicPlan:
    """Chosen end point, drop decision and the dynamic slot overlay."""

    event: DisturbanceEvent
    window: RhythmicWindow
    sets: ActivePacketSets
    decision: DropDecision
    overlay: dict[int, SlotAssignment]
    evaluations: tuple[tuple[int, Optional[float]], ...]
    retry_vector: tuple[int, ...]  # per-hop budget of each full-demand rhythmic packet

    @property
    def end_point(self) -> int:
        return self.window.end


def generate_dynamic_schedule(
    event: DisturbanceEvent,
    static: Schedule,
    tasks: Sequence[TaskSpec],
    network: NetworkModel,
    required_pdr: float,
    beta: int = 4,
    level: str = "packet",
) -> DynamicPlan:
    """Evaluate every end-point candidate, pick the cheapest feasible one and
    lay the rhythmic transmissions into the freed slots.

    Candidates are the disturbed task's release instants between the earliest
    finish of its last stepped packet and the latency bound.  Per candidate
    the demand vector is built and solved at the requested granularity
    (``level``) with the matching greedy heuristic; infeasible candidates
    are skipped.  The cheapest decision wins (drop count at packet
    level, total degradation at transmission level; ties to the earliest end
    point).  Rhythmic packets then claim the earliest usable slots in their
    windows, hop-ordered under TBS, where usable means idle, owned by the
    disturbed task, or freed by the decision.
    """
    if level not in ("packet", "transmission"):
        raise ValueError("level must be 'packet' or 'transmission'")
    by_id = {t.id: t for t in tasks}
    task = by_id[event.task_id]
    retry_vector = allocate_retry_vector(network.path_pdrs(task.path), required_pdr)
    full_demand = sum(retry_vector)  # slots of a whole rhythmic packet

    f_last = earliest_last_finish(event, task.hops)
    upper = end_point_upper_bound(event, beta)
    evaluations: list[tuple[int, Optional[float]]] = []
    best: Optional[tuple[float, int, ActivePacketSets, DemandVector, DropDecision]] = None
    table: PdrTable = {}  # shared by this plan's candidates only
    for candidate in end_point_candidates(event, f_last, beta):
        try:
            sets = build_active_sets(candidate, event, static, tasks, full_demand)
            demand = build_demand_vector(sets, static, full_demand)
            if demand.satisfied:
                decision = DropDecision(level=level)
            elif level == "packet":
                vectors = build_transmission_vectors(sets, static)
                decision = greedy_drop_packets(demand, vectors, required_pdr)
            else:
                state = build_periodic_state(sets, static, tasks, network)
                decision = drop_transmissions(demand, state, required_pdr, static.mode, table)
        except CandidateInfeasible:
            evaluations.append((candidate, None))
            continue
        cost = decision.cost()
        evaluations.append((candidate, cost))
        if best is None or cost < best[0] - 1e-15:
            best = (cost, candidate, sets, demand, decision)

    if best is None:
        raise DisturbanceInfeasible(
            f"no feasible end point for the disturbance at slot {event.detect_slot}"
        )
    _, end_point, sets, demand, decision = best

    overlay: dict[int, SlotAssignment] = {}
    freed = decision.freed_slots(static)
    last_stepped = event.enter_slot + sum(event.periods[:-1])
    for entry in sets.rhythmic:
        need = resolved_demand(entry, full_demand)
        lo, hi = entry.window
        usable = [
            t
            for t, owner in enumerate(static.task_at[lo:hi].tolist(), lo)
            if owner == -1 or owner == event.task_id or t in freed
        ]
        if len(usable) < need:
            raise PlanInvariantError(
                f"the drop decision left the rhythmic packet released at {entry.release} "
                f"{len(usable)} usable slots for a demand of {need}"
            )
        if static.mode is not SchedulingMode.TBS:
            labels = [0] * need
        elif entry.fixed_demand is not None:
            labels = list(entry.prefix_hops)  # truncated packet continues a static instance
        else:
            labels = hop_expansion(retry_vector)[:need]
        chosen = usable[:need]
        for slot, hop in zip(chosen, labels):
            overlay[slot] = SlotAssignment(task=event.task_id, release=entry.release, hop=hop)
        # The last stepped-state packet must finish inside the window it was
        # granted; its final assigned slot realizes that finish time.
        if entry.release == last_stepped and chosen:
            realized_finish = chosen[-1] + 1
            if not (realized_finish <= end_point <= upper):
                raise PlanInvariantError(
                    f"end point {end_point} violates the completion constraint: the last "
                    f"stepped packet finishes at {realized_finish}, the bound is {upper}"
                )

    window = RhythmicWindow(start=event.enter_slot, end=end_point, end_upper_bound=upper)
    return DynamicPlan(
        event=event,
        window=window,
        sets=sets,
        decision=decision,
        overlay=overlay,
        evaluations=tuple(evaluations),
        retry_vector=retry_vector,
    )
