"""Dropping heuristics and dynamic schedule generation.

When a disturbance inflates the short-period workload beyond what the idle
and disturbed-task slots of the static schedule can absorb, some periodic
traffic must yield.  This module provides the greedy packet-dropping
heuristic, the minimum-degradation transmission-dropping heuristic, and
the candidate sweep that turns a drop decision into the dynamic slot table.
The level-independent inputs of each end-point candidate are built once per
trial, in a ``CandidateTable``, and both levels derive their solver inputs
from it.  The dropping problem is NP-hard, so planning uses the two
heuristics only; the set-cover embedding and the exhaustive optimum that
bound them live with the tests, in ``tests/dropping_reference.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Optional, Sequence, Union

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
    "CandidateInputs",
    "CandidateTable",
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


class CandidateInputs:
    """The solver inputs of one end-point candidate that do not depend on
    the dropping level: its active packet ``sets``, its ``demand`` vector
    and, in ``slot_groups``, the static slots of its periodic packets.

    ``slot_groups`` is built at first use, so a candidate whose demand is
    already met, which no solver sees, never builds it.
    """

    def __init__(
        self, sets: ActivePacketSets, static: Schedule, tasks: Sequence[TaskSpec], full_demand: int
    ) -> None:
        self.sets = sets
        self.demand = build_demand_vector(sets, static, full_demand)
        self._static, self._tasks = static, tasks

    @cached_property
    def slot_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(owner, slots, hops, windows)``: the static slots of the periodic
        packets, grouped by packet in ``sets.periodic`` order and in slot
        order within a packet.  ``owner`` is the packet's index in
        ``sets.periodic``, ``hops`` the slot's hop label and ``windows`` the
        index of the rhythmic window holding the slot, or -1 when none does.

        One pass over the slots the periodic packets can own finds them all:
        a slot belongs to the packet whose packed (release, task) key it
        carries, if it lies in that packet's [release, release + deadline).
        ``sets.periodic`` is in (release, task) order, so the packed keys are
        sorted and one ``searchsorted`` matches every slot; one more finds
        each slot's window, since the windows are sorted and disjoint.
        """
        sets, static = self.sets, self._static
        if not sets.periodic:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, empty
        deadline = {t.id: t.deadline for t in self._tasks}
        task_ids = np.array([task for task, _ in sets.periodic], dtype=np.int64)
        releases = np.array([release for _, release in sets.periodic], dtype=np.int64)
        ends = releases + np.array([deadline[task] for task, _ in sets.periodic], dtype=np.int64)
        lo, hi = max(0, int(releases[0])), min(static.horizon, int(ends.max()))
        owners = static.task_at[lo:hi]
        width = max(int(owners.max(initial=-1)), 0) + 1  # above every task id in range
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


def build_transmission_vectors(inputs: CandidateInputs) -> list[TransmissionVector]:
    """Count, for every periodic packet, its slots inside each rhythmic window."""
    sets = inputs.sets
    n = len(sets.rhythmic)
    owner, _, _, windows = inputs.slot_groups
    inside = windows >= 0
    counts = np.bincount(owner[inside] * n + windows[inside], minlength=len(sets.periodic) * n)
    return [
        TransmissionVector(packet=key, replaceable=tuple(row))
        for key, row in zip(sets.periodic, counts.reshape(-1, n).tolist())
    ]


def build_periodic_state(
    inputs: CandidateInputs, tasks: Sequence[TaskSpec], network: NetworkModel
) -> list[PeriodicPacketState]:
    """One fresh ``PeriodicPacketState`` per periodic packet of ``inputs``,
    sliced from its slot groups."""
    by_id = {t.id: t for t in tasks}
    periodic = inputs.sets.periodic
    owner, slots, hops, windows = inputs.slot_groups
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


class CandidateTable:
    """Per-trial table: each end-point candidate of one disturbance maps to
    its ``CandidateInputs``, or to the ``CandidateInfeasible`` that
    ``build_active_sets`` raised for it.

    Filled lazily, one candidate at a time, by ``generate_dynamic_schedule``,
    so the packet-level and transmission-level plans of a trial build each
    candidate's inputs once between them.  A table serves only the event,
    static schedule, tasks, network, required pdr and beta it was made for,
    and is dropped with its trial: nothing it holds reaches another trial.
    """

    def __init__(self, event: DisturbanceEvent, static: Schedule, tasks: Sequence[TaskSpec],
                 network: NetworkModel, required_pdr: float, beta: int) -> None:
        self.event, self.static, self.tasks, self.network = event, static, tasks, network
        self.required_pdr, self.beta = required_pdr, beta
        self.task = {t.id: t for t in tasks}[event.task_id]
        # Per-hop budget of each full-demand rhythmic packet, and its sum.
        self.retry_vector = allocate_retry_vector(network.path_pdrs(self.task.path), required_pdr)
        self.full_demand = sum(self.retry_vector)
        self._entries: dict[int, Union[CandidateInputs, CandidateInfeasible]] = {}

    def check(self, event: DisturbanceEvent, static: Schedule, tasks: Sequence[TaskSpec],
              network: NetworkModel, required_pdr: float, beta: int) -> None:
        """Raise ValueError unless this table was made for these arguments."""
        if not (
            static is self.static and tasks is self.tasks and network is self.network
            and event == self.event and required_pdr == self.required_pdr and beta == self.beta
        ):
            raise ValueError(
                "the candidate table was made for another event, schedule, task set, "
                "network, required pdr or beta"
            )

    def inputs(self, candidate: int) -> Union[CandidateInputs, CandidateInfeasible]:
        """The entry of ``candidate``, built at its first lookup."""
        entry = self._entries.get(candidate)
        if entry is None:
            try:
                sets = build_active_sets(candidate, self.event, self.static, self.tasks, self.full_demand)
            except CandidateInfeasible as exc:
                entry = exc.with_traceback(None)  # keeps no frame of this call alive
            else:
                entry = CandidateInputs(sets, self.static, self.tasks, self.full_demand)
            self._entries[candidate] = entry
        return entry


def generate_dynamic_schedule(
    event: DisturbanceEvent,
    static: Schedule,
    tasks: Sequence[TaskSpec],
    network: NetworkModel,
    required_pdr: float,
    beta: int = 4,
    level: str = "packet",
    table: Optional[CandidateTable] = None,
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

    Each candidate's active sets, demand vector and grouped periodic slots
    come from ``table``: the packet level counts transmission vectors from
    them and the transmission level slices packet states.  A trial's two
    FD-PaS plans share one table, made for the same arguments (ValueError
    otherwise); without one, this plan makes its own.  No table outlives
    its trial.
    """
    if level not in ("packet", "transmission"):
        raise ValueError("level must be 'packet' or 'transmission'")
    if table is None:
        table = CandidateTable(event, static, tasks, network, required_pdr, beta)
    else:
        table.check(event, static, tasks, network, required_pdr, beta)
    retry_vector, full_demand = table.retry_vector, table.full_demand

    f_last = earliest_last_finish(event, table.task.hops)
    upper = end_point_upper_bound(event, beta)
    evaluations: list[tuple[int, Optional[float]]] = []
    best: Optional[tuple[float, int, ActivePacketSets, DropDecision]] = None
    pdrs: PdrTable = {}  # shared by this plan's candidates only
    for candidate in end_point_candidates(event, f_last, beta):
        inputs = table.inputs(candidate)
        if isinstance(inputs, CandidateInfeasible):
            evaluations.append((candidate, None))
            continue
        demand = inputs.demand
        try:
            if demand.satisfied:
                decision = DropDecision(level=level)
            elif level == "packet":
                decision = greedy_drop_packets(demand, build_transmission_vectors(inputs), required_pdr)
            else:
                state = build_periodic_state(inputs, tasks, network)
                decision = drop_transmissions(demand, state, required_pdr, static.mode, pdrs)
        except CandidateInfeasible:
            evaluations.append((candidate, None))
            continue
        cost = decision.cost()
        evaluations.append((candidate, cost))
        if best is None or cost < best[0] - 1e-15:
            best = (cost, candidate, inputs.sets, decision)

    if best is None:
        raise DisturbanceInfeasible(
            f"no feasible end point for the disturbance at slot {event.detect_slot}"
        )
    _, end_point, sets, decision = best

    overlay: dict[int, SlotAssignment] = {}
    freed = decision.freed_slots(static)
    last_stepped = event.enter_slot + sum(event.periods[:-1])
    for entry in sets.rhythmic:
        need = resolved_demand(entry, full_demand)
        lo, hi = entry.window
        chosen = list(islice(
            (t for t, owner in enumerate(static.task_at[lo:hi].tolist(), lo)
             if owner == -1 or owner == event.task_id or t in freed),
            need,
        ))
        if len(chosen) < need:
            raise PlanInvariantError(
                f"the drop decision left the rhythmic packet released at {entry.release} "
                f"{len(chosen)} usable slots for a demand of {need}"
            )
        if static.mode is not SchedulingMode.TBS:
            labels = [0] * need
        elif entry.fixed_demand is not None:
            labels = list(entry.prefix_hops)  # truncated packet continues a static instance
        else:
            labels = hop_expansion(retry_vector)[:need]
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
