"""Dropping heuristics and dynamic schedule generation.

When a disturbance inflates the short-period workload beyond what the idle
and disturbed-task slots of the static schedule can absorb, some periodic
traffic must yield.  This module provides the greedy packet-dropping
heuristic, the minimum-degradation transmission-dropping heuristic, and
the candidate sweep that turns a drop decision into the dynamic slot table.
One sweep plans every requested level: each end-point candidate's active
sets are built once, and its periodic slots cut once from the disturbance's
``ScheduleSpan``, for both solvers.  The dropping problem is NP-hard, so
planning uses the two heuristics only; the set-cover embedding and the
exhaustive optimum that bound them live with the tests, in
``tests/dropping_reference.py``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

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
    ScheduleSpan,
    build_active_sets,
    end_point_candidates,
    end_point_upper_bound,
)
from .static_schedule import Schedule, hop_expansion

__all__ = [
    "PlanInvariantError",
    "DropDecision",
    "PeriodicState",
    "DynamicPlan",
    "build_transmission_vectors",
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

    def freed_slots(self, span: ScheduleSpan) -> set[int]:
        """The static slots the decision frees, read off ``span``, the
        schedule's span of the disturbance."""
        if self.level == "packet":
            return {slot for key in self.dropped_packets for slot in span.packet_slots(key).tolist()}
        return {slot for _, _, slot in self.dropped_slots}


class PeriodicState:
    """The transmission-dropping solver's view of one candidate's periodic
    packets.

    Per packet (in ``packets`` order): its key, its path PDRs, ``counts[i][h]``,
    the number of its slots labelled hop ``h`` (index 0 counts PBS slots), and
    ``totals[i]``, its slot count; both count every slot of the packet.
    Per (packet, hop label) group with a slot whose window index is not -1:
    its packet, its label, and those slots in ascending order with their
    window indexes, stored flat as ``slots[bounds[g]:bounds[g + 1]]`` and
    ``windows[...]``.  The groups of packet ``i`` are
    ``first_group[i]:first_group[i + 1]``.

    Built from slot columns grouped by packet, in slot order within a
    packet, as ``ScheduleSpan.groups`` cuts them; a slot that the solver may
    not drop carries window -1.  A hop label outside ``0..hops``
    of its packet raises ValueError.
    """

    def __init__(self, packets: Sequence[PacketKey], path_pdrs: Sequence[tuple[float, ...]],
                 owner: np.ndarray, slots: np.ndarray, hops: np.ndarray, windows: np.ndarray) -> None:
        n = len(packets)
        last = np.array([len(p) for p in path_pdrs], dtype=np.int64)  # the highest label per packet
        bad = np.flatnonzero((hops < 0) | (hops > last[owner]))
        if len(bad):
            raise ValueError(f"hop labels must lie in 0..{last[owner[bad[0]]]}")
        width = int(last.max(initial=0)) + 1
        group = owner * width + hops
        counts = np.bincount(group, minlength=n * width).reshape(n, width).tolist()
        self.packets, self.path_pdrs = list(packets), list(path_pdrs)
        self.counts = [row[:k + 1] for row, k in zip(counts, last.tolist())]
        self.totals = np.bincount(owner, minlength=n).tolist()
        inside = windows >= 0
        order = np.argsort(group[inside], kind="stable")  # slots stay ascending in a group
        group = group[inside][order]
        self.slots, self.windows = slots[inside][order].tolist(), windows[inside][order].tolist()
        starts = np.flatnonzero(np.diff(group, prepend=-1))
        self.bounds = [*starts.tolist(), len(group)]
        packet, hop = np.divmod(group[starts], width)
        self.group_packet, self.group_hop = packet.tolist(), hop.tolist()
        self.first_group = np.searchsorted(packet, np.arange(n + 1)).tolist()


def _delivery_pdr(path_pdrs: tuple[float, ...], counts: list[int], slot_count: int) -> float:
    """Delivery probability of ``slot_count`` slots labelled as ``counts``."""
    if not slot_count or slot_count < len(path_pdrs):
        return 0.0
    if counts[0]:
        return packet_pdr_flexible(path_pdrs, slot_count)
    per_hop = counts[1:]
    if 0 in per_hop:
        return 0.0
    return packet_pdr(path_pdrs, per_hop)


# Per-plan table of delivery probabilities: (path PDRs, per-hop counts) ->
# (delivery PDR, {hop label: delivery PDR - PDR without one slot of that label}).
PdrTable = dict[tuple[tuple[float, ...], tuple[int, ...]], tuple[float, dict[int, float]]]

# A candidate's periodic slots as ``ScheduleSpan.groups`` cuts them:
# (owner, slots, hops, windows).
SlotGroups = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def build_transmission_vectors(sets: ActivePacketSets, groups: SlotGroups) -> np.ndarray:
    """The transmission vectors of ``sets``, counted from its slot
    ``groups``: row i counts the slots of periodic packet ``sets.periodic[i]``
    inside each rhythmic window, which it could hand over to that window's
    packet."""
    n = len(sets.rhythmic)
    owner, _, _, windows = groups
    inside = windows >= 0
    counts = np.bincount(owner[inside] * n + windows[inside], minlength=len(sets.periodic) * n)
    return counts.reshape(len(sets.periodic), n)


def build_periodic_state(sets: ActivePacketSets, groups: SlotGroups,
                         path_pdrs: Mapping[int, tuple[float, ...]]) -> PeriodicState:
    """The grouped ``PeriodicState`` of the periodic packets of ``sets``,
    from its slot ``groups``, with each task's path PDRs.

    A window whose residual is 0 never needs a slot, so its slots are masked
    to window -1 and form no group; they still count in their packet's
    ``counts`` and ``totals``, on which its delivery probability rests."""
    owner, slots, hops, windows = groups
    needy = np.array([*sets.residual, 0], dtype=bool)  # index -1: outside every window
    pdrs = [path_pdrs[task_id] for task_id, _ in sets.periodic]
    return PeriodicState(sets.periodic, pdrs, owner, slots, hops, np.where(needy[windows], windows, -1))


def greedy_drop_packets(
    residual: Sequence[int], packets: Sequence[PacketKey], counts: np.ndarray, required_pdr: float
) -> DropDecision:
    """Drop whole periodic packets until every rhythmic packet is covered.

    ``residual`` holds each rhythmic packet's unmet demand
    (``ActivePacketSets.residual``) and ``counts`` one transmission vector
    per packet of ``packets``, as ``build_transmission_vectors`` counts
    them.  Each round removes the packet contributing the most replaceable
    slots (ties to the lowest release, then task id), subtracts its
    contribution from the residual demand, and re-clips the remaining
    vectors: entries for satisfied rhythmic packets go to zero and entries
    exceeding the residual are reduced to it, so later rounds rank packets
    by *useful* contribution.
    """
    residual = np.array(residual, dtype=np.int64)
    if not residual.any():
        return DropDecision(level="packet")

    # Rows in (release, task) order, so that argmax breaks ties as ranked;
    # indexing by ``order`` copies, so ``counts`` is left as it was.
    order = sorted(range(len(packets)), key=lambda i: (packets[i][1], packets[i][0]))
    live = np.asarray(counts, dtype=np.int64).reshape(len(packets), len(residual))[order]
    dropped: list[PacketKey] = []
    while True:
        sums = live.sum(axis=1)
        if not sums.any():
            raise CandidateInfeasible("periodic packets cannot cover the rhythmic demand")
        best = int(sums.argmax())
        dropped.append(packets[order[best]])
        residual = np.maximum(residual - live[best], 0)
        if not residual.any():
            break
        live[best] = 0
        np.minimum(live, residual, out=live)

    degradations = tuple((key, required_pdr) for key in sorted(dropped, key=lambda k: (k[1], k[0])))
    return DropDecision(
        level="packet",
        dropped_packets=tuple(dropped),
        degradations=degradations,
        total_degradation=required_pdr * len(dropped),
    )


def drop_transmissions(
    residual: Sequence[int],
    state: PeriodicState,
    required_pdr: float,
    mode: SchedulingMode,
    table: PdrTable,
) -> DropDecision:
    """Surrender individual periodic slots, cheapest reliability loss first.

    A candidate is a still-assigned periodic slot inside the window of a
    rhythmic packet that still needs slots.  Its key is ``(delta, release,
    task, slot)``, where ``delta`` is the drop in its packet's delivery
    probability were it removed; the slots of one packet and hop label share
    a delta.  Under PBS a packet's slots are interchangeable (hop label 0 on
    every slot; any other label raises ``ValueError``).  Each round drops
    the smallest key's slot and decrements its window's residual demand,
    until no residual is left.  ``residual`` holds each rhythmic packet's
    unmet demand, as ``ActivePacketSets.residual`` gives it.

    Each (packet, hop label) group keeps a cursor on its slots in needy
    windows, and each packet has at most one key on the heap: the smallest
    ``(delta, slot)`` over its groups, at each group's cursor slot.
    Residuals only decrease, so a satisfied window never needs slots again
    and a cursor only moves on.  A drop changes only its own packet: the
    dropped slot is its group's cursor slot, and the packet is pushed again
    with fresh deltas, so every other key stays exact.  A popped key whose
    window is already satisfied is pushed again with the packet's cursors
    moved on to their next needy slots, if any, under the same deltas.  Keys
    only grow, so the lazy heap pops the same minimum a full rescan of every
    slot of every packet would.  ``state`` is left as it was.

    Delivery probabilities and deltas come from ``table``, keyed by a
    packet's ``(path_pdrs, counts)``: each entry holds the delivery PDR and,
    filled as groups ask for them, the per-label deltas.  Both are pure
    functions of that key (PBS counts every slot at index 0, so the key also
    fixes the slot count), so a table entry is the same float a fresh
    evaluation gives.  ``generate_dynamic_schedule`` passes one table to
    every candidate of a plan, where packets reach the same states again.  A
    table is never kept across plans: then the PDR evaluations a plan makes
    would depend on what ran before it.
    """
    residual = list(residual)
    needed = sum(residual)
    if needed == 0:
        return DropDecision(level="transmission")

    if mode is SchedulingMode.PBS and any(c[0] != n for c, n in zip(state.counts, state.totals)):
        raise ValueError("PBS packet states carry hop label 0 on every slot")
    packets, path_pdrs = state.packets, state.path_pdrs
    counts, totals = [c[:] for c in state.counts], state.totals[:]
    bounds, slots, windows = state.bounds, state.slots, state.windows
    cursor = bounds[:-1]  # each group's earliest slot that may be needy
    group_packet, group_hop, first_group = state.group_packet, state.group_hop, state.first_group
    heap: list[tuple[float, int, int, int, int]] = []  # (delta, release, task, slot, group)

    def lookup(idx: int) -> tuple[float, dict[int, float]]:
        key = (path_pdrs[idx], tuple(counts[idx]))
        found = table.get(key)
        if found is None:
            found = table[key] = (_delivery_pdr(path_pdrs[idx], counts[idx], totals[idx]), {})
        return found

    def push(idx: int) -> None:
        """Push packet ``idx`` on the smallest ``(delta, slot)`` of its
        groups' earliest needy slots, if it has one left."""
        deltas = best = None
        task, release = packets[idx]
        for g in range(first_group[idx], first_group[idx + 1]):
            c, end = cursor[g], bounds[g + 1]
            while c < end and not residual[windows[c]]:
                c += 1
            cursor[g] = c
            if c == end:
                continue
            if deltas is None:
                current, deltas = lookup(idx)
            hop = group_hop[g]
            delta = deltas.get(hop)
            if delta is None:
                held = counts[idx]
                held[hop] -= 1
                delta = deltas[hop] = current - _delivery_pdr(path_pdrs[idx], held, totals[idx] - 1)
                held[hop] += 1
            key = (delta, release, task, slots[c], g)
            if best is None or key < best:
                best = key
        if best is not None:
            heapq.heappush(heap, best)

    for idx in dict.fromkeys(group_packet):  # the packets with a droppable slot
        push(idx)
    dropped: list[tuple[int, int, int]] = []
    touched: set[int] = set()
    while True:
        if not heap:
            raise CandidateInfeasible("no periodic transmission can cover the remaining demand")
        delta, release, task, slot, g = heapq.heappop(heap)
        idx, c = group_packet[g], cursor[g]
        window = windows[c]
        if residual[window]:
            cursor[g] = c + 1
            counts[idx][group_hop[g]] -= 1
            totals[idx] -= 1
            dropped.append((task, release, slot))
            touched.add(idx)
            residual[window] -= 1
            needed -= 1
            if needed == 0:
                break
        push(idx)

    degradations = tuple(
        (packets[idx], pdr_degradation(required_pdr, lookup(idx)[0]))
        for idx in sorted(touched, key=lambda i: (packets[i][1], packets[i][0]))
    )
    return DropDecision(
        level="transmission",
        dropped_slots=tuple(dropped),
        degradations=degradations,
        total_degradation=float(sum(d for _, d in degradations)),
    )


@dataclass
class DynamicPlan:
    """Chosen end point, drop decision and the dynamic slot overlay.

    The overlay is three arrays, ascending by slot: each overlay slot, the
    release of the rhythmic packet it carries and its hop label (the rows of
    one int64 block); every entry belongs to the disturbed task.  Plans
    compare without them: the overlay follows from the other fields and the
    static schedule.
    """

    event: DisturbanceEvent
    end_point: int
    sets: ActivePacketSets
    decision: DropDecision
    overlay_slots: np.ndarray = field(compare=False)
    overlay_releases: np.ndarray = field(compare=False)
    overlay_hops: np.ndarray = field(compare=False)
    evaluations: tuple[tuple[int, Optional[float]], ...]


def generate_dynamic_schedule(
    event: DisturbanceEvent, static: Schedule, tasks: Sequence[TaskSpec], network: NetworkModel,
    required_pdr: float, beta: int, levels: Sequence[str],
) -> tuple[DynamicPlan, ...]:
    """Plan the disturbance ``event`` at each dropping granularity of
    ``levels`` in one pass over its end-point candidates: one plan per
    level, in ``levels`` order.

    Candidates are the disturbed task's releases between the earliest finish
    of its last stepped packet and the latency bound ``beta``.  Per
    candidate, the active sets are built once from the disturbance's
    ``ScheduleSpan``, the planner's only read of ``static``; when their
    residual demand is not zero, the periodic slots are cut from the span
    once, and each level solves the residual with its greedy heuristic.
    Each level keeps its own evaluations, cheapest decision (drop count at
    packet level, total degradation at transmission level; ties to the
    earliest end point) and delivery-probability table, so it gets the plan
    it gets alone.  Rhythmic packets then claim the earliest usable slots in
    their windows, hop-ordered under TBS, where usable means idle, owned by
    the disturbed task, or freed by the decision.

    A candidate is skipped, at every level alike, only when its active sets
    cannot be built, so DisturbanceInfeasible (no candidate left) holds for
    every level.  Every other-task slot in a rhythmic window belongs to a
    periodic packet and each demand is bounded by its window, so a solver
    covers every candidate whose sets were built; PlanInvariantError names
    the candidate where it does not.
    """
    planned = tuple(dict.fromkeys(levels))
    if any(level not in ("packet", "transmission") for level in planned):
        raise ValueError("level must be 'packet' or 'transmission'")
    task = {t.id: t for t in tasks}[event.task_id]
    # Per-hop budget of each full-demand rhythmic packet, and its sum.
    retry_vector = allocate_retry_vector(network.path_pdrs(task.path), required_pdr)
    full_demand = sum(retry_vector)
    span = ScheduleSpan(event, static, tasks, beta)
    path_pdrs = {t.id: tuple(network.path_pdrs(t.path)) for t in tasks} if "transmission" in planned else {}

    # Candidates start at the optimistic finish of the last stepped packet
    # (its release plus its hop count); the overlay re-checks the realized one.
    f_last = event.last_stepped + task.hops
    evaluations: dict[str, list[tuple[int, Optional[float]]]] = {level: [] for level in planned}
    best: dict[str, tuple[float, int, ActivePacketSets, DropDecision]] = {}
    pdrs: PdrTable = {}  # shared by the transmission plan's candidates only
    for candidate in end_point_candidates(event, f_last, beta):
        try:
            sets = build_active_sets(candidate, event, span, full_demand)
        except CandidateInfeasible:
            for level in planned:
                evaluations[level].append((candidate, None))
            continue
        residual = sets.residual
        groups = span.groups(sets) if any(residual) else None
        for level in planned:
            try:
                if groups is None:
                    decision = DropDecision(level=level)
                elif level == "packet":
                    counts = build_transmission_vectors(sets, groups)
                    decision = greedy_drop_packets(residual, sets.periodic, counts, required_pdr)
                else:
                    state = build_periodic_state(sets, groups, path_pdrs)
                    decision = drop_transmissions(residual, state, required_pdr, static.mode, pdrs)
            except CandidateInfeasible as exc:
                raise PlanInvariantError(
                    f"the {level}-level solver left end-point candidate {candidate} uncovered: {exc}"
                ) from exc
            cost = decision.cost()
            evaluations[level].append((candidate, cost))
            if level not in best or cost < best[level][0] - 1e-15:
                best[level] = (cost, candidate, sets, decision)

    if len(best) < len(planned):
        raise DisturbanceInfeasible(f"no feasible end point for the disturbance at slot {event.detect_slot}")
    upper = end_point_upper_bound(event, beta)
    plans = {level: _overlay_plan(event, static.mode, span, retry_vector, upper, best[level], evaluations[level])
             for level in planned}
    return tuple(plans[level] for level in levels)


def _overlay_plan(event: DisturbanceEvent, mode: SchedulingMode, span: ScheduleSpan, retry_vector: Sequence[int],
                  upper: int, best: tuple[float, int, ActivePacketSets, DropDecision],
                  evaluations: list[tuple[int, Optional[float]]]) -> DynamicPlan:
    """The plan of one level: its cheapest candidate, ``best`` (cost, end
    point, active sets, decision), with the overlay the decision leaves, and
    the level's ``evaluations``.  ``upper`` is the latest admissible end
    point."""
    _, end_point, sets, decision = best

    # Each rhythmic packet takes the first ``need`` usable slots of its
    # window; the windows are sorted and disjoint, so one ascending list of
    # the usable slots of their span serves them all.
    rhythmic = sets.rhythmic
    lo, hi = rhythmic[0].release, rhythmic[-1].deadline
    usable = span.usable[lo - span.lo:hi - span.lo].copy()
    freed = np.fromiter(decision.freed_slots(span), dtype=np.int64)
    usable[freed[(freed >= lo) & (freed < hi)] - lo] = True
    usable = np.flatnonzero(usable) + lo
    edges = np.searchsorted(usable, [t for e in rhythmic for t in (e.release, e.deadline)]).tolist()
    picks, needs, labels = [], [], []  # positions in ``usable``, demands, hop labels
    for entry, first, stop in zip(rhythmic, edges[::2], edges[1::2]):
        need = entry.demand
        if stop - first < need:
            raise PlanInvariantError(
                f"the drop decision left the rhythmic packet released at {entry.release} "
                f"{stop - first} usable slots for a demand of {need}"
            )
        picks.extend(range(first, first + need))
        needs.append(need)
        if mode is not SchedulingMode.TBS:
            labels.extend([0] * need)
        elif entry.tail_slots:
            labels.extend(entry.prefix_hops)  # truncated packet continues a static instance
        else:
            labels.extend(hop_expansion(retry_vector, need))
        # The last stepped-state packet must finish inside the window it was
        # granted; its final assigned slot realizes that finish time.
        if entry.release == event.last_stepped and need:
            realized_finish = int(usable[first + need - 1]) + 1
            if not (realized_finish <= end_point <= upper):
                raise PlanInvariantError(
                    f"end point {end_point} violates the completion constraint: the last "
                    f"stepped packet finishes at {realized_finish}, the bound is {upper}"
                )

    releases = np.repeat([entry.release for entry in rhythmic], needs)
    overlay = np.stack([usable[picks], releases, np.array(labels, dtype=np.int64)])
    return DynamicPlan(
        event=event, end_point=end_point, sets=sets, decision=decision,
        overlay_slots=overlay[0], overlay_releases=overlay[1], overlay_hops=overlay[2],
        evaluations=tuple(evaluations),
    )
