"""Disturbance-mode machinery: the shortened release sequence of a disturbed
task, end-point candidate selection, and construction of the active packet
sets a candidate implies.

A disturbance detected at one release makes the task enter a stepped
short-period state one nominal period later.  Only the nodes on that task's
route learn about it; the dynamic schedule they all derive covers
[enter_slot, end_point) and must hand the network back to the static schedule
with the task's releases realigned to the nominal grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Optional, Sequence

import numpy as np

from .model import (
    CandidateInfeasible,
    DisturbanceInfeasible,
    RhythmicSpec,
    TaskSpec,
)
from .static_schedule import Schedule

__all__ = [
    "DisturbanceEvent",
    "RhythmicDemand",
    "ActivePacketSets",
    "IdleSlotWitness",
    "ScheduleSpan",
    "actual_releases",
    "end_point_upper_bound",
    "end_point_candidates",
    "build_active_sets",
    "find_idle_slot",
]


@dataclass(frozen=True)
class DisturbanceEvent:
    """A detected disturbance and the timing frame it opens.

    detect_slot is the release at which the sensor sees the disturbance;
    enter_slot (one nominal period later) starts the short-period state, which
    runs for the sum of the stepped periods and ends at exit_slot.
    """

    task_id: int
    detect_slot: int
    periods: tuple[int, ...]
    deadlines: tuple[int, ...]
    nominal_period: int
    nominal_deadline: int
    phase: int

    @property
    def enter_slot(self) -> int:
        return self.detect_slot + self.nominal_period

    @property
    def exit_slot(self) -> int:
        return self.enter_slot + int(sum(self.periods))

    @property
    def last_stepped(self) -> int:
        """Release of the last stepped-state packet."""
        return self.enter_slot + sum(self.periods[:-1])

    @classmethod
    def from_task(cls, task: TaskSpec, instance: int, spec: RhythmicSpec) -> "DisturbanceEvent":
        return cls(
            task_id=task.id,
            detect_slot=task.release(instance),
            periods=spec.periods,
            deadlines=spec.deadlines,
            nominal_period=task.period,
            nominal_deadline=task.deadline,
            phase=task.phase,
        )

    def grid_release_after(self, t: int) -> int:
        """First nominal-grid release strictly after slot t."""
        p = self.nominal_period
        return self.phase + ((t - self.phase) // p + 1) * p

    def received_by(self, schedule: Schedule, path: Sequence[str], node: str) -> Optional[int]:
        """Slot by whose end ``node`` of the disturbed route ``path`` holds the
        disturbance information, in the worst case of the static schedule:
        the detection slot at the route's sensor, else the detecting packet's
        last slot on the hop into ``node`` (any of its slots under PBS, which
        labels every slot hop 0).  None when the packet has no such slot."""
        if node == path[0]:
            return self.detect_slot
        hop_in = path.index(node)  # 1-based hop delivering to this node
        slots = schedule.packet_slots(
            self.task_id, self.detect_slot, until=self.detect_slot + self.nominal_deadline
        )
        hops = schedule.hop_at[slots]
        inbound = slots[(hops == 0) | (hops == hop_in)]
        return int(inbound[-1]) if inbound.size else None


@dataclass(frozen=True)
class RhythmicDemand:
    """One packet the dynamic schedule must serve, in [release, deadline).

    ``demand`` is the slot count the dynamic schedule owes it: the full
    per-mode retry budget, or fewer for the end-point boundary packet that
    takes over a static instance's ``tail_slots`` after the window closes
    (its in-window trials then follow that instance's ``prefix_hops``).
    ``available`` counts the window's slots the static schedule already
    leaves it: the idle ones and the disturbed task's own.
    """

    release: int
    deadline: int
    demand: int
    available: int
    tail_slots: tuple[int, ...] = ()
    prefix_hops: tuple[int, ...] = ()  # hop labels of the truncated in-window trials


@dataclass(frozen=True)
class ActivePacketSets:
    """Packets touched by one end-point candidate.

    ``rhythmic`` holds the disturbed task's packets to place dynamically, with
    pairwise-disjoint service windows inside [enter_slot, candidate) of the
    event.  ``periodic`` lists every other packet owning at least one static
    slot in that range, in (release, task) order.
    ``resume_release`` is the first release of the disturbed task served by
    the static schedule again; nominal instances released in
    [enter_slot, resume_release) are superseded by the dynamic packets.
    """

    rhythmic: tuple[RhythmicDemand, ...]
    periodic: tuple[tuple[int, int], ...]  # (task, release) keys
    resume_release: int
    boundary_case: int  # 0 = no boundary adjustment, 1 or 2 = adjustment case

    @property
    def residual(self) -> tuple[int, ...]:
        """Per rhythmic packet, the slots periodic packets must hand over:
        its demand less the slots available to it, or 0."""
        return tuple(max(0, d.demand - d.available) for d in self.rhythmic)


@dataclass(frozen=True)
class IdleSlotWitness:
    ok: bool
    node: str
    received_by: int  # t1: slot by which the node holds the disturbance info
    busy_from: int  # t2: the node's first involvement in the next instance
    idle_slot: Optional[int] = None


def actual_releases(event: DisturbanceEvent, until: int) -> list[int]:
    """Release slots of the disturbed task in [enter_slot, until].

    The stepped periods run first; the release at exit_slot returns the task
    to its nominal period, and the release after that snaps backward onto the
    nominal grid (the unique grid point within one nominal period), from
    which the sequence stays grid-aligned.
    """
    releases = []
    r = event.enter_slot
    for p in event.periods:
        if r > until:
            return releases
        releases.append(r)
        r += p
    # r == exit_slot: first nominal-state release.
    if r <= until:
        releases.append(r)
    g = event.grid_release_after(event.exit_slot)
    while g <= until:
        releases.append(g)
        g += event.nominal_period
    return releases


def end_point_upper_bound(event: DisturbanceEvent, beta: int) -> int:
    """Latest admissible end point: beta-1 nominal periods past the state exit."""
    if beta < 1:
        raise ValueError("beta must be >= 1")
    return event.exit_slot + (beta - 1) * event.nominal_period


def end_point_candidates(event: DisturbanceEvent, f_last: int, beta: int) -> list[int]:
    """All actual releases of the disturbed task within [f_last, upper bound].

    Restricting candidates to release instants is lossless for the dropping
    objective; an empty result means the disturbance cannot be handled within
    the allowed latency.
    """
    upper = end_point_upper_bound(event, beta)
    candidates = [r for r in actual_releases(event, upper) if f_last <= r <= upper]
    if not candidates:
        raise DisturbanceInfeasible(
            f"no release of task {event.task_id} lies in [{f_last}, {upper}]"
        )
    return candidates


class ScheduleSpan:
    """The static schedule around one disturbance, read once for all its
    end-point candidates and both dropping levels; the FD-PaS planner reads
    the schedule through it alone.

    A periodic packet is another task's with a slot in [enter_slot, ``stop``),
    the latest end point under latency bound ``beta``.  The span covers
    [``lo``, ``hi``): one nominal period before enter_slot to the nominal
    deadline past ``stop``, stretched to every periodic packet's [release,
    release + deadline) (``tasks`` give the deadlines), within the horizon.
    ``free[i]`` counts the idle or disturbed-task slots of [lo, lo + i),
    which ``usable`` marks.  ``index`` maps the periodic packets' (task,
    release) keys, in (release, task) order, to their positions, and
    ``first`` holds the first slot each owns in [enter_slot, stop): a packet
    is periodic for a candidate exactly when that slot lies before it.
    ``slots`` and ``hops`` hold each such packet's slots inside its window,
    and their labels, grouped by packet in key order (``packet`` is the
    position of each), ascending within a packet.  ``own`` lists the
    disturbed task's (slot, release, hop label) triples, then the same of
    its first slot past the span, if any.
    """

    def __init__(self, event: DisturbanceEvent, static: Schedule, tasks: Sequence[TaskSpec], beta: int) -> None:
        tid, start, self.stop = event.task_id, event.enter_slot, end_point_upper_bound(event, beta)
        owners, releases = static.task_at[start:self.stop], static.release_at[start:self.stop]
        # A packet's slots come in runs, so only the first slot of each run is read.
        run_start = np.ones(len(owners), dtype=bool)
        run_start[1:] = (owners[1:] != owners[:-1]) | (releases[1:] != releases[:-1])
        runs = np.flatnonzero(run_start & (owners >= 0) & (owners != tid))
        # Each periodic packet's packed (release, task) key, in key order, and its earliest run.
        width = int(owners[runs].max(initial=0)) + 1  # above every periodic packet's task id
        packed, earliest = np.unique(releases[runs] * width + owners[runs], return_index=True)
        key_release, key_task = np.divmod(packed, width)
        self.first = runs[earliest] + start
        self.index = {key: i for i, key in enumerate(zip(key_task.tolist(), key_release.tolist()))}
        deadline = {t.id: t.deadline for t in tasks}
        ends = key_release + np.array([deadline[t] for t, _ in self.index], dtype=np.int64)

        self.lo = max(0, min(start - event.nominal_period, int(key_release.min(initial=start))))
        self.hi = min(static.horizon, max(self.stop + event.nominal_deadline, int(ends.max(initial=0))))
        owners, releases, hops = (a[self.lo:self.hi] for a in (static.task_at, static.release_at, static.hop_at))
        self.usable = (owners == -1) | (owners == tid)
        self.free = np.concatenate(([0], np.cumsum(self.usable)))
        slots = np.arange(self.lo, self.lo + len(owners))
        own = np.concatenate((slots[owners == tid], np.flatnonzero(static.task_at[self.hi:] == tid)[:1] + self.hi))
        self.own = list(zip(own.tolist(), static.release_at[own].tolist(), static.hop_at[own].tolist()))

        # A slot belongs to the periodic packet whose key it carries, if it lies
        # in that packet's window; other owners may pass ``width``, so both
        # fields are compared.
        idx, match = np.zeros(len(slots), dtype=np.int64), np.zeros(len(slots), dtype=bool)
        if self.index:
            idx = np.minimum(np.searchsorted(packed, releases * width + owners), len(packed) - 1)
            match = ((key_task[idx] == owners) & (key_release[idx] == releases)
                     & (slots >= releases) & (slots < ends[idx]))
        order = np.argsort(idx[match], kind="stable")
        self.packet, self.slots, self.hops = idx[match][order], slots[match][order], hops[match][order]

    def packet_slots(self, key: tuple[int, int]) -> np.ndarray:
        """The slots of periodic packet ``key``, (task, release)."""
        return self.slots[self.packet == self.index[key]]

    def own_slots(self, release: int, until: int) -> list[tuple[int, int]]:
        """(slot, hop label) of each slot before ``until`` of the disturbed
        task's instance released at ``release``."""
        return [(s, h) for s, r, h in self.own if r == release and release <= s < until]

    def groups(self, sets: ActivePacketSets) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(owner, slots, hops, windows)`` of the periodic packets of
        ``sets``, grouped as ``slots`` is: per slot, its packet's index in
        ``sets.periodic``, the slot, its hop label and the index of the
        rhythmic window holding it, or -1 (the windows are sorted and disjoint)."""
        rank = np.full(len(self.index), -1, dtype=np.int64)
        rank[[self.index[key] for key in sets.periodic]] = np.arange(len(sets.periodic))
        owner = rank[self.packet]
        taken = owner >= 0
        owner, slots = owner[taken], self.slots[taken]
        starts = np.array([d.release for d in sets.rhythmic])
        stops = np.array([d.deadline for d in sets.rhythmic])
        w = np.searchsorted(starts, slots, side="right") - 1
        windows = np.where((w >= 0) & (slots < stops[np.maximum(w, 0)]), w, -1)
        return owner, slots, self.hops[taken], windows


def build_active_sets(
    candidate: int,
    event: DisturbanceEvent,
    span: ScheduleSpan,
    full_demand: int,
) -> ActivePacketSets:
    """Construct the packet sets one end-point candidate implies.

    Every release of the disturbed task in [enter, candidate) becomes a
    dynamic packet.  Service windows are clipped at the successor release so
    they stay pairwise disjoint.  The last packet is the boundary packet
    whenever its nominal deadline crosses the candidate (or the candidate sits
    off the nominal grid): its successor release snaps backward to the grid
    point r_p, and

    * case 1 (candidate < r_p): its deadline becomes the candidate.  If the
      first slot the static schedule gives the task at/after the candidate
      still belongs to the grid instance preceding r_p — say its k-th assigned
      slot — the packet finishes in that instance's remaining static slots and
      only k-1 slots are demanded dynamically; otherwise the full demand is.
    * case 2 (candidate >= r_p): the grid instance released at r_p is served
      statically, so the boundary deadline becomes min(candidate, first slot
      of that instance) and the full demand applies.

    Raises CandidateInfeasible when any window is shorter than its demand.
    Every static slot is read off ``span``, the schedule's span of
    ``event``, which must reach the candidate; a candidate past it raises
    ValueError.
    """
    start = event.enter_slot
    if candidate <= start:
        raise CandidateInfeasible("end point must lie after the window start")
    if candidate > span.stop:
        raise ValueError(f"end point {candidate} lies past the schedule span's end {span.stop}")
    releases = actual_releases(event, candidate - 1)

    rhythmic = []
    read = len(span.free) - 1  # slots the span holds; none lie past the horizon
    p0 = event.nominal_period
    on_grid = (candidate - event.phase) % p0 == 0
    boundary_case = 0
    resume_release = candidate

    last_release = releases[-1]
    nominal_deadline_of_last = last_release + event.nominal_deadline
    needs_boundary = nominal_deadline_of_last > candidate or not on_grid

    for seq, release in enumerate(releases):
        # The pattern deadline: stepped, then nominal.
        deadline = release + (event.deadlines[seq] if seq < len(event.deadlines) else event.nominal_deadline)
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
                    t_k0 = next((s for s, _, _ in span.own if s >= candidate), None)
                    if t_k0 is None:
                        raise CandidateInfeasible("static schedule has no task slot after the end point")
                    if t_k0 < r_p:
                        # k-th slot of the grid instance preceding r_p; the
                        # packet takes over that instance's static tail and
                        # therefore follows its per-slot hop labels.
                        prev = span.own_slots(r_p - p0, r_p - p0 + event.nominal_deadline)
                        k0 = [s for s, _ in prev].index(t_k0) + 1
                        demand = k0 - 1
                        tail = tuple(s for s, _ in prev[k0 - 1:])
                        prefix = tuple(h for _, h in prev[: k0 - 1])
                else:
                    boundary_case = 2
                    inst = span.own_slots(r_p, r_p + event.nominal_deadline)
                    deadline = min(candidate, inst[0][0] if inst else candidate)
            else:
                deadline = min(deadline, candidate)
        if demand > deadline - release:
            raise CandidateInfeasible(
                f"packet released at {release} needs {demand} slots in a "
                f"{deadline - release}-slot window"
            )
        available = int(span.free[min(deadline - span.lo, read)] - span.free[min(release - span.lo, read)])
        rhythmic.append(RhythmicDemand(release, deadline, demand, available, tail, prefix))

    return ActivePacketSets(
        rhythmic=tuple(rhythmic),
        periodic=tuple(compress(span.index, (span.first < candidate).tolist())),
        resume_release=resume_release,
        boundary_case=boundary_case,
    )


def find_idle_slot(
    schedule: Schedule,
    event: DisturbanceEvent,
    node: str,
    tasks: Sequence[TaskSpec],
) -> IdleSlotWitness:
    """Witness that ``node`` has a schedule-computation slot.

    Between receiving the disturbance notification (piggybacked on the
    detecting packet; the sensor itself knows at the detection slot) and its
    first involvement in the next instance of the disturbed task, a
    schedulable static schedule always leaves the node one slot in which it
    neither sends nor receives.  Returns ok=False only on inputs that violate
    that premise.
    """
    by_id = {t.id: t for t in tasks}
    task = by_id[event.task_id]
    if node not in task.path:
        raise ValueError(f"node {node!r} is not on the disturbed task's route")

    def involves(t: int) -> bool:
        task_id = int(schedule.task_at[t])
        if task_id < 0:
            return False
        entry_task = by_id[task_id]
        hop = int(schedule.hop_at[t])
        if hop > 0:
            sender, receiver = entry_task.hop_link(hop)
            return node in (sender, receiver)
        return node in entry_task.path  # PBS: the node may act in any of its slots

    # t1: worst-case arrival of the detecting packet at the node.
    t1 = event.received_by(schedule, task.path, node)
    if t1 is None:
        raise ValueError("detecting packet has no slots delivering to the node")

    # t2: the node's first involvement in the disturbed task at/after the
    # rhythmic state entry (the next instance's static position).
    t2 = None
    for t in schedule.task_slots(event.task_id):
        if t >= event.enter_slot and involves(int(t)):
            t2 = int(t)
            break
    if t2 is None:
        t2 = schedule.horizon

    for t in range(t1 + 1, t2):
        if not involves(t):
            return IdleSlotWitness(ok=True, node=node, received_by=t1, busy_from=t2, idle_slot=t)
    return IdleSlotWitness(ok=False, node=node, received_by=t1, busy_from=t2)
