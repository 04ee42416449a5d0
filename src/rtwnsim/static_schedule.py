"""Static schedule synthesis: earliest-deadline-first slot assignment with
per-hop retransmission budgets, exactly as each node would compute it locally.

The whole network shares one channel, so at most one transmission is
scheduled per slot; that single-assignment representation also satisfies
half-duplex trivially.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .model import (
    NetworkModel,
    ScheduleInfeasible,
    SchedulingMode,
    TaskSpec,
    allocate_retry_vector,
    packet_pdr,
    packet_pdr_flexible,
)

__all__ = [
    "Schedule",
    "StaticScheduleResult",
    "ScheduleVerdict",
    "allocate_retry_vector",
    "plan_retry_vectors",
    "hop_expansion",
    "hyperperiod",
    "build_static_schedule",
    "verify_schedulable",
]


class Schedule:
    """Per-slot transmission table over [0, horizon).

    Stored as parallel numpy arrays (-1 task id marks an idle slot).  Packets
    are keyed by (task, release) so dynamically re-released packets never
    collide with nominal instance numbering.
    """

    def __init__(self, mode: SchedulingMode, horizon: int,
                 task_at: np.ndarray, release_at: np.ndarray, hop_at: np.ndarray):
        if not (len(task_at) == len(release_at) == len(hop_at) == horizon):
            raise ValueError("schedule arrays must match the horizon")
        self.mode = mode
        self.horizon = horizon
        self.task_at = task_at
        self.release_at = release_at
        self.hop_at = hop_at

    def packet_slots(self, task: int, release: int, until: Optional[int] = None) -> np.ndarray:
        """Slots assigned to one packet; ``until`` bounds the scan (a packet's
        slots always lie in [release, deadline))."""
        lo = max(0, int(release))
        hi = self.horizon if until is None else min(self.horizon, int(until))
        if lo >= hi:
            return np.empty(0, dtype=np.int64)
        mask = (self.task_at[lo:hi] == task) & (self.release_at[lo:hi] == release)
        return np.nonzero(mask)[0] + lo

    def task_slots(self, task: int) -> np.ndarray:
        return np.nonzero(self.task_at == task)[0]


@dataclass(frozen=True)
class ScheduleVerdict:
    ok: bool
    violations: tuple[str, ...] = ()


@dataclass
class StaticScheduleResult:
    schedule: Schedule
    retry_vectors: dict[int, tuple[int, ...]]  # task id -> per-hop trial budget
    feasible: bool
    first_failure: Optional[tuple[int, int]] = None  # (task, release) of first missed packet


def plan_retry_vectors(
    tasks: Sequence[TaskSpec], network: NetworkModel, required_pdr: float
) -> dict[int, tuple[int, ...]]:
    """Per-task trial budgets: the reliability minimum, padded round-robin up
    to an explicitly configured slot budget."""
    vectors: dict[int, tuple[int, ...]] = {}
    for task in tasks:
        rv = list(allocate_retry_vector(network.path_pdrs(task.path), required_pdr))
        if task.slot_budget is not None:
            minimum = sum(rv)
            if task.slot_budget < minimum:
                raise ScheduleInfeasible(
                    f"task {task.id}: slot budget {task.slot_budget} below reliability minimum {minimum}"
                )
            rounds, extra = divmod(task.slot_budget - minimum, task.hops)
            rv = [r + rounds + (i < extra) for i, r in enumerate(rv)]
        vectors[task.id] = tuple(rv)
    return vectors


def hop_expansion(retry_vector: Sequence[int], count: int) -> list[int]:
    """The 1-based hop labels of a packet's first ``count`` slot ordinals:
    hop 1 repeated R[0] times, then hop 2, ...; all of them when the budget
    is shorter."""
    return list(islice(chain.from_iterable(repeat(h, r) for h, r in enumerate(retry_vector, start=1)), count))


def hyperperiod(tasks: Sequence[TaskSpec]) -> int:
    """Least common multiple of the task periods."""
    hp = 1
    for task in tasks:
        hp = math.lcm(hp, task.period)
    return hp


def build_static_schedule(
    tasks: Sequence[TaskSpec],
    network: NetworkModel,
    mode: SchedulingMode,
    required_pdr: float,
    horizon: int,
) -> StaticScheduleResult:
    """EDF slot assignment over [0, horizon).

    Ready packets are served earliest-deadline-first with ties broken by task
    id then release; a packet's w slots are taken in order, labelled hop by
    hop under TBS.  EDF is optimal on a single channel, so feasible=False
    means no schedule exists; the first failing packet is reported.  Packets
    whose deadline falls beyond the horizon are scheduled best-effort but do
    not count against feasibility.
    """
    if not tasks:
        raise ValueError("need at least one task")
    for task in tasks:
        task.validate_against(network)
    if len({t.id for t in tasks}) != len(tasks):
        raise ValueError("duplicate task ids")

    retry_vectors = plan_retry_vectors(tasks, network, required_pdr)
    demand = {tid: sum(rv) for tid, rv in retry_vectors.items()}

    # Every instance released in the window, as its heap entry (deadline,
    # task, release, remaining demand), in release order; the first three
    # fields are its EDF key, which is unique.  A sentinel released at the
    # horizon ends the list, so a release is never looked for past it.
    jobs = sorted(chain.from_iterable(
        zip(range(task.phase + task.deadline, horizon + task.deadline, task.period), repeat(task.id),
            range(task.phase, horizon, task.period), repeat(demand[task.id]))
        for task in tasks
    ), key=itemgetter(2))
    jobs.append((horizon, 0, horizon, 0))

    # TBS hop labels of every task's packet ordinals, one task after another:
    # a packet of task tid with r slots left takes flat[label_end[tid] - r] next.
    # It is served only inside its window, so only its first ``deadline``
    # ordinals are labelled, however large its budget.
    label_end: dict[int, int] = {}
    flat: list[int] = []
    for task in tasks:
        label_end[task.id] = len(flat) + demand[task.id]
        flat.extend(hop_expansion(retry_vectors[task.id], task.deadline))
    missed: list[tuple[int, int, int, int]] = []  # heap entries of the missed jobs

    # One EDF segment of consecutive slots per entry; the slot arrays are
    # decoded from these lists after the loop.
    seg_start: list[int] = []
    seg_run: list[int] = []
    seg_task: list[int] = []
    seg_release: list[int] = []
    seg_ordinal: list[int] = []  # index of the segment's first hop label in ``flat``

    push, pop = heapq.heappush, heapq.heappop
    heap: list[tuple[int, int, int, int]] = []  # entries of the released, unfinished jobs
    i = 0
    next_release = jobs[0][2]
    t = 0
    while t < horizon:
        while next_release <= t:
            push(heap, jobs[i])
            i += 1
            next_release = jobs[i][2]
        if not heap:
            if next_release >= horizon:
                break
            t = next_release
            continue
        job = pop(heap)
        deadline, task_id, release, remaining = job
        if deadline <= t:
            missed.append(job)
            continue
        # The job runs on through every release whose key is larger than
        # its own, and those releases wait in the heap; a release with a
        # smaller key preempts it there.
        end = t + remaining
        if end > deadline:
            end = deadline
        if end > horizon:
            end = horizon
        while next_release < end:
            if jobs[i] < job:
                end = next_release
                break
            push(heap, jobs[i])
            i += 1
            next_release = jobs[i][2]
        run = end - t
        seg_start.append(t)
        seg_run.append(run)
        seg_task.append(task_id)
        seg_release.append(release)
        seg_ordinal.append(label_end[task_id] - remaining)
        t = end
        if remaining > run:
            push(heap, (deadline, task_id, release, remaining - run))
    missed.extend(heap)

    # The slots alternate idle runs and busy segments, beginning and ending
    # with an idle run that may be empty: run-length decode each array.
    starts = np.array(seg_start, dtype=np.int64)
    edges = np.zeros(2 * len(starts) + 2, dtype=np.int64)  # 0, start, end, start, end, ..., horizon
    edges[1:-1:2] = starts
    edges[2:-1:2] = starts + np.array(seg_run, dtype=np.int64)
    edges[-1] = horizon
    counts = edges[1:] - edges[:-1]
    values = np.full(len(counts), -1, dtype=np.int64)  # one per run, idle runs at even positions
    values[1::2] = seg_task
    task_at = np.repeat(values.astype(np.int32), counts)
    values[1::2] = seg_release
    release_at = np.repeat(values, counts)
    if mode is SchedulingMode.TBS:
        # Slot s of a segment takes hop label s - start + ordinal; an idle
        # slot s reads the zero label at len(flat) + s.
        labels = np.zeros(len(flat) + horizon, dtype=np.int16)
        labels[:len(flat)] = flat
        values[::2] = len(flat)
        values[1::2] = np.array(seg_ordinal, dtype=np.int64) - starts
        index = np.repeat(values, counts)
        index += np.arange(horizon)
        hop_at = labels[index]
    else:
        hop_at = np.zeros(horizon, dtype=np.int16)
    sched = Schedule(mode, horizon, task_at, release_at, hop_at)

    in_window = [m for m in missed if m[0] <= horizon]
    first_failure = None
    if in_window:
        _, tid, rel, _ = min(in_window)
        first_failure = (tid, rel)
    return StaticScheduleResult(
        schedule=sched,
        retry_vectors=retry_vectors,
        feasible=not in_window,
        first_failure=first_failure,
    )


def verify_schedulable(
    result: StaticScheduleResult,
    tasks: Sequence[TaskSpec],
    network: NetworkModel,
    required_pdr: float,
) -> ScheduleVerdict:
    """Independent check of a built schedule, recomputed from the slot arrays:
    per-packet slot counts, window containment, hop ordering and end-to-end
    reliability of every packet whose deadline lies inside the horizon."""
    sched = result.schedule
    by_task = {t.id: t for t in tasks}
    violations: list[str] = []

    per_packet: dict[tuple[int, int], list[int]] = {}
    for t in np.nonzero(sched.task_at >= 0)[0]:
        key = (int(sched.task_at[t]), int(sched.release_at[t]))
        per_packet.setdefault(key, []).append(int(t))

    for task in tasks:
        rv = result.retry_vectors[task.id]
        k = 0
        while task.release(k) < sched.horizon:
            release, deadline = task.release(k), task.nominal_deadline(k)
            k += 1
            if deadline > sched.horizon:
                continue
            slots = per_packet.get((task.id, release), [])
            if any(not (release <= s < deadline) for s in slots):
                violations.append(f"task {task.id} release {release}: slot outside [release, deadline)")
            if len(slots) != sum(rv):
                violations.append(
                    f"task {task.id} release {release}: {len(slots)} slots assigned, budget {sum(rv)}"
                )
            if sched.mode is SchedulingMode.TBS:
                hops = [int(sched.hop_at[s]) for s in sorted(slots)]
                if any(b < a for a, b in zip(hops, hops[1:])):
                    violations.append(f"task {task.id} release {release}: hop ordering violated")
                counts = {h: hops.count(h) for h in set(hops)}
                if len(slots) == sum(rv) and counts != {h + 1: r for h, r in enumerate(rv) if r}:
                    violations.append(f"task {task.id} release {release}: per-hop counts != retry vector")
                achieved = packet_pdr(network.path_pdrs(task.path), rv)
            else:
                achieved = packet_pdr_flexible(network.path_pdrs(task.path), sum(rv))
            if achieved < required_pdr - 1e-12:
                violations.append(
                    f"task {task.id}: achieved pdr {achieved:.6f} below requirement {required_pdr}"
                )
                break
    return ScheduleVerdict(ok=not violations, violations=tuple(violations))
