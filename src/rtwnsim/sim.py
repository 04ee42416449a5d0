"""Deterministic slot-driven network simulator.

One run executes the static schedule (and, for the distributed frameworks,
the dynamic overlay the disturbed route's nodes derive) over lossy links with
per-slot contention resolved by the priority MAC.  Every random draw is a
pure function of (seed, link, slot), so a run is byte-reproducible and the
post-window suffix of a disturbed run can be compared draw-for-draw against
an undisturbed run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .model import (
    DisturbanceInfeasible,
    NetworkModel,
    ReliabilityTarget,
    RhythmicSpec,
    ScheduleInfeasible,
    SchedulingMode,
    TaskSpec,
)
from .rhythmic import DisturbanceEvent, end_point_upper_bound
from .static_schedule import (
    Schedule,
    StaticScheduleResult,
    build_static_schedule,
    hyperperiod,
)
from . import mac as mac_model
from .dropping import DropDecision, DynamicPlan, PlanInvariantError, generate_dynamic_schedule
from .trace import EVENT_FIELDS, WORDS, Part, SimTrace

__all__ = [
    "HorizonTooShort",
    "HorizonTooLong",
    "Framework",
    "DisturbanceSpec",
    "BaselineParams",
    "MacParams",
    "SimConfig",
    "SimTrace",
    "EVENT_FIELDS",
    "TaskStats",
    "Metrics",
    "Plan",
    "plan_frameworks",
    "plan",
    "run",
    "baseline_drt",
    "degradation_rate",
    "periodic_in_window",
    "default_horizon",
]

# Longest hyperperiod, in slots, that default_horizon repeats twice as slack;
# past it the slack is four of the longest periods.
_HYPERPERIOD_SOFT_CAP = 10_000

# Longest horizon, in slots, a plan builds its static schedule over.
MAX_HORIZON = 2**22


class HorizonTooShort(ValueError):
    """An explicit horizon ends before the disturbance's latest end point, so
    the distributed frameworks cannot plan its window."""


class HorizonTooLong(ValueError):
    """The horizon, explicit or default, exceeds ``MAX_HORIZON``."""


class Framework(str, Enum):
    FDPAS_PACKET = "FDPAS_PACKET"
    FDPAS_TRANSMISSION = "FDPAS_TRANSMISSION"
    BASELINE_BROADCAST = "BASELINE_BROADCAST"


@dataclass(frozen=True)
class DisturbanceSpec:
    task: int
    instance: int
    rhythmic: RhythmicSpec

    def __post_init__(self) -> None:
        if self.instance < 0:
            raise ValueError(f"instance {self.instance} must be >= 0")


@dataclass(frozen=True)
class BaselineParams:
    """Timing model of a centralized responder: the detection packet reaches
    the controller, the next instance of a periodic broadcast task floods the
    new schedule ``depth`` hops deep, and handling starts at the disturbed
    task's next release after the flood completes."""

    broadcast_period: Optional[int] = None  # default: twice the disturbed task's period
    depth: Optional[int] = None  # default: network broadcast depth
    offset: int = 0  # release offset of the broadcast task

    def __post_init__(self) -> None:
        if self.broadcast_period is not None and self.broadcast_period < 1:
            raise ValueError(f"broadcast_period {self.broadcast_period} must be >= 1")
        if self.depth is not None and self.depth < 0:
            raise ValueError(f"depth {self.depth} must be >= 0")
        if self.offset < 0:
            raise ValueError(f"offset {self.offset} must be >= 0")


@dataclass(frozen=True)
class MacParams:
    timing: mac_model.SlotTiming = mac_model.SlotTiming()

    def __post_init__(self) -> None:
        # A run looks preemption errors up at this tick.
        mac_model.check_tick(self.timing.priority_tick_us)


@dataclass(frozen=True)
class SimConfig:
    network: NetworkModel
    tasks: tuple[TaskSpec, ...]
    mode: SchedulingMode = SchedulingMode.TBS
    required_pdr: float = 0.99
    seed: int = 0
    horizon: Optional[int] = None
    disturbance: Optional[DisturbanceSpec] = None
    alpha: Optional[int] = None  # max allowed response latency in slots; default one period
    beta: int = 4
    framework: Framework = Framework.FDPAS_PACKET
    mac: MacParams = MacParams()
    baseline: BaselineParams = BaselineParams()

    def __post_init__(self) -> None:
        ReliabilityTarget(self.required_pdr)
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be >= 0")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError(f"horizon {self.horizon} must be >= 1")
        if self.beta < 1:
            raise ValueError("beta must be >= 1")
        if self.framework is Framework.BASELINE_BROADCAST and self.baseline.depth is None:
            try:
                self.network.broadcast_depth()  # the default flood depth
            except ValueError as exc:
                raise ValueError(f"baseline.depth unset and {exc}") from None
        if self.disturbance is not None:
            period = self._disturbed_task().period
            if self.alpha is not None and self.alpha < period:
                raise ValueError("alpha must be at least one nominal period")

    def _disturbed_task(self) -> TaskSpec:
        if self.disturbance is None:
            raise ValueError("config has no disturbance")
        for t in self.tasks:
            if t.id == self.disturbance.task:
                return t
        raise ValueError(f"disturbance names unknown task {self.disturbance.task}")

    def alpha_slots(self) -> Optional[int]:
        if self.disturbance is None:
            return None
        return self.alpha if self.alpha is not None else self._disturbed_task().period

    def event(self) -> Optional[DisturbanceEvent]:
        if self.disturbance is None:
            return None
        task = self._disturbed_task()
        return DisturbanceEvent.from_task(task, self.disturbance.instance, self.disturbance.rhythmic)


def default_horizon(config: SimConfig) -> int:
    """The horizon ``simulate`` and ``sweep`` both build the static schedule
    over when none is set: two hyperperiods of slack past the latest possible
    end point, or four of the longest periods when the hyperperiod exceeds
    the soft cap.  A plan reads no slot past it."""
    hyper = hyperperiod(config.tasks)
    max_period = max(t.period for t in config.tasks)
    slack = 2 * hyper if hyper <= _HYPERPERIOD_SOFT_CAP else 4 * max_period
    event = config.event()
    start = end_point_upper_bound(event, config.beta) if event else max(t.phase for t in config.tasks)
    return start + slack


@dataclass
class TaskStats:
    released: int = 0
    delivered: int = 0
    missed: int = 0
    dropped: int = 0


@dataclass
class Metrics:
    framework: Framework
    success: bool
    drt_slots: int
    dhl_slots: int
    degradation_rate: float
    total_degradation: float
    dropped_packets: int
    dropped_transmissions: int
    endpoint: Optional[int]
    periodic_in_window: int
    per_task: dict[int, TaskStats]
    feasible_dynamic: bool


class _Packet:
    """A packet the slot loop holds (see ``_split``)."""

    __slots__ = ("index", "task", "release", "expiry", "hops", "progress")

    def __init__(self, index: int, task: int, release: int, expiry: int, hops: int):
        self.index = index  # its packet-table row
        self.task = task
        self.release = release
        self.expiry = expiry  # it sends only before this slot
        self.hops = hops
        self.progress = 0  # completed hops


def periodic_in_window(dynamic: DynamicPlan, tasks: Sequence[TaskSpec]) -> int:
    """The periodic packets the degradation-rate denominator counts: those
    owning a static slot in the plan's window (its active periodic set) plus
    those released inside it."""
    keys = set(dynamic.sets.periodic)
    rhythmic_task, start, end = dynamic.event.task_id, dynamic.event.enter_slot, dynamic.end_point
    for task in tasks:
        if task.id != rhythmic_task:
            first = task.release(max(0, -((task.phase - start) // task.period)))  # the first release >= start
            keys.update((task.id, release) for release in range(first, end, task.period))
    return len(keys)


def degradation_rate(decision: Optional[DropDecision], periodic_count: int) -> float:
    """Total reliability degradation averaged over the periodic packets active
    in the window; zero by convention when no periodic packet is active."""
    if decision is None or periodic_count == 0:
        return 0.0
    return decision.total_degradation / periodic_count


def baseline_drt(config: SimConfig, static: StaticScheduleResult) -> int:
    """Response latency of the centralized baseline, in slots.

    Sum of: detection packet reaching the controller under the static
    schedule (worst case, its last slot on the inbound hop; the detection
    slot when the controller is the route's sensor), waiting for the next
    broadcast-task instance, ``depth`` flood slots, and alignment to the
    disturbed task's next release.  Always at least one nominal period.
    """
    event = config.event()
    if event is None:
        raise ValueError("baseline latency needs a disturbance")
    task = config._disturbed_task()
    received = event.received_by(static.schedule, task.path, config.network.controller)
    if received is None:
        raise ScheduleInfeasible("detection packet has no static slot to the controller inside the horizon")
    arrival = received + 1

    period_b = config.baseline.broadcast_period
    if period_b is None:
        period_b = 2 * task.period
    depth = config.baseline.depth if config.baseline.depth is not None else config.network.broadcast_depth()
    offset = config.baseline.offset
    k = max(0, math.ceil((arrival - offset) / period_b))
    flood_done = offset + k * period_b + depth

    k0 = math.ceil((flood_done - task.phase) / task.period)
    start = task.phase + k0 * task.period
    return start - event.detect_slot


@dataclass(frozen=True)
class Plan:
    """Planning phase of one run: everything decided about the disturbance
    before the first slot executes."""

    static: StaticScheduleResult
    event: Optional[DisturbanceEvent]
    dynamic: Optional[DynamicPlan] = None  # no window: no disturbance, baseline or infeasible
    feasible_dynamic: bool = True
    drt: int = 0
    dhl: int = 0
    periodic_in_window: int = 0
    dr: float = 0.0

    @property
    def decision(self) -> Optional[DropDecision]:
        return self.dynamic.decision if self.dynamic is not None else None

    def meets(self, alpha_slots: Optional[int]) -> bool:
        """The success rule: a feasible response within ``alpha_slots``.  A
        plan without a disturbance has nothing to respond to and succeeds."""
        return self.event is None or (self.feasible_dynamic and self.drt <= alpha_slots)


def plan_frameworks(config: SimConfig, frameworks: Sequence[Framework]) -> tuple[Plan, ...]:
    """Plan one scenario's disturbance handling under each of ``frameworks``,
    in order, without running any slot; ``config.framework`` is not read.

    The plans share one EDF static schedule over ``config.horizon``, or over
    ``default_horizon`` when it is unset, and the FD-PaS plans come from one
    ``generate_dynamic_schedule`` call, whose DisturbanceInfeasible marks
    every one of them infeasible (no level has a feasible end point then).
    Raises HorizonTooLong when that horizon exceeds ``MAX_HORIZON``,
    HorizonTooShort when an explicit horizon ends before the
    disturbance's latest end point and some framework is FD-PaS, and
    ScheduleInfeasible when the static schedule misses a deadline inside the
    horizon.  The distributed frameworks respond one nominal period after
    detection, whether or not a feasible window exists; the baseline's
    latency follows its broadcast timing model.
    """
    event = config.event()
    horizon = config.horizon
    if horizon is None:
        horizon = default_horizon(config)
    elif event is not None and any(f is not Framework.BASELINE_BROADCAST for f in frameworks):
        upper = end_point_upper_bound(event, config.beta)
        if horizon < upper:
            raise HorizonTooShort(
                f"sim.horizon {horizon} ends before the disturbance's latest end point "
                f"{upper}; set it to at least {upper} or leave it unset"
            )
    if horizon > MAX_HORIZON:
        named = "sim.horizon" if config.horizon is not None else "the default horizon"
        raise HorizonTooLong(f"{named} {horizon} exceeds the {MAX_HORIZON}-slot cap")
    static = build_static_schedule(config.tasks, config.network, config.mode, config.required_pdr, horizon=horizon)
    if not static.feasible:
        raise ScheduleInfeasible(f"static schedule misses packet (task, release) {static.first_failure}")
    if event is None:
        return tuple(Plan(static, None) for _ in frameworks)
    drt = event.enter_slot - event.detect_slot  # FD-PaS responds one nominal period on
    levels = ["packet" if f is Framework.FDPAS_PACKET else "transmission"
              for f in frameworks if f is not Framework.BASELINE_BROADCAST]
    try:  # the FD-PaS plans, in framework order
        dynamics = iter(generate_dynamic_schedule(event, static.schedule, config.tasks, config.network,
                                                  config.required_pdr, config.beta, levels) if levels else ())
    except DisturbanceInfeasible:
        dynamics = iter([None] * len(levels))
    plans = []
    for framework in frameworks:
        if framework is Framework.BASELINE_BROADCAST:
            plans.append(Plan(static, event, drt=baseline_drt(config, static)))
            continue
        dynamic = next(dynamics)
        if dynamic is None:
            plans.append(Plan(static, event, feasible_dynamic=False, drt=drt))
            continue
        periodic = periodic_in_window(dynamic, config.tasks)
        plans.append(Plan(
            static,
            event,
            dynamic=dynamic,
            drt=drt,
            dhl=dynamic.end_point - event.enter_slot,
            periodic_in_window=periodic,
            dr=degradation_rate(dynamic.decision, periodic),
        ))
    return tuple(plans)


def plan(config: SimConfig) -> Plan:
    """The plan of ``config.framework``: see ``plan_frameworks``."""
    return plan_frameworks(config, (config.framework,))[0]


def _link_draws(
    network: NetworkModel, rates: dict[tuple[str, str], float], seed: int, horizon: int, stream: int
) -> dict[tuple[str, str], np.ndarray]:
    """For each link in ``rates``, whether each slot's uniform draw falls
    below the link's rate: a byte per slot, not eight, and one link's draws
    held at a time.  The draws are independent of consumption order.  A
    link's stream index is its position among all of the network's links in
    (src, dst) order, so its draws do not depend on which other links are
    drawn."""
    draws = {}
    for idx, link in enumerate(sorted(network.links, key=lambda l: (l.src, l.dst))):
        key = (link.src, link.dst)
        if key in rates:
            rng = np.random.default_rng(np.random.SeedSequence([seed, stream, idx]))
            draws[key] = rng.random(horizon) < rates[key]
    return draws


def _contend(
    candidates: list[tuple], t: int, timing: mac_model.SlotTiming,
    preempted: Optional[Callable[[tuple[str, str]], np.ndarray]],
) -> list[mac_model.TxOutcome]:
    """Outcomes of a slot with two senders ``(sender, receiver, link
    successes, packet, hop, priority)``, one at each level: priority
    arbitration over their link draws, then, with ``preempted`` (below a
    60 us tick), whether a preemption error corrupts the winner, read off
    ``preempted(link)``, one bool per slot."""
    priorities = [c[-1] for c in candidates]
    link_success = [bool(up[t]) for _, _, up, *_ in candidates]
    outcomes = mac_model.arbitrate_slot(priorities, timing, link_success)
    if preempted is not None:
        for i, outcome in enumerate(outcomes):
            if outcome is mac_model.TxOutcome.WON_DELIVERED and preempted(candidates[i][:2])[t]:
                outcomes[i] = mac_model.TxOutcome.WON_LOST
    return outcomes


# The tail alias: from its slot on, the static slots of the first key carry
# the packet of the second (static key, from slot, packet key).
_Alias = tuple[tuple[int, int], int, tuple[int, int]]


class _PacketTable(NamedTuple):
    """Every packet a run releases, one row each, in the order of their
    ``released`` records: ``config.tasks`` order, then the rhythmic packets."""

    task: np.ndarray  # task id
    release: np.ndarray
    expiry: np.ndarray  # slot of its missed or dropped mark; it sends only before it
    hops: np.ndarray
    dropped: np.ndarray  # bool: the packet-level decision dropped it


def _packet_table(
    config: SimConfig, dynamic: Optional[DynamicPlan], horizon: int
) -> tuple[_PacketTable, Optional[_Alias]]:
    """The run's packet table and its tail alias, if any.  The disturbed
    task's nominal instances inside [window start, resume release) are
    superseded by the dynamic packets; packets that expire past the horizon
    are left out."""
    tasks, releases, expiries, hops = [], [], [], []
    for task in config.tasks:
        release = task.phase + task.period * np.arange(
            max(0, (horizon - task.deadline - task.phase) // task.period + 1), dtype=np.int64
        )
        if dynamic is not None and task.id == dynamic.event.task_id:
            release = release[(release < dynamic.event.enter_slot) | (release >= dynamic.sets.resume_release)]
        tasks.append(np.full(len(release), task.id, dtype=np.int64))
        releases.append(release)
        expiries.append(release + task.deadline)
        hops.append(np.full(len(release), task.hops, dtype=np.int64))
    alias = None
    dropped: Sequence[tuple[int, int]] = ()
    if dynamic is not None:
        event = dynamic.event
        rhythmic = []
        for entry in dynamic.sets.rhythmic:
            expiry = entry.deadline
            if entry.tail_slots:
                prev_release = dynamic.sets.resume_release - event.nominal_period
                expiry = prev_release + event.nominal_deadline
                alias = ((event.task_id, prev_release), dynamic.end_point, (event.task_id, entry.release))
            if expiry <= horizon:
                rhythmic.append((entry.release, expiry))
        tasks.append(np.full(len(rhythmic), event.task_id, dtype=np.int64))
        releases.append(np.array([r for r, _ in rhythmic], dtype=np.int64))
        expiries.append(np.array([e for _, e in rhythmic], dtype=np.int64))
        hops.append(np.full(len(rhythmic), config._disturbed_task().hops, dtype=np.int64))
        if dynamic.decision.level == "packet":
            dropped = dynamic.decision.dropped_packets
    task, release = np.concatenate(tasks), np.concatenate(releases)
    drop_set = set(dropped)
    table = _PacketTable(
        task=task,
        release=release,
        expiry=np.concatenate(expiries),
        hops=np.concatenate(hops),
        dropped=np.array([key in drop_set for key in zip(task.tolist(), release.tolist())], dtype=bool)
        if drop_set else np.zeros(len(task), dtype=bool),
    )
    return table, alias


class _Split(NamedTuple):
    """Where a run's static slots go.  The slot loop visits ``loop_slots``:
    the overlay slots and the static slots of the packets it holds.  Every
    other static slot is listed, ascending, with its entry, the packet-table
    row it carries and the position of that row's task in ``config.tasks``;
    both are -1 for a key outside the table."""

    loop_slots: np.ndarray
    window_rows: np.ndarray  # packet-table rows of the packets the loop holds
    overlay: dict  # the overlay entry (task, release, hop) of each slot inside the window
    vrhy: frozenset[str]  # the disturbed route's nodes, which follow the overlay
    slot: np.ndarray
    task: np.ndarray
    release: np.ndarray
    hop: np.ndarray
    row: np.ndarray
    position: np.ndarray


def _split(
    config: SimConfig,
    sched: Schedule,
    table: _PacketTable,
    dynamic: Optional[DynamicPlan],
    alias: Optional[_Alias],
) -> _Split:
    """Split the static slots between the slot loop and the walk.  The loop
    holds the rhythmic packets, both keys of the tail alias, the
    packet-level drops and every packet with a static slot at an overlay
    slot.  A static slot without an overlay entry has one sender, whose
    receiver expects it, so the walk sends every other packet exactly as
    the loop would.  The busy static slots come in runs of one key, the EDF
    segments: each run's key is packed, tested against the loop's keys and
    looked up in the packet table once, and the results are spread over
    its slots."""
    # A packet key packs (task, release) into release * task count + the
    # rank of the task id; positions[k] is the position in config.tasks of
    # the task whose id ranks k.
    positions = np.argsort([t.id for t in config.tasks])
    ids = np.array([config.tasks[i].id for i in positions], dtype=np.int64)

    def pack(task, release) -> np.ndarray:
        return np.asarray(release, dtype=np.int64) * len(ids) + np.searchsorted(ids, task)

    keys = pack(table.task, table.release)
    sorter = np.argsort(keys)

    def row_of(packed: np.ndarray) -> np.ndarray:
        """The packet-table row of each packed key, -1 where it has none."""
        if not len(keys):
            return np.full(len(packed), -1, dtype=np.int64)
        rows = sorter[np.minimum(np.searchsorted(keys, packed, sorter=sorter), len(keys) - 1)]
        return np.where(keys[rows] == packed, rows, -1)

    slots = np.flatnonzero(sched.task_at >= 0)
    task, release = sched.task_at[slots], sched.release_at[slots]
    first = np.ones(len(slots), dtype=bool)  # where a run starts
    first[1:] = (task[1:] != task[:-1]) | (release[1:] != release[:-1])
    starts = np.flatnonzero(first)
    lengths = np.diff(starts, append=len(slots))
    key = pack(task[starts], release[starts])
    vrhy: frozenset[str] = frozenset()
    overlay: dict = {}
    overlay_slots = np.empty(0, dtype=np.int64)
    outside = np.ones(len(starts), dtype=bool)
    window_rows = np.empty(0, dtype=np.int64)
    if dynamic is not None:
        event = dynamic.event
        vrhy = frozenset(config._disturbed_task().path)  # only the disturbed task's route learns of the disturbance
        overlay_slots = dynamic.overlay_slots
        overlay = {slot: (event.task_id, release, hop) for slot, release, hop in zip(
            overlay_slots.tolist(), dynamic.overlay_releases.tolist(), dynamic.overlay_hops.tolist())}
        named = [(event.task_id, entry.release) for entry in dynamic.sets.rhythmic]
        named += [*dynamic.decision.dropped_packets, *((alias[0], alias[2]) if alias else ())]
        met = overlay_slots[sched.task_at[overlay_slots] >= 0]  # the overlay slots with a static entry
        loop_keys = _distinct(np.concatenate([pack(sched.task_at[met], sched.release_at[met]), pack(*zip(*named))]))
        at = np.minimum(np.searchsorted(loop_keys, key), len(loop_keys) - 1)
        outside = loop_keys[at] != key
        window_rows = row_of(loop_keys)
        window_rows = window_rows[window_rows >= 0]
    walked = np.repeat(outside, lengths)
    loop_slots = _distinct(np.concatenate([slots[~walked], overlay_slots]))
    slot, lengths = slots[walked], lengths[outside]
    row = row_of(key[outside])
    position = np.where(row >= 0, positions[key[outside] % len(ids)], -1)
    return _Split(loop_slots, window_rows, overlay, vrhy, slot, task[walked], release[walked], sched.hop_at[slot],
                  np.repeat(row, lengths), np.repeat(position, lengths))


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending.  (``np.unique`` here raised the long
    simulate run's peak RSS by about 1 MB.)"""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


class _Walk(NamedTuple):
    """The walk's transmissions, in no particular order: slot, packet-table
    row, hop and whether the link draw succeeded; and the rows and slots of
    the packets their last hop delivered."""

    slot: np.ndarray
    row: np.ndarray
    hop: np.ndarray
    ok: np.ndarray
    done_row: np.ndarray
    done_slot: np.ndarray


def _independent_walk(
    split: _Split,
    table: _PacketTable,
    config: SimConfig,
    budgets: dict[int, int],
    up: dict[tuple[str, str], np.ndarray],
) -> _Walk:
    """Transmissions of the packets no overlay slot can touch: those whose
    packet-table row a static slot outside the loop carries (see
    ``_Split``).  ``budgets`` maps each task id to the number of static
    slots each of its packets holds, and ``up`` each link to whether its
    draws succeed.

    The packets of all tasks step together, one slot column at a time: at
    column c every packet still in flight sends its current hop h in its
    c-th slot when that slot may carry h, and moves on to hop h + 1 when
    the link draw succeeds.  Under PBS every slot may carry any hop.  Under
    TBS a slot carries the hop it is labelled with: a packet skips a slot
    labelled below h and leaves the air at one labelled above h, since hop
    h's slots ran out and labels only rise.  A packet also leaves once its
    last hop is delivered or its slots run out; the walk stops when no
    packet is in flight.

    Raises PlanInvariantError when the slots do not form one block of
    ``budgets`` slots per packet, or under TBS when a packet's hop labels
    decrease along its slots or name no hop of its path."""
    tbs = config.mode is SchedulingMode.TBS
    blocks: list[tuple[TaskSpec, np.ndarray, np.ndarray]] = []  # (task, rows, split positions per row)
    for i, task in enumerate(config.tasks):
        mine = np.flatnonzero(split.position == i)
        if not mine.size:
            continue
        # A packet's slots lie in [release, expiry) and a deadline is at most
        # the period, so each packet of the task holds one block of its slots.
        budget = budgets[task.id]
        packets = len(mine) // budget
        rows = split.row[mine[::budget]]
        if (packets * budget != len(mine) or np.any(rows[1:] <= rows[:-1])
                or np.any(split.row[mine] != np.repeat(rows, budget))):
            raise PlanInvariantError(f"task {task.id}: a packet does not hold {budget} consecutive static slots")
        mine = mine.reshape(packets, budget)
        if tbs:
            labels = split.hop[mine]
            broken = (labels < 1) | (labels > task.hops)
            broken[:, 1:] |= labels[:, 1:] < labels[:, :-1]
            if broken.any():
                r = rows[broken.any(axis=1).argmax()]
                raise PlanInvariantError(
                    f"static slots of packet (task, release) {(task.id, int(table.release[r]))} "
                    "carry hop labels that decrease or name no hop of its path"
                )
        blocks.append((task, rows, mine))
    if not blocks:
        empty = np.empty(0, dtype=np.int64)
        return _Walk(empty, empty, empty, empty.astype(bool), empty, empty)
    links = sorted({task.hop_link(h) for task, _, _ in blocks for h in range(1, task.hops + 1)})
    horizon = len(up[links[0]])
    success = np.concatenate([up[link] for link in links])  # link i's slot s at i * horizon + s
    offset = {link: i * horizon for i, link in enumerate(links)}
    stride = max(task.hops for task, _, _ in blocks) + 1
    counts = [len(rows) for _, rows, _ in blocks]
    index = np.zeros((max(m.shape[1] for _, _, m in blocks), sum(counts)), dtype=np.int64)  # a row per column
    links_at = np.zeros((len(blocks), stride), dtype=np.int64)  # [b, h]: offset of hop h's link of block b
    for b, (task, _, mine) in enumerate(blocks):
        start = sum(counts[:b])
        index[:mine.shape[1], start:start + counts[b]] = mine.T
        links_at[b, 1:task.hops + 1] = [offset[task.hop_link(h)] for h in range(1, task.hops + 1)]
    slots, labels = split.slot[index], split.hop[index]  # [c, p]: packet p's c-th slot and its hop label
    # Per packet: its slot count, hop count, row and link offsets; hop h of
    # packet p reads success[base[p * stride + h] + slot].
    end = np.repeat([mine.shape[1] for _, _, mine in blocks], counts)
    last = np.repeat([task.hops for task, _, _ in blocks], counts)
    row = np.concatenate([rows for _, rows, _ in blocks])
    base = np.repeat(links_at, counts, axis=0).ravel()
    ends = set(end.tolist())
    live = np.arange(len(row))  # the packets in flight
    hop = np.ones(len(row), dtype=np.int64)
    walk: tuple[list, ...] = ([], [], [], [])  # per column: slot, packet, hop, success
    for c, column in enumerate(slots):
        sending, at = live, hop[live]
        if tbs:  # a slot labelled past a packet's hop ends its flight
            label = labels[c, live]
            carried = label == at
            sending, at, live = live[carried], at[carried], live[label <= at]
        sent = column[sending]
        ok = success[base[sending * stride + at] + sent]
        hop[sending] = at + ok
        for part, value in zip(walk, (sent, sending, at, ok)):
            part.append(value)
        live = live[hop[live] <= last[live]]  # a delivered packet's hop is past its last
        if c + 1 in ends:
            live = live[end[live] > c + 1]
        if not live.size:
            break
    sent, packet, at, ok = (np.concatenate(part) for part in walk)
    arrived = ok & (at == last[packet])  # the last hop's successes
    return _Walk(sent, row[packet], at, ok, row[packet[arrived]], sent[arrived])


def _window_loop(
    config: SimConfig,
    sched: Schedule,
    split: _Split,
    packets: dict[tuple[int, int], _Packet],
    alias: Optional[_Alias],
    up: dict[tuple[str, str], np.ndarray],
) -> list[tuple]:
    """The records of the slots in ``split.loop_slots``, in slot order.
    ``packets`` holds the loop's packets by key; the loop advances their
    progress.  Conflicting transmissions contend through the priority MAC; a
    slot without an overlay entry has at most one sender, the holder of its
    static entry, whose receiver expects it."""
    horizon = sched.horizon
    loop_slots, overlay, vrhy = split.loop_slots, split.overlay, split.vrhy
    # Hop ``h`` of task ``tid`` is ``links[tid][h]``: (sender, receiver, the
    # link's successes); a memoryview reads a success as a Python bool.
    links = {
        t.id: (None, *[(s, r, memoryview(up[(s, r)])) for s, r in zip(t.path, t.path[1:])])
        for t in config.tasks
    }
    tbs = config.mode is SchedulingMode.TBS
    rhythmic_prio, periodic_prio = mac_model.RHYTHMIC_PRIORITY, mac_model.PERIODIC_PRIORITY
    won, lost = mac_model.TxOutcome.WON_DELIVERED, mac_model.TxOutcome.WON_LOST
    results = {
        lost: "lost",
        mac_model.TxOutcome.DEFERRED: "deferred",
        mac_model.TxOutcome.COLLIDED: "collided",
    }
    # Preemption-error draws (stream 1) are read only where a contended slot's
    # winner would deliver below a 60 us tick, so each winner's link is drawn
    # when it first needs them.  A link's array is a pure function of (seed,
    # stream, link), whenever it is drawn, and is kept as one bool per slot:
    # whether the draw falls below the rate.
    timing = config.mac.timing
    preempted = None
    if timing.priority_tick_us < 60:
        per = mac_model.preemption_error_rate(timing.priority_tick_us, periodic_prio - rhythmic_prio)
        per_errors: dict[tuple[str, str], np.ndarray] = {}

        def preempted(link: tuple[str, str]) -> np.ndarray:
            if link not in per_errors:
                per_errors[link] = _link_draws(config.network, {link: per}, config.seed, horizon, stream=1)[link]
            return per_errors[link]

    loop_records: list[tuple] = []
    add = loop_records.append

    def tx_for(entry: tuple[int, int, int], prio: int, t: int) -> Optional[tuple]:
        tid, rel, hop = entry
        pkt = packets.get((tid, rel))
        if pkt is None or pkt.progress == pkt.hops or t >= pkt.expiry:
            return None
        if tbs and hop > 0:
            if pkt.progress != hop - 1:
                return None
        else:  # PBS: the current holder forwards
            hop = pkt.progress + 1
        return (*links[tid][hop], pkt, hop, prio)

    alias_from = alias[1] if alias is not None else horizon

    # A packet is off the air once its last hop is delivered or its expiry
    # slot has come.
    for t, tid, rel, hop in zip(loop_slots.tolist(), sched.task_at[loop_slots].tolist(),
                                sched.release_at[loop_slots].tolist(), sched.hop_at[loop_slots].tolist()):
        if t >= alias_from:
            # From here on the static slots of the superseded instance carry
            # the tail of the last rhythmic packet.
            packets[alias[0]] = packets.get(alias[2])  # None if it expires past the horizon
            alias_from = horizon
        dyn_entry = overlay.get(t)

        if dyn_entry is None:
            # Lone sender: only the static entry's current holder can send,
            # and its receiver listens per that same entry, so delivery
            # follows the link draw alone.
            add((t, "sched", "static", tid, rel, hop))
            tx = tx_for((tid, rel, hop), periodic_prio, t)
            if tx is None:
                continue
            sender, receiver, link_up, pkt, hop, _ = tx
            add((t, "tx", sender, receiver, pkt.task, pkt.release, hop, periodic_prio))
            if link_up[t]:
                pkt.progress += 1
                if pkt.progress == pkt.hops:
                    add((t, "state", pkt.task, pkt.release, "delivered"))
                result = "delivered"
            else:
                result = "lost"
            add((t, "outcome", sender, pkt.task, pkt.release, hop, result))
            continue

        # Overlay slot: the dynamic entry and the static one may both send.
        stat_entry = (tid, rel, hop) if tid >= 0 else None
        if stat_entry is not None:
            add((t, "sched", "static", *stat_entry))
        add((t, "sched", "dynamic", *dyn_entry))
        candidates: list[tuple] = []
        tx = tx_for(dyn_entry, rhythmic_prio, t)
        if tx is not None:
            candidates.append(tx)
        if stat_entry is not None:
            tx = tx_for(stat_entry, periodic_prio, t)
            # A route node inside the window follows the overlay; its static
            # entry executes only where the overlay kept the slot.
            if tx is not None and tx[0] not in vrhy:
                candidates.append(tx)

        if not candidates:
            continue
        for sender, receiver, _, pkt, hop, prio in candidates:
            add((t, "tx", sender, receiver, pkt.task, pkt.release, hop, prio))
        if len(candidates) == 1:
            outcomes = [won if candidates[0][2][t] else lost]
        else:
            outcomes = _contend(candidates, t, timing, preempted)

        for (sender, receiver, _, pkt, hop, _), outcome in zip(candidates, outcomes):
            if outcome is won:
                # Delivery additionally needs the receiver to be listening per
                # its own operative schedule.
                op_entry = dyn_entry if receiver in vrhy else stat_entry
                if op_entry is not None and packets.get(op_entry[:2]) is pkt:
                    pkt.progress += 1
                    result = "delivered"
                    if pkt.progress == pkt.hops:
                        add((t, "state", pkt.task, pkt.release, "delivered"))
                else:
                    result = "no_listener"
            else:
                result = results[outcome]
            add((t, "outcome", sender, pkt.task, pkt.release, hop, result))

    return loop_records


# Merge ranks: within a slot, v1 records come in this order.  Records of a
# loop slot keep the order the loop emitted them in.
_EXPIRED, _RELEASED, _LOOP, _SCHED, _TX, _DELIVERED, _OUTCOME = range(7)
_MISSED = WORDS.index("missed")


def _records(
    config: SimConfig,
    horizon: int,
    table: _PacketTable,
    split: _Split,
    delivered: np.ndarray,
    loop_records: list[tuple],
    walk: _Walk,
) -> SimTrace:
    """The run's trace: the packet table's marks, the loop's records, the
    ``sched`` records of the other static slots, and the walk's
    transmissions and deliveries."""
    nodes = sorted({node for t in config.tasks for node in t.path})
    vocab = (*WORDS, *nodes)
    word = {w: i for i, w in enumerate(vocab)}
    marked = np.flatnonzero(~delivered)
    marked = marked[np.lexsort((table.release[marked], table.task[marked], table.expiry[marked]))]
    by_release = np.argsort(table.release, kind="stable")
    released = table.release[by_release]
    by_slot = np.argsort(walk.slot)
    at, row, hop = walk.slot[by_slot], walk.row[by_slot], walk.hop[by_slot]
    task, release = table.task[row], table.release[row]
    # senders[k, h] and receivers[k, h] are the ids of hop h's nodes of the
    # task whose id ranks k.
    ids = sorted(t.id for t in config.tasks)
    by_id = {t.id: t for t in config.tasks}
    most = max(t.hops for t in config.tasks)
    rank = np.searchsorted(ids, task)
    pad = [[-1] * (most - by_id[i].hops) for i in ids]
    senders = np.array([[-1, *[word[n] for n in by_id[i].path[:-1]], *p] for i, p in zip(ids, pad)], dtype=np.intp)
    receivers = np.array([[-1, *[word[n] for n in by_id[i].path[1:]], *p] for i, p in zip(ids, pad)], dtype=np.intp)
    sender, receiver = senders[rank, hop], receivers[rank, hop]
    done = np.argsort(walk.done_slot)
    done_slot, done_row = walk.done_slot[done], walk.done_row[done]
    return SimTrace([
        Part(table.expiry[marked], _EXPIRED, "state",
              (table.task[marked], table.release[marked], table.dropped[marked].astype(np.intp) + _MISSED)),
        Part(released, _RELEASED, "state", (table.task[by_release], released, "released")),
        Part(np.array([r[0] for r in loop_records], dtype=np.int64), _LOOP, None, loop_records),
        Part(split.slot, _SCHED, "sched", ("static", split.task, split.release, split.hop)),
        Part(at, _TX, "tx", (sender, receiver, task, release, hop, mac_model.PERIODIC_PRIORITY)),
        Part(done_slot, _DELIVERED, "state", (table.task[done_row], table.release[done_row], "delivered")),
        Part(at, _OUTCOME, "outcome", (sender, task, release, hop, walk.ok[by_slot].astype(np.intp))),
    ], vocab, horizon)


def run(config: SimConfig) -> tuple[SimTrace, Metrics]:
    """Execute one scenario and return its trace and metrics.

    ``plan`` decides the disturbance handling; then nodes on the disturbed
    route follow the dynamic overlay inside the chosen window [enter, end
    point) and everyone else follows the static schedule throughout.
    Conflicting transmissions contend through the priority MAC (window
    transmissions of the disturbed task at the high priority), deferred
    senders do not consume their trial, and a winning transmission is
    received only if its receiver's own operative schedule expects it.

    The engine works packet by packet.  The packets the overlay can touch
    -- the rhythmic ones, both keys of the tail alias, every packet with a
    static slot at an overlay slot and every dropped one -- go through a
    slot loop over their static slots and the overlay slots.  Every other
    packet is the lone sender of its static slots, none of which has an
    overlay entry, and its receivers expect it, so its transmissions follow
    from its link draws alone: ``_independent_walk`` finds them in one numpy
    walk over slot columns, which TBS and PBS share; under TBS a slot
    carries only the hop it is labelled with.
    The loop's records, the walk's and the packet table's ``released``,
    ``missed`` and ``dropped`` marks stay columns in the returned
    ``SimTrace``, which writes them in the v1 order and merges them into
    flat records only when its ``events`` are read.
    """
    planned = plan(config)
    sched = planned.static.schedule
    horizon = sched.horizon
    dynamic = planned.dynamic
    table, alias = _packet_table(config, dynamic, horizon)
    split = _split(config, sched, table, dynamic, alias)

    packets: dict[tuple[int, int], _Packet] = {}
    for row in split.window_rows.tolist():
        pkt = _Packet(row, int(table.task[row]), int(table.release[row]),
                      int(table.expiry[row]), int(table.hops[row]))
        packets[(pkt.task, pkt.release)] = pkt
    loop_packets = list(packets.values())  # the loop re-keys the tail alias
    # Only links on some task's path are drawn: no other link ever sends.  A
    # stream-0 draw is read only against its link's pdr.
    pdrs = {link: pdr for t in config.tasks
            for link, pdr in zip(zip(t.path, t.path[1:]), config.network.path_pdrs(t.path))}
    up = _link_draws(config.network, pdrs, config.seed, horizon, stream=0)
    loop_records = _window_loop(config, sched, split, packets, alias, up)
    walk = _independent_walk(
        split, table, config, {tid: sum(rv) for tid, rv in planned.static.retry_vectors.items()}, up
    )
    del up  # freed before the records are built
    delivered = np.zeros(len(table.task), dtype=bool)
    delivered[walk.done_row] = True
    delivered[[pkt.index for pkt in loop_packets if pkt.progress == pkt.hops]] = True
    trace = _records(config, horizon, table, split, delivered, loop_records, walk)

    ids = sorted(t.id for t in config.tasks)
    rank = np.searchsorted(ids, table.task)
    counts = [np.bincount(rank[mask], minlength=len(ids)).tolist() for mask in (
        np.ones(len(rank), dtype=bool), delivered, ~delivered & ~table.dropped, ~delivered & table.dropped)]
    decision = planned.decision
    metrics = Metrics(
        framework=config.framework,
        success=planned.meets(config.alpha_slots()),
        drt_slots=planned.drt,
        dhl_slots=planned.dhl,
        degradation_rate=planned.dr,
        total_degradation=decision.total_degradation if decision else 0.0,
        dropped_packets=decision.packet_count if decision else 0,
        dropped_transmissions=decision.slot_count if decision else 0,
        endpoint=dynamic.end_point if dynamic else None,
        periodic_in_window=planned.periodic_in_window,
        per_task={tid: TaskStats(*c) for tid, *c in zip(ids, *counts)},
        feasible_dynamic=planned.feasible_dynamic,
    )
    return trace, metrics

