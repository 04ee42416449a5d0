"""Deterministic slot-driven network simulator.

One run executes the static schedule (and, for the distributed frameworks,
the dynamic overlay the disturbed route's nodes derive) over lossy links with
per-slot contention resolved by the priority MAC.  Every random draw is a
pure function of (seed, link, slot), so a run is byte-reproducible and the
post-window suffix of a disturbed run can be compared draw-for-draw against
an undisturbed run.
"""

from __future__ import annotations

import io
import math
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence, TextIO

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
from .rhythmic import DisturbanceEvent, disturbance_recipients, end_point_upper_bound
from .static_schedule import (
    StaticScheduleResult,
    build_static_schedule,
    hyperperiod,
)
from . import mac as mac_model
from .dropping import CandidateTable, DropDecision, DynamicPlan, generate_dynamic_schedule

__all__ = [
    "HorizonTooShort",
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
    "build_static",
    "plan",
    "run",
    "baseline_drt",
    "degradation_rate",
    "periodic_packets_in_window",
    "default_horizon",
]

# Longest hyperperiod, in slots, that default_horizon repeats twice as slack;
# past it the slack is four of the longest periods.
_HYPERPERIOD_SOFT_CAP = 10_000


class HorizonTooShort(ValueError):
    """An explicit horizon ends before the disturbance's latest end point, so
    the distributed frameworks cannot plan its window."""


class Framework(str, Enum):
    FDPAS_PACKET = "FDPAS_PACKET"
    FDPAS_TRANSMISSION = "FDPAS_TRANSMISSION"
    BASELINE_BROADCAST = "BASELINE_BROADCAST"


@dataclass(frozen=True)
class DisturbanceSpec:
    task: int
    instance: int
    rhythmic: Optional[RhythmicSpec] = None  # falls back to the task's own spec

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
    rhythmic_priority: int = 0
    periodic_priority: int = 1
    per_table: tuple[tuple[int, float], ...] = ()  # overrides the preemption-error lookup

    def __post_init__(self) -> None:
        # A run looks preemption errors up at this tick; the lookup rejects
        # ticks its measurements do not cover.
        mac_model.preemption_error_rate(self.timing.priority_tick_us, 1)
        levels = mac_model.priority_levels(self.timing)
        for name in ("rhythmic_priority", "periodic_priority"):
            value = getattr(self, name)
            if not 0 <= value < levels:
                raise ValueError(f"{name} {value} outside the supported range 0..{levels - 1}")
        for distance, rate in self.per_table:
            if distance < 1:
                raise ValueError(f"per_table priority distance {distance} must be >= 1")
            if not 0 <= rate <= 1:
                raise ValueError(f"per_table rate {rate} must lie in [0, 1]")


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


# Value names of each trace event kind, in v1 line order.  A record is the
# flat tuple ``(slot, kind, *values)`` of ints and strings only, which the
# cyclic garbage collector untracks after its first pass over it.
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    "state": ("task", "release", "event"),
    "sched": ("src", "task", "release", "hop"),
    "tx": ("sender", "receiver", "task", "release", "hop", "prio"),
    "outcome": ("sender", "task", "release", "hop", "result"),
}
# v1 line template of each kind, filled by ``%`` from a whole record.
_LINE = {
    kind: " ".join(["slot=%s", "kind=%s", *[f"{name}=%s" for name in names]])
    for kind, names in EVENT_FIELDS.items()
}
_WRITE_CHUNK = 4096  # trace lines joined per write call


@dataclass
class SimTrace:
    events: list[tuple] = field(default_factory=list)  # (slot, kind, *values)

    def write(self, fh: TextIO) -> None:
        """Write the v1 text form (one line per event) to ``fh`` in chunks,
        without building the whole text in memory."""
        events = self.events
        if not events:
            fh.write("\n")
        for start in range(0, len(events), _WRITE_CHUNK):
            fh.write("\n".join([_LINE[r[1]] % r for r in events[start : start + _WRITE_CHUNK]]) + "\n")

    def text(self) -> str:
        out = io.StringIO()
        self.write(out)
        return out.getvalue()

    def packets_from(self, slot: int) -> dict[tuple[int, int], tuple]:
        """Per-packet outcome records for packets released at/after ``slot``
        (the post-window comparison set for resumption checks), read from
        the events: each transmitted packet maps to its ``(slot, hop,
        result)`` outcomes in order and its terminal ``(event, finish)``,
        where finish is the slot after delivery and -1 otherwise."""
        logs: dict[tuple[int, int], list[tuple[int, int, str]]] = {}
        terminal_of: dict[tuple[int, int], tuple[str, int]] = {}
        for record in self.events:
            kind = record[1]
            if kind == "outcome":
                t, _, _, task, release, hop, result = record
                if release >= slot:
                    logs.setdefault((task, release), []).append((t, hop, result))
            elif kind == "state":
                t, _, task, release, event = record
                if release >= slot and event != "released":
                    terminal_of[(task, release)] = (event, t + 1 if event == "delivered" else -1)
        return {key: (tuple(log), terminal_of.get(key)) for key, log in logs.items()}


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
    __slots__ = ("task", "release", "expiry", "hops", "progress", "terminal", "decided_drop")

    def __init__(self, task: TaskSpec, release: int, expiry: int):
        self.task = task.id
        self.release = release
        self.expiry = expiry  # last slot bound the packet may still transmit in
        self.hops = task.hops
        self.progress = 0  # completed hops
        self.terminal: Optional[str] = None
        self.decided_drop = False


def periodic_packets_in_window(dynamic: DynamicPlan, tasks: Sequence[TaskSpec]) -> list[tuple[int, int]]:
    """Periodic packets counted by the degradation-rate denominator: those
    owning a static slot in the plan's window (its active periodic set) plus
    those released inside it."""
    keys = set(dynamic.sets.periodic)
    rhythmic_task, start, end = dynamic.event.task_id, dynamic.window.start, dynamic.end_point
    for task in tasks:
        if task.id == rhythmic_task:
            continue
        k = max(0, (start - task.phase) // task.period)
        while task.release(k) < end:
            if task.release(k) >= start:
                keys.add((task.id, task.release(k)))
            k += 1
    return sorted(keys, key=lambda x: (x[1], x[0]))


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


def _horizon(config: SimConfig) -> int:
    """The config's ``horizon``, or ``default_horizon`` when it is unset.
    Raises HorizonTooShort when an explicit horizon cannot hold the
    disturbance's window under a distributed framework."""
    if config.horizon is None:
        return default_horizon(config)
    event = config.event()
    if event is not None and config.framework is not Framework.BASELINE_BROADCAST:
        upper = end_point_upper_bound(event, config.beta)
        if config.horizon < upper:
            raise HorizonTooShort(
                f"sim.horizon {config.horizon} ends before the disturbance's latest end point "
                f"{upper}; set it to at least {upper} or leave it unset"
            )
    return config.horizon


def build_static(config: SimConfig) -> StaticScheduleResult:
    """The config's EDF static schedule over its resolved horizon.  Raises
    HorizonTooShort (see ``_horizon``) and ScheduleInfeasible when the
    schedule misses a deadline inside the horizon."""
    static = build_static_schedule(
        config.tasks, config.network, config.mode, config.required_pdr, horizon=_horizon(config)
    )
    if not static.feasible:
        raise ScheduleInfeasible(
            f"static schedule misses packet (task, release) {static.first_failure}"
        )
    return static


def plan(
    config: SimConfig,
    static: Optional[StaticScheduleResult] = None,
    table: Optional[CandidateTable] = None,
) -> Plan:
    """Plan one scenario's disturbance handling without running any slot.

    The static schedule is ``build_static(config)`` unless ``static``, built
    that way over the same horizon, is passed in.  ``table`` is the trial's
    candidate table (see ``generate_dynamic_schedule``), made for this
    config's event, tasks, network, required pdr and beta over ``static``'s
    schedule: a trial's two FD-PaS plans share it, and no table outlives its
    trial.  Without one, an FD-PaS plan makes its own.  The distributed
    frameworks respond one nominal period after detection, whether or not a
    feasible window exists; the baseline's latency follows its broadcast
    timing model.
    """
    if static is None:
        static = build_static(config)
    elif static.schedule.horizon != _horizon(config):
        raise ValueError(
            f"static schedule covers {static.schedule.horizon} slots, "
            f"the config's horizon is {_horizon(config)}"
        )
    event = config.event()
    if event is None:
        return Plan(static, None)
    if config.framework is Framework.BASELINE_BROADCAST:
        return Plan(static, event, drt=baseline_drt(config, static))

    drt = event.enter_slot - event.detect_slot  # one nominal period
    try:
        dynamic = generate_dynamic_schedule(
            event,
            static.schedule,
            config.tasks,
            config.network,
            config.required_pdr,
            beta=config.beta,
            level="packet" if config.framework is Framework.FDPAS_PACKET else "transmission",
            table=table,
        )
    except DisturbanceInfeasible:
        return Plan(static, event, feasible_dynamic=False, drt=drt)
    periodic = len(periodic_packets_in_window(dynamic, config.tasks))
    return Plan(
        static,
        event,
        dynamic=dynamic,
        drt=drt,
        dhl=dynamic.end_point - event.enter_slot,
        periodic_in_window=periodic,
        dr=degradation_rate(dynamic.decision, periodic),
    )


def _link_draws(
    network: NetworkModel, used: set[tuple[str, str]], seed: int, horizon: int, stream: int
) -> dict[tuple[str, str], np.ndarray]:
    """One uniform draw per (link, slot) for each link in ``used``,
    independent of consumption order.  A link's stream index is its position
    among all of the network's links in (src, dst) order, so its draws do not
    depend on which other links are used."""
    draws = {}
    for idx, link in enumerate(sorted(network.links, key=lambda l: (l.src, l.dst))):
        if (link.src, link.dst) in used:
            rng = np.random.default_rng(np.random.SeedSequence([seed, stream, idx]))
            draws[(link.src, link.dst)] = rng.random(horizon)
    return draws


def _contend(candidates: list[tuple], t: int, mac: MacParams, per_draws: Optional[dict]) -> list[mac_model.TxOutcome]:
    """Outcomes of a slot with two or more senders ``(sender, receiver, link
    draws, link pdr, packet, hop, priority)``: priority arbitration over
    their link draws, then, below a 60 us tick, the preemption-error draw of
    the winner."""
    contenders = [
        mac_model.ContendingTx(sender=s, receiver=r, priority=prio) for s, r, *_, prio in candidates
    ]
    link_success = [bool(draw[t] < pdr) for _, _, draw, pdr, *_ in candidates]
    outcomes = mac_model.arbitrate_slot(contenders, mac.timing, link_success)
    if per_draws is not None:
        prios = sorted(c.priority for c in contenders)
        distance = prios[1] - prios[0]
        if distance >= 1:
            per = mac_model.preemption_error_rate(
                mac.timing.priority_tick_us, distance, table=dict(mac.per_table) or None
            )
            for i, outcome in enumerate(outcomes):
                if outcome is mac_model.TxOutcome.WON_DELIVERED:
                    sender, receiver = candidates[i][0], candidates[i][1]
                    if per_draws[(sender, receiver)][t] < per:
                        outcomes[i] = mac_model.TxOutcome.WON_LOST
    return outcomes


def run(config: SimConfig) -> tuple[SimTrace, Metrics]:
    """Execute one scenario and return its trace and metrics.

    ``plan`` decides the disturbance handling; then nodes on the disturbed
    route follow the dynamic overlay inside the chosen window and everyone
    else follows the static schedule throughout.  Conflicting transmissions
    contend through the priority MAC (window transmissions of the disturbed
    task at the high priority), deferred senders do not consume their trial,
    and a winning transmission is received only if its receiver's own
    operative schedule expects it.  A slot without an overlay entry has at
    most one sender, the holder of its static entry, whose receiver expects
    it; only overlay slots build a candidate list and contend.
    """
    planned = plan(config)
    sched = planned.static.schedule
    horizon = sched.horizon
    dynamic = planned.dynamic
    by_id = {t.id: t for t in config.tasks}
    trace = SimTrace()

    vrhy: frozenset[str] = frozenset()
    dynamic_at: list = [None] * horizon  # the overlay entry of each slot inside the window
    if dynamic is not None:
        event = dynamic.event
        vrhy = frozenset(disturbance_recipients(by_id[event.task_id]))
        for slot, entry in dynamic.overlay.items():
            if event.enter_slot <= slot < dynamic.end_point:
                dynamic_at[slot] = entry

    # Packet table.  The disturbed task's nominal instances inside
    # [window start, resume release) are superseded by the dynamic packets.
    packets: dict[tuple[int, int], _Packet] = {}
    alias: Optional[tuple[tuple[int, int], int, tuple[int, int]]] = None  # (static key, from slot, packet key)
    for task in config.tasks:
        skip_lo = skip_hi = None
        if dynamic is not None and task.id == event.task_id:
            skip_lo, skip_hi = event.enter_slot, dynamic.sets.resume_release
        k = 0
        while (expiry := task.nominal_deadline(k)) <= horizon:
            release = task.release(k)
            k += 1
            if skip_lo is not None and skip_lo <= release < skip_hi:
                continue
            packets[(task.id, release)] = _Packet(task, release, expiry)
    if dynamic is not None:
        task = by_id[event.task_id]
        for entry in dynamic.sets.rhythmic:
            expiry = entry.deadline
            if entry.tail_slots:
                prev_release = dynamic.sets.resume_release - event.nominal_period
                expiry = prev_release + event.nominal_deadline
                alias = ((event.task_id, prev_release), dynamic.end_point, (event.task_id, entry.release))
            if expiry <= horizon:
                packets[(event.task_id, entry.release)] = _Packet(task, entry.release, expiry)

    if dynamic is not None and dynamic.decision.level == "packet":
        for key in dynamic.decision.dropped_packets:
            if key in packets:
                packets[key].decided_drop = True

    # Per-run tables the slot loop reads instead of repeating lookups.  Hop
    # ``h`` of task ``tid`` is ``links[tid][h]``: (sender, receiver, the
    # link's draws, its pdr); a memoryview reads a draw as a Python float.
    # Only links on some task's path are drawn: no other link ever sends.
    used = {hop for t in config.tasks for hop in zip(t.path, t.path[1:])}
    draws = _link_draws(config.network, used, config.seed, horizon, stream=0)
    links = {
        t.id: (None, *[(s, r, memoryview(draws[(s, r)]), config.network.link_pdr(s, r))
                       for s, r in zip(t.path, t.path[1:])])
        for t in config.tasks
    }
    tbs = config.mode is SchedulingMode.TBS
    rhythmic_prio, periodic_prio = config.mac.rhythmic_priority, config.mac.periodic_priority
    won, lost = mac_model.TxOutcome.WON_DELIVERED, mac_model.TxOutcome.WON_LOST
    results = {
        lost: "lost",
        mac_model.TxOutcome.DEFERRED: "deferred",
        mac_model.TxOutcome.COLLIDED: "collided",
    }
    # Preemption-error draws (stream 1) are read only in contended slots below
    # a 60 us tick, so the first such slot draws them; each link's array is a
    # pure function of (seed, stream, link), whenever it is drawn.
    preempt_errors = config.mac.timing.priority_tick_us < 60
    per_draws = None

    # The slot timeline: ``marks[t]`` lists the packets that expire at slot t,
    # in (expiry, task, release) order, then the ``released`` records of the
    # packets released at t, in packet-table order.  No packet expires past
    # the horizon.
    timeline: dict[int, list] = defaultdict(list)
    for pkt in sorted(packets.values(), key=lambda p: (p.expiry, p.task, p.release)):
        timeline[pkt.expiry].append(pkt)
    for pkt in packets.values():
        timeline[pkt.release].append((pkt.release, "state", pkt.task, pkt.release, "released"))
    marks: list = [None] * (horizon + 1)
    for slot, mark in timeline.items():
        marks[slot] = mark
    release_at = sched.release_at.tolist()
    hop_at = sched.hop_at.tolist()

    stats = {t.id: TaskStats() for t in config.tasks}
    add = trace.events.append

    def finalize(pkt: _Packet, slot: int) -> None:
        if pkt.terminal is not None:
            return
        if pkt.decided_drop:
            pkt.terminal = "dropped"
            stats[pkt.task].dropped += 1
        else:
            pkt.terminal = "missed"
            stats[pkt.task].missed += 1
        add((slot, "state", pkt.task, pkt.release, pkt.terminal))

    def deliver(pkt: _Packet, slot: int) -> None:
        pkt.terminal = "delivered"
        stats[pkt.task].delivered += 1
        add((slot, "state", pkt.task, pkt.release, "delivered"))

    def tx_for(entry: tuple[int, int, int], prio: int) -> Optional[tuple]:
        tid, rel, hop = entry
        pkt = packets.get((tid, rel))
        if pkt is None or pkt.terminal is not None:
            return None
        if tbs and hop > 0:
            if pkt.progress != hop - 1:
                return None
        else:  # PBS: the current holder forwards
            hop = pkt.progress + 1
        return (*links[tid][hop], pkt, hop, prio)

    alias_from = alias[1] if alias is not None else -1

    # A packet whose expiry mark has passed is terminal, and so is one whose
    # last hop was delivered: the terminal check alone keeps both off the air.
    for t, tid, mark, dyn in zip(range(horizon), sched.task_at.tolist(), marks, dynamic_at):
        if t == alias_from:
            # From here on the static slots of the superseded instance carry
            # the tail of the last rhythmic packet.
            packets[alias[0]] = packets.get(alias[2])  # None if it expires past the horizon
        if mark is not None:
            for item in mark:
                if isinstance(item, tuple):  # a release record
                    stats[item[2]].released += 1
                    add(item)
                else:
                    finalize(item, t)

        if dyn is None:
            # Lone sender: only the static entry's current holder can send,
            # and its receiver listens per that same entry, so delivery
            # follows the link draw alone.
            if tid < 0:
                continue
            rel, hop = release_at[t], hop_at[t]
            add((t, "sched", "static", tid, rel, hop))
            pkt = packets.get((tid, rel))
            if pkt is None or pkt.terminal is not None:
                continue
            if tbs and hop > 0:
                if pkt.progress != hop - 1:
                    continue
            else:  # PBS: the current holder forwards
                hop = pkt.progress + 1
            sender, receiver, link_draws, link_pdr = links[tid][hop]
            add((t, "tx", sender, receiver, pkt.task, pkt.release, hop, periodic_prio))
            if link_draws[t] < link_pdr:
                pkt.progress += 1
                if pkt.progress == pkt.hops:
                    deliver(pkt, t)
                result = "delivered"
            else:
                result = "lost"
            add((t, "outcome", sender, pkt.task, pkt.release, hop, result))
            continue

        # Overlay slot: the dynamic entry and the static one may both send.
        dyn_entry = (dyn.task, dyn.release, dyn.hop)
        stat_entry = (tid, release_at[t], hop_at[t]) if tid >= 0 else None
        if stat_entry is not None:
            add((t, "sched", "static", *stat_entry))
        add((t, "sched", "dynamic", *dyn_entry))
        candidates: list[tuple] = []
        tx = tx_for(dyn_entry, rhythmic_prio)
        if tx is not None:
            candidates.append(tx)
        if stat_entry is not None:
            tx = tx_for(stat_entry, periodic_prio)
            # A route node inside the window follows the overlay; its static
            # entry executes only where the overlay kept the slot.
            if tx is not None and tx[0] not in vrhy:
                candidates.append(tx)

        if not candidates:
            continue
        for sender, receiver, _, _, pkt, hop, prio in candidates:
            add((t, "tx", sender, receiver, pkt.task, pkt.release, hop, prio))
        if len(candidates) == 1:
            _, _, link_draws, link_pdr, *_ = candidates[0]
            outcomes = [won if link_draws[t] < link_pdr else lost]
        else:
            if preempt_errors and per_draws is None:
                per_draws = _link_draws(config.network, used, config.seed, horizon, stream=1)
            outcomes = _contend(candidates, t, config.mac, per_draws)

        for (sender, receiver, _, _, pkt, hop, _), outcome in zip(candidates, outcomes):
            if outcome is won:
                # Delivery additionally needs the receiver to be listening per
                # its own operative schedule.
                op_entry = dyn_entry if receiver in vrhy else stat_entry
                if op_entry is not None and packets.get(op_entry[:2]) is pkt:
                    pkt.progress += 1
                    result = "delivered"
                    if pkt.progress == pkt.hops:
                        deliver(pkt, t)
                else:
                    result = "no_listener"
            else:
                result = results[outcome]
            add((t, "outcome", sender, pkt.task, pkt.release, hop, result))

    for pkt in marks[horizon] or ():  # nothing is released at the horizon
        finalize(pkt, horizon)

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
        per_task={tid: stats[tid] for tid in sorted(stats)},
        feasible_dynamic=planned.feasible_dynamic,
    )
    return trace, metrics
