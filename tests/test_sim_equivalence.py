"""The slot engine and trace renderer against frozen copies of the loop
and the writer they replaced.

``reference_run`` below records every event through a keyword-argument
helper into a frozen copy of the old ``TraceEvent`` (``(slot, kind,
fields)`` with ``(name, value)`` pairs, rendered by its own f-string
``line``), calls ``mac.arbitrate_slot`` on the senders' priority levels in
every busy slot, and resolves the tail alias on each packet lookup.  The
library engine resolves lone-sender slots from the link draw alone and
keeps its records as columns; its flat ``(slot, kind, *values)`` records,
decoded through ``EVENT_FIELDS``, must equal the reference events, and both must
produce the same metrics and raise the same exceptions.  The trace text,
rendered from the engine's record columns before its records are ever
built, must equal the reference's and the old ``%`` writer's text of the
records (``_reference_text``); ``packets_from(0)``, which the
library reads off the events, must equal the per-packet logs and terminal
records the reference keeps as it runs -- on sweep trials in both modes
under all three frameworks, on the contended testbed window at
preemption-error and error-free ticks, on runs whose last rhythmic packet
takes over a static tail, and on hypothesis-drawn variants of the testbed
network with and without a disturbance.  ``reference_run`` draws every link
of the network through ``frozen_link_draws``; the engine draws only the
links on some task's path, with the same per-link streams.
"""

import dataclasses
import io
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rtwnsim import mac as mac_model
from rtwnsim import sim as sim_mod
from rtwnsim.config import parse_scenario
from rtwnsim.experiments import _trial_seed, make_trial
from rtwnsim.mac import SlotTiming
from rtwnsim.model import Link, NetworkModel, RhythmicSpec, SchedulingMode, TaskSpec
from rtwnsim.rhythmic import end_point_upper_bound
from rtwnsim.sim import (
    EVENT_FIELDS,
    DisturbanceSpec,
    Framework,
    MacParams,
    Metrics,
    SimConfig,
    SimTrace,
    TaskStats,
    default_horizon,
    plan,
    run,
)
from rtwnsim.trace import _PAD, _WINDOW_SLOTS, _decimal

from dropping_reference import overlay_of
from support import trace_text

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TraceEvent(NamedTuple):
    """Frozen copy of the engine's old trace record: ``fields`` holds
    (name, value) pairs in line order."""

    slot: int
    kind: str
    fields: tuple[tuple[str, object], ...]

    def line(self) -> str:
        return " ".join([f"slot={self.slot}", f"kind={self.kind}", *[f"{k}={v}" for k, v in self.fields]])


def _add(events: list[TraceEvent], slot: int, kind: str, **fields: object) -> None:
    events.append(TraceEvent(slot, kind, tuple(fields.items())))


def _frozen_text(events: list[TraceEvent]) -> str:
    return "\n".join(e.line() for e in events) + "\n"


# The library's old trace writer, the oracle of its renderer: each kind's v1
# line template, filled by ``%`` from a whole flat record.
_LINE = {
    kind: " ".join(["slot=%s", "kind=%s", *[f"{name}=%s" for name in names]])
    for kind, names in EVENT_FIELDS.items()
}


def _reference_text(records: list[tuple]) -> str:
    return "\n".join([_LINE[r[1]] % r for r in records]) + "\n"


def _decoded(trace: SimTrace) -> list[tuple]:
    """The engine's flat records as ``(slot, kind, ((name, value), ...))``."""
    return [(r[0], r[1], tuple(zip(EVENT_FIELDS[r[1]], r[2:]))) for r in trace.events]


class _Packet:
    """Frozen copy of the engine's packet record, with every field it kept."""

    __slots__ = ("task", "release", "deadline", "expiry", "hops", "path",
                 "progress", "terminal", "finish", "decided_drop")

    def __init__(self, task: TaskSpec, release: int, deadline: int, expiry: int):
        self.task = task.id
        self.release = release
        self.deadline = deadline  # nominal deadline used for miss accounting
        self.expiry = expiry  # last slot bound the packet may still transmit in
        self.hops = task.hops
        self.path = task.path
        self.progress = 0  # completed hops
        self.terminal: Optional[str] = None
        self.finish: Optional[int] = None
        self.decided_drop = False


PacketRecords = dict[tuple[int, int], tuple]


def frozen_link_draws(network: NetworkModel, seed: int, horizon: int, stream: int) -> dict:
    """One uniform draw per (link, slot) for every link of the network."""
    draws = {}
    for idx, link in enumerate(sorted(network.links, key=lambda l: (l.src, l.dst))):
        rng = np.random.default_rng(np.random.SeedSequence([seed, stream, idx]))
        draws[(link.src, link.dst)] = rng.random(horizon)
    return draws


def reference_run(config: SimConfig) -> tuple[list[TraceEvent], Metrics, PacketRecords]:
    """Frozen copy of the engine that arbitrated every busy slot.  Besides
    the trace events and metrics it returns, per transmitted packet, its
    ordered ``(slot, hop, result)`` log and terminal ``(event, finish slot
    or -1)``."""
    planned = plan(config)
    sched = planned.static.schedule
    horizon = sched.horizon
    dynamic = planned.dynamic
    by_id = {t.id: t for t in config.tasks}
    trace: list[TraceEvent] = []
    packet_log: dict[tuple[int, int], list[tuple[int, int, str]]] = {}
    terminals: dict[tuple[int, int], tuple[str, int]] = {}

    vrhy: frozenset[str] = frozenset()
    overlay: dict = {}
    window_start = window_end = None
    if dynamic is not None:
        event = dynamic.event
        vrhy = frozenset(by_id[event.task_id].path)  # the nodes that learn of the disturbance
        overlay = overlay_of(dynamic)
        window_start, window_end = event.enter_slot, dynamic.end_point

    # Packet table.  The disturbed task's nominal instances inside
    # [window start, resume release) are superseded by the dynamic packets.
    packets: dict[tuple[int, int], _Packet] = {}
    alias: Optional[tuple[tuple[int, int], int, tuple[int, int]]] = None  # (static key, from slot, packet key)
    for task in config.tasks:
        skip_lo = skip_hi = None
        if dynamic is not None and task.id == event.task_id:
            skip_lo, skip_hi = event.enter_slot, dynamic.sets.resume_release
        k = 0
        while task.nominal_deadline(k) <= horizon:
            release = task.release(k)
            k += 1
            if skip_lo is not None and skip_lo <= release < skip_hi:
                continue
            packets[(task.id, release)] = _Packet(
                task, release, task.nominal_deadline(k - 1), task.nominal_deadline(k - 1)
            )
    if dynamic is not None:
        task = by_id[event.task_id]
        for entry in dynamic.sets.rhythmic:
            expiry = entry.deadline
            if entry.tail_slots:
                prev_release = dynamic.sets.resume_release - event.nominal_period
                expiry = prev_release + event.nominal_deadline
                alias = ((event.task_id, prev_release), dynamic.end_point, (event.task_id, entry.release))
            if expiry <= horizon:
                packets[(event.task_id, entry.release)] = _Packet(task, entry.release, expiry, expiry)

    decided_drops: set[tuple[int, int]] = set()
    if dynamic is not None and dynamic.decision.level == "packet":
        decided_drops = set(dynamic.decision.dropped_packets)
        for key in decided_drops:
            if key in packets:
                packets[key].decided_drop = True

    draws = frozen_link_draws(config.network, config.seed, horizon, stream=0)
    pdrs = {(link.src, link.dst): link.pdr for link in config.network.links}
    tick = config.mac.timing.priority_tick_us
    per_draws = frozen_link_draws(config.network, config.seed, horizon, stream=1) if tick < 60 else None

    task_at = sched.task_at.tolist()
    release_at = sched.release_at.tolist()
    hop_at = sched.hop_at.tolist()
    releases_by_slot: dict[int, list[tuple[int, int]]] = {}
    for key, pkt in packets.items():
        releases_by_slot.setdefault(pkt.release, []).append(key)

    stats = {t.id: TaskStats() for t in config.tasks}

    def finalize(pkt: _Packet, slot: int) -> None:
        if pkt.terminal is not None:
            return
        if pkt.decided_drop:
            pkt.terminal = "dropped"
            stats[pkt.task].dropped += 1
        else:
            pkt.terminal = "missed"
            stats[pkt.task].missed += 1
        _add(trace, slot, "state", task=pkt.task, release=pkt.release, event=pkt.terminal)
        terminals[(pkt.task, pkt.release)] = (pkt.terminal, -1)

    def sched_entry(t: int) -> Optional[tuple[int, int, int]]:
        tid = task_at[t]
        if tid < 0:
            return None
        return (tid, release_at[t], hop_at[t])

    def packet_for(tid: int, rel: int, t: int) -> Optional[_Packet]:
        if alias is not None and (tid, rel) == alias[0] and t >= alias[1]:
            return packets.get(alias[2])
        return packets.get((tid, rel))

    def tx_for(entry: tuple[int, int, int], t: int, source: str) -> Optional[tuple]:
        tid, rel, hop = entry
        pkt = packet_for(tid, rel, t)
        if pkt is None or pkt.terminal is not None or t >= pkt.expiry:
            return None
        task = by_id[tid]
        if config.mode is SchedulingMode.TBS and hop > 0:
            if pkt.progress != hop - 1:
                return None
            sender, receiver = task.hop_link(hop)
            use_hop = hop
        else:  # PBS: the current holder forwards
            if pkt.progress >= pkt.hops:
                return None
            sender, receiver = task.path[pkt.progress], task.path[pkt.progress + 1]
            use_hop = pkt.progress + 1
        return (sender, receiver, pkt, use_hop, source)

    expiry_order = sorted(packets.values(), key=lambda p: (p.expiry, p.task, p.release))
    expiry_idx = 0

    for t in range(horizon):
        while expiry_idx < len(expiry_order) and expiry_order[expiry_idx].expiry <= t:
            finalize(expiry_order[expiry_idx], expiry_order[expiry_idx].expiry)
            expiry_idx += 1
        for key in releases_by_slot.get(t, ()):
            pkt = packets[key]
            stats[pkt.task].released += 1
            _add(trace, t, "state", task=key[0], release=key[1], event="released")

        in_window = window_start is not None and window_start <= t < window_end
        dyn_entry = overlay.get(t) if in_window else None
        stat_entry = sched_entry(t)
        if stat_entry is not None:
            _add(trace, t, "sched", src="static", task=stat_entry[0],
                 release=stat_entry[1], hop=stat_entry[2])
        if dyn_entry is not None:
            _add(trace, t, "sched", src="dynamic", task=dyn_entry.task,
                 release=dyn_entry.release, hop=dyn_entry.hop)

        candidates: list[tuple] = []
        if dyn_entry is not None:
            tx = tx_for((dyn_entry.task, dyn_entry.release, dyn_entry.hop), t, "dynamic")
            if tx is not None:
                candidates.append(tx)
        if stat_entry is not None:
            tx = tx_for(stat_entry, t, "static")
            if tx is not None:
                sender_node = tx[0]
                # A route node inside the window follows the overlay; its
                # static entry executes only where the overlay kept the slot.
                if not (in_window and sender_node in vrhy and t in overlay):
                    candidates.append(tx)

        if not candidates:
            continue

        priorities = []
        for sender, receiver, pkt, hop, source in candidates:
            prio = (
                mac_model.RHYTHMIC_PRIORITY
                if source == "dynamic"
                else mac_model.PERIODIC_PRIORITY
            )
            priorities.append(prio)
            _add(trace, t, "tx", sender=sender, receiver=receiver, task=pkt.task,
                 release=pkt.release, hop=hop, prio=prio)

        link_success = []
        for sender, receiver, pkt, hop, source in candidates:
            u = draws[(sender, receiver)][t]
            ok = bool(u < pdrs[(sender, receiver)])
            link_success.append(ok)
        outcomes = mac_model.arbitrate_slot(priorities, config.mac.timing, link_success)

        if len(candidates) > 1 and per_draws is not None:
            prios = sorted(priorities)
            distance = prios[1] - prios[0]
            if distance >= 1:
                per = mac_model.preemption_error_rate(tick, distance)
                for i, outcome in enumerate(outcomes):
                    if outcome is mac_model.TxOutcome.WON_DELIVERED:
                        sender, receiver = candidates[i][0], candidates[i][1]
                        if per_draws[(sender, receiver)][t] < per:
                            outcomes[i] = mac_model.TxOutcome.WON_LOST

        for (sender, receiver, pkt, hop, source), outcome in zip(candidates, outcomes):
            result = outcome.value
            if outcome is mac_model.TxOutcome.WON_DELIVERED:
                # Delivery additionally needs the receiver to be listening per
                # its own operative schedule.
                if in_window and receiver in vrhy:
                    op = overlay.get(t)
                    op_entry = (op.task, op.release, op.hop) if op is not None else stat_entry
                else:
                    op_entry = stat_entry
                expected = (
                    op_entry is not None
                    and packet_for(op_entry[0], op_entry[1], t) is pkt
                )
                if expected:
                    pkt.progress += 1
                    result = "delivered"
                    if pkt.progress == pkt.hops:
                        pkt.terminal = "delivered"
                        pkt.finish = t + 1
                        stats[pkt.task].delivered += 1
                        terminals[(pkt.task, pkt.release)] = ("delivered", t + 1)
                        _add(trace, t, "state", task=pkt.task, release=pkt.release, event="delivered")
                else:
                    result = "no_listener"
            elif outcome is mac_model.TxOutcome.DEFERRED:
                result = "deferred"
            elif outcome is mac_model.TxOutcome.COLLIDED:
                result = "collided"
            else:
                result = "lost"
            _add(trace, t, "outcome", sender=sender, task=pkt.task, release=pkt.release,
                 hop=hop, result=result)
            packet_log.setdefault((pkt.task, pkt.release), []).append((t, hop, result))

    while expiry_idx < len(expiry_order):
        finalize(expiry_order[expiry_idx], min(expiry_order[expiry_idx].expiry, horizon))
        expiry_idx += 1

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
    records = {key: (tuple(log), terminals.get(key)) for key, log in packet_log.items()}
    return trace, metrics, records


def _assert_same_run(config: SimConfig) -> Optional[SimTrace]:
    try:
        ref_events, ref_metrics, ref_records = reference_run(config)
    except Exception as exc:  # the engine must fail the same way
        with pytest.raises(type(exc)):
            run(config)
        return None
    trace, metrics = run(config)
    # The text comes first, as ``simulate`` writes it: from the record
    # columns, with no record tuple built.
    text = trace_text(trace)
    assert "events" not in vars(trace)
    assert text == _reference_text(trace.events)
    assert all(type(e) is tuple and len(e) == 2 + len(EVENT_FIELDS[e[1]]) for e in trace.events)
    assert _decoded(trace) == ref_events
    assert text == _frozen_text(ref_events)
    out = io.BytesIO()
    trace.write(out)
    assert out.getvalue() == text.encode("utf-8", "surrogatepass")
    assert list(trace.packets_from(0).items()) == list(ref_records.items())
    assert metrics == ref_metrics
    return trace


def _sweep_config(index: int, mode: SchedulingMode, framework: Framework, tick: int) -> SimConfig:
    trial = make_trial(_trial_seed(1, 0.5, 8, tick, index), 0.5, 8)
    return SimConfig(
        network=trial.network,
        tasks=trial.tasks,
        mode=mode,
        seed=index,
        disturbance=DisturbanceSpec(trial.rhythmic_task, trial.instance, trial.spec),
        framework=framework,
        mac=MacParams(timing=SlotTiming(priority_tick_us=tick)),
    )


@pytest.mark.parametrize("tick", [50, 60])
@pytest.mark.parametrize("framework", list(Framework), ids=lambda f: f.value)
@pytest.mark.parametrize("mode", list(SchedulingMode), ids=lambda m: m.value)
def test_sweep_trials_match_reference(mode, framework, tick):
    configs = [_sweep_config(index, mode, framework, tick) for index in range(3)]
    # The last run is stretched over two render windows.
    configs[-1] = dataclasses.replace(configs[-1], horizon=2 * _WINDOW_SLOTS)
    ran = [_assert_same_run(config) for config in configs]
    assert ran[-1] is not None and ran[-1].events[-1][0] >= _WINDOW_SLOTS


@pytest.mark.parametrize("tick", [30, 50, 60])
@pytest.mark.parametrize("framework", list(Framework), ids=lambda f: f.value)
@pytest.mark.parametrize("mode", list(SchedulingMode), ids=lambda m: m.value)
def test_contended_testbed_window_matches_reference(mode, framework, tick):
    base = parse_scenario(SCENARIOS / "testbed.yaml")
    config = dataclasses.replace(
        base, mode=mode, framework=framework, mac=MacParams(timing=SlotTiming(priority_tick_us=tick))
    )
    trace = _assert_same_run(config)
    # The FD-PaS window puts two senders into some slots; the baseline plans
    # no window, so every slot keeps a lone sender.
    tx_slots = [e[0] for e in trace.events if e[1] == "tx"]
    assert (len(tx_slots) > len(set(tx_slots))) == (framework is not Framework.BASELINE_BROADCAST)


def _testbed_network(pdr: float) -> NetworkModel:
    nodes = ("V0", "V1", "V2", "V3", "V4", "V5", "Vc")
    links = tuple(
        Link(a, b, pdr)
        for a, b in [("V0", "V1"), ("V1", "Vc"), ("Vc", "V3"), ("V3", "V4"), ("V2", "Vc"), ("Vc", "V5")]
    )
    return NetworkModel(nodes=nodes, controller="Vc", links=links)


def _testbed_config(mode, period, ramp, phase, p1, phase1, p2, phase2, instance, beta,
                    framework=Framework.FDPAS_PACKET, tick=60, pdr=0.9, seed=1):
    tasks = (
        TaskSpec(id=0, path=("V0", "V1", "Vc", "V3", "V4"), period=period, deadline=period,
                 rhythmic=RhythmicSpec(ramp, ramp), phase=phase),
        TaskSpec(id=1, path=("V2", "Vc", "V3"), period=p1, deadline=p1, phase=phase1),
        TaskSpec(id=2, path=("V1", "Vc", "V5"), period=p2, deadline=p2, phase=phase2),
    )
    return SimConfig(network=_testbed_network(pdr), tasks=tasks, mode=mode, required_pdr=0.9,
                     seed=seed, disturbance=DisturbanceSpec(0, instance), beta=beta,
                     framework=framework, mac=MacParams(timing=SlotTiming(priority_tick_us=tick)))


_TBS_TAIL = (SchedulingMode.TBS, 29, (8, 17), 3, 29, 2, 7, 4, 2, 4)
_PBS_TAIL = (SchedulingMode.PBS, 38, (9, 13), 1, 7, 1, 28, 4, 2, 4)


@pytest.mark.parametrize("case, framework, seed", [
    (_TBS_TAIL, Framework.FDPAS_PACKET, 15),
    (_TBS_TAIL, Framework.FDPAS_TRANSMISSION, 9),
    (_PBS_TAIL, Framework.FDPAS_PACKET, 13),
    (_PBS_TAIL, Framework.FDPAS_TRANSMISSION, 23),
], ids=["TBS-packet", "TBS-transmission", "PBS-packet", "PBS-transmission"])
def test_tail_takeover_matches_reference(case, framework, seed):
    # The last rhythmic packet is released off the nominal grid and takes
    # over the static tail of the grid instance before the resumed release:
    # from the end point on, slots labelled with that instance carry the
    # rhythmic packet.  The radio seeds leave it in flight at the end point.
    config = _testbed_config(*case, framework=framework, seed=seed)
    dynamic = plan(config).dynamic
    boundary = dynamic.sets.rhythmic[-1]
    taken_over = dynamic.sets.resume_release - dynamic.event.nominal_period
    assert boundary.tail_slots and taken_over != boundary.release
    trace = _assert_same_run(config)
    log, _ = trace.packets_from(boundary.release)[(0, boundary.release)]
    assert any(slot >= dynamic.end_point for slot, _, _ in log)


def test_marks_on_one_slot_order_by_task_id_and_table():
    # The tasks are listed in reverse id order, with loops 1 and 2 on one
    # release grid: their packets are released on the same slots, in table
    # order, and the radio seed leaves one of each unserved at slot 122,
    # where the missed marks come by task id.
    config = _testbed_config(SchedulingMode.TBS, 20, (12, 16), 1, 40, 2, 40, 2, 2, 2, pdr=0.7, seed=118)
    config = dataclasses.replace(config, tasks=tuple(reversed(config.tasks)))
    trace = _assert_same_run(config)
    marks = [(r[0], r[2], r[4]) for r in trace.events if r[1] == "state" and r[0] in (82, 122)]
    assert [(task, event) for slot, task, event in marks if slot == 82] == [(2, "released"), (1, "released")]
    assert [(task, event) for slot, task, event in marks if slot == 122 and event == "missed"] == [(1, "missed"), (2, "missed")]


@st.composite
def _small_scenarios(draw):
    """The testbed's three loops with drawn periods, phases, ramp, link
    quality, disturbance instance and engine settings.  Some carry no
    disturbance, so that no slot of the run has an overlay entry.  The tasks
    are listed in a drawn order, and loops 1 and 2 may share one release
    grid, so that packets listed out of id order are released and expire on
    the same slots.  Some runs set an explicit horizon, from the latest end
    point to past the default, so that packets are cut off by it or expire
    exactly at it."""
    period = draw(st.integers(8, 20))
    ramp = tuple(sorted(draw(st.lists(st.integers(max(4, period // 2), period - 1), min_size=1, max_size=4))))
    p1, phase1 = draw(st.sampled_from([20, 30, 40])), draw(st.integers(0, 5))
    if draw(st.booleans()):
        p2, phase2 = p1, phase1
    else:
        p2, phase2 = draw(st.sampled_from([20, 24, 40])), draw(st.integers(0, 5))
    config = _testbed_config(
        draw(st.sampled_from(list(SchedulingMode))),
        period,
        ramp,
        draw(st.integers(0, 3)),
        p1,
        phase1,
        p2,
        phase2,
        draw(st.integers(1, 4)),
        draw(st.integers(1, 4)),
        framework=draw(st.sampled_from(list(Framework))),
        tick=draw(st.sampled_from([30, 50, 60])),
        pdr=draw(st.sampled_from([1.0, 0.9, 0.7])),
        seed=draw(st.integers(0, 1000)),
    )
    if not draw(st.integers(0, 2)):
        config = dataclasses.replace(config, disturbance=None)
    config = dataclasses.replace(config, tasks=tuple(draw(st.permutations(config.tasks))))
    if draw(st.booleans()):
        event = config.event()
        lowest = end_point_upper_bound(event, config.beta) if event is not None else 1
        highest = default_horizon(config) + 2 * max(t.period for t in config.tasks)
        config = dataclasses.replace(config, horizon=draw(st.integers(lowest, highest)))
    return config


@settings(max_examples=90, deadline=None)
@given(_small_scenarios())
def test_small_scenarios_match_reference(config):
    _assert_same_run(config)


def _long_config(mode: SchedulingMode, framework: Framework, link_scale: float, required_pdr: float) -> SimConfig:
    """The long simulate scenario, ``make_trial(0, 0.7, 8)``, over 20,000
    slots, its link pdrs scaled by ``link_scale``."""
    trial = make_trial(0, 0.7, 8)
    links = tuple(dataclasses.replace(link, pdr=link.pdr * link_scale) for link in trial.network.links)
    return SimConfig(
        network=dataclasses.replace(trial.network, links=links),
        tasks=trial.tasks,
        mode=mode,
        required_pdr=required_pdr,
        horizon=20_000,
        disturbance=DisturbanceSpec(trial.rhythmic_task, trial.instance, trial.spec),
        framework=framework,
        mac=MacParams(timing=SlotTiming(priority_tick_us=60)),
    )


@pytest.mark.parametrize("mode, framework, link_scale, required_pdr", [
    (SchedulingMode.TBS, Framework.FDPAS_PACKET, 1.0, 0.99),
    (SchedulingMode.PBS, Framework.FDPAS_TRANSMISSION, 1.0, 0.99),
    (SchedulingMode.TBS, Framework.FDPAS_PACKET, 0.7, 0.6),
], ids=["TBS-packet", "PBS-transmission", "TBS-low-pdr"])
def test_long_run_matches_reference(mode, framework, link_scale, required_pdr):
    # Thousands of packets outside the window go through the packet-wise
    # walk; with weak links and a low target, hops fail repeatedly and
    # packets miss.
    trace = _assert_same_run(_long_config(mode, framework, link_scale, required_pdr))
    results = {r[-1] for r in trace.events if r[1] in ("outcome", "state")}
    assert {"delivered", "lost", "released"} <= results
    if link_scale < 1:
        assert "missed" in results


@pytest.mark.parametrize("mode", list(SchedulingMode), ids=lambda m: m.value)
def test_unused_link_is_never_drawn(mode, monkeypatch):
    # ("V0", "V2") carries no task and sorts between used links, so the
    # links after it keep their stream index only if it still counts.
    drawn: list[tuple[int, set]] = []
    real = sim_mod._link_draws

    def recording(network, used, seed, horizon, stream, **kwargs):
        draws = real(network, used, seed, horizon, stream, **kwargs)
        drawn.append((stream, set(draws)))
        return draws

    monkeypatch.setattr(sim_mod, "_link_draws", recording)
    base = dataclasses.replace(parse_scenario(SCENARIOS / "testbed.yaml"), mode=mode,
                               mac=MacParams(timing=SlotTiming(priority_tick_us=50)))
    network = dataclasses.replace(base.network, links=base.network.links + (Link("V0", "V2", 0.7),))
    assert _assert_same_run(dataclasses.replace(base, network=network)) is not None
    assert [stream for stream, _ in drawn] == [0, 1]
    assert all(("V0", "V2") not in links and len(links) == 6 for _, links in drawn)


_INT64 = st.integers(-2**63, 2**63 - 1)
_EDGES = [0, -1, 2**31 - 1, 2**31, -2**31 - 1, 2**32, 2**63 - 1, -2**63,
          *[sign * 10**k + d for k in range(1, 19) for d in (-1, 0) for sign in (1, -1)]]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_INT64, st.sampled_from(_EDGES)), max_size=40))
@example(_EDGES)
@example([])
def test_decimal_renders_every_int64_as_str(values):
    digits = _decimal(np.array(values, dtype=np.int64))
    assert digits.dtype == np.uint8 and digits.shape[1] == len(values)
    assert [bytes(column[column != _PAD]).decode() for column in digits.T] == [str(v) for v in values]
    # The pad bytes only lead: each number is one run of digits at the bottom.
    assert all(column[len(column) - len(str(v)):].tobytes() == str(v).encode() for column, v in zip(digits.T, values))


@settings(max_examples=300, deadline=None)
@given(st.text())
@example("\ud800\udfff\U0010ffff\x00\x7f\x80\xff")
def test_the_pad_byte_is_in_no_utf8_text(text):
    assert _PAD not in text.encode("utf-8", "surrogatepass")


def _renamed(config: SimConfig, names: dict[str, str]) -> SimConfig:
    """``config`` with every node renamed through ``names``."""
    network = config.network
    links = tuple(dataclasses.replace(link, src=names[link.src], dst=names[link.dst]) for link in network.links)
    network = NetworkModel(nodes=tuple(names[n] for n in network.nodes), controller=names[network.controller],
                           links=links)
    tasks = tuple(dataclasses.replace(t, path=tuple(names[n] for n in t.path)) for t in config.tasks)
    return dataclasses.replace(config, network=network, tasks=tasks)


_NODE_NAMES = st.lists(st.text(min_size=1, max_size=6), min_size=7, max_size=7, unique=True)


@settings(max_examples=25, deadline=None)
@given(_NODE_NAMES, st.sampled_from(list(SchedulingMode)))
@example(["V 0", "Vé1", "V\x002", "ν3", "V4 ", "\x00", "控制"], SchedulingMode.TBS)
@example(["V 0", "Vé1", "V\x002", "ν3", "V4 ", "\x00", "\ud800"], SchedulingMode.PBS)
def test_any_node_name_writes_the_reference_bytes(names, mode):
    # Spaces, non-ASCII characters, NUL bytes and a lone surrogate in node
    # names: the renderer drops only the pad byte, which no UTF-8 text holds.
    base = dataclasses.replace(parse_scenario(SCENARIOS / "testbed.yaml"), mode=mode)
    config = _renamed(base, dict(zip(base.network.nodes, names)))
    trace, _ = run(config)
    text = trace_text(trace)
    assert text == _reference_text(trace.events)
    assert any(name in text for name in names if "=" not in name)
    out = io.BytesIO()
    trace.write(out)
    assert out.getvalue() == text.encode("utf-8", "surrogatepass")


def test_a_trace_without_records_is_one_newline():
    # Every task's first release is at the horizon, and no disturbance is set.
    base = parse_scenario(SCENARIOS / "testbed.yaml")
    config = dataclasses.replace(
        base, disturbance=None, horizon=260,
        tasks=tuple(dataclasses.replace(t, phase=260) for t in base.tasks),
    )
    trace, _ = run(config)
    assert trace_text(trace) == "\n" == _reference_text(trace.events)
    assert trace.events == []
