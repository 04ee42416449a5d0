"""Slot-driven simulator: nominal execution, disturbance handling, baseline
timing model, determinism and resumption equivalence."""

import dataclasses
import gc
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtwnsim.mac import PER_TABLE, PERIODIC_PRIORITY, RHYTHMIC_PRIORITY, SlotTiming, priority_levels
from rtwnsim.model import Link, NetworkModel, RhythmicSpec, SchedulingMode, TaskSpec
from rtwnsim.experiments import ExperimentSpec, _trial_seed, make_trial, run_cell
from rtwnsim.sim import (
    EVENT_FIELDS,
    BaselineParams,
    DisturbanceSpec,
    Framework,
    MAX_HORIZON,
    HorizonTooLong,
    HorizonTooShort,
    MacParams,
    SimConfig,
    baseline_drt,
    default_horizon,
    degradation_rate,
    plan,
    plan_frameworks,
    run,
)
from rtwnsim.dropping import DropDecision, PlanInvariantError
from rtwnsim import dropping, sim as sim_mod
from rtwnsim.rhythmic import ScheduleSpan

from support import chain_network, raised, standalone_record, testbed, trace_text


def test_nominal_perfect_links_all_delivered():
    bed = testbed(1.0)
    net, tasks = bed.network, bed.tasks
    cfg = SimConfig(network=net, tasks=tasks, required_pdr=0.95, seed=1, horizon=241)
    trace, metrics = run(cfg)
    assert metrics.success
    for stats in metrics.per_task.values():
        assert stats.released > 0
        assert stats.delivered == stats.released
        assert stats.missed == 0 and stats.dropped == 0


def test_response_latency_is_one_period():
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    cfg = SimConfig(network=net, tasks=tasks, required_pdr=0.95, seed=3, horizon=260,
                    disturbance=bed.disturbance, alpha=15)
    _, metrics = run(cfg)
    assert metrics.feasible_dynamic
    assert metrics.drt_slots == 15
    assert metrics.success


def test_trace_is_deterministic():
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    cfg = SimConfig(network=net, tasks=tasks, required_pdr=0.95, seed=11, horizon=260,
                    disturbance=bed.disturbance)
    a, _ = run(cfg)
    b, _ = run(cfg)
    assert trace_text(a) == trace_text(b)


def test_conservation_of_packets():
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    for framework in (Framework.FDPAS_PACKET, Framework.FDPAS_TRANSMISSION):
        cfg = SimConfig(network=net, tasks=tasks, required_pdr=0.95, seed=5, horizon=360,
                        disturbance=bed.disturbance, framework=framework)
        _, metrics = run(cfg)
        for stats in metrics.per_task.values():
            assert stats.released == stats.delivered + stats.missed + stats.dropped
        assert 0.0 <= metrics.degradation_rate <= 0.95  # bounded by the requirement


@pytest.mark.parametrize("mode", list(SchedulingMode), ids=lambda m: m.value)
def test_packet_balance_over_seeded_fuzz(mode):
    # Every released packet ends delivered, missed or dropped, under every
    # framework, with and without preemption errors, whatever the radio seed.
    for index in range(6):
        trial = make_trial(_trial_seed(7, 0.5, 6, 50, index), 0.5, 6)
        for framework in Framework:
            for tick in (50, 60):
                _, metrics = run(SimConfig(
                    network=trial.network, tasks=trial.tasks, mode=mode, seed=index,
                    disturbance=DisturbanceSpec(trial.rhythmic_task, trial.instance, trial.spec),
                    framework=framework, mac=MacParams(timing=SlotTiming(priority_tick_us=tick)),
                ))
                for tid, stats in metrics.per_task.items():
                    assert stats.released == stats.delivered + stats.missed + stats.dropped, (
                        index, framework, tick, tid)


@pytest.mark.parametrize("tick, levels", [(60, 14), (400, 3)])
def test_mac_priorities_must_fit_the_slot_levels(tick, levels):
    # The finest and the coarsest tick of the paper's sweep: the slot
    # extension yields `levels` levels, and both senders' levels are among them.
    assert priority_levels(SlotTiming(priority_tick_us=tick)) == levels
    assert 0 <= RHYTHMIC_PRIORITY < levels and 0 <= PERIODIC_PRIORITY < levels


def test_mac_priority_constants_fit_every_supported_tick():
    # At every tick a run accepts, both levels fit the slot, the dynamic
    # sender starts first, and their distance has its own preemption-error
    # rate, so the lookup never falls back to another distance's.
    distance = PERIODIC_PRIORITY - RHYTHMIC_PRIORITY
    assert RHYTHMIC_PRIORITY < PERIODIC_PRIORITY and distance in PER_TABLE
    for tick in range(30, 401):
        levels = range(priority_levels(SlotTiming(priority_tick_us=tick)))
        assert RHYTHMIC_PRIORITY in levels and PERIODIC_PRIORITY in levels, tick


def test_mac_params_check_their_tick_without_a_rate_lookup(monkeypatch):
    # Parsing a config is not a preemption-error lookup: the tick range is
    # checked by mac.check_tick, which the lookup shares.
    def lookup(tick_us, priority_distance):
        raise AssertionError("a config looked a preemption-error rate up")

    monkeypatch.setattr(sim_mod.mac_model, "preemption_error_rate", lookup)
    for tick in (30, 50, 400):
        MacParams(timing=SlotTiming(priority_tick_us=tick))
    for tick in (29, 401):
        assert raised(lambda: MacParams(timing=SlotTiming(priority_tick_us=tick))) == (
            ValueError, "tick must lie in the supported 30..400 us range")


def test_window_conflicts_resolve_for_the_disturbed_task():
    # Every contended slot inside the window is won by the disturbed task's
    # transmission; the periodic sender defers.
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    cfg = SimConfig(network=net, tasks=tasks, required_pdr=0.95, seed=7, horizon=260,
                    disturbance=bed.disturbance)
    trace, metrics = run(cfg)
    outcomes = [(e[0], dict(zip(EVENT_FIELDS["outcome"], e[2:]))) for e in trace.events if e[1] == "outcome"]
    deferred = [(slot, fields) for slot, fields in outcomes if fields["result"] == "deferred"]
    assert deferred, "expected preempted periodic transmissions in the window"
    for slot, fields in deferred:
        assert fields["task"] != 0
        assert 61 <= slot < metrics.endpoint


@pytest.mark.parametrize("framework", list(Framework), ids=lambda f: f.value)
@pytest.mark.parametrize("mode", list(SchedulingMode), ids=lambda m: m.value)
def test_trace_records_stay_untracked_by_the_cyclic_gc(mode, framework):
    # A flat tuple of ints and strings is untracked by the collector's first
    # pass over it; a nested-tuple or tuple-subclass record stays tracked and
    # is walked again by every later full collection.
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    cfg = SimConfig(network=net, tasks=tasks, mode=mode, required_pdr=0.95, seed=7, horizon=260,
                    disturbance=bed.disturbance, framework=framework)
    trace, _ = run(cfg)
    events = trace.events  # built on first read
    gc.collect()
    assert events and not any(gc.is_tracked(e) for e in events)
    assert all(type(v) in (int, str) for e in trace.events for v in e)
    if mode is SchedulingMode.TBS and framework is Framework.FDPAS_PACKET:
        assert {e[1] for e in trace.events} == set(EVENT_FIELDS)


def _count_link_draws(monkeypatch) -> list[int]:
    """Streams of the ``sim._link_draws`` calls made from here on."""
    streams: list[int] = []
    real = sim_mod._link_draws

    def counting(network, used, seed, horizon, stream, **kwargs):
        streams.append(stream)
        return real(network, used, seed, horizon, stream, **kwargs)

    monkeypatch.setattr(sim_mod, "_link_draws", counting)
    return streams


def _contended_slots(trace) -> int:
    senders: dict[int, int] = {}
    for record in trace.events:
        if record[1] == "tx":
            senders[record[0]] = senders.get(record[0], 0) + 1
    return sum(1 for count in senders.values() if count >= 2)


def test_preemption_error_draws_wait_for_the_first_contended_slot(monkeypatch):
    streams = _count_link_draws(monkeypatch)
    # A lone task never contends, so its tick-50 run draws only link outcomes.
    net = chain_network(1, 1, pdr=0.7)
    task = TaskSpec(id=0, path=("S1", "C", "A1"), period=20, deadline=20)
    trace, _ = run(SimConfig(network=net, tasks=(task,), mode=SchedulingMode.PBS, required_pdr=0.9,
                             seed=9, horizon=400, mac=MacParams(timing=SlotTiming(priority_tick_us=50))))
    assert _contended_slots(trace) == 0
    assert streams == [0]

    # Below a 60 us tick, stream 1 is drawn after stream 0, one link at a time.
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    for tick in (30, 50, 60):
        streams.clear()
        trace, _ = run(SimConfig(network=net, tasks=tasks, required_pdr=0.95, seed=7, horizon=260,
                                 disturbance=bed.disturbance,
                                 mac=MacParams(timing=SlotTiming(priority_tick_us=tick))))
        assert _contended_slots(trace) > 0
        assert streams[0] == 0 and streams[1:] == [1] * (len(streams) - 1), tick
        assert (len(streams) > 1) == (tick < 60), tick


def test_rhythmic_packets_meet_deadlines_with_perfect_links():
    bed = testbed(1.0)
    net, tasks = bed.network, bed.tasks
    cfg = SimConfig(network=net, tasks=tasks, required_pdr=0.95, seed=2, horizon=260,
                    disturbance=bed.disturbance)
    trace, metrics = run(cfg)
    assert metrics.per_task[0].missed == 0
    assert metrics.per_task[0].delivered == metrics.per_task[0].released


def test_post_endpoint_equality_with_undisturbed_run():
    # Packets released at/after the chosen end point behave draw-for-draw as
    # in a disturbance-free run (per-link, per-slot random streams).
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    cfg = SimConfig(network=net, tasks=tasks, required_pdr=0.95, seed=13, horizon=360,
                    disturbance=bed.disturbance)
    trace_d, metrics = run(cfg)
    cfg_n = SimConfig(network=net, tasks=tasks, required_pdr=0.95, seed=13, horizon=360)
    trace_n, _ = run(cfg_n)
    assert metrics.endpoint is not None
    assert trace_d.packets_from(metrics.endpoint) == trace_n.packets_from(metrics.endpoint)


def test_horizon_must_reach_latest_end_point():
    # Disturbance at instance 3: state exit 121, beta 4, period 15 -> the
    # latest end point is slot 166.
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    for framework in (Framework.FDPAS_PACKET, Framework.FDPAS_TRANSMISSION):
        base = dict(network=net, tasks=tasks, required_pdr=0.95, seed=3,
                    disturbance=bed.disturbance, framework=framework)
        with pytest.raises(HorizonTooShort, match="166"):
            run(SimConfig(horizon=165, **base))
        _, metrics = run(SimConfig(horizon=166, **base))
        assert metrics.feasible_dynamic and metrics.endpoint == 121
    # The baseline plans no window, so a short horizon stays valid for it.
    _, metrics = run(SimConfig(network=net, tasks=tasks, required_pdr=0.95, seed=3, horizon=60,
                               disturbance=bed.disturbance,
                               framework=Framework.BASELINE_BROADCAST))
    assert metrics.drt_slots == 30


def test_config_names_a_bad_beta_and_an_unknown_disturbed_task():
    net = chain_network(1, 1)
    task = TaskSpec(id=0, path=("S1", "C", "A1"), period=10, deadline=10)
    unknown = DisturbanceSpec(7, 1, RhythmicSpec((8,), (8,)))
    assert raised(lambda: SimConfig(network=net, tasks=(task,), beta=0)) == (ValueError, "beta must be >= 1")
    assert raised(lambda: SimConfig(network=net, tasks=(task,), disturbance=unknown)) == (
        ValueError, "disturbance names unknown task 7")


def test_plan_frameworks_checks_the_horizon_for_any_fdpas_framework():
    # The latest end point is slot 166 (see above).  A short horizon is
    # rejected as soon as one of the frameworks plans a window, whichever
    # framework the config names.
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    cfg = SimConfig(network=net, tasks=tasks, required_pdr=0.95, seed=3, horizon=165,
                    disturbance=bed.disturbance, framework=Framework.BASELINE_BROADCAST)
    (baseline,) = plan_frameworks(cfg, (Framework.BASELINE_BROADCAST,))
    assert baseline.static.schedule.horizon == 165 and baseline.drt == plan(cfg).drt
    for frameworks in ((Framework.BASELINE_BROADCAST, Framework.FDPAS_PACKET), (Framework.FDPAS_TRANSMISSION,)):
        with pytest.raises(HorizonTooShort, match="166"):
            plan_frameworks(cfg, frameworks)


def test_plan_names_the_horizon_past_the_cap(monkeypatch):
    # An explicit horizon one slot past MAX_HORIZON, and the default horizon
    # a 10**12-slot period gives, are rejected before any static build, each
    # under its own name.
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    base = SimConfig(network=net, tasks=tasks, required_pdr=0.95, seed=3, disturbance=bed.disturbance)
    long_period = dataclasses.replace(tasks[1], period=10**12, deadline=10**12)
    unset = dataclasses.replace(base, tasks=(tasks[0], long_period, tasks[2]))
    builds = _counting(monkeypatch, "build_static_schedule")
    cap = f"exceeds the {MAX_HORIZON}-slot cap"
    with pytest.raises(HorizonTooLong, match=re.escape(f"sim.horizon {MAX_HORIZON + 1} {cap}")):
        plan(dataclasses.replace(base, horizon=MAX_HORIZON + 1))
    assert default_horizon(unset) == 4_000_000_000_166
    with pytest.raises(HorizonTooLong, match=re.escape(f"the default horizon 4000000000166 {cap}")):
        plan(unset)
    assert builds == []


def _counting(monkeypatch, name) -> list:
    """Record each call of the ``sim`` module's ``name`` from here on."""
    calls, real = [], getattr(sim_mod, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sim_mod, name, counted)
    return calls


def test_plan_frameworks_makes_one_dynamic_schedule_call_for_the_fdpas_levels(monkeypatch):
    # One plan_frameworks call builds one static schedule and makes one
    # generate_dynamic_schedule call for all its FD-PaS frameworks; each
    # plan equals the plan of its framework made alone.
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    cfg = SimConfig(network=net, tasks=tasks, required_pdr=0.95, seed=3, horizon=260,
                    disturbance=bed.disturbance)
    frameworks = (Framework.BASELINE_BROADCAST, Framework.FDPAS_TRANSMISSION, Framework.FDPAS_PACKET)
    alone = [plan(dataclasses.replace(cfg, framework=f)) for f in frameworks]
    builds = _counting(monkeypatch, "build_static_schedule")
    calls = _counting(monkeypatch, "generate_dynamic_schedule")
    planned = plan_frameworks(cfg, frameworks)
    assert (len(builds), len(calls)) == (1, 1)
    assert calls[0][-1] == ["transmission", "packet"]
    assert all(p.static is planned[0].static for p in planned)
    # A Schedule has no equality of its own; each plan compares without it.
    assert [dataclasses.replace(p, static=None) for p in planned] == [
        dataclasses.replace(p, static=None) for p in alone]
    assert planned[0].static.schedule.horizon == 260
    # No planning pass without an FD-PaS framework or without a disturbance.
    plan_frameworks(cfg, (Framework.BASELINE_BROADCAST,))
    plan_frameworks(dataclasses.replace(cfg, disturbance=None), frameworks)
    assert (len(builds), len(calls)) == (3, 1)


def test_run_cell_cuts_each_candidates_slots_once(monkeypatch):
    # Over ten sweep trials, each trial's end-point candidates are found
    # once, and each built candidate with a residual demand has its periodic
    # slots cut from the span once, for both FD-PaS levels.
    candidate_calls, residual_candidates, cuts = [], [], []

    def candidates(*args, _real=dropping.end_point_candidates):
        candidate_calls.append(args)
        return _real(*args)

    def active_sets(*args, _real=dropping.build_active_sets):
        sets = _real(*args)
        if any(sets.residual):
            residual_candidates.append(args[0])
        return sets

    def groups(span, sets, _real=ScheduleSpan.groups):
        cuts.append(sets)
        return _real(span, sets)

    monkeypatch.setattr(dropping, "end_point_candidates", candidates)
    monkeypatch.setattr(dropping, "build_active_sets", active_sets)
    monkeypatch.setattr(ScheduleSpan, "groups", groups)
    spec = ExperimentSpec(utils=(0.5,), r_steps=(8,), trials=10)
    run_cell(spec, 0.5, 8, 60)
    assert len(candidate_calls) == spec.trials
    assert len(cuts) == len(residual_candidates) > 0


def test_infeasible_disturbance_reports_failure():
    # A ramp whose stepped windows cannot even host the hop count leaves no
    # feasible end point; the run completes with success=False.
    net = chain_network(2, 2, pdr=1.0)
    task = TaskSpec(id=0, path=("S2", "S1", "C", "A1", "A2"), period=10, deadline=10)
    cfg = SimConfig(network=net, tasks=(task,), required_pdr=0.9, seed=1, horizon=160,
                    disturbance=DisturbanceSpec(0, 1, RhythmicSpec((3, 3, 3), (3, 3, 3))), beta=1)
    _, metrics = run(cfg)
    assert not metrics.feasible_dynamic
    assert not metrics.success
    assert metrics.drt_slots == 10  # the response still starts one nominal period on


def test_plan_frameworks_reports_an_infeasible_disturbance_like_run():
    # The same ramp as above, planned the sweep's way, both levels in one call.
    net = chain_network(2, 2, pdr=1.0)
    task = TaskSpec(id=0, path=("S2", "S1", "C", "A1", "A2"), period=10, deadline=10)
    cfg = SimConfig(network=net, tasks=(task,), required_pdr=0.9, beta=1,
                    disturbance=DisturbanceSpec(0, 1, RhythmicSpec((3, 3, 3), (3, 3, 3))))
    for planned in plan_frameworks(cfg, (Framework.FDPAS_PACKET, Framework.FDPAS_TRANSMISSION)):
        assert not planned.feasible_dynamic and not planned.meets(cfg.alpha_slots())
        assert planned.drt == 10 and planned.dhl == 0 and planned.dr == 0.0


def test_run_cell_matches_run_on_sweep_trials():
    # The sweep plans a trial's frameworks in one call; a full run plans its
    # own framework over the same default horizon.  Both must agree.
    spec = ExperimentSpec(trials=30)
    for rec in run_cell(spec, 0.5, 8, 60):
        trial = make_trial(rec.seed, 0.5, 8)
        _, m = run(SimConfig(
            network=trial.network, tasks=trial.tasks,
            disturbance=DisturbanceSpec(trial.rhythmic_task, trial.instance, trial.spec),
            alpha=rec.alpha_slots, framework=Framework(rec.framework),
        ))
        assert (rec.drt_slots, rec.dhl_slots, rec.success, rec.dr,
                rec.dropped_packets, rec.dropped_transmissions) == (
            m.drt_slots, m.dhl_slots, m.success, m.degradation_rate,
            m.dropped_packets, m.dropped_transmissions), (rec.seed, rec.framework)


def _plan_outcome(cfg):
    try:
        p = plan(cfg)
    except ValueError as exc:  # the known PBS rounding defect; it must not depend on the horizon
        return repr(exc)
    return (p.drt, p.dhl, p.meets(cfg.alpha_slots()), p.feasible_dynamic, p.dr, p.decision)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    util=st.sampled_from([0.3, 0.5, 0.7]),
    r_steps=st.sampled_from([3, 8]),
    mode=st.sampled_from([SchedulingMode.TBS, SchedulingMode.PBS]),
    framework=st.sampled_from([Framework.FDPAS_PACKET, Framework.FDPAS_TRANSMISSION]),
    extra=st.integers(1, 2_000),
)
def test_plan_does_not_depend_on_slots_past_the_default_horizon(seed, util, r_steps, mode, framework,
                                                                 extra):
    # EDF is causal, so a longer build only appends slots; a plan reads none
    # of them, so simulate and sweep may share default_horizon.
    trial = make_trial(seed, util, r_steps)
    cfg = SimConfig(
        network=trial.network, tasks=trial.tasks, mode=mode,
        disturbance=DisturbanceSpec(trial.rhythmic_task, trial.instance, trial.spec),
        framework=framework,
    )
    longer = dataclasses.replace(cfg, horizon=default_horizon(cfg) + extra)
    assert _plan_outcome(cfg) == _plan_outcome(longer)


# -------------------------------------------------------------- baseline DRT

def _motivating_example():
    nodes = ("V0", "V1", "V2", "V3", "V4", "V5", "Vc")
    links = tuple(
        Link(a, b, 1.0)
        for a, b in [
            ("V2", "Vc"), ("Vc", "V5"),
            ("V0", "V1"), ("V1", "Vc"),
            ("Vc", "V3"), ("V3", "V4"),
        ]
    )
    net = NetworkModel(nodes=nodes, controller="Vc", links=links)
    tasks = (
        TaskSpec(id=0, path=("V2", "Vc", "V5"), period=9, deadline=9),
        TaskSpec(id=1, path=("V0", "V1", "Vc", "V5"), period=9, deadline=9),
        TaskSpec(id=2, path=("V2", "Vc", "V3", "V4"), period=10, deadline=10),
    )
    return net, tasks


# The motivating example's task 0 steps to periods 4 and 6.
_MOTIVATING_DISTURBANCE = DisturbanceSpec(0, 1, RhythmicSpec((4, 6), (3, 5)))


def test_baseline_best_case_close_to_one_period():
    net, tasks = _motivating_example()
    cfg = SimConfig(network=net, tasks=tasks, required_pdr=0.9, seed=1, horizon=200,
                    disturbance=_MOTIVATING_DISTURBANCE, framework=Framework.BASELINE_BROADCAST,
                    baseline=BaselineParams(broadcast_period=9, depth=1, offset=2))
    # detection at 9, delivery to the controller at 10, broadcast at 11,
    # flood done 12, next release 18: exactly one nominal period.
    assert plan(cfg).drt == 9


def test_baseline_motivating_shape_three_periods():
    # Detection at slot 9 with an 18-slot broadcast task whose instances sit
    # 8 slots into the frame reproduces the three-period response: flood done
    # at 28, next release 36.
    net, tasks = _motivating_example()
    cfg = SimConfig(network=net, tasks=tasks, required_pdr=0.9, seed=1, horizon=200,
                    disturbance=_MOTIVATING_DISTURBANCE, framework=Framework.BASELINE_BROADCAST,
                    baseline=BaselineParams(broadcast_period=18, depth=2, offset=8))
    assert plan(cfg).drt == 27  # three nominal periods


def test_baseline_and_disturbed_task_need_a_disturbance():
    # Typed errors, not asserts: these checks must survive `python -O`.
    net, tasks = _motivating_example()
    cfg = SimConfig(network=net, tasks=tasks, required_pdr=0.9, seed=1, horizon=200)
    with pytest.raises(ValueError, match="baseline latency needs a disturbance"):
        baseline_drt(cfg, plan(cfg).static)
    with pytest.raises(ValueError, match="config has no disturbance"):
        cfg._disturbed_task()


def test_baseline_always_slower_than_distributed_response():
    for i in range(500):
        trial = make_trial(40_000 + i, 0.5, 6)
        rec = standalone_record(trial, Framework.BASELINE_BROADCAST, alpha_mult=6)
        period = next(t.period for t in trial.tasks if t.id == trial.rhythmic_task)
        assert rec.drt_slots > period  # distributed handling starts at one period


def test_baseline_success_monotone_in_alpha():
    trial = make_trial(123, 0.5, 8)
    succ = []
    for mult in range(1, 7):
        rec = standalone_record(trial, Framework.BASELINE_BROADCAST, alpha_mult=mult)
        succ.append(rec.success)
    assert succ == sorted(succ)  # False before True


def test_degradation_rate_examples():
    # one fully dropped packet among two periodic packets
    decision = DropDecision(level="packet", dropped_packets=((1, 0),),
                            degradations=(((1, 0), 0.99),), total_degradation=0.99)
    assert degradation_rate(decision, 2) == pytest.approx(0.495)
    assert degradation_rate(DropDecision(level="packet"), 5) == 0.0
    # one surrendered retransmission among three packets
    decision = DropDecision(level="transmission", dropped_slots=((1, 0, 7),),
                            degradations=(((1, 0), 0.09),), total_degradation=0.09)
    assert degradation_rate(decision, 3) == pytest.approx(0.03)
    assert degradation_rate(None, 0) == 0.0


def test_pbs_mode_runs_and_delivers():
    bed = testbed(1.0)
    net, tasks = bed.network, bed.tasks
    cfg = SimConfig(network=net, tasks=tasks, mode=SchedulingMode.PBS, required_pdr=0.95,
                    seed=2, horizon=241)
    _, metrics = run(cfg)
    for stats in metrics.per_task.values():
        assert stats.delivered == stats.released


def test_pbs_retries_use_later_slots():
    # Under PBS a failed first try consumes the packet's next pooled slot.
    net = chain_network(1, 1, pdr=0.7)
    task = TaskSpec(id=0, path=("S1", "C", "A1"), period=20, deadline=20)
    cfg = SimConfig(network=net, tasks=(task,), mode=SchedulingMode.PBS, required_pdr=0.9,
                    seed=9, horizon=2000)
    _, metrics = run(cfg)
    stats = metrics.per_task[0]
    assert stats.released > 50
    assert stats.delivered / stats.released >= 0.9 - 0.05  # pooled retries reach the target


def test_empirical_delivery_tracks_reliability_math():
    # Lossy nominal run: per-task delivery ratio within binomial noise of the
    # closed-form per-packet delivery probability.
    from rtwnsim.model import packet_pdr
    from rtwnsim.static_schedule import plan_retry_vectors

    bed = testbed(0.9)
    net, tasks = bed.network, bed.tasks
    cfg = SimConfig(network=net, tasks=tasks, required_pdr=0.95, seed=4, horizon=6001)
    _, metrics = run(cfg)
    vectors = plan_retry_vectors(tasks, net, 0.95)
    for task in tasks:
        expected = packet_pdr(net.path_pdrs(task.path), vectors[task.id])
        stats = metrics.per_task[task.id]
        sigma = (expected * (1 - expected) / stats.released) ** 0.5
        assert stats.delivered / stats.released >= expected - 4 * sigma


def _swap_first_labels(sched) -> None:
    """Swap the hop labels of the first packet's first and last slots."""
    first = int(np.flatnonzero(sched.task_at >= 0)[0])
    slots = sched.packet_slots(int(sched.task_at[first]), int(sched.release_at[first]))
    sched.hop_at[[slots[0], slots[-1]]] = sched.hop_at[[slots[-1], slots[0]]]


def _move_first_slot(sched) -> None:
    """Hand the first packet's first slot to the task's next packet."""
    first = int(np.flatnonzero(sched.task_at >= 0)[0])
    task = next(t for t in testbed().tasks if t.id == sched.task_at[first])
    sched.release_at[first] += task.period


@pytest.mark.parametrize("corrupt, message", [
    (_swap_first_labels, "hop labels that decrease"),
    (_move_first_slot, "consecutive static slots"),
], ids=["decreasing-labels", "moved-slot"])
def test_walk_rejects_a_corrupted_static_schedule(corrupt, message, monkeypatch):
    # The packet-wise engine reads each packet's static slots as one block,
    # hop labels rising under TBS; a schedule that breaks either raises a
    # typed error, not an assert that python -O strips.
    real = sim_mod.build_static_schedule

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        corrupt(result.schedule)
        return result

    monkeypatch.setattr(sim_mod, "build_static_schedule", corrupted)
    bed = testbed()
    net, tasks = bed.network, bed.tasks
    with pytest.raises(PlanInvariantError, match=message):
        run(SimConfig(network=net, tasks=tasks, required_pdr=0.95, seed=3, horizon=300))


@pytest.mark.parametrize("framework", [Framework.FDPAS_PACKET, Framework.FDPAS_TRANSMISSION],
                         ids=lambda f: f.value)
@pytest.mark.parametrize("mode", list(SchedulingMode), ids=lambda m: m.value)
def test_loop_holds_only_the_packets_the_overlay_touches(mode, framework, monkeypatch):
    # The slot loop holds the rhythmic packets, both keys of the tail alias,
    # the packet-level drops and the packets with a static slot at an
    # overlay slot, and visits the overlay slots and those packets' static
    # slots; every other packet, in the window or not, is walked.
    splits = []
    real = sim_mod._split

    def recorded(config, sched, table, dynamic, alias):
        result = real(config, sched, table, dynamic, alias)
        splits.append((sched, table, dynamic, alias, result))
        return result

    monkeypatch.setattr(sim_mod, "_split", recorded)
    walked_in_window = 0
    for index in range(6):  # sweep trials 0-5 of base seed 1 at tick 50, the PBS panel's cell
        trial = make_trial(_trial_seed(1, 0.5, 8, 50, index), 0.5, 8)
        run(SimConfig(
            network=trial.network, tasks=trial.tasks, mode=mode, seed=index,
            disturbance=DisturbanceSpec(trial.rhythmic_task, trial.instance, trial.spec),
            framework=framework, mac=MacParams(timing=SlotTiming(priority_tick_us=50)),
        ))
    assert len(splits) == 6 and all(dynamic is not None for _, _, dynamic, _, _ in splits)
    for sched, table, dynamic, alias, split in splits:
        event = dynamic.event
        keys = {(event.task_id, entry.release) for entry in dynamic.sets.rhythmic}
        keys.update(dynamic.decision.dropped_packets)
        if alias is not None:
            keys.update((alias[0], alias[2]))
        overlay = dynamic.overlay_slots.tolist()
        keys.update((int(sched.task_at[s]), int(sched.release_at[s])) for s in overlay if sched.task_at[s] >= 0)
        static = np.flatnonzero(sched.task_at >= 0).tolist()
        static_key = {s: (int(sched.task_at[s]), int(sched.release_at[s])) for s in static}
        rows = [r for r, key in enumerate(zip(table.task.tolist(), table.release.tolist())) if key in keys]
        assert sorted(split.window_rows.tolist()) == rows
        assert split.loop_slots.tolist() == sorted({*overlay, *(s for s in static if static_key[s] in keys)})
        walked_in_window += len({static_key[s] for s in static if event.enter_slot <= s < dynamic.end_point
                                 and static_key[s] not in keys})
    assert walked_in_window > 0  # the rule walks periodic packets whose window slots meet no overlay slot
