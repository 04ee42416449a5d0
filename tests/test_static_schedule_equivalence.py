"""The segment-labelling static builder against a frozen copy of the per-slot
labeller it replaced, plus the one-build-per-trial sweep path and the
memoised retry allocation.

``reference_build`` below records every assigned slot of every packet and
writes the TBS hop labels one slot at a time after the EDF pass.  The library
builder records each EDF segment and, after the pass, decodes every slot
array from the runs of idle slots and segments with one ``np.repeat``; both
must produce the same ``task_at``/``release_at``/``hop_at`` bytes and the
same feasibility verdict, under TBS and PBS, over the sweep's default
horizons, over one hyperperiod and over short explicit horizons.  Since the
library's EDF segments run on through releases that cannot preempt them,
hand-made cases pin where a segment must still end (a release with a smaller
key, the job's deadline, the horizon) and how many heap pops it takes, and
where an idle run is empty (at slot 0, at the horizon) or the only one.
"""

import dataclasses
import heapq
import types

import pytest
from hypothesis import given, settings, strategies as st

from rtwnsim import experiments, sim, static_schedule
from rtwnsim.experiments import ExperimentSpec, make_trial, run_cell
from rtwnsim.sim import DisturbanceSpec, Framework, SimConfig, default_horizon
from rtwnsim.model import (
    InfeasibleError,
    ScheduleInfeasible,
    SchedulingMode,
    TaskSpec,
    allocate_retry_vector,
)
from rtwnsim.static_schedule import (
    StaticScheduleResult,
    build_static_schedule,
    hop_expansion,
    hyperperiod,
    plan_retry_vectors,
)

from support import chain_network, empty_schedule, standalone_record

REQUIRED_PDR = 0.99
BETA = 4
ONE_HYPERPERIOD_LIMIT = 500_000  # longest one-hyperperiod build the suite makes


def reference_build(tasks, network, mode, required_pdr, horizon):
    """Frozen copy of the builder that labelled hops slot by slot."""
    retry_vectors = plan_retry_vectors(tasks, network, required_pdr)

    jobs = []
    for task in tasks:
        demand = sum(retry_vectors[task.id])
        k = 0
        while task.release(k) < horizon:
            jobs.append([task.release(k), task.nominal_deadline(k), task.id, demand])
            k += 1
    jobs.sort(key=lambda j: (j[0], j[1], j[2]))

    sched = empty_schedule(mode, horizon)
    slots_of = {}
    missed = []
    heap = []
    i = t = 0
    n = len(jobs)
    while t < horizon:
        while i < n and jobs[i][0] <= t:
            heapq.heappush(heap, (jobs[i][1], jobs[i][2], jobs[i][0], i))
            i += 1
        if not heap:
            if i >= n:
                break
            t = min(jobs[i][0], horizon)
            continue
        deadline, task_id, release, idx = heapq.heappop(heap)
        remaining = jobs[idx][3]
        if deadline <= t:
            missed.append((deadline, task_id, release))
            continue
        limit = horizon
        if i < n:
            limit = min(limit, jobs[i][0])
        run = min(remaining, deadline - t, limit - t)
        sched.task_at[t : t + run] = task_id
        sched.release_at[t : t + run] = release
        slots_of.setdefault((task_id, release), []).extend(range(t, t + run))
        jobs[idx][3] = remaining - run
        t += run
        if jobs[idx][3] > 0:
            heapq.heappush(heap, (deadline, task_id, release, idx))
    for deadline, task_id, release, idx in heap:
        if jobs[idx][3] > 0:
            missed.append((deadline, task_id, release))
    while i < n:
        if jobs[i][1] <= horizon:
            missed.append((jobs[i][1], jobs[i][2], jobs[i][0]))
        i += 1

    if mode is SchedulingMode.TBS:
        for (task_id, release), slots in slots_of.items():
            for slot, hop in zip(slots, hop_expansion(retry_vectors[task_id], len(slots))):
                sched.hop_at[slot] = hop

    missed_in_window = sorted(m for m in missed if m[0] <= horizon)
    first_failure = (missed_in_window[0][1], missed_in_window[0][2]) if missed_in_window else None
    return StaticScheduleResult(
        schedule=sched,
        retry_vectors=retry_vectors,
        feasible=not missed_in_window,
        first_failure=first_failure,
    )


def _one_hyperperiod(tasks):
    """Slots from 0 through one hyperperiod past the latest phase."""
    return max(t.phase for t in tasks) + hyperperiod(tasks)


def _sweep_horizon(trial):
    """The horizon the sweep builds a trial's static schedule over."""
    return default_horizon(SimConfig(
        network=trial.network, tasks=trial.tasks, beta=BETA,
        disturbance=DisturbanceSpec(trial.rhythmic_task, trial.instance, trial.spec),
    ))


def _assert_same_build(tasks, network, mode, horizon, required_pdr=REQUIRED_PDR):
    expected = reference_build(tasks, network, mode, required_pdr, horizon)
    got = build_static_schedule(tasks, network, mode, required_pdr, horizon=horizon)
    for name in ("task_at", "release_at", "hop_at"):
        a, b = getattr(got.schedule, name), getattr(expected.schedule, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.schedule.horizon == expected.schedule.horizon
    assert got.feasible == expected.feasible
    assert got.first_failure == expected.first_failure
    assert got.retry_vectors == expected.retry_vectors


@pytest.mark.parametrize("mode", [SchedulingMode.TBS, SchedulingMode.PBS])
def test_sweep_trials_match_reference_at_trial_horizon(mode):
    for index in range(40):
        trial = make_trial(1_000 + index, 0.5, 8)
        _assert_same_build(trial.tasks, trial.network, mode, horizon=_sweep_horizon(trial))


@pytest.mark.parametrize("mode", [SchedulingMode.TBS, SchedulingMode.PBS])
def test_small_period_trials_match_reference_with_implicit_horizon(mode):
    # One whole hyperperiod past the latest phase, where that is desk-sized.
    built = 0
    for seed in range(60):
        trial = make_trial(500_000 + seed, 0.7, 3, gamma=0.5, in_depth=3, out_depth=3,
                           max_instance=4, max_period=60, hop_range=(2, 6))
        horizon = _one_hyperperiod(trial.tasks)
        if horizon <= ONE_HYPERPERIOD_LIMIT:
            _assert_same_build(trial.tasks, trial.network, mode, horizon=horizon)
            built += 1
    assert built >= 45  # most small-period task sets span a desk-sized hyperperiod


@st.composite
def _small_tasksets(draw):
    """One to four tasks on a 2+2 chain: short periods, constrained deadlines,
    phases and padded slot budgets, overloaded sets included."""
    network = chain_network(2, 2, pdr=draw(st.sampled_from([1.0, 0.9, 0.7])))
    paths = [("S2", "S1", "C", "A1"), ("S1", "C", "A1", "A2"), ("S1", "C", "A1")]
    tasks = []
    for tid in range(draw(st.integers(1, 4))):
        path = draw(st.sampled_from(paths))
        period = draw(st.integers(len(path) - 1, 24))
        tasks.append(TaskSpec(
            id=tid,
            path=path,
            period=period,
            deadline=draw(st.integers(len(path) - 1, period)),
            slot_budget=draw(st.one_of(st.none(), st.integers(len(path) + 3, len(path) + 8))),
            phase=draw(st.integers(0, 10)),
        ))
    horizon = draw(st.one_of(st.just(_one_hyperperiod(tasks)), st.integers(1, 200)))
    return network, tuple(tasks), horizon


@settings(max_examples=200, deadline=None)
@given(_small_tasksets(), st.sampled_from([SchedulingMode.TBS, SchedulingMode.PBS]))
def test_small_tasksets_match_reference(case, mode):
    network, tasks, horizon = case
    try:
        plan_retry_vectors(tasks, network, 0.95)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            build_static_schedule(tasks, network, mode, 0.95, horizon=horizon)
        return
    _assert_same_build(tasks, network, mode, horizon=horizon, required_pdr=0.95)


# ------------------------------------------------------------ EDF segment edges

_CHAIN = chain_network(2, 2, pdr=1.0)
_MODES = pytest.mark.parametrize("mode", [SchedulingMode.TBS, SchedulingMode.PBS], ids=lambda m: m.value)


def _task(tid, phase, period, deadline, budget, path=("S1", "C", "A1")):
    return TaskSpec(id=tid, path=path, period=period, deadline=deadline, slot_budget=budget, phase=phase)


def _owners(tasks, mode, horizon):
    """The task id of every slot, as the reference builds it, after checking
    that the library builds the same schedule."""
    _assert_same_build(tasks, _CHAIN, mode, horizon)
    return reference_build(tasks, _CHAIN, mode, REQUIRED_PDR, horizon).schedule.task_at.tolist()


def _pops(monkeypatch, tasks, mode, horizon):
    """Heap pops of one library build."""
    count = [0]

    def heappop(heap):
        count[0] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(static_schedule, "heapq", types.SimpleNamespace(heappush=heapq.heappush, heappop=heappop))
    build_static_schedule(tasks, _CHAIN, mode, REQUIRED_PDR, horizon=horizon)
    return count[0]


@_MODES
def test_a_release_with_the_same_deadline_and_a_lower_task_id_preempts(mode):
    # Task 1 runs from slot 0 toward its deadline 10; task 0, released at 2,
    # has the same deadline and a lower id, so its key is smaller.
    tasks = (_task(1, 0, 20, 10, 6), _task(0, 2, 20, 8, 3))
    assert _owners(tasks, mode, 20)[:10] == [1, 1, 0, 0, 0, 1, 1, 1, 1, -1]


@_MODES
def test_a_release_with_the_same_deadline_and_a_higher_task_id_waits(mode, monkeypatch):
    tasks = (_task(0, 0, 20, 10, 6), _task(1, 2, 20, 8, 3))
    assert _owners(tasks, mode, 20)[:10] == [0] * 6 + [1] * 3 + [-1]
    assert _pops(monkeypatch, tasks, mode, 20) == 2  # one segment per job


@_MODES
@pytest.mark.parametrize("deadline", [6, 30])
def test_a_release_exactly_at_the_segment_end(mode, deadline):
    # Task 0 needs slots 0..3 and task 1 is released at 4, whether or not
    # its key is smaller than task 0's.
    tasks = (_task(0, 0, 40, 20, 4), _task(1, 4, 40, deadline, 2))
    assert _owners(tasks, mode, 40)[:6] == [0] * 4 + [1] * 2


@_MODES
def test_deadlines_below_the_period_end_and_preempt_segments(mode, monkeypatch):
    # Task 0 (deadline 5 < period 12) preempts task 1 at each release;
    # task 2's releases (deadline 11 < period 12) wait.
    tasks = (_task(1, 0, 12, 12, 5), _task(0, 3, 12, 5, 3), _task(2, 1, 12, 11, 2, ("S2", "S1", "C")))
    assert _owners(tasks, mode, 24)[:12] == [1, 1, 1, 0, 0, 0, 1, 1, 2, 2, -1, -1]
    assert _pops(monkeypatch, tasks, mode, 24) == 8


@_MODES
def test_an_overloaded_job_stops_at_its_deadline(mode):
    # Task 0 cannot finish by 4; its segment ends there and it is missed,
    # and task 1's release at 2, with a larger key, waits until then.
    tasks = (_task(0, 0, 20, 4, 6), _task(1, 2, 20, 10, 3))
    assert _owners(tasks, mode, 20)[:8] == [0, 0, 0, 0, 1, 1, 1, -1]
    built = build_static_schedule(tasks, _CHAIN, mode, REQUIRED_PDR, horizon=20)
    assert not built.feasible and built.first_failure == (0, 0)


@_MODES
@pytest.mark.parametrize("horizon", [3, 5, 7])
def test_a_horizon_that_cuts_a_segment(mode, horizon):
    # The horizon falls inside task 0's segment, before or after task 1's
    # non-preempting release at 4.
    tasks = (_task(0, 0, 20, 20, 8), _task(1, 4, 20, 16, 2))
    assert _owners(tasks, mode, horizon) == [0] * horizon


@_MODES
@pytest.mark.parametrize("horizon", [1, 2, 4])
def test_a_horizon_before_every_phase_leaves_every_slot_idle(mode, horizon):
    # No job is released, so the EDF pass makes no segment and the one
    # idle run covers the horizon.
    tasks = (_task(0, 4, 20, 20, 3), _task(1, 6, 20, 10, 2))
    assert _owners(tasks, mode, horizon) == [-1] * horizon


@_MODES
def test_a_last_segment_that_ends_at_the_horizon(mode):
    # Task 1's segment [5, 8) ends at the horizon: the idle run after it is
    # empty, the one between the two segments is not.
    tasks = (_task(0, 0, 20, 20, 3), _task(1, 5, 20, 10, 3))
    assert _owners(tasks, mode, 8) == [0, 0, 0, -1, -1, 1, 1, 1]


@_MODES
def test_a_busy_slot_0_and_back_to_back_segments(mode):
    # Task 0 takes slot 0, so the leading idle run is empty, and task 1's
    # segment starts where task 0's ends.
    tasks = (_task(0, 0, 20, 5, 3), _task(1, 1, 20, 19, 4))
    assert _owners(tasks, mode, 12) == [0, 0, 0, 1, 1, 1, 1] + [-1] * 5


@_MODES
@pytest.mark.parametrize("phase", [0, 1])
def test_a_horizon_of_one_slot(mode, phase):
    tasks = (_task(0, phase, 20, 20, 3),)
    assert _owners(tasks, mode, 1) == [0 if phase == 0 else -1]


@st.composite
def _tied_tasksets(draw):
    """Two to five tasks on one period with few distinct deadlines, phases
    and budgets, and ids in any order: many releases tie with the running
    job on deadline, and many fall inside its segment."""
    period = draw(st.sampled_from([6, 8, 12]))
    ids = draw(st.permutations(range(draw(st.integers(2, 5)))))
    tasks = tuple(
        _task(tid, draw(st.integers(0, 3)), period, draw(st.sampled_from([period, period - 2, 4])),
              draw(st.integers(2, 5)))
        for tid in ids
    )
    horizon = draw(st.one_of(st.just(_one_hyperperiod(tasks)), st.integers(1, 60)))
    return tasks, horizon


@settings(max_examples=200, deadline=None)
@given(_tied_tasksets(), st.sampled_from([SchedulingMode.TBS, SchedulingMode.PBS]))
def test_tied_tasksets_match_reference(case, mode):
    tasks, horizon = case
    _assert_same_build(tasks, _CHAIN, mode, horizon=horizon)


# ------------------------------------------------------------ one build per trial

SPEC = ExperimentSpec(utils=(0.5,), r_steps=(8,), alphas=(1, 3), trials=6, base_seed=11)


def test_run_cell_builds_each_trial_schedule_once(monkeypatch):
    calls = []
    original = sim.build_static_schedule

    def counting(*args, **kwargs):
        calls.append(kwargs["horizon"])
        return original(*args, **kwargs)

    monkeypatch.setattr(sim, "build_static_schedule", counting)
    records = run_cell(SPEC, 0.5, 8, 60)
    assert len(calls) == SPEC.trials
    assert len(records) == SPEC.trials * len(SPEC.frameworks) * len(SPEC.alphas)
    seeds = list(dict.fromkeys(r.seed for r in records))  # trial order
    for seed, horizon in zip(seeds, calls):
        trial = make_trial(seed, 0.5, 8, gamma=SPEC.gamma, required_pdr=SPEC.required_pdr)
        assert horizon == _sweep_horizon(trial), seed


def test_run_cell_matches_standalone_evaluations():
    records = run_cell(SPEC, 0.5, 8, 60)
    by_key = {(r.framework, r.seed, r.alpha_mult): r for r in records}
    seeds = sorted({r.seed for r in records})
    assert len(seeds) == SPEC.trials
    for seed in seeds:
        trial = make_trial(seed, 0.5, 8, gamma=SPEC.gamma, required_pdr=SPEC.required_pdr)
        for framework in SPEC.frameworks:
            for mult in SPEC.alphas:
                alone = standalone_record(trial, framework, alpha_mult=mult, beta=SPEC.beta,
                                          required_pdr=SPEC.required_pdr, tick=60)
                assert by_key[(framework.value, seed, mult)] == alone


def test_plan_raises_on_an_infeasible_static_schedule():
    trial = make_trial(3, 0.5, 8)
    host = next(t for t in trial.tasks if t.id != trial.rhythmic_task)
    hog = TaskSpec(id=max(t.id for t in trial.tasks) + 1, path=host.path,
                   period=host.hops, deadline=host.hops)
    overloaded = dataclasses.replace(trial, tasks=trial.tasks + (hog,))
    with pytest.raises(ScheduleInfeasible, match=r"misses packet \(task, release\)"):
        standalone_record(overloaded, Framework.FDPAS_PACKET)


def test_run_cell_names_the_trial_seed_of_an_infeasible_static_schedule(monkeypatch):
    def overloaded_trial(seed, *args, **kwargs):
        trial = make_trial(seed, *args, **kwargs)
        host = next(t for t in trial.tasks if t.id != trial.rhythmic_task)
        hog = TaskSpec(id=max(t.id for t in trial.tasks) + 1, path=host.path,
                       period=host.hops, deadline=host.hops)
        return dataclasses.replace(trial, tasks=trial.tasks + (hog,))

    monkeypatch.setattr(experiments, "make_trial", overloaded_trial)
    with pytest.raises(ScheduleInfeasible,
                       match=r"^trial seed \d+: static schedule misses packet \(task, release\)"):
        run_cell(SPEC, 0.5, 8, 60)


# ------------------------------------------------------------ memoised retry vectors

def test_allocate_retry_vector_memo_accepts_lists_and_tuples():
    pdrs = [0.91, 0.95, 0.97]
    first = allocate_retry_vector(pdrs, 0.99)
    assert isinstance(first, tuple)
    assert allocate_retry_vector(tuple(pdrs), 0.99) == first
    pdrs[0] = 0.5  # mutating the caller's list must not disturb the cached entry
    assert allocate_retry_vector([0.91, 0.95, 0.97], 0.99) == first
    assert allocate_retry_vector(pdrs, 0.99) != first


def test_allocate_retry_vector_memo_still_raises_every_time():
    for _ in range(3):
        with pytest.raises(InfeasibleError):
            allocate_retry_vector([0.9, 0.9], 1.0)
        with pytest.raises(ValueError):
            allocate_retry_vector([0.9, 1.5], 0.9)
