"""Randomized experiment harness: seeded trials, per-run records and sweeps.

Success-ratio and degradation-rate aggregates are schedule-level quantities
(they depend on response timing and the drop decision, not on radio draws),
so sweep evaluation builds schedules and plans without running the slot
engine.  Every trial is a pure function of its seed.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import (
    DisturbanceInfeasible,
    InfeasibleError,
    NetworkModel,
    RhythmicSpec,
    ScheduleInfeasible,
    SchedulingMode,
    TaskSpec,
    allocate_retry_vector,
    generate_rhythmic_spec,
    generate_taskset,
    random_chain_network,
)
from .rhythmic import DisturbanceEvent, end_point_upper_bound
from .static_schedule import StaticScheduleResult, build_static_schedule
from .dropping import generate_dynamic_schedule
from .sim import (
    BaselineParams,
    DisturbanceSpec,
    Framework,
    MacParams,
    SimConfig,
    baseline_drt,
    degradation_rate,
    periodic_packets_in_window,
)
from . import mac as mac_model

__all__ = [
    "Trial",
    "RunRecord",
    "ExperimentSpec",
    "make_trial",
    "trial_horizon",
    "evaluate_trial",
    "run_cell",
    "run_sweep",
    "aggregate",
    "RECORD_COLUMNS",
    "AGGREGATE_COLUMNS",
    "record_row",
]

# Fixed CSV contracts; bump the version when a column changes meaning.
CSV_SCHEMA_VERSION = 1

RECORD_COLUMNS = (
    "framework",
    "seed",
    "util",
    "r_steps",
    "alpha",
    "drt",
    "dhl",
    "success",
    "dr",
    "dropped_packets",
    "dropped_transmissions",
)

AGGREGATE_COLUMNS = ("framework", "util", "r_steps", "alpha", "tick", "trials", "sr", "mean_dr")


@dataclass(frozen=True)
class Trial:
    """One generated experiment instance."""

    seed: int
    util: float
    r_steps: int
    network: NetworkModel
    tasks: tuple[TaskSpec, ...]
    rhythmic_task: int
    instance: int
    spec: RhythmicSpec
    budget: int  # per-packet slot demand of the disturbed task


@dataclass(frozen=True)
class RunRecord:
    framework: str
    seed: int
    util: float
    r_steps: int
    alpha_slots: int
    drt_slots: int
    dhl_slots: int
    success: bool
    feasible_dynamic: bool
    dr: float
    dropped_packets: int
    dropped_transmissions: int
    tick: int = 60
    alpha_mult: int = 1  # latency bound in nominal periods; the sweep grid key


def record_row(r: RunRecord) -> list[str]:
    """Fixed-precision CSV row so repeated runs diff cleanly."""
    return [
        r.framework,
        str(r.seed),
        f"{r.util:.3f}",
        str(r.r_steps),
        str(r.alpha_slots),
        str(r.drt_slots),
        str(r.dhl_slots),
        "1" if r.success else "0",
        f"{r.dr:.6f}",
        str(r.dropped_packets),
        str(r.dropped_transmissions),
    ]


def make_trial(
    seed: int,
    util: float,
    r_steps: int,
    gamma: float = 0.2,
    required_pdr: float = 0.99,
    in_depth: int = 8,
    out_depth: int = 8,
    pdr_range: tuple[float, float] = (0.9, 0.999),
    max_instance: int = 20,
    max_period: int = 500,
    hop_range: tuple[int, int] = (2, 16),
    lossless: bool = False,
) -> Trial:
    """Generate a network, a task set and an admissible disturbance.

    The disturbed task is drawn uniformly among the tasks whose stepped
    periods can host its per-packet slot demand and whose post-state grid
    realignment gap leaves room for one more packet; the detection instance is
    uniform over {1..max_instance}.  When no task qualifies the whole trial is
    redrawn from the next derived sub-seed, keeping the result a pure function
    of the arguments.
    """
    for attempt in range(64):
        rng = np.random.default_rng([seed, attempt, 0xE1])
        if lossless:
            pdrs = (1.0, 1.0)
        else:
            pdrs = pdr_range
        network = random_chain_network(
            int(rng.integers(2**31)), in_depth, out_depth, pdr_range=pdrs
        )
        tasks = generate_taskset(
            int(rng.integers(2**31)), util, network, required_pdr,
            hop_range=hop_range, max_period=max_period,
        )
        eligible: list[tuple[TaskSpec, RhythmicSpec, int]] = []
        for task in tasks:
            budget = sum(allocate_retry_vector(network.path_pdrs(task.path), required_pdr))
            try:
                spec = generate_rhythmic_spec(task.period, gamma, r_steps, min_period=budget)
            except InfeasibleError:
                continue
            # Gap between the state exit and the next grid release: the packet
            # released at the exit must fit its demand before realignment.
            rem = spec.total % task.period
            gap = task.period - rem if rem else task.period
            if gap < budget:
                continue
            eligible.append((task, spec, budget))
        if not eligible:
            continue
        task, spec, budget = eligible[int(rng.integers(len(eligible)))]
        instance = int(rng.integers(1, max_instance + 1))
        return Trial(
            seed=seed,
            util=util,
            r_steps=r_steps,
            network=network,
            tasks=tuple(tasks),
            rhythmic_task=task.id,
            instance=instance,
            spec=spec,
            budget=budget,
        )
    raise InfeasibleError(f"no admissible disturbance found for seed {seed}")


def _disturbed(trial: Trial) -> tuple[TaskSpec, DisturbanceEvent]:
    task = next(t for t in trial.tasks if t.id == trial.rhythmic_task)
    return task, DisturbanceEvent.from_task(task, trial.instance, trial.spec)


def trial_horizon(trial: Trial, beta: int) -> int:
    """Slots a trial's static schedule covers: the disturbance's latest end
    point plus two of the longest periods of slack."""
    _, event = _disturbed(trial)
    return end_point_upper_bound(event, beta) + 2 * max(t.period for t in trial.tasks) + 1


def _trial_schedule(trial: Trial, beta: int, required_pdr: float) -> StaticScheduleResult:
    """The trial's TBS static schedule over ``trial_horizon``; every framework
    evaluated on the trial plans against this one table."""
    static = build_static_schedule(
        trial.tasks, trial.network, SchedulingMode.TBS, required_pdr,
        horizon=trial_horizon(trial, beta),
    )
    if not static.feasible:
        raise ScheduleInfeasible(
            f"trial seed {trial.seed}: static schedule misses packet (task, release) "
            f"{static.first_failure}"
        )
    return static


def evaluate_trial(
    trial: Trial,
    framework: Framework,
    alpha_mult: int = 1,
    beta: int = 4,
    required_pdr: float = 0.99,
    solver: str = "greedy",
    tick: int = 60,
    static: Optional[StaticScheduleResult] = None,
) -> RunRecord:
    """Schedule-level evaluation of one (trial, framework) pair at one latency
    bound.  Returns the record at alpha = alpha_mult nominal periods.

    ``static`` is the trial's schedule as ``run_cell`` builds it once for all
    frameworks (same beta and required pdr); without it the schedule is
    built here.  Raises ScheduleInfeasible when the task set misses a
    deadline in its static schedule.
    """
    task, event = _disturbed(trial)
    period = task.period
    alpha = alpha_mult * period
    if static is None:
        static = _trial_schedule(trial, beta, required_pdr)
    horizon = static.schedule.horizon

    common = dict(
        seed=trial.seed,
        util=trial.util,
        r_steps=trial.r_steps,
        alpha_slots=alpha,
        alpha_mult=alpha_mult,
        tick=tick,
    )
    if framework is Framework.BASELINE_BROADCAST:
        config = SimConfig(
            network=trial.network,
            tasks=trial.tasks,
            required_pdr=required_pdr,
            horizon=horizon,
            disturbance=DisturbanceSpec(task.id, trial.instance, trial.spec),
            alpha=alpha,
            beta=beta,
            framework=framework,
        )
        drt = baseline_drt(config, static)
        return RunRecord(
            framework=framework.value,
            drt_slots=drt,
            dhl_slots=0,
            success=drt <= alpha,
            feasible_dynamic=True,
            dr=0.0,
            dropped_packets=0,
            dropped_transmissions=0,
            **common,
        )

    level = "packet" if framework is Framework.FDPAS_PACKET else "transmission"
    try:
        plan = generate_dynamic_schedule(
            event,
            static.schedule,
            trial.tasks,
            trial.network,
            required_pdr,
            beta=beta,
            level=level,
            solver=solver,
        )
    except DisturbanceInfeasible:
        return RunRecord(
            framework=framework.value,
            drt_slots=period,
            dhl_slots=0,
            success=False,
            feasible_dynamic=False,
            dr=0.0,
            dropped_packets=0,
            dropped_transmissions=0,
            **common,
        )
    periodic = periodic_packets_in_window(
        static.schedule, trial.tasks, task.id, event.enter_slot, plan.end_point
    )
    return RunRecord(
        framework=framework.value,
        drt_slots=period,  # handling starts at the next release, one period on
        dhl_slots=plan.end_point - event.enter_slot,
        success=period <= alpha,
        feasible_dynamic=True,
        dr=degradation_rate(plan.decision, len(periodic)),
        dropped_packets=plan.decision.packet_count,
        dropped_transmissions=plan.decision.slot_count,
        **common,
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """Sweep grid: cartesian product of the axes, ``trials`` runs per point.

    Alpha multipliers reuse the same trials per (util, r, tick) cell, so a
    latency sweep compares thresholds on identical instances.
    """

    utils: tuple[float, ...] = (0.5,)
    r_steps: tuple[int, ...] = (8,)
    alphas: tuple[int, ...] = (1,)
    ticks: tuple[int, ...] = (60,)
    trials: int = 100
    base_seed: int = 0
    frameworks: tuple[Framework, ...] = (
        Framework.FDPAS_PACKET,
        Framework.FDPAS_TRANSMISSION,
        Framework.BASELINE_BROADCAST,
    )
    gamma: float = 0.2
    required_pdr: float = 0.99
    beta: int = 4
    solver: str = "greedy"

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for axis in (self.utils, self.r_steps, self.alphas, self.ticks, self.frameworks):
            if not axis:
                raise ValueError("sweep axes must be non-empty")

    def cells(self) -> list[tuple[float, int, int]]:
        return list(itertools.product(self.utils, self.r_steps, self.ticks))


def _trial_seed(base_seed: int, util: float, r_steps: int, tick: int, index: int) -> int:
    ss = np.random.SeedSequence([base_seed, int(round(util * 1000)), r_steps, tick, index])
    return int(ss.generate_state(1)[0])


def run_cell(spec: ExperimentSpec, util: float, r_steps: int, tick: int) -> list[RunRecord]:
    """All records of one (util, r, tick) cell: trials evaluated once per
    framework, then expanded across the alpha axis."""
    records: list[RunRecord] = []
    for index in range(spec.trials):
        seed = _trial_seed(spec.base_seed, util, r_steps, tick, index)
        trial = make_trial(
            seed, util, r_steps, gamma=spec.gamma, required_pdr=spec.required_pdr
        )
        static = _trial_schedule(trial, spec.beta, spec.required_pdr)
        for framework in spec.frameworks:
            base = evaluate_trial(
                trial,
                framework,
                alpha_mult=spec.alphas[0],
                beta=spec.beta,
                required_pdr=spec.required_pdr,
                solver=spec.solver,
                tick=tick,
                static=static,
            )
            period = next(t.period for t in trial.tasks if t.id == trial.rhythmic_task)
            for mult in spec.alphas:
                alpha = mult * period
                records.append(
                    RunRecord(
                        framework=base.framework,
                        seed=base.seed,
                        util=base.util,
                        r_steps=base.r_steps,
                        alpha_slots=alpha,
                        drt_slots=base.drt_slots,
                        dhl_slots=base.dhl_slots,
                        success=base.feasible_dynamic and base.drt_slots <= alpha,
                        feasible_dynamic=base.feasible_dynamic,
                        dr=base.dr,
                        dropped_packets=base.dropped_packets,
                        dropped_transmissions=base.dropped_transmissions,
                        tick=tick,
                        alpha_mult=mult,
                    )
                )
    return records


def _run_cell_star(args) -> list[RunRecord]:
    return run_cell(*args)


def run_sweep(spec: ExperimentSpec, parallel: int = 1) -> list[RunRecord]:
    """Execute the whole grid; cell dispatch may be parallel, output order is
    canonical either way."""
    cells = spec.cells()
    if parallel > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            chunks = list(pool.map(_run_cell_star, [(spec, *cell) for cell in cells]))
    else:
        chunks = [run_cell(spec, *cell) for cell in cells]
    records = [r for chunk in chunks for r in chunk]
    records.sort(
        key=lambda r: (r.framework, r.util, r.r_steps, r.tick, r.alpha_mult, r.seed)
    )
    return records


def aggregate(records: Sequence[RunRecord]) -> list[tuple]:
    """(framework, util, r, alpha multiplier, tick) -> success ratio and mean
    degradation rate.  Aggregation is order-independent."""
    groups: dict[tuple, list[RunRecord]] = {}
    for r in records:
        groups.setdefault((r.framework, r.util, r.r_steps, r.alpha_mult, r.tick), []).append(r)
    rows = []
    for key in sorted(groups):
        runs = groups[key]
        sr = sum(1 for r in runs if r.success) / len(runs)
        mean_dr = sum(r.dr for r in runs) / len(runs)
        rows.append((*key, len(runs), sr, mean_dr))
    return rows
