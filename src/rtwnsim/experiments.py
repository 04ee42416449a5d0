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
from typing import Sequence

import numpy as np

from .model import (
    InfeasibleError,
    NetworkModel,
    ReliabilityTarget,
    RhythmicSpec,
    ScheduleInfeasible,
    TaskSpec,
    allocate_retry_vector,
    generate_rhythmic_spec,
    generate_taskset,
    random_chain_network,
)
from .sim import MAX_HORIZON, DisturbanceSpec, Framework, Plan, SimConfig, plan_frameworks

__all__ = [
    "Trial",
    "RunRecord",
    "ExperimentSpec",
    "make_trial",
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
    max_instance: int = 20,
    max_period: int = 500,
    hop_range: tuple[int, int] = (2, 16),
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
        network = random_chain_network(int(rng.integers(2**31)), in_depth, out_depth)
        tasks = generate_taskset(
            int(rng.integers(2**31)), util, network, required_pdr,
            hop_range=hop_range, max_period=max_period,
        )
        eligible: list[tuple[TaskSpec, RhythmicSpec]] = []
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
            eligible.append((task, spec))
        if not eligible:
            continue
        task, spec = eligible[int(rng.integers(len(eligible)))]
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
        )
    raise InfeasibleError(f"no admissible disturbance found for seed {seed}")


def _record(trial: Trial, framework: Framework, planned: Plan, alpha_mult: int, tick: int) -> RunRecord:
    """The record of one planned (trial, framework) pair at alpha = alpha_mult
    nominal periods."""
    alpha = alpha_mult * planned.event.nominal_period
    decision = planned.decision
    return RunRecord(
        framework=framework.value,
        seed=trial.seed,
        util=trial.util,
        r_steps=trial.r_steps,
        alpha_slots=alpha,
        drt_slots=planned.drt,
        dhl_slots=planned.dhl,
        success=planned.meets(alpha),
        dr=planned.dr,
        dropped_packets=decision.packet_count if decision else 0,
        dropped_transmissions=decision.slot_count if decision else 0,
        tick=tick,
        alpha_mult=alpha_mult,
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

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        for axis in (self.utils, self.r_steps, self.alphas, self.ticks, self.frameworks):
            if not axis:
                raise ValueError("sweep axes must be non-empty")
        if min(self.alphas) < 1:
            raise ValueError("alphas must be >= 1 (latency bounds in nominal periods)")
        if not all(0 <= u <= 1 for u in self.utils):
            raise ValueError("utils must lie in [0, 1]")
        if min(self.r_steps) < 1:
            raise ValueError("r_steps must be >= 1")
        # A trial's ramp periods are at least its task's slot budget, which is
        # at least the task's 2 hops, so no plan could hold a longer ramp.
        if max(self.r_steps) > MAX_HORIZON // 2:
            raise ValueError(f"r_steps {max(self.r_steps)} exceeds {MAX_HORIZON // 2}, half the "
                             f"{MAX_HORIZON}-slot horizon cap; a ramp lasts at least 2 slots per step")
        if not 0 < self.gamma < 1:
            raise ValueError("gamma must lie in (0, 1)")
        ReliabilityTarget(self.required_pdr)
        if min(self.ticks) < 0:
            raise ValueError("ticks must be >= 0")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")
        if self.beta < 1:
            raise ValueError("beta must be >= 1")
        # A repeated value would plan its cells twice and count their records
        # twice.  Utils compare to 0.001, their seed key and CSV precision.
        for name, axis in (("utils", [round(u * 1000) for u in self.utils]), ("r_steps", self.r_steps),
                           ("alphas", self.alphas), ("ticks", self.ticks), ("frameworks", self.frameworks)):
            if len(set(axis)) < len(axis):
                raise ValueError(f"{name} must not repeat a value")

    def cells(self) -> list[tuple[float, int, int]]:
        return list(itertools.product(self.utils, self.r_steps, self.ticks))


def _trial_seed(base_seed: int, util: float, r_steps: int, tick: int, index: int) -> int:
    ss = np.random.SeedSequence([base_seed, int(round(util * 1000)), r_steps, tick, index])
    return int(ss.generate_state(1)[0])


def run_cell(spec: ExperimentSpec, util: float, r_steps: int, tick: int) -> list[RunRecord]:
    """All records of one (util, r, tick) cell: each trial planned once per
    framework, by one ``plan_frameworks`` call, and each plan recorded at
    every bound of the alpha axis."""
    records: list[RunRecord] = []
    for index in range(spec.trials):
        seed = _trial_seed(spec.base_seed, util, r_steps, tick, index)
        trial = make_trial(
            seed, util, r_steps, gamma=spec.gamma, required_pdr=spec.required_pdr
        )
        config = SimConfig(  # TBS over the default horizon
            network=trial.network, tasks=trial.tasks, required_pdr=spec.required_pdr, beta=spec.beta,
            disturbance=DisturbanceSpec(trial.rhythmic_task, trial.instance, trial.spec),
        )
        try:
            plans = plan_frameworks(config, spec.frameworks)
        except ScheduleInfeasible as exc:
            raise ScheduleInfeasible(f"trial seed {seed}: {exc}") from exc
        for framework, planned in zip(spec.frameworks, plans):
            records.extend(_record(trial, framework, planned, mult, tick) for mult in spec.alphas)
    return records


def run_sweep(spec: ExperimentSpec, parallel: int = 1) -> list[RunRecord]:
    """Execute the whole grid; cells go to at most ``parallel`` worker
    processes, never more than there are cells, and the output order is
    canonical either way."""
    cells = spec.cells()
    workers = min(parallel, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run_cell, itertools.repeat(spec), *zip(*cells)))
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
