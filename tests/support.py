"""Small helpers the tests share, none of which a command needs.

``empty_schedule`` is an all-idle slot table that a test fills by hand.
``trace_text`` decodes the bytes ``SimTrace.write`` writes.  ``active_sets``
builds one candidate's active sets over a schedule span of its own, and
``sets_outcome`` reads a builder's result or typed error as one value.
``dynamic_plan`` plans one dropping level alone from the six planning
inputs.  ``standalone_record`` is the sweep's record of one
(trial, framework) pair planned alone, through ``sim.plan``, the reference a
sweep cell's shared plans are held to.
"""

from __future__ import annotations

import io

import numpy as np

from rtwnsim.dropping import DynamicPlan, generate_dynamic_schedule
from rtwnsim.experiments import RunRecord, Trial, _record
from rtwnsim.model import CandidateInfeasible, SchedulingMode
from rtwnsim.rhythmic import ActivePacketSets, ScheduleSpan, build_active_sets
from rtwnsim.sim import DisturbanceSpec, Framework, SimConfig, plan
from rtwnsim.static_schedule import Schedule
from rtwnsim.trace import SimTrace


def empty_schedule(mode: SchedulingMode, horizon: int) -> Schedule:
    """A schedule over [0, horizon) with every slot idle."""
    return Schedule(
        mode,
        horizon,
        np.full(horizon, -1, dtype=np.int32),
        np.full(horizon, -1, dtype=np.int64),
        np.zeros(horizon, dtype=np.int16),
    )


def trace_text(trace: SimTrace) -> str:
    """The v1 text of ``trace``, as ``SimTrace.write`` writes it."""
    out = io.BytesIO()
    trace.write(out)
    return out.getvalue().decode("utf-8", "surrogatepass")


def active_sets(candidate, event, static, tasks, full_demand) -> ActivePacketSets:
    """``build_active_sets`` of ``candidate`` over the span of ``static``
    and ``tasks`` that latency bound 4 gives ``event``."""
    return build_active_sets(candidate, event, ScheduleSpan(event, static, tasks, 4), full_demand)


def sets_outcome(build):
    """``("ok", build())``, or ``("raised", type, message)`` for the
    CandidateInfeasible or ValueError it raised."""
    try:
        return ("ok", build())
    except (CandidateInfeasible, ValueError) as exc:
        return ("raised", type(exc), str(exc))


def dynamic_plan(event, static, tasks, network, required_pdr, beta=4, level="packet") -> DynamicPlan:
    """The plan ``generate_dynamic_schedule`` makes at ``level`` alone."""
    (plan,) = generate_dynamic_schedule(event, static, tasks, network, required_pdr, beta, (level,))
    return plan


def standalone_record(trial: Trial, framework: Framework, alpha_mult: int = 1, beta: int = 4,
                      required_pdr: float = 0.99, tick: int = 60) -> RunRecord:
    """The record ``run_cell`` writes for ``trial`` under ``framework`` at
    alpha = ``alpha_mult`` nominal periods, from a plan made alone."""
    config = SimConfig(
        network=trial.network, tasks=trial.tasks, required_pdr=required_pdr, beta=beta,
        disturbance=DisturbanceSpec(trial.rhythmic_task, trial.instance, trial.spec), framework=framework,
    )
    return _record(trial, framework, plan(config), alpha_mult, tick)
