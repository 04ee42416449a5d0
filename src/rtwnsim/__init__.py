"""rtwnsim: slot-scheduled real-time wireless networks with distributed
disturbance handling.

Modules:
    model            domain types, end-to-end reliability math, generators
    static_schedule  EDF slot assignment with retransmission budgets
    rhythmic         disturbance windows, end-point candidates, active sets
    dropping         packet/transmission dropping heuristics, dynamic schedules
    mac              priority-offset MAC arbitration model
    sim              disturbance planning, slot-driven simulator, metrics
    trace            v1 trace records as columns: text renderer, flat records
    experiments      seeded trial generation and sweep aggregation
    config           YAML scenario/experiment files
    cli              generate / simulate / sweep commands
"""

from .model import (
    CandidateInfeasible,
    DisturbanceInfeasible,
    InfeasibleError,
    Link,
    NetworkModel,
    ReliabilityTarget,
    RhythmicSpec,
    ScheduleInfeasible,
    SchedulingMode,
    TaskSpec,
    allocate_retry_vector,
    generate_rhythmic_spec,
    generate_taskset,
    packet_pdr,
    packet_pdr_flexible,
    pdr_degradation,
    random_chain_network,
)
from .static_schedule import (
    Schedule,
    ScheduleVerdict,
    StaticScheduleResult,
    build_static_schedule,
    verify_schedulable,
)
from .rhythmic import (
    ActivePacketSets,
    DisturbanceEvent,
    RhythmicDemand,
    ScheduleSpan,
    build_active_sets,
    end_point_candidates,
    find_idle_slot,
)
from .dropping import (
    DropDecision,
    DynamicPlan,
    PlanInvariantError,
    build_transmission_vectors,
    drop_transmissions,
    generate_dynamic_schedule,
    greedy_drop_packets,
)
from .mac import (
    SlotTiming,
    TxOutcome,
    arbitrate_slot,
    preemption_error_rate,
    priority_levels,
)
from .sim import (
    EVENT_FIELDS,
    BaselineParams,
    DisturbanceSpec,
    Framework,
    HorizonTooShort,
    MacParams,
    Metrics,
    Plan,
    SimConfig,
    SimTrace,
    baseline_drt,
    degradation_rate,
    plan,
    plan_frameworks,
    run,
)

__version__ = "0.1.0"
