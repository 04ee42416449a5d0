"""Exhaustive references for the dropping heuristics.

The paper argues that dropping is NP-hard by embedding set cover into it,
and it bounds the two greedy heuristics by the exhaustive optimum.  Neither
is part of the framework, which plans with the heuristics alone, so both live
here, next to the tests that hold the heuristics to them.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from rtwnsim.dropping import (
    DemandVector,
    DropDecision,
    PeriodicPacketState,
    PlanInvariantError,
    TransmissionVector,
)
from rtwnsim.model import CandidateInfeasible, pdr_degradation

ORACLE_PACKET_LIMIT = 20
ORACLE_SLOT_LIMIT = 22
ORACLE_COMBO_LIMIT = 2_000_000


def optimal_drop_oracle(
    demand: DemandVector,
    vectors: Optional[Sequence[TransmissionVector]] = None,
    level: str = "packet",
    state: Optional[Sequence[PeriodicPacketState]] = None,
    required_pdr: float = 0.99,
) -> DropDecision:
    """Exhaustive-enumeration optimum for desk-sized instances.

    Packet level: smallest packet subset whose raw replaceable counts cover
    the residual demand.  Transmission level: over all ways of picking exactly
    the residual number of in-window slots per rhythmic packet, the selection
    with the smallest total reliability degradation.
    """
    residual = list(demand.residual)
    if all(v == 0 for v in residual):
        return DropDecision(level=level)

    if level == "packet":
        if vectors is None:
            raise ValueError("packet-level oracle needs transmission vectors")
        if len(vectors) > ORACLE_PACKET_LIMIT:
            raise ValueError(f"instance too large for the oracle (> {ORACLE_PACKET_LIMIT} packets)")
        ordered = sorted(vectors, key=lambda v: (v.packet[1], v.packet[0]))
        for size in range(1, len(ordered) + 1):
            for combo in itertools.combinations(ordered, size):
                if all(
                    sum(v.replaceable[i] for v in combo) >= residual[i]
                    for i in range(len(residual))
                ):
                    keys = tuple(v.packet for v in combo)
                    return DropDecision(
                        level="packet",
                        dropped_packets=keys,
                        degradations=tuple((k, required_pdr) for k in keys),
                        total_degradation=required_pdr * len(keys),
                    )
        raise CandidateInfeasible("no packet subset covers the demand")

    if state is None:
        raise ValueError("transmission-level oracle needs periodic packet state")
    candidates: list[list[tuple[int, int]]] = [[] for _ in residual]  # (packet idx, ordinal)
    total_slots = 0
    for idx, packet in enumerate(state):
        for ordinal, slot in enumerate(packet.slots):
            w = packet.window_of.get(slot)
            if w is not None and residual[w] > 0:
                candidates[w].append((idx, ordinal))
                total_slots += 1
    if total_slots > ORACLE_SLOT_LIMIT:
        raise ValueError(f"instance too large for the oracle (> {ORACLE_SLOT_LIMIT} slots)")

    combos = 1
    per_window: list[list[tuple[tuple[int, int], ...]]] = []
    for w, need in enumerate(residual):
        if need == 0:
            per_window.append([()])
            continue
        if len(candidates[w]) < need:
            raise CandidateInfeasible("a rhythmic packet's window lacks droppable slots")
        options = list(itertools.combinations(candidates[w], need))
        combos *= len(options)
        if combos > ORACLE_COMBO_LIMIT:
            raise ValueError("instance too large for the oracle (combination blow-up)")
        per_window.append(options)

    best_cost = None
    best_selection: Optional[tuple[tuple[int, int], ...]] = None
    best_costs: dict[int, float] = {}  # packet idx -> its degradation under the best selection
    for parts in itertools.product(*per_window):
        selection = tuple(itertools.chain.from_iterable(parts))
        removed: dict[int, list[int]] = {}
        for idx, ordinal in selection:
            removed.setdefault(idx, []).append(ordinal)
        costs: dict[int, float] = {}
        cost = 0.0
        for idx, ordinals in removed.items():
            packet = state[idx]
            keep = [o for o in range(len(packet.slots)) if o not in set(ordinals)]
            probe = PeriodicPacketState(
                packet.packet,
                packet.path_pdrs,
                [packet.slots[o] for o in keep],
                [packet.hops[o] for o in keep],
                {},
            )
            costs[idx] = pdr_degradation(required_pdr, probe.delivery_pdr())
            cost += costs[idx]
        if best_cost is None or cost < best_cost - 1e-15:
            best_cost, best_selection, best_costs = cost, selection, costs

    if best_selection is None:
        raise PlanInvariantError("the transmission oracle enumerated no selection")
    dropped = [
        (state[idx].packet[0], state[idx].packet[1], state[idx].slots[ordinal])
        for idx, ordinal in best_selection
    ]
    by_release = sorted(best_costs, key=lambda idx: (state[idx].packet[1], state[idx].packet[0]))
    return DropDecision(
        level="transmission",
        dropped_slots=tuple(sorted(dropped, key=lambda d: d[2])),
        degradations=tuple((state[idx].packet, best_costs[idx]) for idx in by_release),
        total_degradation=float(best_cost),
    )


def from_set_cover(
    universe: int, collection: Sequence[Sequence[int]]
) -> tuple[DemandVector, list[TransmissionVector]]:
    """Embed a set-cover instance into packet-level dropping.

    Element i becomes a rhythmic packet demanding one slot; subset j becomes a
    periodic packet whose vector has a 1 wherever it contains the element.
    The minimum drop count then equals the minimum cover size, which is what
    makes the dropping problem NP-hard.
    """
    if universe < 1:
        raise ValueError("universe must have at least one element")
    union: set[int] = set()
    vectors = []
    for j, subset in enumerate(collection):
        members = set(subset)
        if not members:
            raise ValueError(f"subset {j} is empty")
        if any(not (0 <= x < universe) for x in members):
            raise ValueError(f"subset {j} contains elements outside the universe")
        union |= members
        vectors.append(
            TransmissionVector(
                packet=(j + 1, 0),
                replaceable=tuple(1 if i in members else 0 for i in range(universe)),
            )
        )
    if union != set(range(universe)):
        raise ValueError("subsets do not cover the universe")
    demand = DemandVector(required=tuple([1] * universe), available=tuple([0] * universe))
    return demand, vectors
