"""Domain types and end-to-end reliability math for slot-scheduled wireless networks.

Everything in the package counts time in integer slot indices (one slot is the
TDMA unit, 10 ms on typical hardware).  All types here are immutable value
objects; generators are pure functions of an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np


class InfeasibleError(RuntimeError):
    """A timing or reliability requirement cannot be met."""


class ScheduleInfeasible(InfeasibleError):
    """No static schedule satisfies the task set's demands."""


class CandidateInfeasible(InfeasibleError):
    """One end-point candidate cannot host the rhythmic workload."""


class DisturbanceInfeasible(InfeasibleError):
    """No end-point candidate admits a feasible dynamic schedule."""


class SchedulingMode(str, Enum):
    """Slot allocation semantics.

    TBS pins every slot to one (packet, hop, trial) transmission.  PBS pins a
    slot to a packet only; each node on the packet's route decides at runtime
    whether to transmit, receive or stay idle based on packet possession.
    """

    TBS = "TBS"
    PBS = "PBS"


@dataclass(frozen=True)
class Link:
    """Directed wireless link with a measured packet delivery ratio."""

    src: str
    dst: str
    pdr: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.pdr <= 1.0):
            raise ValueError(f"link {self.src}->{self.dst}: pdr must be in (0, 1], got {self.pdr}")
        if self.src == self.dst:
            raise ValueError(f"link endpoints must differ, got {self.src}->{self.src}")


@dataclass(frozen=True)
class NetworkModel:
    """Directed node/link graph.  ``nodes`` includes the controller."""

    nodes: tuple[str, ...]
    controller: str
    links: tuple[Link, ...]

    def __post_init__(self) -> None:
        nodes = self._node_set
        if len(nodes) != len(self.nodes):
            raise ValueError("duplicate node identifiers")
        if self.controller not in nodes:
            raise ValueError(f"controller {self.controller!r} is not a declared node")
        seen: set[tuple[str, str]] = set()
        for link in self.links:
            if link.src not in nodes or link.dst not in nodes:
                raise ValueError(f"link {link.src}->{link.dst} references undeclared nodes")
            if (link.src, link.dst) in seen:
                raise ValueError(f"duplicate link {link.src}->{link.dst}")
            seen.add((link.src, link.dst))

    @cached_property
    def _node_set(self) -> frozenset[str]:
        return frozenset(self.nodes)

    @cached_property
    def _pdr_map(self) -> dict[tuple[str, str], float]:
        return {(l.src, l.dst): l.pdr for l in self.links}

    @cached_property
    def _topology(self) -> _Topology:
        return _shared_topology(self.nodes, self.controller, tuple(sorted(self._pdr_map)))

    def has_link(self, src: str, dst: str) -> bool:
        return (src, dst) in self._pdr_map

    def path_pdrs(self, path: Sequence[str]) -> list[float]:
        pdrs = self._pdr_map
        try:
            return [pdrs[link] for link in zip(path, path[1:])]
        except KeyError as exc:
            raise KeyError("no link {}->{} in network".format(*exc.args[0])) from None

    def broadcast_depth(self) -> int:
        """Worst-case hop distance from the controller, ignoring link direction.

        Used as the default flood depth of the centralized baseline model.
        """
        hops = self._topology.controller_hops
        if len(hops) < len(self.nodes):
            cut = ", ".join(n for n in self.nodes if n not in hops)
            raise ValueError(f"network is not connected: {cut} cut off from controller {self.controller}")
        return max(hops.values())


class _Topology:
    """What a network's nodes, controller and link endpoints decide, shared
    through ``_shared_topology`` by every network with the same ones: the
    adjacency lists in sorted (src, dst) link order, the controller's
    undirected hop distances, sensors by hop distance to the controller and
    actuators by distance from it, each hop count's (sensor depth, actuator
    depth) splits, hop counts ascending, and the routes drawn so far."""

    def __init__(self, nodes: tuple[str, ...], controller: str, endpoints: tuple[tuple[str, str], ...]) -> None:
        succ: dict[str, list[str]] = {n: [] for n in nodes}
        pred: dict[str, list[str]] = {n: [] for n in nodes}
        for src, dst in endpoints:
            succ[src].append(dst)
            pred[dst].append(src)
        self.succ, self.pred, self.controller = succ, pred, controller
        self.controller_hops = _bfs_lengths({n: succ[n] + pred[n] for n in nodes}, controller)
        self.sensors = _by_depth(_bfs_lengths(pred, controller))
        self.actuators = _by_depth(_bfs_lengths(succ, controller))
        splits: dict[int, list[tuple[int, int]]] = {}
        for a in sorted(self.sensors):
            for b in sorted(self.actuators):
                splits.setdefault(a + b, []).append((a, b))
        self.splits = dict(sorted(splits.items()))
        self._legs: dict[tuple[str, str], list[str]] = {}
        self._routes: dict[tuple[str, str], tuple[tuple[str, ...], bool]] = {}

    def route(self, sensor: str, actuator: str) -> tuple[tuple[str, ...], bool]:
        """The route from ``sensor`` through the controller to ``actuator``,
        two shortest paths joined, and whether it visits each node once.  A
        route depends on the topology alone, so callers that search one at
        once store equal values."""
        found = self._routes.get((sensor, actuator))
        if found is None:
            path = tuple(self._leg(sensor, self.controller) + self._leg(self.controller, actuator)[1:])
            found = self._routes[(sensor, actuator)] = (path, len(set(path)) == len(path))
        return found

    def _leg(self, source: str, target: str) -> list[str]:
        leg = self._legs.get((source, target))
        if leg is None:
            leg = self._legs[(source, target)] = _shortest_path(self, source, target)
        return leg


@lru_cache(maxsize=64)
def _shared_topology(nodes: tuple[str, ...], controller: str, endpoints: tuple[tuple[str, str], ...]) -> _Topology:
    """The topology of every network with these nodes, controller and sorted
    link endpoints; bounded, so a run over many topologies keeps few tables."""
    return _Topology(nodes, controller, endpoints)


def _by_depth(lengths: dict[str, int]) -> dict[int, list[str]]:
    """Nodes other than the BFS source grouped by their distance, names ascending in each group."""
    groups: dict[int, list[str]] = {}
    for node, dist in sorted(lengths.items()):
        if dist >= 1:
            groups.setdefault(dist, []).append(node)
    return groups


def _shortest_path(topology: _Topology, source: str, target: str) -> list[str]:
    """A shortest directed path from ``source`` to ``target``.

    Bidirectional BFS in the visiting order of networkx's
    ``bidirectional_shortest_path``, so that ties resolve to the same path:
    the forward side expands a level when its fringe is not longer than
    the reverse side's, neighbours come in sorted link order, and the search
    stops at the first node both sides have reached.
    """
    succ, pred = topology.succ, topology.pred
    if source not in succ or target not in succ:
        raise ValueError(f"no node {source if source not in succ else target!r} in network")
    forward: dict[str, Optional[str]] = {source: None}  # node -> its predecessor toward source
    backward: dict[str, Optional[str]] = {target: None}  # node -> its successor toward target
    meet = source if source == target else None
    forward_fringe, backward_fringe = [source], [target]
    while meet is None and forward_fringe and backward_fringe:
        if len(forward_fringe) <= len(backward_fringe):
            level, forward_fringe = forward_fringe, []
            meet = _expand_level(level, succ, forward, backward, forward_fringe)
        else:
            level, backward_fringe = backward_fringe, []
            meet = _expand_level(level, pred, backward, forward, backward_fringe)
    if meet is None:
        raise ValueError(f"no path from {source} to {target}")
    path = []
    node: Optional[str] = meet
    while node is not None:
        path.append(node)
        node = forward[node]
    path.reverse()
    node = backward[meet]
    while node is not None:
        path.append(node)
        node = backward[node]
    return path


def _bfs_lengths(adjacency: dict[str, list[str]], source: str) -> dict[str, int]:
    """Hop distance from ``source`` to each node it reaches over ``adjacency``."""
    lengths = {source: 0}
    queue = [source]
    for node in queue:  # the queue grows while it is read
        depth = lengths[node] + 1
        for nxt in adjacency[node]:
            if nxt not in lengths:
                lengths[nxt] = depth
                queue.append(nxt)
    return lengths


def _expand_level(
    level: list[str],
    adjacency: dict[str, list[str]],
    seen: dict[str, Optional[str]],
    other: dict[str, Optional[str]],
    fringe: list[str],
) -> Optional[str]:
    """One level of a bidirectional BFS: records each new node's parent in
    ``seen`` and appends it to ``fringe``; returns the first neighbour the
    other side has reached, or None."""
    for node in level:
        for nxt in adjacency[node]:
            if nxt not in seen:
                seen[nxt] = node
                fringe.append(nxt)
            if nxt in other:
                return nxt
    return None


@dataclass(frozen=True)
class RhythmicSpec:
    """Period/deadline ramp a task follows while reacting to a disturbance."""

    periods: tuple[int, ...]
    deadlines: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.periods) < 1 or len(self.periods) != len(self.deadlines):
            raise ValueError("periods and deadlines must have equal length >= 1")
        for p, d in zip(self.periods, self.deadlines):
            if p < 1 or d < 1 or d > p:
                raise ValueError(f"each step needs 1 <= deadline <= period, got ({p}, {d})")
        if any(b < a for a, b in zip(self.periods, self.periods[1:])):
            raise ValueError("periods must be monotonically non-decreasing")

    @property
    def total(self) -> int:
        """Length of the rhythmic state: sum of all stepped periods."""
        return int(sum(self.periods))


@dataclass(frozen=True)
class TaskSpec:
    """Unicast end-to-end task: sensor -> (relays) -> controller -> (relays) -> actuator."""

    id: int
    path: tuple[str, ...]
    period: int
    deadline: int
    rhythmic: Optional[RhythmicSpec] = None
    slot_budget: Optional[int] = None  # assigned slots per packet; None = reliability minimum
    phase: int = 0  # slot of the first release

    def __post_init__(self) -> None:
        if not 0 <= self.id <= 2**31 - 1:  # a schedule's int32 task column; -1 marks an idle slot
            raise ValueError(f"task {self.id}: id must lie in 0..{2**31 - 1}")
        if len(self.path) < 3:
            raise ValueError(f"task {self.id}: path needs >= 2 hops (>= 3 nodes)")
        if len(set(self.path)) != len(self.path):
            raise ValueError(f"task {self.id}: path revisits a node")
        if self.period < 1 or not (1 <= self.deadline <= self.period):
            raise ValueError(f"task {self.id}: need 1 <= deadline <= period")
        if self.phase < 0:
            raise ValueError(f"task {self.id}: phase must be >= 0")
        if self.slot_budget is not None and self.slot_budget < self.hops:
            raise ValueError(f"task {self.id}: slot budget below hop count")

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    def release(self, k: int) -> int:
        return self.phase + k * self.period

    def nominal_deadline(self, k: int) -> int:
        return self.release(k) + self.deadline

    def hop_link(self, hop: int) -> tuple[str, str]:
        """Sender/receiver pair of 1-based hop ``hop``."""
        return self.path[hop - 1], self.path[hop]

    def validate_against(self, network: NetworkModel) -> None:
        nodes = network._node_set
        for node in self.path:
            if node not in nodes:
                raise ValueError(f"task {self.id}: path node {node!r} not in network")
        if network.controller not in self.path:
            raise ValueError(f"task {self.id}: path does not pass through the controller")
        for a, b in zip(self.path, self.path[1:]):
            if not network.has_link(a, b):
                raise ValueError(f"task {self.id}: no link {a}->{b}")


@dataclass(frozen=True)
class ReliabilityTarget:
    """Required end-to-end delivery ratio shared by all tasks."""

    required_pdr: float

    def __post_init__(self) -> None:
        if not (0.0 < self.required_pdr < 1.0):
            raise ValueError(f"required pdr must be in (0, 1), got {self.required_pdr}")


def packet_pdr(link_pdrs: Sequence[float], retry_vector: Sequence[int]) -> float:
    """End-to-end delivery probability of a packet under per-hop retry budgets.

    Hop h succeeds with probability 1 - (1 - pdr_h)^trials_h; the packet is
    delivered iff every hop succeeds.  A hop with zero trials contributes
    factor 0.
    """
    if len(link_pdrs) != len(retry_vector) or len(link_pdrs) == 0:
        raise ValueError("link pdr list and retry vector must have equal length >= 1")
    result = 1.0
    for pdr, trials in zip(link_pdrs, retry_vector):
        if not (0.0 < pdr <= 1.0):
            raise ValueError(f"link pdr must be in (0, 1], got {pdr}")
        if trials < 0:
            raise ValueError("trial counts must be >= 0")
        result *= 1.0 - (1.0 - pdr) ** trials
    return result


def packet_pdr_flexible(link_pdrs: Sequence[float], total_slots: int) -> float:
    """Delivery probability when ``total_slots`` generic trials serve the hops in order.

    Models PBS slot semantics: each slot attempts the packet's next pending
    hop, so early successes leave more trials for later hops.  Computed by
    forward dynamic programming over (slots used, hops completed), on plain
    float lists: scalar indexing into numpy arrays costs more than the
    arithmetic itself.

    The answer for s slots is step s of one recurrence, so each path keeps a
    prefix table: the DP state after the longest count asked so far and every
    answer up to it.  A larger count extends the same recurrence in the same
    operation order; a smaller one is a list index.  Answers are therefore the
    same floats as a fresh DP, rounding included.  Tables are memoised per
    path PDR tuple in an ``lru_cache`` bounded at 1024 paths, like
    ``allocate_retry_vector``; invalid arguments raise before the lookup, so
    errors are not cached.
    """
    if len(link_pdrs) == 0:
        raise ValueError("need at least one hop")
    if total_slots < 0:
        raise ValueError("slot count must be >= 0")
    pdrs = tuple(link_pdrs)
    table = _flexible_table(pdrs)
    state, answers = table[0]
    if total_slots >= len(answers):
        hops = len(pdrs)
        answers = answers[:]
        for _ in range(len(answers), total_slots + 1):
            nxt = state[:]
            for h in range(hops):
                moved = state[h] * pdrs[h]
                nxt[h] -= moved
                nxt[h + 1] += moved
            state = nxt
            answers.append(float(state[hops]))
        # One store of a new pair: a concurrent caller reads either the old
        # or the extended table, never a state that disagrees with answers.
        table[0] = (state, answers)
    return answers[total_slots]


@lru_cache(maxsize=1024)
def _flexible_table(link_pdrs: tuple[float, ...]) -> list:
    """Prefix table of one path, as the one-item list ``[(state, answers)]``:
    ``answers[s]`` is the delivery probability over s slots and ``state`` the
    DP state vector after ``len(answers) - 1`` slots.  ``packet_pdr_flexible``
    replaces the pair when it extends the table."""
    return [([1.0] + [0.0] * len(link_pdrs), [0.0])]


def pdr_degradation(required: float, achieved: float) -> float:
    """Reliability shortfall of one packet: max(0, required - achieved).

    A fully dropped packet (achieved 0) degrades by the whole requirement.
    """
    if not (0.0 <= required <= 1.0 and 0.0 <= achieved <= 1.0):
        raise ValueError("pdr values must lie in [0, 1]")
    return max(0.0, required - achieved)


def allocate_retry_vector(link_pdrs: Sequence[float], required_pdr: float) -> tuple[int, ...]:
    """Minimal-total per-hop trial budget reaching the required end-to-end PDR.

    Grows the all-ones vector one trial at a time, always on the hop with the
    largest log-reliability gain (ties to the earliest hop).  The per-hop gain
    is concave in the trial count, so this greedy walk visits a best-possible
    vector for every total and the first total that meets the target is
    minimal.  Results are memoised per (link pdrs, requirement), since task
    generation, trial drawing and planning ask again for the same paths;
    errors are not cached, so an unreachable requirement raises every time.
    """
    return _allocate_retry_vector(tuple(link_pdrs), required_pdr)


@lru_cache(maxsize=1024)
def _allocate_retry_vector(link_pdrs: tuple[float, ...], required_pdr: float) -> tuple[int, ...]:
    hops = len(link_pdrs)
    if hops == 0:
        raise ValueError("need at least one hop")
    for pdr in link_pdrs:
        if not (0.0 < pdr <= 1.0):
            raise ValueError(f"link pdr must be in (0, 1], got {pdr}")
    if required_pdr >= 1.0:
        raise InfeasibleError("required pdr >= 1 is unreachable over lossy links")
    if required_pdr < 0.0:
        raise ValueError("required pdr must be >= 0")

    trials = [1] * hops
    for _ in range(100_000):
        if packet_pdr(link_pdrs, trials) >= required_pdr:
            return tuple(trials)
        best_hop = None
        best_gain = 0.0
        for h in range(hops):
            q = 1.0 - link_pdrs[h]
            cur = 1.0 - q ** trials[h]
            new = 1.0 - q ** (trials[h] + 1)
            gain = new / cur if cur > 0.0 else math.inf
            if best_hop is None or gain > best_gain:
                best_hop, best_gain = h, gain
        trials[best_hop] += 1
    raise InfeasibleError("retry allocation did not converge")


def generate_rhythmic_spec(
    nominal_period: int, ratio: float, steps: int, min_period: int = 1
) -> RhythmicSpec:
    """Stepped period ramp from ``ratio * nominal_period`` back toward nominal.

    Step k (1-based) has period floor(P * (ratio + (k-1) * (1-ratio)/steps));
    deadlines equal periods.  ``min_period`` guards the shortest step against
    the per-packet slot demand.
    """
    if not (0.0 < ratio < 1.0):
        raise ValueError("ratio must be in (0, 1)")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    # Exact integer arithmetic on the ratio's decimal value n/d: binary float
    # rounding of ratio arithmetic can push a value that is mathematically an
    # integer just below it, flipping floor.  Step k's period is
    # floor(P * (n*steps + (k-1)*(d-n)) / (d*steps)).
    n, d = _decimal_ratio(ratio)
    # The periods never decrease, so the first one, floor(P * n / d), is
    # checked before the rest are built.
    first = nominal_period * n // d
    if first < min_period:
        raise InfeasibleError(
            f"rhythmic period ramp starts at {first}, below the minimum feasible period {min_period}"
        )
    periods = [
        nominal_period * (n * steps + (k - 1) * (d - n)) // (d * steps) for k in range(1, steps + 1)
    ]
    return RhythmicSpec(periods=tuple(periods), deadlines=tuple(periods))


@lru_cache(maxsize=256)
def _decimal_ratio(ratio: float) -> tuple[int, int]:
    """Numerator and denominator of the decimal value ``str(ratio)`` names."""
    return Fraction(str(ratio)).as_integer_ratio()


@lru_cache(maxsize=64)
def _chain_layout(in_depth: int, out_depth: int, controller: str) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Nodes and link endpoints, in link order, of two relay chains joined
    at the controller.

    Sensor-side nodes S1..S<in_depth> forward toward the controller; actuator
    nodes A1..A<out_depth> fan out from it.  A sensor at depth a and an
    actuator at depth b give an (a+b)-hop route, so hop counts 2..in+out are
    all realizable.
    """
    if in_depth < 1 or out_depth < 1:
        raise ValueError("chain depths must be >= 1")
    s_nodes = tuple(f"S{i}" for i in range(1, in_depth + 1))
    a_nodes = tuple(f"A{i}" for i in range(1, out_depth + 1))
    endpoints = [("S1", controller)]
    endpoints += [(f"S{i + 1}", f"S{i}") for i in range(1, in_depth)]
    endpoints += [(controller, "A1")]
    endpoints += [(f"A{i}", f"A{i + 1}") for i in range(1, out_depth)]
    return s_nodes + (controller,) + a_nodes, tuple(endpoints)


# The interval a random chain network draws each link's delivery ratio from.
CHAIN_PDR_RANGE = (0.9, 0.999)


def random_chain_network(seed: int, in_depth: int = 8, out_depth: int = 8) -> NetworkModel:
    """Chain network with per-link delivery ratios drawn uniformly from
    ``CHAIN_PDR_RANGE``, one draw per link in ``_chain_layout``'s link order."""
    nodes, endpoints = _chain_layout(in_depth, out_depth, "C")
    pdrs = np.random.default_rng(seed).uniform(*CHAIN_PDR_RANGE, size=len(endpoints)).tolist()
    return NetworkModel(nodes=nodes, controller="C", links=tuple(Link(s, d, p) for (s, d), p in zip(endpoints, pdrs)))


def generate_taskset(
    seed: int,
    target_utilization: float,
    network: NetworkModel,
    required_pdr: float = 0.99,
    hop_range: tuple[int, int] = (2, 16),
    max_period: int = 500,
) -> list[TaskSpec]:
    """Random periodic task set reaching a target nominal utilization.

    Tasks are appended until the accumulated utilization (slot budget divided
    by period, which accounts for retransmission slots) first meets or exceeds
    the target.  Hop counts are uniform over ``hop_range`` truncated to the
    path lengths the network offers; periods are uniform over {H..max_period}
    with deadline equal to period.  Candidate tasks whose path revisits a
    node, whose budget does not fit their period, or that would push total
    utilization past 1 (breaking EDF feasibility on the shared channel) are
    redrawn.  Pure function of (seed, target, network).
    """
    if not (0.0 <= target_utilization <= 1.0):
        raise ValueError("target utilization must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    topology = network._topology
    sensors, actuators = topology.sensors, topology.actuators
    lo, hi = hop_range
    available = [h for h in topology.splits if lo <= h <= hi]
    if not available:
        raise InfeasibleError("network too small to host any sensor-to-actuator path")

    tasks: list[TaskSpec] = []
    util = 0.0
    attempts = 0
    simple = False  # whether any drawn path visited each node once
    while util < target_utilization - 1e-12:
        attempts += 1
        if attempts > 20_000:
            if not simple:
                raise InfeasibleError(
                    "task generation found no simple sensor-to-actuator path: "
                    "every route it drew revisits a node"
                )
            raise InfeasibleError("task generation failed to reach the target utilization")
        h = int(available[rng.integers(len(available))])
        splits = topology.splits[h]
        a, b = splits[rng.integers(len(splits))]
        sensor = sensors[a][rng.integers(len(sensors[a]))]
        actuator = actuators[b][rng.integers(len(actuators[b]))]
        path, simple_route = topology.route(sensor, actuator)
        period = int(rng.integers(h, max_period + 1))
        if not simple_route:
            continue  # the routes to and from the controller share a node
        simple = True
        budget = sum(allocate_retry_vector(network.path_pdrs(path), required_pdr))
        if budget > period:
            continue  # cannot host the reliable budget inside one period
        if util + budget / period > 1.0 + 1e-12:
            continue  # would break single-channel EDF feasibility
        tasks.append(
            TaskSpec(id=len(tasks), path=path, period=period, deadline=period)
        )
        util += budget / period
    return tasks
