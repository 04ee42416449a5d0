"""The adjacency-list BFS of ``NetworkModel`` against networkx.

The library searches its own successor and predecessor lists; networkx is
imported here only as the reference.  ``shortest_path`` must pick the same
path as ``nx.shortest_path`` when several shortest paths tie, so that
``generate_taskset`` draws the same tasks as the networkx-based generator it
replaced (``reference_generate_taskset`` below is a frozen copy of it).
"""

import re

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rtwnsim.model import (
    InfeasibleError,
    Link,
    NetworkModel,
    TaskSpec,
    allocate_retry_vector,
    generate_taskset,
)

LABELS = ("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l")


def reference_graph(network: NetworkModel) -> nx.DiGraph:
    """The directed graph the networkx-based generator searched."""
    g = nx.DiGraph()
    g.add_nodes_from(network.nodes)
    g.add_edges_from(sorted((l.src, l.dst) for l in network.links))
    return g


def reference_route_depths(network: NetworkModel):
    g = reference_graph(network)
    to_ctrl = dict(nx.single_source_shortest_path_length(g.reverse(copy=False), network.controller))
    from_ctrl = dict(nx.single_source_shortest_path_length(g, network.controller))
    sensors: dict[int, list[str]] = {}
    actuators: dict[int, list[str]] = {}
    for node, dist in sorted(to_ctrl.items()):
        if node != network.controller and dist >= 1:
            sensors.setdefault(dist, []).append(node)
    for node, dist in sorted(from_ctrl.items()):
        if node != network.controller and dist >= 1:
            actuators.setdefault(dist, []).append(node)
    return sensors, actuators


def reference_generate_taskset(seed, target_utilization, network, required_pdr=0.99,
                               hop_range=(2, 16), max_period=500):
    """Frozen copy of the networkx-based ``generate_taskset``."""
    if not (0.0 <= target_utilization <= 1.0):
        raise ValueError("target utilization must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    sensors, actuators = reference_route_depths(network)
    lo, hi = hop_range
    available = sorted(
        h
        for h in {a + b for a in sensors for b in actuators}
        if lo <= h <= hi
    )
    if not available:
        raise InfeasibleError("network too small to host any sensor-to-actuator path")

    g = reference_graph(network)
    tasks: list[TaskSpec] = []
    util = 0.0
    attempts = 0
    while util < target_utilization - 1e-12:
        attempts += 1
        if attempts > 20_000:
            raise InfeasibleError("task generation failed to reach the target utilization")
        h = int(available[rng.integers(len(available))])
        splits = [(a, b) for a in sorted(sensors) for b in sorted(actuators) if a + b == h]
        a, b = splits[rng.integers(len(splits))]
        sensor = sensors[a][rng.integers(len(sensors[a]))]
        actuator = actuators[b][rng.integers(len(actuators[b]))]
        inbound = nx.shortest_path(g, sensor, network.controller)
        outbound = nx.shortest_path(g, network.controller, actuator)
        path = tuple(inbound + outbound[1:])
        period = int(rng.integers(h, max_period + 1))
        budget = sum(allocate_retry_vector(network.path_pdrs(path), required_pdr))
        if budget > period:
            continue
        if util + budget / period > 1.0 + 1e-12:
            continue
        tasks.append(
            TaskSpec(id=len(tasks), path=path, period=period, deadline=period)
        )
        util += budget / period
    return tasks


def has_tie(g: nx.DiGraph) -> bool:
    """Whether some ordered pair has more than one shortest path."""
    for source in g:
        for target in nx.single_source_shortest_path_length(g, source):
            if target != source and len(list(nx.all_shortest_paths(g, source, target))) > 1:
                return True
    return False


@st.composite
def tied_digraphs(draw):
    """A directed network around a diamond x -> {y, z} -> w, plus random extra
    links; labels are shuffled so that link order differs from structure."""
    n = draw(st.integers(4, 8))
    names = draw(st.permutations(LABELS))[:n]
    x, y, z, w = names[:4]
    pairs = {(x, y), (x, z), (y, w), (z, w)}
    others = [(u, v) for u in names for v in names if u != v and (u, v) not in pairs]
    pairs |= set(draw(st.lists(st.sampled_from(others), max_size=2 * n, unique=True)))
    links = tuple(Link(u, v) for u, v in draw(st.permutations(sorted(pairs))))
    controller = draw(st.sampled_from(names))
    return NetworkModel(nodes=tuple(names), controller=controller, links=links)


@settings(max_examples=150, deadline=None)
@given(tied_digraphs())
def test_bfs_matches_networkx(network):
    g = reference_graph(network)
    assume(has_tie(g))
    for source in network.nodes:
        lengths = network.hop_distances(source)
        assert lengths == nx.single_source_shortest_path_length(g, source)
        assert network.hop_distances(source, reverse=True) == nx.single_source_shortest_path_length(
            g.reverse(copy=False), source
        )
        for target in network.nodes:
            if target in lengths:
                assert network.shortest_path(source, target) == nx.shortest_path(g, source, target)
            else:
                with pytest.raises(ValueError, match="no path"):
                    network.shortest_path(source, target)
    und = nx.single_source_shortest_path_length(g.to_undirected(), network.controller)
    if len(und) == len(network.nodes):
        assert network.broadcast_depth() == max(und.values())
    else:
        with pytest.raises(ValueError, match="network is not connected"):
            network.broadcast_depth()


@st.composite
def tied_route_networks(draw):
    """Sensor layers feeding the controller and actuator layers fed by it,
    each node linked to one or more nodes of the next layer, so that routes
    of equal length tie; node names are shuffled across layers."""
    in_layers = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    out_layers = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    count = sum(in_layers) + sum(out_layers)
    names = iter(draw(st.permutations([f"n{i}" for i in range(count)])))
    sensors = [[next(names) for _ in range(k)] for k in in_layers]
    actuators = [[next(names) for _ in range(k)] for k in out_layers]
    pdr = st.floats(0.8, 1.0)
    links = []

    def join(upper, lower):  # each node of ``upper`` sends to a subset of ``lower``
        for u in upper:
            for v in draw(st.lists(st.sampled_from(lower), min_size=1, unique=True)):
                links.append(Link(u, v, draw(pdr)))

    for upper, lower in zip(sensors[1:], sensors):
        join(upper, lower)
    join(sensors[0], ["C"])
    join(["C"], actuators[0])
    for upper, lower in zip(actuators, actuators[1:]):
        join(upper, lower)
    nodes = tuple(n for layer in sensors + [["C"]] + actuators for n in layer)
    return NetworkModel(nodes=nodes, controller="C", links=tuple(links))


@settings(max_examples=60, deadline=None)
@given(tied_route_networks(), st.integers(0, 2**31 - 1), st.sampled_from([0.2, 0.5, 0.8]))
def test_generate_taskset_matches_networkx_generator(network, seed, util):
    try:
        expected = reference_generate_taskset(seed, util, network, required_pdr=0.9)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError, match=re.escape(str(exc))):
            generate_taskset(seed, util, network, required_pdr=0.9)
        return
    assert generate_taskset(seed, util, network, required_pdr=0.9) == expected


def test_generate_taskset_on_fixed_tied_network_matches_networkx_generator():
    # Two ways from each sensor to the controller and from it to each far
    # actuator; link order puts the later-named relay first on purpose.
    links = [("s3", "s2b"), ("s3", "s2a"), ("s2a", "s1"), ("s2b", "s1"), ("s2a", "s1b"),
             ("s2b", "s1b"), ("s1", "C"), ("s1b", "C"), ("C", "a1z"), ("C", "a1y"),
             ("a1y", "a2"), ("a1z", "a2"), ("a2", "a3")]
    nodes = ("s3", "s2a", "s2b", "s1", "s1b", "C", "a1y", "a1z", "a2", "a3")
    network = NetworkModel(nodes=nodes, controller="C", links=tuple(Link(u, v, 0.9) for u, v in links))
    g = reference_graph(network)
    assert len(list(nx.all_shortest_paths(g, "s3", "C"))) == 4
    for seed in range(20):
        assert generate_taskset(seed, 0.6, network) == reference_generate_taskset(seed, 0.6, network)
