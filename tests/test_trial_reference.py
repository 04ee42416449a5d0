"""Trial generation against a frozen copy of the generator that searched
every drawn route afresh.

``make_trial`` draws from route tables that every network with the same
topology shares.  The reference below builds each chain network link by link,
one scalar PDR draw per link, parses the rhythmic ratio on every call and
draws task sets with ``reference_generate_taskset``, the networkx-based
generator.  Trials and networks must be equal; the shared tables must never
answer for a different topology.
"""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtwnsim.experiments import Trial, _trial_seed, make_trial
from rtwnsim.model import (
    CHAIN_PDR_RANGE,
    InfeasibleError,
    Link,
    NetworkModel,
    RhythmicSpec,
    TaskSpec,
    _shared_topology,
    allocate_retry_vector,
    generate_taskset,
    random_chain_network,
)

from support import chain_network
from test_bfs_equivalence import reference_generate_taskset


def reference_random_chain_network(seed, in_depth=8, out_depth=8):
    """Frozen copy of the chain generator: one scalar uniform per link of a
    pdr=1.0 ``chain_network``."""
    rng = np.random.default_rng(seed)
    base = chain_network(in_depth, out_depth, pdr=1.0)
    links = tuple(Link(l.src, l.dst, float(rng.uniform(*CHAIN_PDR_RANGE))) for l in base.links)
    return NetworkModel(nodes=base.nodes, controller=base.controller, links=links)


def reference_generate_rhythmic_spec(nominal_period, ratio, steps, min_period=1):
    """Frozen copy of the ramp builder, parsing the ratio's decimal value on each call."""
    n, d = Fraction(str(ratio)).as_integer_ratio()
    first = nominal_period * n // d
    if first < min_period:
        raise InfeasibleError(
            f"rhythmic period ramp starts at {first}, below the minimum feasible period {min_period}"
        )
    periods = [
        nominal_period * (n * steps + (k - 1) * (d - n)) // (d * steps) for k in range(1, steps + 1)
    ]
    return RhythmicSpec(periods=tuple(periods), deadlines=tuple(periods))


def reference_make_trial(seed, util, r_steps, gamma=0.2, required_pdr=0.99, in_depth=8, out_depth=8,
                         max_instance=20, max_period=500, hop_range=(2, 16)):
    """Frozen copy of ``make_trial`` over the reference generators."""
    for attempt in range(64):
        rng = np.random.default_rng([seed, attempt, 0xE1])
        network = reference_random_chain_network(int(rng.integers(2**31)), in_depth, out_depth)
        tasks = reference_generate_taskset(
            int(rng.integers(2**31)), util, network, required_pdr, hop_range=hop_range, max_period=max_period,
        )
        pdr = {(l.src, l.dst): l.pdr for l in network.links}
        eligible: list[tuple[TaskSpec, RhythmicSpec]] = []
        for task in tasks:
            budget = sum(allocate_retry_vector([pdr[hop] for hop in zip(task.path, task.path[1:])], required_pdr))
            try:
                spec = reference_generate_rhythmic_spec(task.period, gamma, r_steps, min_period=budget)
            except InfeasibleError:
                continue
            rem = spec.total % task.period
            gap = task.period - rem if rem else task.period
            if gap < budget:
                continue
            eligible.append((task, spec))
        if not eligible:
            continue
        task, spec = eligible[int(rng.integers(len(eligible)))]
        instance = int(rng.integers(1, max_instance + 1))
        return Trial(seed=seed, util=util, r_steps=r_steps, network=network, tasks=tuple(tasks),
                     rhythmic_task=task.id, instance=instance, spec=spec)
    raise InfeasibleError(f"no admissible disturbance found for seed {seed}")


# The benchmark's sweep cell (util 0.5, r 8, tick 60) at base seeds 0-2, its
# 32-entry PBS panel (base seed 1, tick 50) and its long simulate run.
_SWEEP_SEEDS = [_trial_seed(base, 0.5, 8, 60, i) for base in (0, 1, 2) for i in range(100)]
_PANEL_SEEDS = [_trial_seed(1, 0.5, 8, 50, i) for i in range(32)]


@pytest.mark.parametrize("seeds, util", [
    (_SWEEP_SEEDS, 0.5), (_PANEL_SEEDS, 0.5), ([0], 0.7),
], ids=["sweep_cell", "pbs_panel", "long_simulate"])
def test_make_trial_matches_frozen_generator(seeds, util):
    for seed in seeds:
        assert make_trial(seed, util, 8) == reference_make_trial(seed, util, 8)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**63), st.integers(1, 8), st.integers(1, 8))
def test_batched_chain_draws_match_one_draw_per_link(seed, in_depth, out_depth):
    assert random_chain_network(seed, in_depth, out_depth) == reference_random_chain_network(seed, in_depth, out_depth)


def test_networks_differing_only_in_pdrs_share_one_topology():
    shared = random_chain_network(1)._topology
    assert random_chain_network(2)._topology is shared
    assert chain_network(pdr=0.5)._topology is shared
    assert random_chain_network(1, 8, 7)._topology is not shared


def _variants(network):
    """Each network with the same nodes and controller and one link removed
    or reversed."""
    links = network.links
    for i, link in enumerate(links):
        for replaced in ((), (Link(link.dst, link.src, link.pdr),)):
            yield NetworkModel(nodes=network.nodes, controller=network.controller,
                               links=links[:i] + replaced + links[i + 1:])


def test_a_changed_link_gets_its_own_routes():
    base = random_chain_network(3, 4, 4)
    for variant in _variants(base):
        assert variant._topology is not base._topology
        for seed in range(3):
            generate_taskset(seed, 0.5, base)  # fills the original's route tables first
            try:
                expected = reference_generate_taskset(seed, 0.5, variant)
            except InfeasibleError as exc:
                with pytest.raises(InfeasibleError, match=re.escape(str(exc))):
                    generate_taskset(seed, 0.5, variant)
                continue
            assert generate_taskset(seed, 0.5, variant) == expected


def test_topology_cache_stays_at_its_bound():
    bound = _shared_topology.cache_info().maxsize
    for i in range(2 * bound):
        assert chain_network(2, 2, controller=f"C{i}")._topology.controller == f"C{i}"
    assert _shared_topology.cache_info().currsize == bound


def test_a_network_without_simple_routes_fails_the_same_way_each_time():
    # V1 relays both ways, so every route through Vc turns back through V1.
    # The second call reads the routes the first one searched.
    links = tuple(Link(a, b, 0.9) for a, b in [("V0", "V1"), ("V1", "V0"), ("V1", "Vc"), ("Vc", "V1")])
    for _ in range(2):
        network = NetworkModel(nodes=("V0", "V1", "Vc"), controller="Vc", links=links)
        with pytest.raises(InfeasibleError, match="found no simple sensor-to-actuator path"):
            generate_taskset(1, 0.3, network)
