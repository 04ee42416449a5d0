"""Domain types and reliability math."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rtwnsim.model import (
    InfeasibleError,
    Link,
    NetworkModel,
    ReliabilityTarget,
    RhythmicSpec,
    TaskSpec,
    _flexible_table,
    _shortest_path,
    allocate_retry_vector,
    generate_rhythmic_spec,
    generate_taskset,
    packet_pdr,
    packet_pdr_flexible,
    pdr_degradation,
    random_chain_network,
)
from rtwnsim.rhythmic import DisturbanceEvent

from support import chain_network, raised


# ---------------------------------------------------------------- packet_pdr

def test_packet_pdr_perfect_links():
    assert packet_pdr([1.0, 1.0], [1, 1]) == 1.0


def test_packet_pdr_single_hop_retry():
    assert packet_pdr([0.9], [2]) == pytest.approx(0.99)


def test_packet_pdr_two_hop_mixed():
    # 1 - 0.1^2 = 0.99 and 1 - 0.2^3 = 0.992; product 0.98208
    assert packet_pdr([0.9, 0.8], [2, 3]) == pytest.approx(0.98208)


def test_packet_pdr_zero_trials_kills_delivery():
    assert packet_pdr([0.9, 0.9], [2, 0]) == 0.0


def test_packet_pdr_length_mismatch():
    with pytest.raises(ValueError):
        packet_pdr([0.9, 0.9], [1])


def test_packet_pdr_monotone_in_trials():
    rng = np.random.default_rng(42)
    for _ in range(200):
        hops = int(rng.integers(1, 5))
        pdrs = rng.uniform(0.5, 1.0, hops).tolist()
        trials = rng.integers(0, 6, hops).tolist()
        base = packet_pdr(pdrs, trials)
        for h in range(hops):
            bumped = list(trials)
            bumped[h] += 1
            assert packet_pdr(pdrs, bumped) >= base


def test_packet_pdr_all_perfect_with_positive_trials_is_one():
    rng = np.random.default_rng(3)
    for _ in range(50):
        hops = int(rng.integers(1, 6))
        trials = rng.integers(1, 5, hops).tolist()
        assert packet_pdr([1.0] * hops, trials) == 1.0


def test_packet_pdr_flexible_dominates_pinned_split():
    # Sharing a slot pool across hops can only help delivery.
    rng = np.random.default_rng(11)
    for _ in range(100):
        hops = int(rng.integers(1, 4))
        pdrs = rng.uniform(0.5, 0.99, hops).tolist()
        trials = rng.integers(1, 4, hops).tolist()
        assert packet_pdr_flexible(pdrs, int(sum(trials))) >= packet_pdr(pdrs, trials) - 1e-12


def test_packet_pdr_flexible_insufficient_slots():
    assert packet_pdr_flexible([0.9, 0.9], 1) == 0.0


def _flexible_numpy_reference(link_pdrs, total_slots):
    """The same DP over a numpy state vector, one numpy scalar per step."""
    hops = len(link_pdrs)
    state = np.zeros(hops + 1)
    state[0] = 1.0
    for _ in range(total_slots):
        nxt = state.copy()
        for h in range(hops):
            p = link_pdrs[h]
            nxt[h] -= state[h] * p
            nxt[h + 1] += state[h] * p
        state = nxt
    return float(state[hops])


def test_packet_pdr_flexible_bit_identical_to_numpy_dp():
    rng = np.random.default_rng(2402)
    for case in range(400):
        hops = int(rng.integers(1, 9))
        pdrs = rng.uniform(0.05, 1.0, hops)
        if case % 7 == 0:
            pdrs[rng.integers(hops)] = 1.0
        pdrs = pdrs.tolist()
        slots = int(rng.integers(0, 40))
        got = packet_pdr_flexible(pdrs, slots)
        assert type(got) is float
        assert got.hex() == _flexible_numpy_reference(pdrs, slots).hex(), (pdrs, slots)


def _flexible_fresh_dp(link_pdrs, total_slots):
    """The DP run afresh from slot 0 on every call: the reference the prefix
    table's answers must equal bit for bit."""
    hops = len(link_pdrs)
    state = [1.0] + [0.0] * hops
    for _ in range(total_slots):
        nxt = state[:]
        for h in range(hops):
            moved = state[h] * link_pdrs[h]
            nxt[h] -= moved
            nxt[h + 1] += moved
        state = nxt
    return float(state[hops])


_LINK_PDRS = st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True))


@settings(max_examples=150, deadline=None)
@given(queries=st.lists(
    st.tuples(st.lists(_LINK_PDRS, min_size=1, max_size=8), st.lists(st.integers(0, 60), min_size=1, max_size=10)),
    min_size=1, max_size=4,
))
def test_packet_pdr_flexible_prefix_table_matches_fresh_dp(queries):
    # Slot counts come in any order (growing, shrinking, repeated) and paths
    # interleave; every answer is the fresh DP's float, bit for bit.
    for pdrs, counts in queries:
        for slots in counts:
            got = packet_pdr_flexible(pdrs, slots)
            assert type(got) is float
            assert got.hex() == _flexible_fresh_dp(pdrs, slots).hex(), (pdrs, slots)
    for pdrs, counts in reversed(queries):
        for slots in reversed(counts):
            assert packet_pdr_flexible(pdrs, slots).hex() == _flexible_fresh_dp(pdrs, slots).hex()


def test_packet_pdr_flexible_invalid_inputs_raise_every_time_and_cache_nothing():
    _flexible_table.cache_clear()
    for _ in range(3):
        with pytest.raises(ValueError, match="at least one hop"):
            packet_pdr_flexible([], 4)
        with pytest.raises(ValueError, match="slot count must be >= 0"):
            packet_pdr_flexible([0.9, 0.8], -1)
    info = _flexible_table.cache_info()
    assert info.currsize == 0 and info.misses == 0 and info.hits == 0


def test_packet_pdr_flexible_cache_is_bounded():
    _flexible_table.cache_clear()
    paths = [[0.5 + i / 4096, 0.9] for i in range(1100)]
    for pdrs in paths:
        packet_pdr_flexible(pdrs, 6)
    assert _flexible_table.cache_info().currsize == _flexible_table.cache_info().maxsize == 1024
    # An evicted path's table is rebuilt with the same answers.
    for slots in (9, 3, 6):
        assert packet_pdr_flexible(paths[0], slots).hex() == _flexible_fresh_dp(paths[0], slots).hex()


# ----------------------------------------------------------- pdr_degradation

@pytest.mark.parametrize(
    "required, achieved, expected",
    [
        (0.99, 0.995, 0.0),  # clamped at zero
        (0.99, 0.0, 0.99),  # fully dropped packet loses the whole requirement
        (0.99, 0.9, 0.09),
    ],
)
def test_pdr_degradation(required, achieved, expected):
    assert pdr_degradation(required, achieved) == pytest.approx(expected)


def test_pdr_degradation_rejects_out_of_range():
    with pytest.raises(ValueError):
        pdr_degradation(1.5, 0.5)


# ------------------------------------------------------ allocate_retry_vector

def _brute_force_minimal_vector(pdrs, target, cap=6):
    """Exhaustive search over all trial vectors with per-hop counts <= cap."""
    import itertools

    best = None
    for combo in itertools.product(range(1, cap + 1), repeat=len(pdrs)):
        if packet_pdr(pdrs, combo) >= target:
            key = (sum(combo), combo)
            if best is None or key < best:
                best = key
    return best


def test_allocate_perfect_links():
    assert allocate_retry_vector([1.0, 1.0], 0.99) == (1, 1)


def test_allocate_single_lossy_hop():
    assert allocate_retry_vector([0.9], 0.99) == (2,)


def test_allocate_two_lossy_hops_matches_exhaustive_search():
    got = allocate_retry_vector([0.9, 0.9], 0.95)
    assert got == (2, 2)
    best = _brute_force_minimal_vector([0.9, 0.9], 0.95)
    assert best is not None and sum(got) == best[0]


def test_allocate_minimal_total_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(50):
        hops = int(rng.integers(1, 4))
        pdrs = rng.uniform(0.6, 0.99, hops).round(3).tolist()
        target = float(rng.uniform(0.8, 0.99))
        got = allocate_retry_vector(pdrs, target)
        assert packet_pdr(pdrs, got) >= target
        best = _brute_force_minimal_vector(pdrs, target, cap=8)
        assert best is not None and sum(got) == best[0]


def test_allocate_unreachable_target():
    with pytest.raises(InfeasibleError):
        allocate_retry_vector([0.9], 1.0)


# ---------------------------------------------------- generate_rhythmic_spec

def test_rhythmic_ramp_canonical():
    spec = generate_rhythmic_spec(100, 0.2, 4)
    assert spec.periods == (20, 40, 60, 80)
    assert spec.deadlines == spec.periods


def test_rhythmic_ramp_single_step():
    assert generate_rhythmic_spec(100, 0.2, 1).periods == (20,)


def _fraction_ramp(nominal_period, ratio, steps):
    """Independent evaluation of the floor formula in ``Fraction`` arithmetic."""
    g = Fraction(str(ratio))
    return tuple(
        math.floor(nominal_period * (g + (k - 1) * (1 - g) / steps)) for k in range(1, steps + 1)
    )


def test_rhythmic_ramp_matches_exact_arithmetic():
    p0, gamma, steps = 15, 0.8, 5
    expected = _fraction_ramp(p0, gamma, steps)
    assert expected == (12, 12, 13, 13, 14)
    assert generate_rhythmic_spec(p0, gamma, steps).periods == expected


def test_rhythmic_ramp_awkward_decimal_ratio():
    # 0.29 * 100 rounds below 29.0 in binary floating point; the ramp must
    # still floor the mathematical value.
    assert generate_rhythmic_spec(100, 0.29, 1).periods == (29,)


@settings(max_examples=400, deadline=None)
@given(
    nominal_period=st.integers(1, 5000),
    ratio=st.one_of(
        st.sampled_from([0.2, 0.35, 0.7, 0.29, 0.8, 0.05]),
        st.integers(1, 999).map(lambda i: i / 1000),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    ),
    steps=st.integers(1, 40),
)
def test_rhythmic_ramp_integer_form_matches_fraction_reference(nominal_period, ratio, steps):
    expected = _fraction_ramp(nominal_period, ratio, steps)
    if min(expected) < 1:
        with pytest.raises(InfeasibleError):
            generate_rhythmic_spec(nominal_period, ratio, steps)
    else:
        assert generate_rhythmic_spec(nominal_period, ratio, steps).periods == expected


def test_rhythmic_ramp_below_min_period():
    with pytest.raises(InfeasibleError):
        generate_rhythmic_spec(15, 0.2, 5, min_period=4)  # floor(15*0.2)=3 < 4


def test_rhythmic_state_length_is_period_sum():
    task = TaskSpec(
        id=0,
        path=("S1", "C", "A1"),
        period=20,
        deadline=20,
        rhythmic=generate_rhythmic_spec(20, 0.3, 4),
    )
    event = DisturbanceEvent.from_task(task, 2)
    assert event.exit_slot - event.enter_slot == sum(task.rhythmic.periods)


# ----------------------------------------------------------- type invariants

def test_link_rejects_bad_pdr():
    with pytest.raises(ValueError):
        Link("a", "b", 0.0)
    with pytest.raises(ValueError):
        Link("a", "b", 1.1)


def test_network_rejects_undeclared_endpoint():
    with pytest.raises(ValueError):
        NetworkModel(nodes=("a", "c"), controller="c", links=(Link("a", "b", 0.9),))


def test_network_requires_declared_controller():
    with pytest.raises(ValueError):
        NetworkModel(nodes=("a", "b"), controller="c", links=(Link("a", "b"),))


def test_task_requires_two_hops():
    with pytest.raises(ValueError):
        TaskSpec(id=0, path=("a", "b"), period=10, deadline=10)


@pytest.mark.parametrize("task_id", [-1, 2**31, 3_000_000_000])
def test_task_id_must_fit_the_schedule_task_column(task_id):
    # Schedule.task_at is int32 and marks an idle slot with -1.
    with pytest.raises(ValueError, match=rf"^task {task_id}: id must lie in 0\.\.2147483647$"):
        TaskSpec(id=task_id, path=("a", "b", "c"), period=10, deadline=10)
    assert TaskSpec(id=2**31 - 1, path=("a", "b", "c"), period=10, deadline=10).id == 2**31 - 1


def test_task_deadline_bounded_by_period():
    with pytest.raises(ValueError):
        TaskSpec(id=0, path=("a", "b", "c"), period=10, deadline=11)


def test_task_validate_against_network():
    net = chain_network(2, 2)
    task = TaskSpec(id=0, path=("S2", "S1", "C", "A1"), period=10, deadline=10)
    task.validate_against(net)
    bad = TaskSpec(id=1, path=("S1", "S2", "C"), period=10, deadline=10)
    with pytest.raises(ValueError):
        bad.validate_against(net)  # no S1->S2 link


def test_rhythmic_spec_monotonicity():
    with pytest.raises(ValueError):
        RhythmicSpec(periods=(5, 4), deadlines=(5, 4))


def test_reliability_target_open_interval():
    with pytest.raises(ValueError):
        ReliabilityTarget(1.0)
    assert ReliabilityTarget(0.99).required_pdr == 0.99


# ----------------------------------------------------------- taskset builder

def test_taskset_deterministic():
    net = random_chain_network(5)
    a = generate_taskset(123, 0.5, net)
    b = generate_taskset(123, 0.5, net)
    assert a == b


def test_taskset_zero_target_is_empty():
    net = chain_network()
    assert generate_taskset(1, 0.0, net) == []


def test_taskset_period_distribution_bounds():
    # Periods are uniform over {hops..500} with deadline == period; checked
    # over many seeds.
    net = random_chain_network(9)
    for seed in range(1000):
        for task in generate_taskset(seed, 0.2, net):
            assert task.hops <= task.period <= 500
            assert task.deadline == task.period
            assert 2 <= task.hops <= 16


def test_taskset_respects_utilization_budget():
    from rtwnsim.static_schedule import plan_retry_vectors

    net = random_chain_network(17)
    for seed in range(50):
        tasks = generate_taskset(seed, 0.6, net)
        vectors = plan_retry_vectors(tasks, net, 0.99)
        util = sum(sum(vectors[t.id]) / t.period for t in tasks)
        assert 0.6 <= util <= 1.0 + 1e-9


def test_taskset_network_too_small():
    net = NetworkModel(nodes=("a", "c"), controller="c", links=(Link("a", "c"),))
    with pytest.raises(InfeasibleError):
        generate_taskset(0, 0.5, net)  # only 1-hop routes exist


def test_taskset_unreachable_utilization_raises():
    # Every drawn 2-hop task over 0.5-pdr links needs more slots than its
    # period of 2 can hold, so no attempt is ever accepted.
    net = chain_network(1, 1, pdr=0.5)
    with pytest.raises(InfeasibleError, match="failed to reach the target utilization"):
        generate_taskset(0, 0.5, net, max_period=2)


# ------------------------------------------------------------ graph searches

def test_broadcast_depth_rejects_a_node_cut_off_from_the_controller():
    base = chain_network(2, 2)
    net = NetworkModel(nodes=base.nodes + ("X9",), controller=base.controller, links=base.links)
    with pytest.raises(ValueError, match="network is not connected: X9 cut off from controller C"):
        net.broadcast_depth()


def test_path_pdrs_names_a_missing_link():
    net = random_chain_network(4, 2, 2)
    pdrs = {(link.src, link.dst): link.pdr for link in net.links}
    assert net.path_pdrs(("S2", "S1", "C")) == [pdrs[("S2", "S1")], pdrs[("S1", "C")]]
    with pytest.raises(KeyError, match="no link S1->S2 in network"):
        net.path_pdrs(("S2", "S1", "S2"))


@pytest.mark.parametrize("call, error, message", [
    (lambda: packet_pdr([0.0], [1]), ValueError, "link pdr must be in (0, 1], got 0.0"),
    (lambda: packet_pdr([0.9], [-1]), ValueError, "trial counts must be >= 0"),
    (lambda: allocate_retry_vector([], 0.99), ValueError, "need at least one hop"),
    (lambda: allocate_retry_vector([0.9], -0.5), ValueError, "required pdr must be >= 0"),
    (lambda: allocate_retry_vector([1e-9], 0.99), InfeasibleError, "retry allocation did not converge"),
    (lambda: random_chain_network(0, 0, 8), ValueError, "chain depths must be >= 1"),
    (lambda: generate_taskset(0, 1.5, random_chain_network(0)), ValueError, "target utilization must lie in [0, 1]"),
    (lambda: TaskSpec(id=0, path=("A1", "A2", "A3"), period=10, deadline=10).validate_against(chain_network(1, 3)),
     ValueError, "task 0: path does not pass through the controller"),
], ids=["pdr", "trials", "no-hops", "negative-requirement", "no-convergence", "chain-depth", "utilization",
        "no-controller"])
def test_model_names_bad_inputs(call, error, message):
    assert raised(call) == (error, message)


def test_shortest_path_rejects_unknown_node_and_missing_path():
    topology = chain_network(2, 2)._topology
    assert _shortest_path(topology, "S2", "A2") == ["S2", "S1", "C", "A1", "A2"]
    assert _shortest_path(topology, "C", "C") == ["C"]
    with pytest.raises(ValueError, match="no node 'Z'"):
        _shortest_path(topology, "S1", "Z")
    with pytest.raises(ValueError, match="no path from A1 to S1"):
        _shortest_path(topology, "A1", "S1")

