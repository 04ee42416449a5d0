"""Priority-offset MAC arbitration."""

import numpy as np
import pytest

from rtwnsim.mac import (
    EXT_SLOT_US,
    SLOT_US,
    TX_OFFSET_US,
    SlotTiming,
    TxOutcome,
    arbitrate_slot,
    contention_latency_experiment,
    preemption_error_rate,
    priority_levels,
)

from support import raised


def test_default_timing_constants():
    assert (SLOT_US, EXT_SLOT_US, TX_OFFSET_US) == (10_000, 10_800, 2_120)
    assert SlotTiming().priority_tick_us == 60


@pytest.mark.parametrize(
    "tick, levels",
    [(400, 3), (60, 14), (800, 2), (30, 27)],
)
def test_priority_levels(tick, levels):
    assert priority_levels(SlotTiming(priority_tick_us=tick)) == levels


def test_offsets_strictly_increasing():
    # Level p starts TX_OFFSET_US + p * tick into the slot; for every tick the
    # last level's offset still lies inside the extended slot.
    for tick in range(1, 1_001):
        levels = priority_levels(SlotTiming(priority_tick_us=tick))
        offsets = [TX_OFFSET_US + p * tick for p in range(levels)]
        assert offsets == sorted(set(offsets))
        assert offsets[-1] <= TX_OFFSET_US + EXT_SLOT_US - SLOT_US < EXT_SLOT_US


def test_arbitrate_preemption():
    outcomes = arbitrate_slot([1, 3], SlotTiming(), [True, True])
    assert outcomes == [TxOutcome.WON_DELIVERED, TxOutcome.DEFERRED]


def test_arbitrate_single_contender_follows_link_draw():
    timing = SlotTiming()
    assert arbitrate_slot([0], timing, [True]) == [TxOutcome.WON_DELIVERED]
    assert arbitrate_slot([0], timing, [False]) == [TxOutcome.WON_LOST]


def test_arbitrate_equal_priorities_collide():
    assert arbitrate_slot([2, 2], SlotTiming(), [True, True]) == [
        TxOutcome.COLLIDED,
        TxOutcome.COLLIDED,
    ]


def test_arbitrate_empty():
    assert arbitrate_slot([], SlotTiming(), []) == []


@pytest.mark.parametrize("levels", [[-1], [0, -1], [0, 3]])
def test_arbitrate_rejects_a_level_outside_the_slot_range(levels):
    timing = SlotTiming(priority_tick_us=400)  # 3 levels
    with pytest.raises(ValueError, match="outside the slot's level range 0..2"):
        arbitrate_slot(levels, timing, [True] * len(levels))


def test_unique_top_priority_always_wins_with_perfect_links():
    rng = np.random.default_rng(8)
    timing = SlotTiming(priority_tick_us=60)
    for _ in range(100):
        n = int(rng.integers(2, 6))
        prios = rng.choice(14, size=n, replace=False).tolist()
        outcomes = arbitrate_slot(prios, timing, [True] * n)
        assert outcomes.count(TxOutcome.WON_DELIVERED) == 1
        winner = outcomes.index(TxOutcome.WON_DELIVERED)
        assert prios[winner] == min(prios)
        assert all(o is TxOutcome.DEFERRED for i, o in enumerate(outcomes) if i != winner)


def test_winner_delivery_matches_link_pdr_for_safe_ticks():
    # With a safe tick the preemption itself is error-free, so the winner's
    # delivery probability is exactly its link draw.
    rng = np.random.default_rng(21)
    timing = SlotTiming(priority_tick_us=60)
    pdr = 0.8
    delivered = 0
    n = 20_000
    for _ in range(n):
        draw = bool(rng.random() < pdr)
        outcome = arbitrate_slot([0, 1], timing, [draw, True])[0]
        delivered += outcome is TxOutcome.WON_DELIVERED
    sigma = (pdr * (1 - pdr) / n) ** 0.5
    assert abs(delivered / n - pdr) <= 4 * sigma


@pytest.mark.parametrize(
    "tick, distance, per",
    [(90, 1, 0.0), (60, 1, 0.0), (30, 1, 0.10), (30, 2, 0.05), (30, 5, 0.05)],
)
def test_preemption_error_rate(tick, distance, per):
    assert preemption_error_rate(tick, distance) == pytest.approx(per)


def test_arbitrate_needs_one_link_draw_per_contender():
    assert raised(lambda: arbitrate_slot([0, 1], SlotTiming(), [True])) == (
        ValueError, "need one link draw per contender")


def test_preemption_error_rate_range():
    with pytest.raises(ValueError):
        preemption_error_rate(20, 1)
    assert raised(lambda: preemption_error_rate(30, 0)) == (ValueError, "priority distance must be >= 1")


def test_contention_experiment_orders_latency_by_priority():
    stats = contention_latency_experiment(seed=3, frames=20_000)
    high, mid, low = stats[0], stats[1], stats[2]
    assert high.drop_rate == 0.0  # the top priority never loses a contention
    assert high.mean_latency_frames < mid.mean_latency_frames < low.mean_latency_frames
    assert mid.drop_rate <= low.drop_rate
