"""Tests for the performance metrics and device scheduling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsense.baselines import DecisionMap, genie
from specsense.metrics import (
    ATTACH_BLOCK,
    aggregate,
    attach_devices,
    correct_decision_pct,
    misdetection_probability,
    schedule_devices,
    utilization_ratio,
)
from specsense.model import ConfigurationError
from specsense.seeding import substream


def _map(busy, decided=None):
    busy = np.asarray(busy, dtype=bool)
    decided = np.ones_like(busy) if decided is None else np.asarray(decided,
                                                                    dtype=bool)
    return DecisionMap(busy, decided)


def test_utilization_counts_recovered_free_blocks():
    # 80 truly available blocks, 60 claimed available: ratio 0.75
    truth = np.zeros((10, 10), dtype=bool)
    truth[:2] = True                       # 20 busy, 80 available
    busy = truth.copy()
    busy[2, :] = True                      # overcautious on one row of 10
    busy[3, :10] = True                    # and another
    assert utilization_ratio(_map(busy), truth) == pytest.approx(0.75)
    assert utilization_ratio(_map(truth), truth) == 1.0
    assert utilization_ratio(_map(np.ones_like(truth)), truth) == 0.0


def test_utilization_none_when_nothing_available():
    truth = np.ones((3, 3), dtype=bool)
    assert utilization_ratio(_map(truth), truth) is None


def test_utilization_ignores_undecided_blocks():
    truth = np.zeros((1, 4), dtype=bool)
    decided = np.array([[True, True, False, False]])
    busy = np.zeros((1, 4), dtype=bool)
    # only two of four free blocks are claimed
    assert utilization_ratio(_map(busy, decided), truth) == pytest.approx(0.5)


def test_misdetection_fraction_of_busy_blocks():
    truth = np.ones((5, 10), dtype=bool)   # 50 busy blocks
    busy = truth.copy()
    busy[0, :5] = False                    # 5 declared available
    d = _map(busy)
    assert misdetection_probability(d, truth) == pytest.approx(0.1)
    assert misdetection_probability(_map(truth), truth) == 0.0
    assert misdetection_probability(_map(np.zeros_like(truth)), truth) == 1.0


def test_misdetection_none_when_nothing_busy():
    truth = np.zeros((2, 2), dtype=bool)
    assert misdetection_probability(_map(truth), truth) is None


def test_correct_decision_percentage():
    truth = substream(1, "truth").uniform(size=(6, 4)) < 0.5
    assert correct_decision_pct(genie(truth), truth) == 100.0
    assert correct_decision_pct(_map(~truth), truth) == 0.0
    half = truth.copy()
    half[:3] = ~half[:3]
    assert correct_decision_pct(_map(half), truth) == pytest.approx(50.0)


def test_correct_decision_scoped_to_own_blocks():
    truth = np.eye(2, dtype=bool)
    busy = np.ones((2, 2), dtype=bool)     # right on the diagonal only
    scope = np.eye(2, dtype=bool)
    d = _map(busy)
    assert correct_decision_pct(d, truth, scope_mask=scope) == 100.0
    assert correct_decision_pct(d, truth) == pytest.approx(50.0)


def test_correct_decision_none_on_empty_scope():
    truth = np.zeros((2, 2), dtype=bool)
    d = _map(truth, decided=np.zeros_like(truth))
    assert correct_decision_pct(d, truth) is None


def test_attach_devices_nearest_sap():
    saps = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
    devices = np.array([[10.0, 5.0], [90.0, 10.0], [5.0, 60.0], [49.0, 0.0]])
    np.testing.assert_array_equal(attach_devices(devices, saps), [0, 1, 2, 0])


def _points(count):
    coord = st.integers(-6, 6)
    return st.lists(st.tuples(coord, coord), min_size=count, max_size=count)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), k_count=st.integers(1, 6), n_dev=st.integers(0, 25),
       duplicate=st.booleans())
def test_attach_devices_matches_broadcast_oracle(data, k_count, n_dev,
                                                 duplicate):
    # integer coordinates on a small box make exact distance ties common
    saps = np.array(data.draw(_points(k_count)), dtype=float).reshape(-1, 2)
    if duplicate:
        saps[-1] = saps[0]
    devices = np.array(data.draw(_points(n_dev)), dtype=float).reshape(-1, 2)
    d2 = ((devices[:, None, :] - saps[None, :, :]) ** 2).sum(axis=2)
    home = attach_devices(devices, saps)
    assert np.array_equal(home, d2.argmin(axis=1))
    # ties go to the smaller SAP id
    for n in range(n_dev):
        assert home[n] == np.flatnonzero(d2[n] == d2[n].min())[0]


@pytest.mark.parametrize("n_dev", [ATTACH_BLOCK, 3 * ATTACH_BLOCK + 1,
                                   4 * ATTACH_BLOCK - 7])
def test_blocked_attach_matches_broadcast_oracle(n_dev):
    # three or more blocks, the last one full or partial; integer
    # coordinates on a small box and a duplicated SAP make exact ties
    rng = substream(n_dev, "attach")
    saps = rng.integers(-6, 7, size=(9, 2)).astype(float)
    saps[-1] = saps[0]
    devices = rng.integers(-6, 7, size=(n_dev, 2)).astype(float)
    d2 = ((devices[:, None, :] - saps[None, :, :]) ** 2).sum(axis=2)
    assert ((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1).any()
    assert np.array_equal(attach_devices(devices, saps), d2.argmin(axis=1))


def test_attach_devices_memory_flat_in_device_count():
    # the broadcast form holds two (100000, 50) float64 arrays, 80 MB
    rng = substream(5, "attach-memory")
    devices = rng.uniform(0.0, 2000.0, size=(100_000, 2))
    saps = rng.uniform(0.0, 2000.0, size=(50, 2))
    tracemalloc.start()
    try:
        home = attach_devices(devices, saps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert home.shape == (100_000,)
    assert peak < 4e6


def test_schedule_devices_examples():
    saps = np.array([[0.0, 0.0]])
    truth = np.zeros((1, 2), dtype=bool)
    d = genie(truth)
    assert schedule_devices(d, truth, np.empty((0, 2)), saps) == 0
    # 5 devices on one SAP with 2 free blocks at capacity 1: 2 served
    devices = np.tile([[1.0, 1.0]], (5, 1))
    assert schedule_devices(d, truth, devices, saps) == 2
    assert schedule_devices(d, truth, devices, saps, capacity_per_block=3) == 5
    with pytest.raises(ValueError):
        schedule_devices(d, truth, devices, saps, capacity_per_block=0)


@pytest.mark.parametrize("capacity", [1.5, np.nan, True])
def test_schedule_devices_rejects_non_integer_capacity(capacity):
    # 1.5 would serve a fractional device count, and NaN a NaN one
    saps = np.array([[0.0, 0.0]])
    truth = np.zeros((1, 2), dtype=bool)
    devices = np.tile([[1.0, 1.0]], (5, 1))
    with pytest.raises(ConfigurationError, match="capacity_per_block"):
        schedule_devices(genie(truth), truth, devices, saps,
                         capacity_per_block=capacity)


def test_schedule_devices_counts_only_correct_availability():
    # a block claimed available but truly busy must not serve anyone
    saps = np.array([[0.0, 0.0]])
    truth = np.array([[True, True]])
    wrong = _map(np.zeros((1, 2), dtype=bool))
    devices = np.tile([[1.0, 1.0]], (4, 1))
    assert schedule_devices(wrong, truth, devices, saps) == 0


def test_schedule_devices_never_beats_genie():
    rng = substream(2, "sched")
    saps = rng.uniform(0.0, 500.0, size=(6, 2))
    truth = rng.uniform(size=(6, 3)) < 0.4
    devices = rng.uniform(0.0, 500.0, size=(40, 2))
    best = schedule_devices(genie(truth), truth, devices, saps)
    for trial in range(20):
        busy = rng.uniform(size=(6, 3)) < 0.5
        got = schedule_devices(_map(busy), truth, devices, saps)
        assert 0 <= got <= best
    # ample capacity serves every device whose home SAP has any free block
    home = attach_devices(devices, saps)
    reachable = int(((~truth).any(axis=1))[home].sum())
    assert schedule_devices(genie(truth), truth, devices, saps,
                            capacity_per_block=1000) == reachable


def test_schedule_devices_invariant_to_sap_relabeling():
    rng = substream(3, "relabel")
    saps = rng.uniform(0.0, 300.0, size=(5, 2))
    truth = rng.uniform(size=(5, 4)) < 0.3
    busy = rng.uniform(size=(5, 4)) < 0.4
    devices = rng.uniform(0.0, 300.0, size=(25, 2))
    base = schedule_devices(_map(busy), truth, devices, saps)
    perm = rng.permutation(5)
    permuted = schedule_devices(_map(busy[perm]), truth[perm], devices,
                                saps[perm])
    assert base == permuted


def test_stacked_metrics_equal_per_slice_calls():
    # a (T, K, M) stack scores as its slices do, one call per metric; slice
    # 1 has nothing available and slice 2 nothing busy, so their ratios are
    # absent beside defined ones
    rng = substream(6, "stack")
    truth = rng.uniform(size=(5, 6, 4)) < 0.4
    truth[1], truth[2] = True, False
    busy = rng.uniform(size=(5, 6, 4)) < 0.5
    decided = rng.uniform(size=(6, 4)) < 0.8
    decided[0] = False                     # a SAP with no verdicts
    stack = DecisionMap(busy, decided)
    maps = [DecisionMap(b, decided) for b in busy]
    for metric in (utilization_ratio, misdetection_probability):
        per_slice = [metric(dm, t) for dm, t in zip(maps, truth)]
        assert metric(stack, truth) == per_slice
        assert None in per_slice and per_slice.count(None) < len(per_slice)
    scope = rng.uniform(size=(6, 4)) < 0.5
    for mask in (None, scope, np.zeros((6, 4), dtype=bool)):
        per_slice = [correct_decision_pct(dm, t, mask)
                     for dm, t in zip(maps, truth)]
        assert correct_decision_pct(stack, truth, mask) == per_slice
    saps = rng.uniform(0.0, 300.0, size=(6, 2))
    devices = rng.uniform(0.0, 300.0, size=(50, 2))
    for capacity in (1, 3):
        per_slice = [schedule_devices(dm, t, devices, saps, capacity)
                     for dm, t in zip(maps, truth)]
        assert schedule_devices(stack, truth, devices, saps,
                                capacity) == per_slice


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k_count=st.integers(1, 6), n_dev=st.integers(0, 25),
       slices=st.integers(1, 3), capacity=st.integers(1, 4))
def test_schedule_devices_same_counts_from_given_attachment(data, k_count,
                                                           n_dev, slices,
                                                           capacity):
    # the harness attaches once per realization and passes the attachment;
    # the counts must be those of an attachment made inside the call
    saps = np.array(data.draw(_points(k_count)), dtype=float).reshape(-1, 2)
    devices = np.array(data.draw(_points(n_dev)), dtype=float).reshape(-1, 2)
    cells = st.lists(st.booleans(), min_size=slices * k_count * 3,
                     max_size=slices * k_count * 3)
    busy = np.array(data.draw(cells)).reshape(slices, k_count, 3)
    truth = np.array(data.draw(cells)).reshape(slices, k_count, 3)
    home = attach_devices(devices, saps)
    assert (schedule_devices(_map(busy), truth, devices, saps, capacity,
                             home=home)
            == schedule_devices(_map(busy), truth, devices, saps, capacity))


def test_aggregate():
    mean, std, n = aggregate([1.0, 2.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert std == pytest.approx(1.0)       # n-1 denominator
    assert n == 3
    assert aggregate([4.2]) == (4.2, 0.0, 1)
    assert aggregate([None, None]) == (None, None, 0)
    mean, std, n = aggregate([None, 1.0, None, 3.0])
    assert (mean, n) == (2.0, 2)
