"""Evaluation metrics over decision maps and ground truth.

Every metric reduces over the last two (K, M) axes: a (K, M) map gives one
value, a (T, K, M) threshold-sweep stack gives a list of T, one per slice.
A value with an empty denominator is None ("absent"); aggregation skips
those realizations and reports how many contributed.
"""

import numpy as np


def _per_slice(hits, evaluated, scale=1.0):
    """``scale * hits / evaluated`` per (K, M) slice; None where empty."""
    num = scale * np.sum(hits, axis=(-2, -1))
    den = np.sum(np.broadcast_to(evaluated, np.shape(hits)), axis=(-2, -1))
    values = [None if d == 0 else float(n / d)
              for n, d in zip(np.ravel(num), np.ravel(den))]
    return values if np.ndim(den) else values[0]


def utilization_ratio(decision_map, truth_busy):
    """Correctly identified available blocks relative to all truly available."""
    truly_available = ~np.asarray(truth_busy, dtype=bool)
    return _per_slice(decision_map.available & truly_available,
                      truly_available)


def misdetection_probability(decision_map, truth_busy):
    """Probability of declaring a truly busy block available."""
    truth_busy = np.asarray(truth_busy, dtype=bool)
    return _per_slice(decision_map.available & truth_busy, truth_busy)


def correct_decision_pct(decision_map, truth_busy, scope_mask=None):
    """Percentage of evaluated blocks whose verdict matches the truth.

    No-decision blocks are never evaluated; ``scope_mask`` further restricts
    the evaluated set (e.g. to each SAP's own sensed channels).
    """
    evaluated = decision_map.decided
    if scope_mask is not None:
        evaluated = evaluated & np.asarray(scope_mask, dtype=bool)
    truth_busy = np.asarray(truth_busy, dtype=bool)
    matches = (decision_map.busy == truth_busy) & evaluated
    return _per_slice(matches, evaluated, 100.0)


def attach_devices(device_positions, sap_positions):
    """Nearest-SAP attachment; ties go to the smaller SAP id."""
    dev = np.asarray(device_positions, dtype=float).reshape(-1, 2)
    sap = np.asarray(sap_positions, dtype=float)
    d2 = dev[:, 0, None] - sap[None, :, 0]
    dy = dev[:, 1, None] - sap[None, :, 1]
    d2 *= d2
    dy *= dy
    d2 += dy
    return d2.argmin(axis=1)


def schedule_devices(decision_map, truth_busy, device_positions, sap_positions,
                     capacity_per_block=1):
    """Devices served over correctly identified available blocks.

    Each device asks its nearest SAP; a SAP serves up to capacity_per_block
    devices per correct-available block, first-come by device index. The
    devices are attached once per call, whatever the number of slices.
    """
    if capacity_per_block < 1:
        raise ValueError("capacity_per_block must be >= 1")
    truth_busy = np.asarray(truth_busy, dtype=bool)
    correct_available = decision_map.available & ~truth_busy
    slots = correct_available.sum(axis=-1) * capacity_per_block
    home = attach_devices(device_positions, sap_positions)
    demand = np.bincount(home, minlength=slots.shape[-1])
    return np.minimum(demand, slots).sum(axis=-1).tolist()


def aggregate(values):
    """Mean/std over defined per-realization values.

    Returns (mean, std, count); std uses the n-1 denominator and is 0.0 for
    a single sample. All-absent series aggregate to (None, None, 0).
    """
    present = [v for v in values if v is not None]
    if not present:
        return None, None, 0
    arr = np.asarray(present, dtype=float)
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return float(arr.mean()), std, int(arr.size)
