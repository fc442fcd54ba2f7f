"""Evaluation metrics over decision maps and ground truth.

Every metric reduces over the last two (K, M) axes: a (K, M) map gives one
value, a (T, K, M) threshold-sweep stack gives a list of T, one per slice.
A value with an empty denominator is None ("absent"); aggregation skips
those realizations and reports how many contributed.
"""

import numpy as np

from .model import check_integer


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


ATTACH_BLOCK = 512                   # devices per block of squared distances


def attach_devices(device_positions, sap_positions):
    """Nearest-SAP attachment; ties go to the smaller SAP id.

    Squared distances are formed ``ATTACH_BLOCK`` devices at a time in two
    reused (block, K) buffers, so memory stays flat in the device count.
    """
    dev = np.asarray(device_positions, dtype=float).reshape(-1, 2)
    sap = np.asarray(sap_positions, dtype=float)
    home = np.empty(dev.shape[0], dtype=np.intp)
    d2_buf = np.empty((min(ATTACH_BLOCK, dev.shape[0]), sap.shape[0]))
    dy_buf = np.empty_like(d2_buf)
    for start in range(0, dev.shape[0], ATTACH_BLOCK):
        block = dev[start:start + ATTACH_BLOCK]
        d2 = d2_buf[:block.shape[0]]
        dy = dy_buf[:block.shape[0]]
        np.subtract(block[:, 0, None], sap[None, :, 0], out=d2)
        np.subtract(block[:, 1, None], sap[None, :, 1], out=dy)
        d2 *= d2
        dy *= dy
        d2 += dy
        d2.argmin(axis=1, out=home[start:start + block.shape[0]])
    return home


def schedule_devices(decision_map, truth_busy, device_positions, sap_positions,
                     capacity_per_block=1, *, home=None):
    """Devices served over correctly identified available blocks.

    Each device asks its nearest SAP; a SAP serves up to capacity_per_block
    devices per correct-available block, first-come by device index.
    ``home``, if given, is ``attach_devices(device_positions,
    sap_positions)``, made once by a caller that schedules the same devices
    again (a campaign, once per realization for all its schemes); None
    attaches them here, once for every slice of the stack.
    """
    capacity_per_block = check_integer("capacity_per_block",
                                       capacity_per_block, 1)
    truth_busy = np.asarray(truth_busy, dtype=bool)
    correct_available = decision_map.available & ~truth_busy
    slots = correct_available.sum(axis=-1) * capacity_per_block
    if home is None:
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
