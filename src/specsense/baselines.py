"""Comparison schemes producing per-block decisions from a shared frame.

Every scheme consumes the same unscaled measurement frame within a
realization, rescaled by one gain per swept threshold, so differences come
only from the decision architecture. Scheme functions return one DecisionMap
per gain; the diffusion-based ones run the whole sweep as one network run.
A DecisionMap marks a block no-decision (decided=False) when the scheme has no
verdict for it, which only the non-cooperative single-band scheme does.
"""

from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionParams, decide, run_diffusion
from .model import ConfigurationError

SCHEME_IDS = (
    "genie",
    "proposed-multiband",
    "proposed-singleband",
    "centralized",
    "noncoop-multiband",
    "noncoop-singleband",
)

# which calibrated threshold structure each diffusion-based scheme decides with
CALIBRATION_STRUCTURE = {
    "proposed-multiband": "coop-full",
    "proposed-singleband": "coop-assigned",
    "noncoop-multiband": "standalone",
    "noncoop-singleband": "standalone",
}


@dataclass
class DecisionMap:
    busy: np.ndarray      # (K, M) bool
    decided: np.ndarray   # (K, M) bool; False marks no-decision blocks

    @property
    def available(self):
        return self.decided & ~self.busy


def _full_map(busy):
    busy = np.asarray(busy, dtype=bool)
    return DecisionMap(busy.copy(), np.ones_like(busy, dtype=bool))


def genie(truth_busy):
    """Perfect knowledge of the ground-truth occupancy."""
    return _full_map(truth_busy)


def centralized_egc(measurements):
    """Equal-gain combining at a fusion center: one verdict per channel.

    The statistic is the plain mean energy over all SAPs and iterations,
    busy at 1.0, so one strong local measurement can drag a whole channel
    busy everywhere.
    """
    y = np.asarray(measurements)
    k_count = y.shape[0]
    t_m = y.mean(axis=(0, 2))
    busy_row = t_m >= 1.0
    return _full_map(np.tile(busy_row, (k_count, 1)))


def noncoop_multiband(measurements, params, thresholds, raw_energy=False,
                      gains=(1.0,), ceiling=None):
    """Every SAP senses all channels and decides alone.

    The adaptive variant is diffusion on the self-only graph. The raw
    variant has no smoothed statistic: each SAP compares its latest
    window's energy estimate times the gain, unclamped, against 1.0
    directly, which is what makes raw decisions fluctuate window to window.
    """
    if raw_energy:
        last = np.asarray(measurements)[:, :, -1]
        return [_full_map(last * g >= 1.0) for g in gains]
    k_count = measurements.shape[0]
    return proposed_multiband(measurements, np.zeros((k_count, k_count)),
                              np.eye(k_count, dtype=bool), params, thresholds,
                              gains, ceiling)


def noncoop_singleband(measurements, channel_picks, params, thresholds,
                       raw_energy=False, gains=(1.0,), ceiling=None):
    """Every SAP senses one random channel; all other blocks stay undecided."""
    y = np.asarray(measurements)
    k_count, m_count, _ = y.shape
    picks = np.asarray(channel_picks, dtype=int)
    if picks.shape != (k_count,) or picks.min() < 0 or picks.max() >= m_count:
        raise ConfigurationError("need one valid channel pick per SAP")
    decided = np.zeros((k_count, m_count), dtype=bool)
    decided[np.arange(k_count), picks] = True
    # the self-only filter evolves each channel independently, so running
    # every channel and masking afterwards matches sensing only the pick
    maps = noncoop_multiband(y, params, thresholds, raw_energy, gains,
                             ceiling)
    return [DecisionMap(dm.busy & decided, decided) for dm in maps]


def proposed_multiband(measurements, reference_powers, adjacency, params,
                       thresholds, gains=(1.0,), ceiling=None):
    """Cooperative diffusion with every SAP sensing the whole spectrum."""
    k_count, m_count, _ = measurements.shape
    return proposed_singleband(measurements,
                               np.ones((k_count, m_count), dtype=bool),
                               reference_powers, adjacency, params, thresholds,
                               gains, ceiling)


def proposed_singleband(measurements, sensing_mask, reference_powers,
                        adjacency, params, thresholds, gains=(1.0,),
                        ceiling=None):
    """Full pipeline: scheduler-assigned subsets plus cooperative diffusion.

    Decisions exist for every block; unsensed channels are inferred through
    the reference-power combination branch. One diffusion run covers every
    gain; its gain-major weights split into one (K, M) block per gain.
    """
    state = run_diffusion(measurements, sensing_mask, reference_powers,
                          adjacency, params, gains=gains, ceiling=ceiling)
    return [_full_map(decide(block, thresholds))
            for block in np.split(state.w, len(gains), axis=1)]


def run_scheme(name, *, measurements, gains=(1.0,), ceiling=None,
               truth_busy=None, sensing_mask=None, reference_powers=None,
               adjacency=None, params=None, thresholds=None,
               channel_picks=None, raw_energy=False):
    """Dispatch one scheme by id over a gain sweep; one DecisionMap per gain.

    ``measurements`` is the unscaled frame; gain t rescales it as
    ``measurements * gains[t]``. Adaptive-filter schemes see the rescaled
    frame through the receiver ``ceiling``, raw energy detectors see it
    as-is, and ``truth_busy`` holds the genie's busy map per gain.
    """
    if params is None:
        params = DiffusionParams()
    if name == "genie":
        return [genie(busy) for _, busy in zip(gains, truth_busy, strict=True)]
    if name == "centralized":
        return [centralized_egc(measurements * g) for g in gains]
    if name == "noncoop-multiband":
        return noncoop_multiband(measurements, params, thresholds, raw_energy,
                                 gains, ceiling)
    if name == "noncoop-singleband":
        return noncoop_singleband(measurements, channel_picks, params,
                                  thresholds, raw_energy, gains, ceiling)
    if name == "proposed-multiband":
        return proposed_multiband(measurements, reference_powers, adjacency,
                                  params, thresholds, gains, ceiling)
    if name == "proposed-singleband":
        return proposed_singleband(measurements, sensing_mask,
                                   reference_powers, adjacency, params,
                                   thresholds, gains, ceiling)
    raise ConfigurationError(f"unknown scheme {name!r}")
