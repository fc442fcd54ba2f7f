"""Comparison schemes producing per-block decisions from a shared frame.

Every scheme consumes the same unscaled measurement frame within a
realization, rescaled by one gain per swept threshold, so differences come
only from the decision architecture. ``run_scheme`` returns one DecisionMap
whose (T, K, M) ``busy`` stack holds one slice per gain. It marks a block
no-decision (decided=False, under every gain) when the scheme has no verdict
for it, which only the non-cooperative single-band scheme does.

The four diffusion-based schemes are one combine-then-adapt diffusion, run
over the whole sweep, on one of three networks, the calibration structures
(``CALIBRATION_STRUCTURE``, built by ``structure_network``):

* ``coop-full`` (proposed-multiband): all channels, neighbor graph;
* ``coop-assigned`` (proposed-singleband): scheduled channels, neighbor graph;
* ``standalone`` (both noncoop schemes): all channels, self-only graph.

Schemes deciding on one frame share runs (``run_scheme``'s ``shared``): the
two noncoop schemes decide on one standalone run, and the ``COOPERATIVE``
structures, on one graph, can run side by side as one call. Under raw
energy the non-cooperative schemes skip the diffusion.
"""

from dataclasses import dataclass

import numpy as np

from .diffusion import DiffusionParams, DivergenceError, decide, run_diffusion
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

# the structures on the neighbor graph, so they can share one run
COOPERATIVE = ("coop-full", "coop-assigned")


@dataclass
class DecisionMap:
    """Verdicts: ``busy`` slice t under gain t, ``decided`` shared by all."""

    busy: np.ndarray      # (T, K, M) stack, or one (K, M) map, bool
    decided: np.ndarray   # (K, M) bool; False marks no-decision blocks

    @property
    def available(self):
        return self.decided & ~self.busy


def _full_map(busy):
    return DecisionMap(busy, np.ones(busy.shape[-2:], dtype=bool))


def genie(truth_busy):
    """Perfect knowledge of the ground-truth occupancy (a map or a stack)."""
    return _full_map(np.array(truth_busy, dtype=bool))


def centralized_egc(measurements, gains=(1.0,)):
    """Equal-gain combining at a fusion center: one verdict per channel.

    The statistic is the plain mean energy over all SAPs and iterations,
    taken once; gain g decides a channel busy where ``mean * g >= 1.0``, so
    one strong local measurement can drag a whole channel busy everywhere.
    Returns one DecisionMap whose (T, K, M) stack repeats each gain's
    channel verdicts over the K SAPs.
    """
    y = np.asarray(measurements)
    mean = y.mean(axis=(0, 2))
    busy = mean * np.asarray(gains, dtype=float)[:, None] >= 1.0
    return _full_map(np.repeat(busy[:, None, :], y.shape[0], axis=1))


def structure_of(name, raw_energy):
    """Calibrated structure scheme ``name`` decides with.

    None for schemes that decide on the truth or on raw energy: genie,
    centralized, and the non-cooperative schemes under ``raw_energy``.
    """
    if raw_energy and name.startswith("noncoop"):
        return None
    return CALIBRATION_STRUCTURE.get(name)


def structure_network(structure, sensing_mask, reference_powers, adjacency):
    """The network a structure diffuses over: (mask, powers, adjacency).

    ``sensing_mask`` is a (K, M) assignment; only ``coop-assigned`` senses
    by it, the other two sense every channel. ``standalone`` combines
    nothing: zero reference powers on the self-only graph.
    """
    if structure == "coop-assigned":
        return sensing_mask, reference_powers, adjacency
    full = np.ones(np.shape(sensing_mask), dtype=bool)
    if structure == "coop-full":
        return full, reference_powers, adjacency
    return full, np.zeros((len(full), len(full))), np.eye(len(full), dtype=bool)


def structure_weights(structures, *, measurements, sensing_mask,
                      reference_powers, adjacency, params, gains=(1.0,)):
    """Each structure's (T, K, M) weight stack, from one diffusion run.

    The frame is repeated once per structure on the channel axis, each copy
    under its structure's sensing mask, so the structures must share one
    graph. Columns are independent, so each stack is bit for bit that of
    the structure's own run. Raises DivergenceError when any weight of any
    structure goes non-finite.
    """
    k_count, m_count, _ = measurements.shape
    networks = [structure_network(s, sensing_mask, reference_powers, adjacency)
                for s in structures]
    _, powers, graph = networks[0]
    # one copy of the frame per structure: only diffusion.PACK_BYTES, which
    # runs_per_call applies to the pack, keeps a paper-scale frame out of it
    frame = (measurements if len(structures) == 1 else
             np.concatenate([measurements] * len(structures), axis=1))
    w = run_diffusion(frame, np.concatenate([n[0] for n in networks], axis=1),
                      powers, graph, params, gains=gains)
    # column (t * S + s) * M + m of w is channel m of structure s under gain t
    stacks = w.reshape(k_count, len(gains), len(structures), m_count)
    return dict(zip(structures, stacks.transpose(2, 1, 0, 3)))


def run_scheme(name, *, measurements, gains=(1.0,), truth_busy=None,
               sensing_mask=None, reference_powers=None, adjacency=None,
               params=None, thresholds=None, channel_picks=None,
               raw_energy=False, shared=None, pack=()):
    """Dispatch one scheme by id over a gain sweep; one DecisionMap for all.

    ``measurements`` is the unscaled (K, M, N) frame; gain t rescales it as
    ``measurements * gains[t]``, and slice t of the returned (T, K, M)
    ``busy`` stack holds the verdicts under it. Adaptive-filter schemes see
    the rescaled frame through ``run_diffusion``'s receiver clamp, raw
    energy detectors see it as-is, and ``truth_busy`` is the genie's
    (T, K, M) truth stack.
    ``centralized`` compares the frame mean over SAPs and iterations, times
    each gain, with 1.0 (``centralized_egc``); it rejects a frame with a
    negative or NaN sample.

    A diffusion scheme decides its structure's network (``sensing_mask``
    None: every SAP senses every channel) against ``thresholds``; under
    ``raw_energy`` a non-cooperative SAP compares its latest window's
    energy times the gain with 1.0, and rejects a latest window that is not
    finite and nonnegative. ``noncoop-singleband`` decides only each SAP's
    ``channel_picks`` channel.

    ``shared``, a dict for the schemes deciding on one frame, holds weight
    stacks by structure: a scheme decides on its structure's stack when
    there, and stores the stacks it runs. A structure in ``pack`` runs in
    one call with the rest of ``pack`` not yet run; if that call diverges
    it runs alone, so a DivergenceError is always the scheme's own.
    """
    if name == "genie":
        return genie(truth_busy)
    k_count, m_count, _ = measurements.shape
    gains = np.asarray(gains, dtype=float)
    if name == "centralized":
        if not measurements.min() >= 0:          # NaN fails it too
            raise ConfigurationError("centralized needs a nonnegative frame")
        return centralized_egc(measurements, gains)
    if name not in SCHEME_IDS:
        raise ConfigurationError(f"unknown scheme {name!r}")
    if name == "noncoop-singleband":
        picks = np.asarray(channel_picks, dtype=int)
        if (picks.shape != (k_count,) or picks.min() < 0
                or picks.max() >= m_count):
            raise ConfigurationError("need one valid channel pick per SAP")

    structure = structure_of(name, raw_energy)
    if structure is None:
        last = measurements[:, :, -1]
        if not (np.isfinite(last).all() and (last >= 0).all()):
            raise ConfigurationError(
                "raw energy needs a finite nonnegative last window")
        busy = last * gains[:, None, None] >= 1.0
    else:
        if sensing_mask is None:
            sensing_mask = np.ones((k_count, m_count), dtype=bool)
        shared = {} if shared is None else shared
        if structure not in shared:
            inputs = dict(measurements=measurements, sensing_mask=sensing_mask,
                          reference_powers=reference_powers,
                          adjacency=adjacency, gains=gains,
                          params=DiffusionParams() if params is None else params)
            group = (tuple(s for s in pack if s not in shared)
                     if structure in pack else (structure,))
            try:
                shared.update(structure_weights(group, **inputs))
            except DivergenceError:
                if group == (structure,):
                    raise
                shared.update(structure_weights((structure,), **inputs))
        busy = decide(shared[structure], thresholds)
    if name == "noncoop-singleband":
        # the self-only filter evolves each channel independently, so
        # running every channel and masking afterwards matches sensing
        # only the pick
        decided = np.arange(m_count) == picks[:, None]
        return DecisionMap(busy & decided, decided)
    return _full_map(busy)
