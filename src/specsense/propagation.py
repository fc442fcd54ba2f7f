"""Received-power modeling: pathloss, shadowing, fading, energy frames.

All linear powers inside the simulator are normalized so that one reference
level, ``REFERENCE_DBM`` (-62 dBm, the 802.11 energy-detect level), maps to
1.0 (raw watts around 1e-13 would make the adaptive update numerically
dead); ``threshold_gain`` maps a swept threshold onto it.

Randomness is layered by time scale. Per realization: incumbent band draws,
LOS states, shadowing, and small-scale fading, all static across the sensing
window (block fading). Ground truth is the realized energy level present at
each SAP this window: noise floor plus the shadowed, faded incumbent power,
computed once by ``compute_ground_truth``. Besides the frame, links and
truth hold one block of incumbent links and one incumbent's channel run at a
time: ``realize_links`` forms the links in blocks and snapshots the fading
stream, and the level sum draws, weighs and adds each incumbent's gains from
that snapshot on its own run. Per iteration: only the energy-estimation
noise of the detector, a unit-mean Gamma factor whose shape is the effective
number of averaged signal samples, drawn by ``estimation_noise`` into a
caller's buffer; it touches nothing but that buffer and its generator, so a
caller may draw it on a helper thread. The frame is the truth times that
noise, so the detectors only ever see the truth through noisy per-window
estimates.
"""

from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError

THERMAL_NOISE_DBM_PER_HZ = -174.0
REFERENCE_DBM = -62.0
LINK_BLOCK_BYTES = 1 << 18   # widest temporary of one block of incumbent links


def dbm_to_norm(dbm):
    """Linear power in normalized units where REFERENCE_DBM maps to 1.0."""
    return 10.0 ** ((np.asarray(dbm, dtype=float) - REFERENCE_DBM) / 10.0)


def norm_to_dbm(value):
    return REFERENCE_DBM + 10.0 * np.log10(value)


def threshold_gain(threshold_dbm):
    """Factor that renormalizes power so threshold_dbm maps to 1.0."""
    return 10.0 ** ((REFERENCE_DBM - threshold_dbm) / 10.0)


def noise_floor_dbm(channel_bandwidth_hz, noise_figure_db):
    """Thermal floor -174 dBm/Hz integrated over one channel, plus noise figure."""
    return (THERMAL_NOISE_DBM_PER_HZ
            + 10.0 * np.log10(channel_bandwidth_hz)
            + noise_figure_db)


# ---------------------------------------------------------------------------
# Deterministic propagation formulas
# ---------------------------------------------------------------------------

def pathloss_db(distance_3d_m, carrier_hz, los, ut_height_m=1.5, model="umi"):
    """Pathloss in dB for one link.

    The ``umi`` model is the urban-microcell street-canyon form:
    LOS 32.4 + 21 log10(d) + 20 log10(f_GHz); NLOS is the max of the LOS
    value and 22.4 + 35.3 log10(d) + 21.3 log10(f_GHz) - 0.3 (h_UT - 1.5).
    ``free-space`` is the textbook free-space formula used in unit tests.
    """
    d = np.asarray(distance_3d_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError("pathloss undefined at zero distance")
    f_ghz = carrier_hz / 1e9
    if model == "free-space":
        return 32.45 + 20.0 * np.log10(d) + 20.0 * np.log10(f_ghz)
    if model != "umi":
        raise ConfigurationError(f"unknown propagation model {model!r}")
    pl_los = 32.4 + 21.0 * np.log10(d) + 20.0 * np.log10(f_ghz)
    if np.all(los):
        return pl_los
    pl_nlos = (22.4 + 35.3 * np.log10(d) + 21.3 * np.log10(f_ghz)
               - 0.3 * (ut_height_m - 1.5))
    pl_nlos = np.maximum(pl_nlos, pl_los)  # NLOS never beats LOS
    return np.where(los, pl_los, pl_nlos)


def los_probability(distance_2d_m):
    """Probability that a link of the given ground distance is line-of-sight."""
    d = np.asarray(distance_2d_m, dtype=float)
    if np.any(d < 0):
        raise ValueError("negative distance")
    with np.errstate(divide="ignore"):
        far = 18.0 / d + np.exp(-d / 36.0) * (1.0 - 18.0 / d)
    return np.where(d <= 18.0, 1.0, far)


def channel_overlap_fraction(plan, signal_center_hz, signal_bandwidth_hz,
                             channels=None):
    """Fraction of a flat incumbent signal falling in each channel.

    Centers and widths of any common shape (...) give shape (..., M), one
    row per signal; a scalar signal gives shape (M,). An index array
    ``channels`` evaluates only those columns, bit for bit.
    """
    center = np.asarray(signal_center_hz, dtype=float)[..., None]
    width = np.asarray(signal_bandwidth_hz, dtype=float)[..., None]
    lo = center - width / 2.0
    hi = center + width / 2.0
    m = np.arange(plan.channel_count) if channels is None else channels
    band_lo = (plan.center_frequency_hz - plan.total_bandwidth_hz / 2.0
               + m * plan.channel_bandwidth_hz)
    band_hi = band_lo + plan.channel_bandwidth_hz
    overlap = np.maximum(np.minimum(band_hi, hi) - np.maximum(band_lo, lo), 0.0)
    return overlap / width


# ---------------------------------------------------------------------------
# Parameters and per-realization link state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PropagationParams:
    model: str = "umi"                    # "umi" | "free-space"
    carrier_hz: float | None = None       # None: use the spectrum plan center
    shadowing_sigma_los_db: float = 4.0
    shadowing_sigma_nlos_db: float = 7.82
    fading: str = "rayleigh"              # "rayleigh" | "none", per realization
    noise_figure_db: float = 7.0
    sap_ref_tx_power_dbm: float = 23.0    # reference-signal broadcast power
    # Per-window fluctuation of the energy estimate: unit-mean Gamma with this
    # shape. Values near 1 model short windows under fast fading (shape 1 is
    # the single-sample exponential energy; below 1 is sub-Rayleigh severity);
    # None disables the fluctuation entirely.
    estimate_shape: float | None = 0.7

    def __post_init__(self):
        if self.model not in ("umi", "free-space"):
            raise ConfigurationError(f"unknown propagation model {self.model!r}")
        if self.carrier_hz is not None and not 0 < self.carrier_hz < np.inf:
            raise ConfigurationError("carrier_hz must be finite and positive")
        if not np.isfinite([self.noise_figure_db,
                            self.sap_ref_tx_power_dbm]).all():
            raise ConfigurationError("noise figure and SAP power must be finite")
        if not (0 <= self.shadowing_sigma_los_db < np.inf
                and 0 <= self.shadowing_sigma_nlos_db < np.inf):
            raise ConfigurationError("shadowing sigmas must be finite and >= 0")
        if self.fading not in ("rayleigh", "none"):
            raise ConfigurationError(f"unknown fading kind {self.fading!r}")
        if (self.estimate_shape is not None
                and not 0 < self.estimate_shape < np.inf):
            raise ConfigurationError(
                "estimate_shape must be finite and positive, or None")


@dataclass(frozen=True)
class LinkRealization:
    """Large-scale state for one realization, fixed across sensing iterations.

    Incumbent-to-SAP arrays have shape (n_inc, K). Each incumbent's signal
    overlaps one contiguous run of channels, ``inc_runs[i]`` = (first, past
    last). ``fade_state`` snapshots the fading stream before any gain is
    drawn (None without fading); ``inc_fade`` draws the gains from it.
    """

    inc_center_hz: np.ndarray      # (n_inc,)
    inc_bandwidth_hz: np.ndarray   # (n_inc,)
    inc_los: np.ndarray            # (n_inc, K) bool
    inc_gain_db: np.ndarray        # (n_inc, K) -(pathloss + shadowing)
    inc_runs: np.ndarray           # (n_inc, 2) channel run [lo, hi)
    fade_state: dict | None        # bit-generator state, None: no fading
    sap_los: np.ndarray            # (K, K) bool, symmetric
    sap_gain_db: np.ndarray        # (K, K) -(pathloss + shadowing), diag 0

    @property
    def inc_fade(self):
        """Yield (channels_hit, gains) per incumbent, in incumbent order.

        Each pass draws the (K, len(hit)) block-fading power gains afresh from
        ``fade_state``, so passes agree and take the stream of one flat draw.
        """
        k_count, state = self.inc_los.shape[1], self.fade_state
        if state is not None:
            rng = np.random.Generator(getattr(np.random, state["bit_generator"])())
            rng.bit_generator.state = state
        for lo, hi in self.inc_runs:
            shape = (k_count, hi - lo)
            yield np.arange(lo, hi), (np.ones(shape) if state is None
                                      else rng.standard_exponential(shape))


@dataclass
class MeasurementFrame:
    """Energy measurements Y[k, m, i] in normalized linear units."""

    y: np.ndarray                  # (K, M, N) > 0


@dataclass
class GroundTruth:
    """Realized per-block energy levels; ``busy_at`` thresholds them."""

    true_energy: np.ndarray        # (K, M) normalized

    def busy_at(self, threshold_dbm):
        return self.true_energy * threshold_gain(threshold_dbm) >= 1.0


def _realize_bands(scenario, plan, rng):
    """Realize every incumbent's occupied band (centers, bandwidths).

    Channel-width signals with a free center model WiFi-style auto channel
    selection: the realization draws one balanced random channel assignment
    across those incumbents (occupancy counts differ by at most one), rather
    than independent picks that would leave channels empty by chance. Other
    free-center signals land uniformly inside the sensed band.
    """
    n_inc = len(scenario.incumbents)
    bandwidths = np.zeros(n_inc)
    for i, inc in enumerate(scenario.incumbents):
        bw = inc.signal_bandwidth_hz
        if isinstance(bw, tuple):
            bw = float(bw[rng.integers(len(bw))])
        bandwidths[i] = float(bw)

    snap = np.array([inc.signal_center_hz is None
                     and abs(bandwidths[i] - plan.channel_bandwidth_hz) < 1e-6
                     for i, inc in enumerate(scenario.incumbents)], dtype=bool)
    centers = np.zeros(n_inc)
    n_snap = int(snap.sum())
    if n_snap:
        reps = -(-n_snap // plan.channel_count)
        pool = np.tile(np.arange(plan.channel_count), reps)[:n_snap]
        centers[snap] = plan.channel_centers_hz[rng.permutation(pool)]

    band_lo = plan.center_frequency_hz - plan.total_bandwidth_hz / 2.0
    band_hi = plan.center_frequency_hz + plan.total_bandwidth_hz / 2.0
    for i, inc in enumerate(scenario.incumbents):
        bw = bandwidths[i]
        if inc.signal_center_hz is not None:
            centers[i] = float(inc.signal_center_hz)
        elif not snap[i]:
            lo, hi = band_lo + bw / 2.0, band_hi - bw / 2.0
            centers[i] = (plan.center_frequency_hz if hi <= lo
                          else float(rng.uniform(lo, hi)))
        if centers[i] - bw / 2.0 < band_lo - 1e-6 or centers[i] + bw / 2.0 > band_hi + 1e-6:
            raise ConfigurationError("incumbent band outside the sensed spectrum")
    return centers, bandwidths


def realize_links(scenario, rng_bands, rng_shadow, rng_fading):
    """Draw all per-realization randomness of the propagation state.

    ``rng_bands`` drives the realization geometry (incumbent band draws and
    LOS states), ``rng_shadow`` the shadowing, ``rng_fading`` the
    block-fading gains, drawn from a snapshot of it (it is not consumed)
    whenever ``inc_fade`` is read. All three shape ground truth, which is the
    realized (shadowed, faded) level; only the estimation noise drawn by
    ``estimation_noise`` is confined to the measurements. Incumbent links and
    channel runs are formed in blocks of incumbents whose widest temporary,
    (block, max(2K, M)) floats, fits ``LINK_BLOCK_BYTES``. Each stream draws
    its rows in order, so the blocks keep the bits of one (n_inc, K) draw.
    """
    topo = scenario.topology
    plan = scenario.spectrum
    prop = scenario.propagation
    carrier = prop.carrier_hz if prop.carrier_hz is not None else plan.center_frequency_hz
    k_count = topo.count
    ut_height = float(topo.heights_m[0])
    n_inc = len(scenario.incumbents)
    centers, bandwidths = _realize_bands(scenario, plan, rng_bands)

    # incumbent -> SAP links and each signal's run of channels, in blocks
    inc_pos = np.array([inc.position for inc in scenario.incumbents], dtype=float).reshape(n_inc, 2)
    inc_h = np.array([inc.height_m for inc in scenario.incumbents], dtype=float)
    inc_los = np.ones((n_inc, k_count), dtype=bool)
    inc_gain_db = np.empty((n_inc, k_count))
    runs = np.empty((n_inc, 2), dtype=np.intp)
    rows = max(1, LINK_BLOCK_BYTES // (8 * max(2 * k_count, plan.channel_count)))
    for start in range(0, n_inc, rows):
        blk = slice(start, start + rows)
        d2d = np.sqrt(((inc_pos[blk, None, :] - topo.positions[None, :, :]) ** 2).sum(axis=2))
        d2d = np.maximum(d2d, 1.0)  # clamp co-located transmitters to 1 m
        dz = inc_h[blk, None] - topo.heights_m[None, :]
        d3d = np.sqrt(d2d ** 2 + dz ** 2)
        los = inc_los[blk]
        if prop.model != "free-space":
            los[...] = rng_bands.uniform(size=los.shape) < los_probability(d2d)
        pl = pathloss_db(d3d, carrier, los, ut_height_m=ut_height, model=prop.model)
        sigma = np.where(los, prop.shadowing_sigma_los_db, prop.shadowing_sigma_nlos_db)
        shadow = rng_shadow.standard_normal(los.shape) * sigma
        np.negative(pl + shadow, out=inc_gain_db[blk])
        hit = channel_overlap_fraction(plan, centers[blk], bandwidths[blk]) > 0
        runs[blk, 0] = hit.argmax(axis=1)
        runs[blk, 1] = runs[blk, 0] + hit.sum(axis=1)

    # block fading per incumbent on its run of channels, drawn on demand
    fade_state = (rng_fading.bit_generator.state
                  if prop.fading == "rayleigh" else None)

    # SAP <-> SAP links: shared LOS per pair, shadowing per direction
    sd2d = np.sqrt(((topo.positions[:, None, :] - topo.positions[None, :, :]) ** 2).sum(axis=2))
    sd2d = np.maximum(sd2d, 1.0)
    if prop.model == "free-space":
        sap_los = np.ones((k_count, k_count), dtype=bool)
    else:
        upper = rng_bands.uniform(size=(k_count, k_count)) < los_probability(sd2d)
        iu = np.triu_indices(k_count, 1)
        sap_los = np.eye(k_count, dtype=bool)
        sap_los[iu] = upper[iu]
        sap_los = sap_los | sap_los.T
    spl = pathloss_db(sd2d, carrier, sap_los, ut_height_m=ut_height, model=prop.model)
    ssigma = np.where(sap_los, prop.shadowing_sigma_los_db, prop.shadowing_sigma_nlos_db)
    sshadow = rng_shadow.standard_normal((k_count, k_count)) * ssigma
    sap_gain_db = -(spl + sshadow)
    np.fill_diagonal(sap_gain_db, 0.0)

    return LinkRealization(centers, bandwidths, inc_los, inc_gain_db,
                           runs, fade_state, sap_los, sap_gain_db)


def received_level(scenario, links):
    """Static per-block incumbent energy, shape (K, M).

    The level a receiver actually sees this realization: transmit power
    split flat over the channels each signal overlaps, through pathloss,
    shadowing and block fading. One pass over ``links.inc_fade`` draws each
    incumbent's gains, scales them in place by its overlap fractions on its
    own channel run and adds them in, so at most one incumbent's are live:
    each draw is taken with ``next`` and dropped before the next one, where
    a ``zip`` or ``enumerate`` tuple would keep the last one alive.
    """
    plan = scenario.spectrum
    total = np.zeros((scenario.topology.count, plan.channel_count))
    fades = links.inc_fade
    for i, inc in enumerate(scenario.incumbents):
        hit, gains = next(fades)
        if hit.size == 0:
            continue
        frac = channel_overlap_fraction(plan, links.inc_center_hz[i],
                                        links.inc_bandwidth_hz[i], hit)
        rx = dbm_to_norm(inc.tx_power_dbm + links.inc_gain_db[i])
        gains *= rx[:, None] * frac
        total[:, hit[0]:hit[-1] + 1] += gains  # a signal's channels are contiguous
        del gains
    return total


def compute_ground_truth(scenario, links):
    """Energy actually present at each SAP this window, normalized.

    Noise floor plus shadowed, faded incumbent power. A block is busy at
    threshold t when ``busy_at(t)`` says this level reaches it; the
    measurements estimate this level, so the genie is exactly a perfect
    estimator.
    """
    plan = scenario.spectrum
    prop = scenario.propagation
    v = dbm_to_norm(noise_floor_dbm(plan.channel_bandwidth_hz, prop.noise_figure_db))
    level = received_level(scenario, links)
    level += v  # in place, the same bits as v + level: one (K, M) array
    return GroundTruth(level)


def estimation_noise(out, estimate_shape, rng):
    """Fill ``out`` with unit-mean Gamma(``estimate_shape``) factors; return it.

    Bit-equal to ``rng.gamma(shape, 1 / shape, out.shape)``; None fills ones
    (noiseless). Touches only ``out`` and ``rng``, so any thread may run it.
    """
    if estimate_shape is None:
        out.fill(1.0)
    else:
        rng.standard_gamma(estimate_shape, out=out)
        out *= 1.0 / estimate_shape
    return out


def generate_measurements(truth, noise):
    """Energy frame Y[k, m, i]: the true level times estimation noise.

    ``noise``, the (K, M, N) draw of ``estimation_noise`` (made off the
    calling thread in a campaign), is scaled in place and becomes the frame.
    """
    noise *= truth.true_energy[:, :, None]
    return MeasurementFrame(noise)


def generate_reference_powers(scenario, sap_gain_db):
    """Neighbor reference-signal powers P[k, j] over SAP link gains in dB.

    Zero off-neighborhood and on the diagonal.
    """
    adjacency = scenario.topology.adjacency
    rx_dbm = scenario.propagation.sap_ref_tx_power_dbm + sap_gain_db
    p_hat = dbm_to_norm(rx_dbm)
    mask = adjacency & ~np.eye(adjacency.shape[0], dtype=bool)
    return np.where(mask, p_hat, 0.0)
