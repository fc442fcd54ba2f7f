"""Distributed combine-then-adapt sensing over the SAP neighbor graph.

Weights start at zero. Per iteration every SAP smooths its energy
measurement, combines the previous-iteration weights of its neighbors, then
adapts the combined value on channels it senses. Channels it senses combine
under adaptive distance weights; channels it does not sense combine under
reference-power weights restricted to neighbors that do sense them,
freezing when no such neighbor exists. All SAPs advance synchronously: an
iteration reads only iteration i-1 weights. Each SAP combines over its own
padded row of neighbor slots (``neighbor_slots``), summing in ascending
neighbor order: the order of a dense K x K sum, whose extra terms are exact
zeros, so the weights are those of the dense combine bit for bit.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, check_integer
from .propagation import estimation_noise

EPSILON_GUARD = 1e-12                 # floor on squared weight distances


@dataclass(frozen=True)
class DiffusionParams:
    step_size: float = 0.1            # adaptation gain on sensed channels
    smoothing: float = 0.95           # first-order energy filter coefficient
    iterations: int = 200

    def __post_init__(self):
        if not 0.0 < self.smoothing < 1.0:
            raise ConfigurationError("smoothing must lie in (0, 1)")
        if not 0.0 < self.step_size < np.inf:
            raise ConfigurationError("step_size must be finite and positive")
        check_integer("iterations", self.iterations, 0)


# ---------------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------------

def decide(w, thresholds):
    """Busy verdicts: a block is busy when its weight reaches the threshold."""
    return np.asarray(w) >= np.asarray(thresholds)


# ---------------------------------------------------------------------------
# Synchronous network run
# ---------------------------------------------------------------------------

def neighbor_slots(adjacency):
    """Padded neighbor table of a (K, K) graph: ``(nbr, valid)``, each (S, K).

    Slot s of SAP k holds its s-th neighbor j (``adjacency[k, j]``) in
    ascending j order; S is the largest degree. Slots past a SAP's degree
    hold the SAP itself with ``valid`` False and get an exact 0 weight.
    """
    adjacency = np.asarray(adjacency, dtype=bool)
    k_count = adjacency.shape[0]
    degree = adjacency.sum(axis=1)
    valid = np.arange(degree.max(initial=0))[:, None] < degree
    nbr = np.tile(np.arange(k_count), (valid.shape[0], 1))
    nbr.T[valid.T] = np.nonzero(adjacency)[1]      # row-major: k, then j
    return nbr, valid


def _beta_slots(nbr, valid, sensing_mask, reference_powers):
    """Unsensed channels' weights, (S, K, M): informative neighbors' powers."""
    k_count = nbr.shape[1]
    others = (valid & (nbr != np.arange(k_count)))[:, :, None]
    informative = others & sensing_mask[nbr]
    p_slot = np.asarray(reference_powers, dtype=float)[np.arange(k_count), nbr]
    p = np.where(informative, p_slot[:, :, None], 0.0)
    denom = np.add.reduce(p, axis=0)                 # (K, M)
    has_informative = denom > 0
    beta = np.divide(p, denom, out=np.zeros_like(p), where=has_informative)
    return beta, has_informative


class DivergenceError(ArithmeticError):
    """Final weights went NaN or infinite, first under gain ``gain_index``."""

    def __init__(self, gain_index, gain):
        super().__init__(f"diffusion weights went non-finite under gain "
                         f"{gain!r} (gain index {gain_index})")
        self.gain_index = gain_index


def run_diffusion(measurements, sensing_mask, reference_powers, adjacency,
                  params, gains=(1.0,), audit=None):
    """Run the full synchronous algorithm over a gain sweep; return the weights.

    ``measurements`` is the unscaled (K, M, N) energy frame. Gain t sees it
    as ``np.minimum(measurements * gains[t], default_ceiling(params))``,
    formed one iteration slice at a time: the receiver clamp at sqrt(1/mu)
    keeps every sample within the adaptation's mu * y^2 <= 1 stability
    bound, and a NaN sample passes it. Channels evolve independently, so
    the T gains run as T*M channels of one network, laid out gain-major:
    column ``t * M + m`` of the returned (K, T*M) weights is channel m under
    gain t, bit for bit what a single-gain run on that frame returns.
    Iteration i reads frame slice i alone: the weights after it are a run
    on ``measurements[:, :, :i + 1]`` with ``iterations=i + 1``. Row k of
    the (K, K) ``adjacency`` lists SAP k's neighbors, itself included; an
    iteration costs O(S * K * T * M) for largest degree S and allocates
    nothing: its temporaries live in two (S, K, T*M) and five (K, T*M)
    buffers made once per call. The alpha distances floor at
    ``EPSILON_GUARD`` on a neighbor's slot and at +inf on a padded slot, so
    a padded slot's alpha is 1/inf, the exact +0.0 the dense combine gives
    a non-neighbor, with no mask pass.

    ``audit``, if given, is called each iteration with
    (i, alpha, beta, has_informative): alpha[s, k, c] and beta[s, k, c]
    weigh SAP k's slot-s neighbor on column c. alpha lives in a buffer the
    next iteration overwrites, so ``audit`` must not keep a reference to
    it. Raises ConfigurationError on a short frame or a malformed
    adjacency and DivergenceError when any final weight is non-finite.
    """
    y_all = np.asarray(measurements, dtype=float)
    k_count, m_count, n_iter = y_all.shape
    if n_iter < 1:
        raise ConfigurationError("need at least one measurement iteration")
    if params.iterations > n_iter:
        raise ConfigurationError("more iterations requested than measurements")
    adjacency = np.asarray(adjacency, dtype=bool)
    if adjacency.shape != (k_count, k_count):
        raise ConfigurationError(f"adjacency must be ({k_count}, {k_count}), "
                                 f"got shape {adjacency.shape}")
    if not adjacency.diagonal().all():
        raise ConfigurationError("adjacency must list every SAP as its own "
                                 "neighbor")
    gains = np.asarray(gains, dtype=float)
    t_count = gains.size
    columns = t_count * m_count
    sensing_mask = np.asarray(sensing_mask, dtype=bool)
    mu = params.step_size
    fresh = 1.0 - params.smoothing
    ceiling = default_ceiling(params)

    nbr, valid = neighbor_slots(adjacency)
    s_count = nbr.shape[0]
    beta, has_informative = _beta_slots(nbr, valid, sensing_mask,
                                        reference_powers)
    # Slot-major layout, (s, k, column): every neighbor sum runs as an
    # outer-axis reduction, which numpy accumulates in slot order whatever
    # the column count, so no column's arithmetic depends on T or M. Every
    # temporary lives in a buffer made here.
    beta = np.tile(beta, t_count)
    floor = np.where(valid, EPSILON_GUARD, np.inf)[:, :, None]
    unsensed = np.tile(~sensing_mask, t_count)
    has_informative = np.tile(has_informative, t_count)
    freeze = unsensed & ~has_informative
    any_unsensed = unsensed.any()

    y_gain = np.empty((k_count, t_count, m_count))
    y = y_gain.reshape(k_count, columns)
    w = np.zeros((k_count, columns))
    d, psi, tmp = (np.empty_like(w) for _ in range(3))
    w_nbr = np.empty((s_count, k_count, columns))
    buf = np.empty_like(w_nbr)

    def condition(i):
        np.multiply(y_all[:, None, :, i], gains[None, :, None], out=y_gain)
        np.minimum(y_gain, ceiling, out=y_gain)

    # a NaN sample, or a negative one the clamp leaves, can overflow to inf
    # and then NaN; the finiteness check below reports it as one
    # DivergenceError instead of numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        condition(0)
        np.copyto(d, y)
        for i in range(params.iterations):
            condition(i)
            d *= params.smoothing                   # d = s * d + (1 - s) * y
            np.multiply(y, fresh, out=tmp)
            d += tmp
            np.multiply(y, w, out=tmp)              # target = w + mu * gamma,
            np.subtract(d, tmp, out=tmp)            # gamma = (d - y * w) * y
            tmp *= y
            tmp *= mu
            tmp += w

            # alpha = 1 / max((target_k - w_nbr)^2, floor), normalized over
            # slots; NaN passes through maximum, so divergence still shows
            np.take(w, nbr, axis=0, out=w_nbr, mode="clip")
            np.subtract(tmp, w_nbr, out=buf)
            np.square(buf, out=buf)
            np.maximum(buf, floor, out=buf)
            np.reciprocal(buf, out=buf)
            np.add.reduce(buf, axis=0, out=tmp)
            buf /= tmp
            if audit is not None:
                audit(i, buf, beta, has_informative)

            buf *= w_nbr
            np.add.reduce(buf, axis=0, out=psi)
            if any_unsensed:
                np.multiply(beta, w_nbr, out=buf)
                np.add.reduce(buf, axis=0, out=tmp)
                np.putmask(psi, unsensed, tmp)
                np.putmask(psi, freeze, w)

            # w = psi + (mu * y * (d - y * psi) on sensed channels, else 0)
            np.multiply(y, psi, out=tmp)
            np.subtract(d, tmp, out=tmp)
            np.multiply(y, mu, out=w)
            w *= tmp
            if any_unsensed:
                np.putmask(w, unsensed, 0.0)
            w += psi

    finite = np.isfinite(w)
    if not finite.all():
        per_gain = finite.reshape(k_count, gains.size, m_count).all(axis=(0, 2))
        first = int(np.argmin(per_gain))
        raise DivergenceError(first, float(gains[first]))
    return w


# Widest packed call: per-column cost of run_diffusion falls with the call's
# width until about this many columns on the desk and device graphs, then
# stays flat (see CHANGES.md for the sweep)
PACK_COLUMNS = 128
PACK_BYTES = 8 << 20          # largest frame a packed call reads


def runs_per_call(columns, frame_shape, runs):
    """How many of ``runs`` independent runs to pack into one call.

    Columns of ``run_diffusion`` are independent, so runs of ``columns``
    columns each, each on a float64 frame of ``frame_shape``, can run side
    by side as one call's columns. A packed call stays within
    ``PACK_COLUMNS`` columns and ``PACK_BYTES`` of frame.
    """
    frame_bytes = 8 * int(np.prod(frame_shape))
    fit = min(PACK_COLUMNS // max(columns, 1),
              PACK_BYTES // max(frame_bytes, 1))
    return max(1, min(runs, fit))


def default_ceiling(params):
    """Largest energy the adaptation stays contractive for: mu * y^2 <= 1."""
    return float(np.sqrt(1.0 / params.step_size))


def calibrate_threshold(sensing_mask, reference_powers, adjacency, params, rng,
                        calibration_runs=10, estimate_shape=0.7):
    """Per-(SAP, channel) thresholds from known-energy training runs.

    Feeds the network injected samples of known energy 1.0 (the normalized
    reference level) on every channel, corrupted only by the receiver's own
    estimation noise (``propagation.estimation_noise`` with
    ``estimate_shape``), and averages the resulting final weights over
    ``calibration_runs`` runs. The runs go ``runs_per_call`` at a time
    into one ``run_diffusion`` call, their noise side by side on the
    channel axis under the mask tiled once per run. Calibration holds its
    own noise: at most two group buffers of (K, ``runs_per_call`` * M,
    ``params.iterations``), and no other frame. A one-worker helper thread
    draws group j+1's noise from ``rng``, run by run, while group j
    diffuses on the calling thread; the draws keep their order and the runs
    are summed in run order, so the result is that of a serial loop bit for
    bit. ``run_diffusion`` clamps the training samples as it clamps live
    measurements. In normalized units the result is threshold-independent.
    Raises ConfigurationError unless ``calibration_runs`` is an integer
    >= 1, and DivergenceError when a group's weights go non-finite.
    """
    check_integer("calibration_runs", calibration_runs, 1)
    k_count, m_count = sensing_mask.shape
    shape = (k_count, m_count, params.iterations)
    per_call = runs_per_call(m_count, shape, calibration_runs)
    sizes = [min(per_call, calibration_runs - start)
             for start in range(0, calibration_runs, per_call)]
    # run_diffusion only reads its frame, so two group buffers suffice
    buffers = [np.empty((k_count, per_call * m_count, params.iterations))
               for _ in range(min(2, len(sizes)))]

    def draw(j):
        # each row of a run is a C-contiguous (M, N) block; drawn in order,
        # the rows take the stream of one (K, M, N) draw
        out = buffers[j % 2][:, :sizes[j] * m_count]
        for run in np.split(out, sizes[j], axis=1):
            for row in run:
                estimation_noise(row, estimate_shape, rng)
        return out

    total = np.zeros((k_count, m_count))
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(draw, 0)
        for j, size in enumerate(sizes):
            u = pending.result()
            if j + 1 < len(sizes):
                pending = helper.submit(draw, j + 1)
            w = run_diffusion(u, np.tile(sensing_mask, size), reference_powers,
                              adjacency, params)
            for run in np.split(w, size, axis=1):
                total += run
    return total / calibration_runs
