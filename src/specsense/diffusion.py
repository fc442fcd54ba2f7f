"""Distributed combine-then-adapt sensing over the SAP neighbor graph.

Per iteration every SAP smooths its energy measurement, combines the
previous-iteration weights of its neighbors, then adapts the combined value
on channels it senses. Channels it senses combine under adaptive distance
weights; channels it does not sense combine under reference-power weights
restricted (by default) to neighbors that do sense them, freezing when no
such neighbor exists. All SAPs advance synchronously: an iteration reads
only iteration i-1 weights. Each SAP combines over its own padded row of
neighbor slots (``neighbor_slots``), summing in ascending neighbor order:
the order of a dense K x K sum, whose extra terms are exact zeros, so the
weights are those of the dense combine bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError


@dataclass(frozen=True)
class DiffusionParams:
    step_size: float = 0.1            # adaptation gain on sensed channels
    smoothing: float = 0.95           # first-order energy filter coefficient
    iterations: int = 200
    epsilon_guard: float = 1e-12      # floor on squared weight distances
    initial_weight: float = 0.0
    beta_set: str = "informative"     # "informative" | "all-neighbors"

    def __post_init__(self):
        if not 0.0 < self.smoothing < 1.0:
            raise ConfigurationError("smoothing must lie in (0, 1)")
        if self.step_size <= 0:
            raise ConfigurationError("step_size must be positive")
        if self.iterations < 0:
            raise ConfigurationError("iterations must be >= 0")
        if self.beta_set not in ("informative", "all-neighbors"):
            raise ConfigurationError(f"unknown beta_set {self.beta_set!r}")


@dataclass
class DiffusionState:
    """Weights, smoothed energies, and last combined values after a run."""

    w: np.ndarray        # (K, T*M), gain-major
    d: np.ndarray        # (K, T*M)
    psi: np.ndarray      # (K, T*M)
    iteration: int


# ---------------------------------------------------------------------------
# Scalar building blocks shared by the network run
# ---------------------------------------------------------------------------

def smooth_energy(d_prev, y, smoothing):
    return smoothing * d_prev + (1.0 - smoothing) * y


def compute_gamma(d, y, w_prev):
    return (d - y * w_prev) * y


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


def _beta_slots(nbr, valid, sensing_mask, reference_powers, beta_set):
    """Fixed combination weights for unsensed channels in slot form, (S, K, M)."""
    k_count = nbr.shape[1]
    others = (valid & (nbr != np.arange(k_count)))[:, :, None]
    if beta_set == "informative":
        informative = others & sensing_mask[nbr]
    else:
        informative = np.repeat(others, sensing_mask.shape[1], axis=2)
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
                  params, gains=(1.0,), ceiling=None, audit=None, trace=None):
    """Run the full synchronous algorithm over a gain sweep; return the final state.

    ``measurements`` is the unscaled (K, M, N) energy frame. Gain t sees it
    as ``clip_dynamic_range(measurements * gains[t], ceiling)`` (``ceiling``
    None: no receiver clamp), formed one iteration slice at a time. Channels
    evolve independently, so the T gains run as T*M channels of one network,
    laid out gain-major: column ``t * M + m`` of the returned (K, T*M)
    arrays is channel m under gain t, bit for bit what a single-gain run on
    that frame returns. Row k of the (K, K) ``adjacency`` lists SAP k's
    neighbors, itself included; an iteration costs O(S * K * T * M) for
    largest degree S.

    ``audit``, if given, is called each iteration with
    (i, alpha, beta, has_informative): alpha[s, k, c] and beta[s, k, c]
    weigh SAP k's slot-s neighbor on column c. alpha lives in a buffer the
    next iteration overwrites, so ``audit`` must not keep a reference to
    it. ``trace``, if a list, collects (i, w, d, psi) snapshots. Raises
    ConfigurationError on a short frame or a malformed adjacency and
    DivergenceError when any final weight is non-finite.
    """
    y_all = np.asarray(measurements, dtype=float)
    k_count, m_count, n_iter = y_all.shape
    if n_iter < 1:
        raise ConfigurationError("need at least one measurement iteration")
    if params.iterations > n_iter:
        raise ConfigurationError("more iterations requested than measurements")
    adjacency = np.asarray(adjacency, dtype=bool)
    if adjacency.shape != (k_count, k_count) or not adjacency.diagonal().all():
        raise ConfigurationError(
            f"adjacency must be ({k_count}, {k_count}) with every SAP its own "
            f"neighbor, got shape {adjacency.shape}")
    gains = np.asarray(gains, dtype=float)
    columns = gains.size * m_count
    sensing_mask = np.asarray(sensing_mask, dtype=bool)
    mu = params.step_size

    def conditioned(i):
        y = clip_dynamic_range(y_all[:, None, :, i] * gains[None, :, None],
                               ceiling)
        return y.reshape(k_count, columns)

    nbr, valid = neighbor_slots(adjacency)
    beta, has_informative = _beta_slots(nbr, valid, sensing_mask,
                                        reference_powers, params.beta_set)
    # Slot-major layout, (s, k, column): every neighbor sum runs as an
    # outer-axis reduction, which numpy accumulates in slot order whatever
    # the column count, so no column's arithmetic depends on T or M.
    beta = np.tile(beta, gains.size)
    valid = valid[:, :, None]
    sensing_mask = np.tile(sensing_mask, gains.size)
    has_informative = np.tile(has_informative, gains.size)
    freeze = ~sensing_mask & ~has_informative
    any_unsensed = not sensing_mask.all()

    w = np.full((k_count, columns), float(params.initial_weight))
    d = conditioned(0)
    psi = w.copy()
    w_nbr = np.empty((nbr.shape[0], k_count, columns))
    buf = np.empty_like(w_nbr)
    total = np.empty((k_count, columns))

    for i in range(params.iterations):
        y = conditioned(i)
        d = smooth_energy(d, y, params.smoothing)
        gamma = compute_gamma(d, y, w)

        # alpha = valid / max((target_k - w_nbr)^2, eps), normalized over slots
        target = w + mu * gamma                                    # (K, T*M)
        np.take(w, nbr, axis=0, out=w_nbr, mode="clip")
        np.subtract(target, w_nbr, out=buf)
        np.square(buf, out=buf)
        np.maximum(buf, params.epsilon_guard, out=buf)
        np.divide(1.0, buf, out=buf)
        buf *= valid
        np.add.reduce(buf, axis=0, out=total)
        buf /= total
        if audit is not None:
            audit(i, buf, beta, has_informative)

        buf *= w_nbr
        psi = np.add.reduce(buf, axis=0)
        if any_unsensed:
            np.multiply(beta, w_nbr, out=buf)
            psi = np.where(sensing_mask, psi, np.add.reduce(buf, axis=0))
            psi[freeze] = w[freeze]

        w = psi + np.where(sensing_mask, mu * y * (d - y * psi), 0.0)
        if trace is not None:
            trace.append((i, w.copy(), d.copy(), psi.copy()))

    finite = np.isfinite(w)
    if not finite.all():
        per_gain = finite.reshape(k_count, gains.size, m_count).all(axis=(0, 2))
        first = int(np.argmin(per_gain))
        raise DivergenceError(first, float(gains[first]))
    return DiffusionState(w, d, psi, params.iterations)


def clip_dynamic_range(measurements, ceiling):
    """Receiver front-end clamp; ``ceiling=None`` disables it."""
    if ceiling is None:
        return measurements
    return np.minimum(measurements, ceiling)


def default_ceiling(params):
    """Largest energy the adaptation stays contractive for: mu * y^2 <= 1."""
    return float(np.sqrt(1.0 / params.step_size))


def calibrate_threshold(sensing_mask, reference_powers, adjacency, params, rng,
                        calibration_runs=10, estimate_shape=0.7, ceiling=None):
    """Per-(SAP, channel) thresholds from known-energy training runs.

    Feeds the network injected samples of known energy 1.0 (the normalized
    reference level) on every channel, corrupted only by the receiver's own
    estimation noise (unit-mean Gamma with ``estimate_shape``; None for
    noiseless), and averages the resulting final weights over
    ``calibration_runs`` runs. The same receiver ``ceiling`` used on live
    measurements must be supplied here. In normalized units the result is
    threshold-independent. A run whose weights go non-finite raises
    DivergenceError.
    """
    k_count, m_count = sensing_mask.shape
    shape = (k_count, m_count, params.iterations)
    total = np.zeros((k_count, m_count))
    for _ in range(calibration_runs):
        if estimate_shape is None:
            u = np.ones(shape)
        else:
            u = rng.gamma(estimate_shape, 1.0 / estimate_shape, size=shape)
        state = run_diffusion(u, sensing_mask, reference_powers, adjacency,
                              params, ceiling=ceiling)
        total += state.w
    return total / calibration_runs

