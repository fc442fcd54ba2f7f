"""Distributed combine-then-adapt sensing over the SAP neighbor graph.

Per iteration every SAP smooths its energy measurement, combines the
previous-iteration weights of its neighbors, then adapts the combined value
on channels it senses. Channels it senses combine under adaptive distance
weights; channels it does not sense combine under reference-power weights
restricted (by default) to neighbors that do sense them, freezing when no
such neighbor exists. All SAPs advance synchronously: an iteration reads
only iteration i-1 weights.
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

def _beta_matrices(adjacency, sensing_mask, reference_powers, beta_set):
    """Fixed combination weights for unsensed channels, shape (K, K, M)."""
    k_count = adjacency.shape[0]
    m_count = sensing_mask.shape[1]
    non_self = adjacency & ~np.eye(k_count, dtype=bool)
    if beta_set == "informative":
        informative = non_self[:, :, None] & sensing_mask[None, :, :]
    else:
        informative = np.repeat(non_self[:, :, None], m_count, axis=2)
    p = np.where(informative, reference_powers[:, :, None], 0.0)
    denom = p.sum(axis=1)                      # (K, M)
    has_informative = denom > 0
    beta = np.divide(p, denom[:, None, :], out=np.zeros_like(p),
                     where=denom[:, None, :] > 0)
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
    that frame returns.

    ``audit``, if given, is called each iteration with
    (i, alpha, beta, has_informative) for invariant checks; alpha lives in a
    buffer the next iteration overwrites, so ``audit`` must not keep a
    reference to it. ``trace``, if a list, collects (i, w, d, psi) snapshots.
    Raises DivergenceError when any final weight is non-finite.
    """
    y_all = np.asarray(measurements, dtype=float)
    k_count, m_count, n_iter = y_all.shape
    if n_iter < 1:
        raise ConfigurationError("need at least one measurement iteration")
    if params.iterations > n_iter:
        raise ConfigurationError("more iterations requested than measurements")
    gains = np.asarray(gains, dtype=float)
    columns = gains.size * m_count
    sensing_mask = np.asarray(sensing_mask, dtype=bool)
    adjacency = np.asarray(adjacency, dtype=bool)
    mu = params.step_size

    def conditioned(i):
        y = clip_dynamic_range(y_all[:, None, :, i] * gains[None, :, None],
                               ceiling)
        return y.reshape(k_count, columns)

    beta, has_informative = _beta_matrices(adjacency, sensing_mask,
                                           reference_powers, params.beta_set)
    # Neighbor-major layout, (j, k, column): every sum over neighbors j runs
    # as an outer-axis reduction, which numpy accumulates in j order whatever
    # the column count, so no column's arithmetic depends on T or M.
    beta_jk = np.tile(beta.transpose(1, 0, 2), gains.size)
    adj_jk = adjacency.T[:, :, None]
    sensing_mask = np.tile(sensing_mask, gains.size)
    has_informative = np.tile(has_informative, gains.size)
    freeze = ~sensing_mask & ~has_informative
    any_unsensed = not sensing_mask.all()

    w = np.full((k_count, columns), float(params.initial_weight))
    d = conditioned(0)
    psi = w.copy()
    buf = np.empty((k_count, k_count, columns))
    total = np.empty((k_count, columns))

    for i in range(params.iterations):
        y = conditioned(i)
        d = smooth_energy(d, y, params.smoothing)
        gamma = compute_gamma(d, y, w)

        # alpha[j, k] = adj * 1/max((target_k - w_j)^2, eps), normalized over j
        target = w + mu * gamma                                    # (K, T*M)
        np.subtract(target[None, :, :], w[:, None, :], out=buf)
        np.square(buf, out=buf)
        np.maximum(buf, params.epsilon_guard, out=buf)
        np.divide(1.0, buf, out=buf)
        buf *= adj_jk
        np.add.reduce(buf, axis=0, out=total)
        buf /= total
        if audit is not None:
            audit(i, buf.transpose(1, 0, 2), beta_jk.transpose(1, 0, 2),
                  has_informative)

        buf *= w[:, None, :]
        psi = np.add.reduce(buf, axis=0)
        if any_unsensed:
            np.multiply(beta_jk, w[:, None, :], out=buf)
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

