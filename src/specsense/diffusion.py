"""Distributed combine-then-adapt sensing over the SAP neighbor graph.

Weights start at zero. Per iteration every SAP smooths its energy
measurement, combines the previous-iteration weights of its neighbors, then
adapts the combined value on channels it senses. Channels it senses combine
under adaptive distance weights; channels it does not sense combine under
reference-power weights restricted to neighbors that do sense them,
freezing when no such neighbor exists. All SAPs advance synchronously: an
iteration reads only iteration i-1 weights. The combine runs over the
graph's edges, read straight from the adjacency, yet each SAP sums its
neighbors in ascending index order: the order of a dense K x K sum, whose
extra terms are exact zeros, so the weights are those of the dense combine
bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, check_integer

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

def _slot_sum(parts, heads):
    """Sum slot blocks of edge values into the rows they cover, in order."""
    np.copyto(heads[0], parts[0])
    for head, part in zip(heads[1:], parts[1:]):
        head += part


class DivergenceError(ArithmeticError):
    """Final weights went NaN or infinite, first under gain ``gain_index``."""

    def __init__(self, gain_index, gain):
        super().__init__(f"diffusion weights went non-finite under gain "
                         f"{gain!r} (gain index {gain_index})")
        self.gain_index = gain_index


def run_diffusion(measurements, sensing_mask, reference_powers, adjacency,
                  params, gains=(1.0,), audit=None):
    """Run the full synchronous algorithm over a gain sweep; return the weights.

    ``measurements`` is the unscaled, nonnegative (K, M, N) energy frame.
    Gain t sees it as ``np.minimum(measurements * gains[t],
    default_ceiling(params))``, formed one iteration slice at a time: the
    receiver clamp at sqrt(1/mu) keeps every sample within the adaptation's
    mu * y^2 <= 1 stability bound, and a NaN sample passes it. Channels
    evolve independently, so the T gains run as T*M channels of one
    network, laid out gain-major: column ``t * M + m`` of the returned
    (K, T*M) weights is channel m under gain t, bit for bit what a
    single-gain run on that frame returns. Iteration i reads frame slice i
    alone: the weights after it are a run on ``measurements[:, :, :i + 1]``
    with ``iterations=i + 1``. Row k of the (K, K) ``adjacency`` lists SAP
    k's neighbors, itself included. The combine runs over the graph's E
    edges (E = sum of degrees), so an iteration costs O(E * T * M) and
    allocates nothing: its temporaries live in two (E, T*M) and six
    (K, T*M) buffers made once per call.

    ``audit``, if given, is called each iteration with
    (i, alpha, beta, has_informative), all in the caller's SAP order:
    alpha[k, j, c] and beta[k, j, c], each (K, K, T*M), weigh SAP k's
    neighbor j on column c, exactly 0 off the graph. Both live in buffers
    made only for an audit, and the next iteration overwrites alpha's, so
    ``audit`` must not keep a reference to it. Raises ConfigurationError on
    a short frame, a negative sample or gain, a mask not shaped (K, M),
    powers or an adjacency not shaped (K, K), or a missing self-loop, and
    DivergenceError when any final weight is non-finite.
    """
    y_all = np.asarray(measurements, dtype=float)
    k_count, m_count, n_iter = y_all.shape
    if n_iter < 1:
        raise ConfigurationError("need at least one measurement iteration")
    if params.iterations > n_iter:
        raise ConfigurationError("more iterations requested than measurements")
    adjacency = np.asarray(adjacency, dtype=bool)
    sensing_mask = np.asarray(sensing_mask, dtype=bool)
    reference_powers = np.asarray(reference_powers, dtype=float)
    for name, array, width in (("adjacency", adjacency, k_count),
                               ("sensing_mask", sensing_mask, m_count),
                               ("reference_powers", reference_powers, k_count)):
        if array.shape != (k_count, width):
            raise ConfigurationError(f"{name} must be {(k_count, width)}, "
                                     f"got shape {array.shape}")
    if not adjacency.diagonal().all():
        raise ConfigurationError("adjacency must list every SAP as its own "
                                 "neighbor")
    gains = np.asarray(gains, dtype=float)
    # min passes NaN on, so a NaN sample or gain still diverges loud below
    if y_all.min(initial=0.0) < 0 or gains.min(initial=0.0) < 0:
        raise ConfigurationError("samples and gains must be nonnegative")
    t_count = gains.size
    columns = t_count * m_count
    mu = params.step_size
    fresh = 1.0 - params.smoothing
    ceiling = default_ceiling(params)

    # Row r is SAP order[r]: SAPs by descending degree, ties in index order,
    # so slot s, a row's s-th neighbor in index order, covers a prefix of
    # the rows, the SAPs of degree above s. Edges run slot-major, one
    # (rows, ...) block per slot, and edge e is the slot of row row[e]
    # holding SAP nbr[e]. A neighbor sum is slot 0's block plus each later
    # block added to its rows in slot order: the order of the dense K x K
    # sum, whose extra terms are exact zeros. Every temporary lives in a
    # buffer made here.
    order = np.argsort(-adjacency.sum(axis=1), kind="stable")
    # row-major: r, then j (a flat nonzero is faster than a 2-D one)
    row, nbr = np.divmod(np.flatnonzero(adjacency[order]), k_count)
    slot = np.arange(row.size) - np.searchsorted(row, row)
    edge = np.argsort(slot, kind="stable")
    row, nbr = row[edge], nbr[edge]
    rank, sap = np.argsort(order), order[row]
    src = rank[nbr]                  # the neighbor's row
    stops = np.cumsum(np.bincount(slot))[:-1]

    # beta: the reference powers of a row's informative neighbors, normalized
    informative = (nbr != sap)[:, None] & sensing_mask[nbr]
    p = np.where(informative, reference_powers[sap, nbr][:, None], 0.0)
    denom = np.empty((k_count, m_count))
    p_blocks = np.split(p, stops)
    _slot_sum(p_blocks, [denom[:len(b)] for b in p_blocks])
    has_informative = denom > 0
    beta = np.tile(np.divide(p, denom[row], out=np.zeros_like(p),
                             where=has_informative[row]), t_count)
    unsensed = np.tile(~sensing_mask[order], t_count)
    has_informative = np.tile(has_informative, t_count)
    freeze = unsensed & ~has_informative
    any_unsensed = unsensed.any()

    y_gain, y_caller = np.empty((2, k_count, t_count, m_count))
    y = y_gain.reshape(k_count, columns)
    w = np.zeros((k_count, columns))
    d, psi, tmp = (np.empty_like(w) for _ in range(3))
    w_nbr, buf = np.empty((2, row.size, columns))
    nbr_blocks, buf_blocks = np.split(w_nbr, stops), np.split(buf, stops)
    tmp_heads, psi_heads = ([a[:len(b)] for b in buf_blocks]
                            for a in (tmp, psi))
    if audit is not None:
        alpha_dense, beta_dense = np.zeros((2, k_count, k_count, columns))
        beta_dense[sap, nbr] = beta

    def condition(i):
        # scaled in the caller's order, then whole rows gathered: cheaper
        # than gathering the strided frame slice
        np.multiply(y_all[:, None, :, i], gains[None, :, None], out=y_caller)
        np.take(y_caller, order, axis=0, out=y_gain, mode="clip")
        np.minimum(y_gain, ceiling, out=y_gain)

    # a loud sample may overflow to inf before the clamp, and a NaN turns
    # weights NaN: the finiteness check below raises, not numpy warnings
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

            # alpha = 1 / max((target_k - w_nbr)^2, EPSILON_GUARD), normalized
            # over the row's edges; NaN passes through maximum, so divergence
            # still shows
            np.take(w, src, axis=0, out=w_nbr, mode="clip")
            for target, nbr_w, dist in zip(tmp_heads, nbr_blocks, buf_blocks):
                np.subtract(target, nbr_w, out=dist)
            np.square(buf, out=buf)
            np.maximum(buf, EPSILON_GUARD, out=buf)
            np.reciprocal(buf, out=buf)
            _slot_sum(buf_blocks, tmp_heads)
            for alpha, total in zip(buf_blocks, tmp_heads):
                alpha /= total
            if audit is not None:
                alpha_dense[sap, nbr] = buf
                audit(i, alpha_dense, beta_dense, has_informative[rank])

            buf *= w_nbr
            _slot_sum(buf_blocks, psi_heads)
            if any_unsensed:
                np.multiply(beta, w_nbr, out=buf)
                _slot_sum(buf_blocks, tmp_heads)
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
    return w[rank]


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


def calibrate_threshold(sensing_mask, reference_powers, adjacency, params,
                        groups):
    """Per-(SAP, channel) thresholds: training runs' final weights, averaged.

    A training run feeds the network samples of known energy 1.0 (the
    normalized reference level) times the receiver's estimation noise.
    ``groups`` yields that noise, each group R runs side by side on the
    channel axis, (K, R * M, N), for one ``run_diffusion`` call under the
    mask tiled R times, which clamps the samples as it clamps live ones.
    A group is read only until the next is asked for. Runs are summed in
    order, so any grouping gives the same bits. Raises ConfigurationError
    when ``groups`` holds no run, DivergenceError when weights diverge.
    """
    m_count = sensing_mask.shape[1]
    total = np.zeros(sensing_mask.shape)
    runs = 0
    for u in groups:
        size = u.shape[1] // m_count
        w = run_diffusion(u, np.tile(sensing_mask, size), reference_powers,
                          adjacency, params)
        for run in np.split(w, size, axis=1):
            total += run
        runs += size
    if runs == 0:
        raise ConfigurationError("calibration needs at least one run")
    return total / runs
