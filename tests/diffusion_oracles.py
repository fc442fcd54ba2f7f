"""Reference forms of the diffusion run, for tests to compare the kernel with.

Scalar building blocks, the per-SAP oracle built from them (a plain loop
over SAPs and channels, equal to ``run_diffusion`` to rounding), and the
dense oracle (a (K, K, T*M) combine, equal to it bit for bit). The dense
oracle carries the audit of the combination weights: a test audits it on
its inputs, then checks that the kernel returns the oracle's bytes.
"""

import numpy as np

from specsense.diffusion import DivergenceError, default_ceiling
from specsense.model import ConfigurationError


def smooth_energy(d_prev, y, smoothing):
    return smoothing * d_prev + (1.0 - smoothing) * y


def compute_gamma(d, y, w_prev):
    return (d - y * w_prev) * y


def alpha_weights(w_self_prev, step_size, gamma, neighbor_w_prev):
    """Distance-based combination weights over a neighborhood (self included)."""
    target = w_self_prev + step_size * gamma
    dist2 = (target - np.asarray(neighbor_w_prev, dtype=float)) ** 2
    inv = 1.0 / np.maximum(dist2, 1e-12)
    return inv / inv.sum()


def beta_weights(reference_powers_of_informative):
    """Reference-power-proportional weights over the informative neighbors."""
    p = np.asarray(reference_powers_of_informative, dtype=float)
    total = p.sum()
    if total <= 0:
        raise ConfigurationError("no informative neighbor with positive reference power")
    return p / total


def adapt(psi, y, d, step_size, senses_channel):
    return psi + (step_size * y * (d - y * psi) if senses_channel else 0.0)


def clip(y, params):
    """The receiver clamp ``run_diffusion`` applies: sqrt(1/mu)."""
    return np.minimum(y, default_ceiling(params))


def per_sap_oracle(y, mask, p_hat, adjacency, params):
    """Final weights of the synchronous algorithm, one SAP and channel at a time."""
    k_count, m_count, _ = y.shape
    w = np.zeros((k_count, m_count))
    d = y[:, :, 0].copy()
    for i in range(params.iterations):
        d = smooth_energy(d, y[:, :, i], params.smoothing)
        new = np.empty_like(w)
        for k in range(k_count):
            nbrs = np.flatnonzero(adjacency[k])
            others = nbrs[nbrs != k]
            for m in range(m_count):
                if mask[k, m]:
                    gamma = compute_gamma(d[k, m], y[k, m, i], w[k, m])
                    a = alpha_weights(w[k, m], params.step_size, gamma,
                                      w[nbrs, m])
                    psi = a @ w[nbrs, m]
                else:
                    informative = others[mask[others, m]]
                    if p_hat[k, informative].sum() > 0:
                        psi = beta_weights(p_hat[k, informative]) @ w[informative, m]
                    else:
                        psi = w[k, m]                       # frozen
                new[k, m] = adapt(psi, y[k, m, i], d[k, m], params.step_size,
                                  mask[k, m])
        w = new
    return w


def dense_oracle(measurements, mask, p_hat, adjacency, params, gains=(1.0,),
                 audit=None):
    """Final weights of the network run as a dense (K, K, T*M) combine.

    Every SAP sums over all K SAPs, non-neighbors weighted by exact zeros.
    The sums run in the same neighbor order as ``run_diffusion``, so the
    weights agree bit for bit.

    ``audit``, if given, is called each iteration with
    (i, alpha, beta, has_informative), in the caller's SAP order:
    alpha[k, j, c] and beta[k, j, c], each (K, K, T*M), weigh SAP k's
    neighbor j on column c, exactly 0 off the graph, and has_informative
    (K, T*M) marks the blocks with an informative neighbor. alpha is a view
    of a buffer the iteration goes on to overwrite, so ``audit`` must not
    keep it.
    """
    y_all = np.asarray(measurements, dtype=float)
    k_count, m_count, _ = y_all.shape
    gains = np.asarray(gains, dtype=float)
    columns = gains.size * m_count
    mu = params.step_size

    def conditioned(i):
        y = clip(y_all[:, None, :, i] * gains[None, :, None], params)
        return y.reshape(k_count, columns)

    non_self = adjacency & ~np.eye(k_count, dtype=bool)
    informative = non_self[:, :, None] & mask[None, :, :]
    p = np.where(informative, p_hat[:, :, None], 0.0)
    # j in ascending order: with M = 1, p.sum(axis=1) would reduce a
    # contiguous axis, which numpy sums pairwise
    denom = np.zeros((k_count, m_count))
    for j in range(k_count):
        denom += p[:, j, :]
    beta = np.divide(p, denom[:, None, :], out=np.zeros_like(p),
                     where=denom[:, None, :] > 0)
    beta = np.tile(beta, gains.size)
    beta_jk = beta.transpose(1, 0, 2)
    adj_jk = adjacency.T[:, :, None]
    mask = np.tile(mask, gains.size)
    has_informative = np.tile(denom > 0, gains.size)
    freeze = ~mask & ~has_informative

    w = np.zeros((k_count, columns))
    d = conditioned(0)
    buf = np.empty((k_count, k_count, columns))
    for i in range(params.iterations):
        y = conditioned(i)
        d = smooth_energy(d, y, params.smoothing)
        target = w + mu * compute_gamma(d, y, w)
        np.subtract(target[None, :, :], w[:, None, :], out=buf)
        np.square(buf, out=buf)
        np.maximum(buf, 1e-12, out=buf)
        np.divide(1.0, buf, out=buf)
        buf *= adj_jk
        buf /= np.add.reduce(buf, axis=0)
        if audit is not None:
            audit(i, buf.transpose(1, 0, 2), beta, has_informative)
        buf *= w[:, None, :]
        psi = np.add.reduce(buf, axis=0)
        if not mask.all():
            np.multiply(beta_jk, w[:, None, :], out=buf)
            psi = np.where(mask, psi, np.add.reduce(buf, axis=0))
            psi[freeze] = w[freeze]
        w = psi + np.where(mask, mu * y * (d - y * psi), 0.0)

    finite = np.isfinite(w)
    if not finite.all():
        per_gain = finite.reshape(k_count, gains.size, m_count).all(axis=(0, 2))
        first = int(np.argmin(per_gain))
        raise DivergenceError(first, float(gains[first]))
    return w


def simplex_audit(adjacency, mask, gain_count, record=None):
    """Audit callback for ``dense_oracle``: the weights stay on the simplex
    and put no weight off the graph. Appends each audited iteration to
    ``record`` if given."""
    off_graph = ~np.asarray(adjacency, dtype=bool)
    unsensed = ~np.tile(mask, gain_count)

    def audit(i, alpha, beta, has_informative):
        assert alpha.shape == beta.shape == off_graph.shape + unsensed.shape[1:]
        assert (alpha >= 0.0).all() and (beta >= 0.0).all()
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-9)
        # alpha and beta only draw from neighbors
        assert not alpha[off_graph].any()
        assert not beta[off_graph].any()
        covered = unsensed & has_informative
        np.testing.assert_allclose(beta.sum(axis=1)[covered], 1.0, atol=1e-9)
        if record is not None:
            record.append(i)
    return audit
