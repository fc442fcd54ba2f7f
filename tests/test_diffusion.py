"""Tests for the combine-then-adapt engine: scalar ops, network runs, calibration."""

import threading
import tracemalloc
from unittest import mock
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specsense import diffusion
from specsense.diffusion import (
    DiffusionParams,
    DivergenceError,
    calibrate_threshold,
    decide,
    default_ceiling,
    run_diffusion,
)
from specsense.harness import generate_scenario
from specsense.model import ConfigurationError
from specsense.propagation import estimation_noise
from specsense.seeding import substream


# ---------------------------------------------------------------------------
# Scalar building blocks, and the per-SAP reference oracle built from them
# ---------------------------------------------------------------------------

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


def dense_oracle(measurements, mask, p_hat, adjacency, params, gains=(1.0,)):
    """Final weights of the network run as a dense (K, K, T*M) combine.

    Every SAP sums over all K SAPs, non-neighbors weighted by exact zeros.
    The sums run in the same neighbor order as ``run_diffusion``, so the
    weights agree bit for bit.
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
    beta_jk = np.tile(beta.transpose(1, 0, 2), gains.size)
    adj_jk = adjacency.T[:, :, None]
    mask = np.tile(mask, gains.size)
    freeze = ~mask & ~np.tile(denom > 0, gains.size)

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


def test_smooth_energy_values():
    assert smooth_energy(1.0, 2.0, 0.9) == pytest.approx(1.1)
    assert smooth_energy(3.7, 3.7, 0.42) == pytest.approx(3.7)     # fixed point
    assert smooth_energy(1.0, 2.0, 0.0) == 2.0                     # no memory


def test_compute_gamma_values():
    assert compute_gamma(1.5, 3.0, 0.5) == 0.0                     # zero residual
    assert compute_gamma(1.0, 1.0, 0.0) == 1.0
    assert compute_gamma(1.1, 2.0, 0.5) == pytest.approx(0.2)


def test_alpha_weights_cases():
    np.testing.assert_allclose(alpha_weights(0.4, 0.1, 0.2, [0.4]), [1.0])
    # equal distances split evenly
    np.testing.assert_allclose(alpha_weights(0.5, 0.1, 1.0, [0.5, 0.7]),
                               [0.5, 0.5])
    # an exact hit on one neighbor concentrates the weight there via the guard
    w = alpha_weights(0.5, 0.1, 1.0, [0.5, 0.6])
    assert w[1] == pytest.approx(1.0, abs=1e-8)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_beta_weights_cases():
    np.testing.assert_allclose(beta_weights([2.0, 2.0]), [0.5, 0.5])
    np.testing.assert_allclose(beta_weights([3.0, 1.0]), [0.75, 0.25])
    np.testing.assert_allclose(beta_weights([0.8]), [1.0])
    with pytest.raises(ConfigurationError):
        beta_weights([0.0, 0.0])


def test_adapt_values():
    assert adapt(0.7, 5.0, 9.0, 0.1, False) == 0.7                 # not sensed
    assert adapt(0.5, 1.0, 1.0, 0.1, True) == pytest.approx(0.55)


def test_adapt_constant_input_converges_to_one():
    # noiseless constant y=c with d=c: w climbs monotonically to the fixed
    # point w*=1 whenever mu < 1/c^2
    c, mu = 2.0, 0.2
    w, d, prev = 0.0, c, -1.0
    for _ in range(300):
        prev = w
        w = adapt(w, c, d, mu, True)
        assert w >= prev                  # strict until the update underflows
        assert w > prev or prev == pytest.approx(1.0, abs=1e-12)
        assert w <= 1.0 + 1e-12
    assert w == pytest.approx(1.0, abs=1e-9)


def test_decide_boundary_and_monotone():
    w = np.array([[0.0, 1.0, 2.0]])
    lam = np.array([[0.5, 1.0, 2.5]])
    np.testing.assert_array_equal(decide(w, lam), [[False, True, False]])
    bumped = decide(w + np.array([[0.0, 0.0, 1.0]]), lam)
    assert (bumped >= decide(w, lam)).all()


def test_clip_and_default_ceiling():
    # the filter clamps the rescaled frame at sqrt(1/mu): samples above the
    # ceiling all read as the ceiling, samples below it as they are
    params = DiffusionParams(iterations=6)
    assert default_ceiling(params) == pytest.approx(np.sqrt(10.0))
    y = substream(3, "clip").uniform(0.5, 9.0, size=(1, 2, 6))
    assert (y > default_ceiling(params)).any()
    network = (np.ones((1, 2), dtype=bool), np.zeros((1, 1)),
               np.eye(1, dtype=bool))
    clamped = run_diffusion(clip(y, params), *network, params)
    assert np.array_equal(run_diffusion(y, *network, params), clamped)
    louder = np.where(y > default_ceiling(params), 1e12, y)
    assert np.array_equal(run_diffusion(louder, *network, params), clamped)
    assert np.array_equal(
        run_diffusion(y, *network, params, gains=(1.5,)),
        run_diffusion(clip(y * 1.5, params), *network, params))
    # the ceiling is sqrt(1/mu) itself: a clamp just below it differs
    assert not np.array_equal(
        run_diffusion(np.minimum(y, 3.0), *network, params), clamped)


@pytest.mark.parametrize("step_size", [1e-308, 1e-4, 0.1, 1e6])
def test_clamped_run_diverges_only_on_nan(step_size):
    # at the ceiling mu * y^2 = 1, so no sample, however loud, drives the
    # weights past the stability bound; a NaN sample on a sensed block
    # passes the clamp and fails loud under every gain
    params = DiffusionParams(step_size=step_size, iterations=20)
    rng = substream(53, "loud")
    adjacency, mask, p_hat = _random_network(rng, 6, 3)
    mask[2, 1] = True
    y = rng.uniform(size=(6, 3, 20)) * 10.0 ** rng.uniform(0, 300, (6, 3, 20))
    gains = (1.0, 1e8)
    assert np.isfinite(run_diffusion(y, mask, p_hat, adjacency, params,
                                     gains=gains)).all()
    # a NaN gain makes the frame non-finite under that gain alone
    with pytest.raises(DivergenceError) as err:
        run_diffusion(y, mask, p_hat, adjacency, params, gains=(1.0, np.nan))
    assert err.value.gain_index == 1
    y[2, 1, 7] = np.nan
    with pytest.raises(DivergenceError) as err:
        run_diffusion(y, mask, p_hat, adjacency, params, gains=gains)
    assert err.value.gain_index == 0


def test_params_validation():
    # the filter's three parameters, nothing more
    assert [f.name for f in fields(DiffusionParams)] == [
        "step_size", "smoothing", "iterations"]
    # an infinite step size would make the receiver ceiling 0
    for bad in (dict(smoothing=1.0), dict(smoothing=float("nan")),
                dict(step_size=0.0), dict(step_size=float("inf")),
                dict(step_size=float("nan")), dict(iterations=-1),
                # an integer count: a float would fail only at run time
                dict(iterations=float("nan")), dict(iterations=30.0),
                dict(iterations=True)):
        with pytest.raises(ConfigurationError):
            DiffusionParams(**bad)
    assert DiffusionParams(iterations=np.int64(30)).iterations == 30


# ---------------------------------------------------------------------------
# Network runs
# ---------------------------------------------------------------------------

def _standalone_trajectory(y, params):
    """Independent scalar reimplementation of the self-only filter."""
    w = 0.0
    d = y[0]
    out = []
    for i in range(params.iterations):
        d = params.smoothing * d + (1.0 - params.smoothing) * y[i]
        w = w + params.step_size * y[i] * (d - y[i] * w)
        out.append(w)
    return np.array(out)


def weights_per_iteration(y, mask, p_hat, adjacency, params, **kwargs):
    """Weights after each iteration i: a run on the frame cut to i + 1 slices."""
    return [run_diffusion(y[:, :, :i + 1], mask, p_hat, adjacency,
                          replace(params, iterations=i + 1), **kwargs)
            for i in range(params.iterations)]


def test_self_graph_reduces_to_standalone_filter_exactly():
    params = DiffusionParams(iterations=50)
    rng = substream(3, "reduce")
    y = rng.uniform(0.2, 2.5, size=(1, 1, 50))
    network = (np.ones((1, 1), dtype=bool), np.zeros((1, 1)),
               np.eye(1, dtype=bool))
    want = _standalone_trajectory(y[0, 0], params)
    got = np.array([w[0, 0] for w in
                    weights_per_iteration(y, *network, params)])
    np.testing.assert_array_equal(got, want)        # bit-identical reduction


def test_zero_iterations_returns_initial_state():
    params = DiffusionParams(iterations=0)
    y = np.full((2, 3, 1), 1.3)
    w = run_diffusion(y, np.ones((2, 3), dtype=bool), np.zeros((2, 2)),
                      np.eye(2, dtype=bool), params)
    np.testing.assert_array_equal(w, np.zeros((2, 3)))


def test_run_rejects_short_measurements():
    params = DiffusionParams(iterations=5)
    y = np.ones((1, 1, 3))
    with pytest.raises(ConfigurationError):
        run_diffusion(y, np.ones((1, 1), dtype=bool), np.zeros((1, 1)),
                      np.eye(1, dtype=bool), params)
    with pytest.raises(ConfigurationError):
        run_diffusion(np.ones((1, 1, 0)), np.ones((1, 1), dtype=bool),
                      np.zeros((1, 1)), np.eye(1, dtype=bool), params)


def test_run_rejects_malformed_adjacency():
    params = DiffusionParams(iterations=5)
    y = substream(43, "adjacency").uniform(0.1, 2.0, size=(3, 2, 5))
    mask = np.ones((3, 2), dtype=bool)
    p_hat = np.ones((3, 3))
    # the message names the check that failed: a square adjacency without
    # every self-loop used to read "must be (3, 3) ... got shape (3, 3)"
    for adjacency, why in ((~np.eye(3, dtype=bool), "its own neighbor"),
                           (np.ones((3, 4), dtype=bool), r"got shape \(3, 4\)")):
        with pytest.raises(ConfigurationError, match=why) as err:
            run_diffusion(y, mask, p_hat, adjacency, params)
        assert str(err.value).startswith("adjacency must ")


@pytest.mark.parametrize("mask_shape, powers_shape", [
    ((5, 2), (3, 3)), ((3,), (3, 3)), ((3, 1), (3, 3)), ((3, 2), (6, 6)),
    ((3, 2), (3,)),
])
def test_run_rejects_misshaped_mask_and_powers(mask_shape, powers_shape):
    # a taller mask or power matrix would run on its first K rows, and a
    # 1-D or one-column mask would fail deep inside numpy
    y = substream(43, "shapes").uniform(0.1, 2.0, size=(3, 2, 5))
    with pytest.raises(ConfigurationError, match=r"must be \(3, [23]\)"):
        run_diffusion(y, np.ones(mask_shape, dtype=bool),
                      np.ones(powers_shape), np.ones((3, 3), dtype=bool),
                      DiffusionParams(iterations=5))


def test_colocated_saps_share_trajectories():
    params = DiffusionParams(iterations=40)
    rng = substream(5, "twin")
    y_one = rng.uniform(0.1, 2.0, size=(1, 2, 40))
    y = np.repeat(y_one, 2, axis=0)
    p_hat = np.array([[0.0, 1.0], [1.0, 0.0]])
    w = run_diffusion(y, np.ones((2, 2), dtype=bool), p_hat,
                      np.ones((2, 2), dtype=bool), params)
    np.testing.assert_array_equal(w[0], w[1])


def test_locality_under_non_neighbor_perturbation():
    # two disconnected pairs; corrupting one pair's data must not move the
    # other pair's weights by a single bit
    params = DiffusionParams(iterations=30)
    adjacency = np.zeros((4, 4), dtype=bool)
    adjacency[:2, :2] = True
    adjacency[2:, 2:] = True
    p_hat = np.where(adjacency & ~np.eye(4, dtype=bool), 1.0, 0.0)
    mask = np.ones((4, 3), dtype=bool)
    rng = substream(7, "local")
    y = rng.uniform(0.1, 2.0, size=(4, 3, 30))
    base = run_diffusion(y, mask, p_hat, adjacency, params)
    y_pert = y.copy()
    y_pert[2:] = rng.uniform(10.0, 20.0, size=(2, 3, 30))
    pert = run_diffusion(y_pert, mask, p_hat, adjacency, params)
    np.testing.assert_array_equal(base[:2], pert[:2])
    assert not np.array_equal(base[2:], pert[2:])


def _random_network(rng, k_count, m_count, density=0.5, sensed=0.6,
                    kind="symmetric"):
    """Graph with self-loops (symmetric, one-sided, "star", "last-star" or
    "eye"), mask, powers. A star's hub, SAP 0 (the last SAP for
    "last-star"), has degree K and every other SAP degree 2."""
    adjacency = np.eye(k_count, dtype=bool)
    if kind in ("star", "last-star"):
        hub = 0 if kind == "star" else k_count - 1
        adjacency[hub] = adjacency[:, hub] = True
    elif kind != "eye":
        adjacency |= rng.uniform(size=(k_count, k_count)) < density
    if kind == "symmetric":
        adjacency &= adjacency.T
    mask = rng.uniform(size=(k_count, m_count)) < sensed
    p_hat = np.where(adjacency & ~np.eye(k_count, dtype=bool),
                     rng.uniform(0.1, 2.0, size=(k_count, k_count)), 0.0)
    return adjacency, mask, p_hat


def test_network_run_matches_per_sap_oracle():
    # the vectorized run against a plain loop over SAPs and channels; sums
    # run in a different order, so agreement is to rounding, not bitwise
    params = DiffusionParams(iterations=40)
    rng = substream(13, "oracle")
    adjacency, mask, p_hat = _random_network(rng, 6, 4, density=0.4)
    mask[:, 3] = False                   # nobody senses channel 3: frozen
    y = rng.uniform(0.05, 3.0, size=(6, 4, 40))
    got = run_diffusion(y, mask, p_hat, adjacency, params)
    want = per_sap_oracle(y, mask, p_hat, adjacency, params)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(got[:, 3], 0.0)


@settings(max_examples=60, deadline=None)
@given(k_count=st.integers(1, 16), m_count=st.integers(1, 6),
       n_iter=st.integers(1, 25), seed=st.integers(0, 2**32 - 1),
       exponents=st.lists(st.floats(-1.0, 0.6), min_size=1, max_size=4),
       step_size=st.sampled_from([1e-4, 0.1, 1e6]))
def test_batched_gains_match_single_gain_runs(k_count, m_count, n_iter, seed,
                                              exponents, step_size):
    rng = np.random.default_rng(seed)
    adjacency, mask, p_hat = _random_network(rng, k_count, m_count,
                                             density=rng.uniform(0.05, 0.9),
                                             sensed=rng.uniform(0.2, 1.0))
    y = rng.gamma(0.7, 1 / 0.7, size=(k_count, m_count, n_iter))
    # the ceiling, sqrt(1/mu), sits above the samples at 1e-4, among them
    # at 0.1 and below nearly all of them at 1e6
    params = DiffusionParams(step_size=step_size, iterations=n_iter)
    gains = [10.0 ** e for e in exponents]

    def single(g):
        return run_diffusion(y * g, mask, p_hat, adjacency, params)

    w = run_diffusion(y, mask, p_hat, adjacency, params, gains=gains)
    assert w.shape == (k_count, len(gains) * m_count)
    for t, g in enumerate(gains):
        block = w[:, t * m_count:(t + 1) * m_count]
        assert np.array_equal(block, single(g))


def _simplex_audit(adjacency, mask, gain_count, record=None):
    """Audit callback asserting the dense weights stay on the simplex and
    put no weight off the graph."""
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
            record.append(alpha)
    return audit


def test_batched_audit_sees_simplex_in_reused_buffer():
    params = DiffusionParams(iterations=30)
    rng = substream(17, "audit")
    adjacency, mask, p_hat = _random_network(rng, 5, 3)
    y = rng.uniform(0.05, 3.0, size=(5, 3, 30))
    gains = (0.5, 1.0, 2.0)
    buffers = []
    audit = _simplex_audit(adjacency, mask, len(gains), buffers)
    run_diffusion(y, mask, p_hat, adjacency, params, gains=gains, audit=audit)
    assert len(buffers) == 30
    assert all(np.shares_memory(a, buffers[0]) for a in buffers)


def test_weight_simplex_at_every_iteration():
    params = DiffusionParams(iterations=60)
    rng = substream(11, "simplex")
    k_count, m_count = 5, 3
    adjacency = np.eye(k_count, dtype=bool)
    adjacency |= rng.uniform(size=(k_count, k_count)) < 0.5
    adjacency &= adjacency.T
    mask = rng.uniform(size=(k_count, m_count)) < 0.6
    p_hat = np.where(adjacency & ~np.eye(k_count, dtype=bool),
                     rng.uniform(0.1, 2.0, size=(k_count, k_count)), 0.0)
    y = rng.uniform(0.05, 3.0, size=(k_count, m_count, 60))
    run_diffusion(y, mask, p_hat, adjacency, params,
                  audit=_simplex_audit(adjacency, mask, 1))


@settings(max_examples=60, deadline=None)
@given(k_count=st.integers(1, 16), m_count=st.integers(1, 6),
       n_iter=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["symmetric", "one-sided", "eye"]),
       density=st.floats(0.0, 1.0), sensed=st.floats(0.0, 1.0),
       gain_count=st.integers(1, 3))
def test_weights_stay_on_simplex_for_random_graphs(k_count, m_count, n_iter,
                                                   seed, kind, density, sensed,
                                                   gain_count):
    rng = np.random.default_rng(seed)
    adjacency, mask, p_hat = _random_network(rng, k_count, m_count, density,
                                             sensed, kind)
    y = rng.uniform(0.05, 3.0, size=(k_count, m_count, n_iter))
    params = DiffusionParams(iterations=n_iter)
    gains = np.linspace(0.5, 1.0, gain_count)
    audited = []
    run_diffusion(y, mask, p_hat, adjacency, params, gains=gains,
                  audit=_simplex_audit(adjacency, mask, gain_count, audited))
    assert len(audited) == n_iter


@settings(max_examples=80, deadline=None)
@example(k_count=11, m_count=1, n_iter=25, seed=1, kind="symmetric",
         density=1.0, sensed=0.5, exponents=[0.0], step_size=0.1,
         unsensed_channel=False)
# padded slots on every SAP but the hub, beside a channel nobody senses
@example(k_count=7, m_count=3, n_iter=20, seed=5, kind="star", density=0.0,
         sensed=0.5, exponents=[0.0, 0.3], step_size=0.1,
         unsensed_channel=True)
# the highest-degree SAP last and every other degree tied: the kernel's
# relabelling by degree moves the hub first and keeps the rest in order
@example(k_count=9, m_count=2, n_iter=15, seed=3, kind="last-star",
         density=0.0, sensed=0.5, exponents=[0.0, -0.5], step_size=0.1,
         unsensed_channel=False)
@given(k_count=st.integers(1, 16), m_count=st.integers(1, 6),
       n_iter=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["symmetric", "one-sided", "star", "eye"]),
       density=st.floats(0.0, 1.0), sensed=st.floats(0.0, 1.0),
       exponents=st.lists(st.floats(-1.0, 0.6), min_size=1, max_size=4),
       step_size=st.sampled_from([1e-4, 0.1, 1e6]),
       unsensed_channel=st.booleans())
def test_slot_kernel_matches_dense_oracle(k_count, m_count, n_iter, seed, kind,
                                          density, sensed, exponents,
                                          step_size, unsensed_channel):
    rng = np.random.default_rng(seed)
    adjacency, mask, p_hat = _random_network(rng, k_count, m_count, density,
                                             sensed, kind)
    if unsensed_channel:
        mask[:, 0] = False               # every SAP's block 0 is frozen
    y = rng.gamma(0.7, 1 / 0.7, size=(k_count, m_count, n_iter))
    params = DiffusionParams(step_size=step_size, iterations=n_iter)
    gains = [10.0 ** e for e in exponents]
    args = (y, mask, p_hat, adjacency, params, gains)
    want = dense_oracle(*args)
    # bytes, not values: a -0.0 where the dense combine gives +0.0 fails
    got = run_diffusion(*args)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_slot_kernel_matches_dense_oracle_on_paper_graph():
    # the default large-synthetic graph at the device workload's scenario
    # seed: K = 500 SAPs of degree 5 to 28 (mean 15.1), so 28 slot blocks
    # over shrinking prefixes of the SAPs relabelled by degree, each SAP's
    # sum still in ascending neighbor order
    adjacency = generate_scenario("large-synthetic", seed=5,
                                  incumbent_count=0).topology.adjacency
    degree = adjacency.sum(axis=1)
    assert adjacency.shape == (500, 500) and degree.min() < degree.max()
    rng = substream(67, "paper-graph")
    mask = rng.uniform(size=(500, 2)) < 0.6
    p_hat = np.where(adjacency & ~np.eye(500, dtype=bool),
                     rng.uniform(0.1, 2.0, size=(500, 500)), 0.0)
    y = rng.gamma(0.7, 1 / 0.7, size=(500, 2, 5))
    args = (y, mask, p_hat, adjacency, DiffusionParams(iterations=5),
            (1.0, 0.3))
    assert run_diffusion(*args).tobytes() == dense_oracle(*args).tobytes()


def test_run_memory_scales_with_edges_not_padded_slots():
    # a K = 400 star: the hub has degree 400 and every other SAP degree 2,
    # so E = 1198 edges against S * K = 160,000 padded slots. An (S, K, M)
    # float buffer alone is 10.24 MB at M = 8
    k_count, n_iter = 400, 5
    adjacency = np.eye(k_count, dtype=bool)
    adjacency[0] = adjacency[:, 0] = True
    edges = int(adjacency.sum())
    p_hat = np.where(adjacency & ~np.eye(k_count, dtype=bool), 1.0, 0.0)
    rng = substream(71, "star")
    params = DiffusionParams(iterations=n_iter)
    peaks = []
    for m_count in (8, 16):
        mask = rng.uniform(size=(k_count, m_count)) < 0.5
        y = rng.uniform(0.05, 3.0, size=(k_count, m_count, n_iter))
        tracemalloc.start()
        try:
            run_diffusion(y, mask, p_hat, adjacency, params)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1.5e6
    # each more column costs a few (E + K) floats, not (S * K) ones
    assert peaks[1] - peaks[0] < 8 * 16 * 8 * (edges + k_count)


def test_run_rejects_negative_samples_and_gains():
    # a constant -10 frame used to return weights near -5.2e47 without an
    # error, as did a -1 gain on a +10 frame; NaN still diverges loud
    params = DiffusionParams(iterations=50)
    network = (np.ones((2, 1), dtype=bool), np.ones((2, 2)) - np.eye(2),
               np.ones((2, 2), dtype=bool))
    y = np.full((2, 1, 50), 10.0)
    for frame, gains in ((-y, (1.0,)), (y, (-1.0,)), (y, (1.0, -1e-300))):
        with pytest.raises(ConfigurationError, match="nonnegative"):
            run_diffusion(frame, *network, params, gains=gains)
    one_negative = y.copy()
    one_negative[1, 0, 49] = -1e-300
    with pytest.raises(ConfigurationError, match="nonnegative"):
        run_diffusion(one_negative, *network, params)
    # -0.0 is not below 0
    assert np.isfinite(run_diffusion(y, *network, params, gains=(-0.0,))).all()
    with pytest.raises(DivergenceError):
        run_diffusion(y, *network, params, gains=(np.nan,))
    y[0, 0, 3] = np.nan
    with pytest.raises(DivergenceError):
        run_diffusion(y, *network, params)


def test_run_allocates_no_dense_neighbor_array():
    # a K=400 ring: one (K, K, M) float array alone would be 10.24 MB
    k_count, m_count, n_iter = 400, 8, 5
    ring = np.arange(k_count)
    adjacency = np.zeros((k_count, k_count), dtype=bool)
    for step in (-1, 0, 1):
        adjacency[ring, (ring + step) % k_count] = True
    p_hat = np.where(adjacency & ~np.eye(k_count, dtype=bool), 1.0, 0.0)
    rng = substream(41, "ring")
    mask = rng.uniform(size=(k_count, m_count)) < 0.5
    y = rng.uniform(0.05, 3.0, size=(k_count, m_count, n_iter))
    params = DiffusionParams(iterations=n_iter)
    tracemalloc.start()
    try:
        run_diffusion(y, mask, p_hat, adjacency, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_unsensed_channel_follows_informative_neighbor_delayed():
    # SAP 0 senses only ch0, SAP 1 only ch1; with a single informative
    # neighbor the beta branch copies that neighbor's previous weight
    params = DiffusionParams(iterations=20)
    rng = substream(13, "beta")
    y = rng.uniform(0.2, 1.5, size=(2, 2, 20))
    mask = np.array([[True, False], [False, True]])
    p_hat = np.array([[0.0, 0.7], [0.7, 0.0]])
    weights = weights_per_iteration(y, mask, p_hat,
                                    np.ones((2, 2), dtype=bool), params)
    for i in range(1, len(weights)):
        assert weights[i][0, 1] == weights[i - 1][1, 1]
        assert weights[i][1, 0] == weights[i - 1][0, 0]
    # iteration 0 combines the shared initial weight, zero
    assert weights[0][0, 1] == 0.0


def test_freeze_without_informative_neighbor():
    # nobody senses ch1, so it stays at the initial weight, zero, forever
    params = DiffusionParams(iterations=25)
    y = substream(17, "freeze").uniform(0.5, 1.5, size=(2, 2, 25))
    mask = np.array([[True, False], [True, False]])
    p_hat = np.array([[0.0, 1.0], [1.0, 0.0]])
    w = run_diffusion(y, mask, p_hat, np.ones((2, 2), dtype=bool), params)
    np.testing.assert_array_equal(w[:, 1], [0.0, 0.0])
    assert (w[:, 0] != 0.0).all()


def test_stability_bound_under_step_size_rule():
    # with mu <= 1/y_max^2 the weights, starting at 0, stay within [-1, 2]
    params = DiffusionParams(step_size=0.1, iterations=150)
    y_max = float(np.sqrt(1.0 / params.step_size))
    rng = substream(23, "stable")
    y = rng.uniform(0.0, y_max, size=(3, 2, 150))
    for w in weights_per_iteration(y, np.ones((3, 2), dtype=bool),
                                   np.where(~np.eye(3, dtype=bool), 1.0, 0.0),
                                   np.ones((3, 3), dtype=bool), params):
        assert np.isfinite(w).all()
        assert w.max() <= 2.0 + 1e-9
        assert w.min() >= -1.0


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def _self_structure(k_count, m_count):
    return (np.ones((k_count, m_count), dtype=bool),
            np.zeros((k_count, k_count)),
            np.eye(k_count, dtype=bool))


def test_calibration_noiseless_matches_scalar_recursion():
    params = DiffusionParams(iterations=80)
    mask, p_hat, adjacency = _self_structure(2, 3)
    lam = calibrate_threshold(mask, p_hat, adjacency, params,
                              substream(29, "cal"), estimate_shape=None)
    want = _standalone_trajectory(np.ones(80), params)[-1]
    np.testing.assert_allclose(lam, want, rtol=1e-12)
    assert np.isfinite(lam).all() and (lam > 0).all()


def test_calibration_reproducible_and_noise_sensitive():
    params = DiffusionParams(iterations=60)
    mask, p_hat, adjacency = _self_structure(2, 2)
    a = calibrate_threshold(mask, p_hat, adjacency, params,
                            substream(31, "cal"), calibration_runs=3)
    b = calibrate_threshold(mask, p_hat, adjacency, params,
                            substream(31, "cal"), calibration_runs=3)
    c = calibrate_threshold(mask, p_hat, adjacency, params,
                            substream(31, "other"), calibration_runs=3)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_calibration_applies_ceiling():
    # at mu = 4 the ceiling, 0.5, sits below the reference level: the
    # training samples are clamped as live ones are, so calibration runs
    # the scalar recursion on 0.5, where unclamped samples of 1.0
    # (mu * y^2 = 4) would swing the weight by a factor -3 per iteration
    params = DiffusionParams(step_size=4.0, iterations=80)
    mask, p_hat, adjacency = _self_structure(1, 1)
    lam = calibrate_threshold(mask, p_hat, adjacency, params,
                              substream(37, "cal"), estimate_shape=None)
    want = _standalone_trajectory(np.full(80, 0.5), params)[-1]
    np.testing.assert_allclose(lam, want, rtol=1e-12)
    assert abs(_standalone_trajectory(np.ones(80), params)[-1]) > 1e30


def test_calibration_rejects_bad_run_count():
    mask, p_hat, adjacency = _self_structure(1, 1)
    params = DiffusionParams(iterations=5)
    # 0 runs averaged to an all-NaN threshold, 2.5 failed in range()
    for bad in (0, -1, 2.5, float("nan"), True, "3"):
        with pytest.raises(ConfigurationError, match="calibration_runs"):
            calibrate_threshold(mask, p_hat, adjacency, params,
                                substream(41, "cal"), calibration_runs=bad)
    lam = calibrate_threshold(mask, p_hat, adjacency, params,
                              substream(41, "cal"),
                              calibration_runs=np.int64(1))
    assert lam.shape == (1, 1)


def _serial_calibration(sensing_mask, reference_powers, adjacency, params,
                        rng, calibration_runs, estimate_shape):
    """Reference training loop: each run's noise drawn, then diffused."""
    k_count, m_count = sensing_mask.shape
    shape = (k_count, m_count, params.iterations)
    total = np.zeros((k_count, m_count))
    for _ in range(calibration_runs):
        u = estimation_noise(np.empty(shape), estimate_shape, rng)
        total += run_diffusion(u, sensing_mask, reference_powers, adjacency,
                               params)
    return total / calibration_runs


@settings(max_examples=40, deadline=None)
@given(k_count=st.integers(1, 8), m_count=st.integers(1, 5),
       runs=st.integers(1, 4), estimate_shape=st.sampled_from([None, 0.7]),
       step_size=st.sampled_from([1e-4, 0.1, 1e6]),
       kind=st.sampled_from(["symmetric", "eye"]),
       seed=st.integers(0, 2**32 - 1))
def test_calibration_matches_serial_loop(k_count, m_count, runs,
                                         estimate_shape, step_size, kind,
                                         seed):
    # drawing run r+1's noise on the helper thread while run r diffuses
    # keeps the serial loop's draws, in order, and so its thresholds bit
    # for bit
    params = DiffusionParams(step_size=step_size, iterations=12)
    adjacency, mask, p_hat = _random_network(substream(seed, "net"),
                                             k_count, m_count, kind=kind)
    network = (mask, p_hat, adjacency, params)
    want = _serial_calibration(*network, substream(seed, "cal"), runs,
                               estimate_shape)
    got = calibrate_threshold(*network, substream(seed, "cal"),
                              calibration_runs=runs,
                              estimate_shape=estimate_shape)
    assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(k_count=st.integers(1, 6), m_count=st.integers(1, 4),
       runs=st.integers(1, 7), per_call=st.integers(1, 7),
       estimate_shape=st.sampled_from([None, 0.7]),
       step_size=st.sampled_from([1e-4, 0.1, 1e6]),
       kind=st.sampled_from(["symmetric", "eye"]),
       seed=st.integers(0, 2**32 - 1))
def test_grouped_calibration_matches_serial_loop(k_count, m_count, runs,
                                                 per_call, estimate_shape,
                                                 step_size, kind, seed):
    # runs packed per_call at a time (one run per call, some, or all of
    # them) side by side in one call give the serial loop's thresholds bit
    # for bit, in one call per group
    params = DiffusionParams(step_size=step_size, iterations=12)
    adjacency, mask, p_hat = _random_network(substream(seed, "net"),
                                             k_count, m_count, kind=kind)
    network = (mask, p_hat, adjacency, params)
    widths = []

    def counted(measurements, *args, **kwargs):
        widths.append(measurements.shape[1])
        return run_diffusion(measurements, *args, **kwargs)

    with mock.patch.object(diffusion, "PACK_COLUMNS", per_call * m_count), \
            mock.patch.object(diffusion, "run_diffusion", counted):
        got = calibrate_threshold(*network, substream(seed, "cal"),
                                  calibration_runs=runs,
                                  estimate_shape=estimate_shape)
    group = min(per_call, runs)
    assert widths == ([group * m_count] * (runs // group)
                      + [runs % group * m_count] * (runs % group > 0))
    want = _serial_calibration(*network, substream(seed, "cal"), runs,
                               estimate_shape)
    assert np.array_equal(got, want)


def test_packed_calibration_holds_only_its_group_buffer():
    # six runs share one call, and their noise is drawn straight into that
    # call's group buffer: calibration holds no other frame-sized array
    k_count, m_count, runs = 4, 2, 6
    params = DiffusionParams(iterations=2000)
    shape = (k_count, m_count, params.iterations)
    assert diffusion.runs_per_call(m_count, shape, runs) == runs
    frame_bytes = 8 * k_count * m_count * params.iterations
    mask, p_hat, adjacency = _self_structure(k_count, m_count)
    rng = substream(61, "cal")    # made first: numpy.random loads lazily
    tracemalloc.start()
    try:
        calibrate_threshold(mask, p_hat, adjacency, params, rng,
                            calibration_runs=runs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < runs * frame_bytes + frame_bytes / 2


def test_runs_per_call_bounds_columns_and_bytes():
    cap = diffusion.PACK_COLUMNS
    frame = (5, 4, 10)
    assert diffusion.runs_per_call(4, frame, 6) == 6
    assert diffusion.runs_per_call(4, frame, 100) == cap // 4
    assert diffusion.runs_per_call(cap // 2, frame, 2) == 2
    assert diffusion.runs_per_call(cap // 2 + 1, frame, 2) == 1
    assert diffusion.runs_per_call(cap + 1, frame, 5) == 1
    # a frame past the byte bound runs alone, however narrow
    third = (diffusion.PACK_BYTES // 3 // 8, 1, 1)
    assert diffusion.runs_per_call(1, third, 9) == 3
    assert diffusion.runs_per_call(1, (diffusion.PACK_BYTES // 8 + 1,), 9) == 1
    assert diffusion.runs_per_call(0, (5, 0, 10), 3) == 3


class _Boom(RuntimeError):
    pass


@pytest.mark.parametrize("failing_draw", [0, 1])
def test_noise_error_on_helper_thread_leaves_calibration(monkeypatch,
                                                         failing_draw):
    # the first draw fails while the calling thread waits for it; the
    # second while run 0 diffuses. Either raises its own exception, and
    # the helper thread is joined
    threads = threading.active_count()
    draws = []

    def failing(out, estimate_shape, rng):
        draws.append(threading.current_thread() is threading.main_thread())
        if len(draws) > failing_draw:
            raise _Boom("injected")
        return estimation_noise(out, estimate_shape, rng)

    monkeypatch.setattr(diffusion, "estimation_noise", failing)
    mask, p_hat, adjacency = _self_structure(2, 2)
    with pytest.raises(_Boom, match="injected"):
        calibrate_threshold(mask, p_hat, adjacency,
                            DiffusionParams(iterations=20),
                            substream(43, "cal"), calibration_runs=3)
    assert draws == [False] * (failing_draw + 1)
    assert threading.active_count() == threads


def test_divergence_on_calling_thread_leaves_calibration(monkeypatch):
    # one run per call; run 0 has a NaN sample, which the clamp passes, so
    # run 0 diverges while the helper draws run 1's noise: DivergenceError
    # reaches the caller, and the helper thread is joined
    threads = threading.active_count()
    draws = []

    def nan_first(row, estimate_shape, rng):
        draws.append(row)
        estimation_noise(row, estimate_shape, rng)
        if len(draws) == 1:
            row[0, -1] = np.nan
        return row

    monkeypatch.setattr(diffusion, "estimation_noise", nan_first)
    monkeypatch.setattr(diffusion, "PACK_COLUMNS", 2)
    mask, p_hat, adjacency = _self_structure(2, 2)
    with pytest.raises(DivergenceError):
        calibrate_threshold(mask, p_hat, adjacency,
                            DiffusionParams(iterations=200),
                            substream(47, "cal"), calibration_runs=3)
    assert len(draws) == 2 * 2            # runs 0 and 1, two rows each
    assert threading.active_count() == threads
