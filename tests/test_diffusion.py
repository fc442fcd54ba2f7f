"""Tests for the combine-then-adapt engine: scalar ops, network runs, calibration."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsense.diffusion import (
    DiffusionParams,
    DivergenceError,
    calibrate_threshold,
    clip_dynamic_range,
    compute_gamma,
    decide,
    default_ceiling,
    neighbor_slots,
    run_diffusion,
    smooth_energy,
)
from specsense.model import ConfigurationError
from specsense.seeding import substream


# ---------------------------------------------------------------------------
# Scalar building blocks, and the per-SAP reference oracle built from them
# ---------------------------------------------------------------------------

def alpha_weights(w_self_prev, step_size, gamma, neighbor_w_prev,
                  epsilon_guard=1e-12):
    """Distance-based combination weights over a neighborhood (self included)."""
    target = w_self_prev + step_size * gamma
    dist2 = (target - np.asarray(neighbor_w_prev, dtype=float)) ** 2
    inv = 1.0 / np.maximum(dist2, epsilon_guard)
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


def per_sap_oracle(y, mask, p_hat, adjacency, params):
    """Final weights of the synchronous algorithm, one SAP and channel at a time."""
    k_count, m_count, _ = y.shape
    w = np.full((k_count, m_count), params.initial_weight)
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
                                      w[nbrs, m], params.epsilon_guard)
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
                 ceiling=None):
    """Final weights of the network run as a dense (K, K, T*M) combine.

    Every SAP sums over all K SAPs, non-neighbors weighted by exact zeros.
    The sums run in the same neighbor order as ``run_diffusion``, so for
    M >= 2 the weights agree bit for bit; with M = 1 the beta normalizer
    ``p.sum(axis=1)`` is a pairwise sum and may differ in the last bits.
    """
    y_all = np.asarray(measurements, dtype=float)
    k_count, m_count, _ = y_all.shape
    gains = np.asarray(gains, dtype=float)
    columns = gains.size * m_count
    mu = params.step_size

    def conditioned(i):
        y = clip_dynamic_range(y_all[:, None, :, i] * gains[None, :, None],
                               ceiling)
        return y.reshape(k_count, columns)

    non_self = adjacency & ~np.eye(k_count, dtype=bool)
    if params.beta_set == "informative":
        informative = non_self[:, :, None] & mask[None, :, :]
    else:
        informative = np.repeat(non_self[:, :, None], m_count, axis=2)
    p = np.where(informative, p_hat[:, :, None], 0.0)
    denom = p.sum(axis=1)
    beta = np.divide(p, denom[:, None, :], out=np.zeros_like(p),
                     where=denom[:, None, :] > 0)
    beta_jk = np.tile(beta.transpose(1, 0, 2), gains.size)
    adj_jk = adjacency.T[:, :, None]
    mask = np.tile(mask, gains.size)
    freeze = ~mask & ~np.tile(denom > 0, gains.size)

    w = np.full((k_count, columns), float(params.initial_weight))
    d = conditioned(0)
    buf = np.empty((k_count, k_count, columns))
    for i in range(params.iterations):
        y = conditioned(i)
        d = smooth_energy(d, y, params.smoothing)
        target = w + mu * compute_gamma(d, y, w)
        np.subtract(target[None, :, :], w[:, None, :], out=buf)
        np.square(buf, out=buf)
        np.maximum(buf, params.epsilon_guard, out=buf)
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
    y = np.array([0.5, 2.0, 9.0])
    np.testing.assert_allclose(clip_dynamic_range(y, 3.0), [0.5, 2.0, 3.0])
    assert clip_dynamic_range(y, None) is y
    assert default_ceiling(DiffusionParams()) == pytest.approx(np.sqrt(10.0))


def test_params_validation():
    with pytest.raises(ConfigurationError):
        DiffusionParams(smoothing=1.0)
    with pytest.raises(ConfigurationError):
        DiffusionParams(step_size=0.0)
    with pytest.raises(ConfigurationError):
        DiffusionParams(iterations=-1)
    with pytest.raises(ConfigurationError):
        DiffusionParams(beta_set="nearest")


# ---------------------------------------------------------------------------
# Network runs
# ---------------------------------------------------------------------------

def _standalone_trajectory(y, params):
    """Independent scalar reimplementation of the self-only filter."""
    w = params.initial_weight
    d = y[0]
    out = []
    for i in range(params.iterations):
        d = params.smoothing * d + (1.0 - params.smoothing) * y[i]
        w = w + params.step_size * y[i] * (d - y[i] * w)
        out.append(w)
    return np.array(out)


def test_self_graph_reduces_to_standalone_filter_exactly():
    params = DiffusionParams(iterations=50)
    rng = substream(3, "reduce")
    y = rng.uniform(0.2, 2.5, size=(1, 1, 50))
    trace = []
    state = run_diffusion(y, np.ones((1, 1), dtype=bool), np.zeros((1, 1)),
                          np.eye(1, dtype=bool), params, trace=trace)
    want = _standalone_trajectory(y[0, 0], params)
    got = np.array([w[0, 0] for _, w, _, _ in trace])
    np.testing.assert_array_equal(got, want)        # bit-identical reduction
    assert state.w[0, 0] == want[-1]
    # psi always equals the previous weight on a self-only graph
    for (i, w, _, psi) in trace[1:]:
        assert psi[0, 0] == trace[i - 1][1][0, 0]


def test_zero_iterations_returns_initial_state():
    params = DiffusionParams(iterations=0)
    y = np.full((2, 3, 1), 1.3)
    state = run_diffusion(y, np.ones((2, 3), dtype=bool), np.zeros((2, 2)),
                          np.eye(2, dtype=bool), params)
    assert state.iteration == 0
    np.testing.assert_array_equal(state.w, np.zeros((2, 3)))


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
    for adjacency in (~np.eye(3, dtype=bool),          # no self-loops
                      np.ones((3, 4), dtype=bool)):    # not (K, K)
        with pytest.raises(ConfigurationError, match="adjacency"):
            run_diffusion(y, mask, p_hat, adjacency, params)


def test_colocated_saps_share_trajectories():
    params = DiffusionParams(iterations=40)
    rng = substream(5, "twin")
    y_one = rng.uniform(0.1, 2.0, size=(1, 2, 40))
    y = np.repeat(y_one, 2, axis=0)
    p_hat = np.array([[0.0, 1.0], [1.0, 0.0]])
    state = run_diffusion(y, np.ones((2, 2), dtype=bool), p_hat,
                          np.ones((2, 2), dtype=bool), params)
    np.testing.assert_array_equal(state.w[0], state.w[1])


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
    np.testing.assert_array_equal(base.w[:2], pert.w[:2])
    assert not np.array_equal(base.w[2:], pert.w[2:])


def _random_network(rng, k_count, m_count, density=0.5, sensed=0.6,
                    kind="symmetric"):
    """Graph with self-loops (symmetric, one-sided or "eye"), mask, powers."""
    adjacency = np.eye(k_count, dtype=bool)
    if kind != "eye":
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
    got = run_diffusion(y, mask, p_hat, adjacency, params).w
    want = per_sap_oracle(y, mask, p_hat, adjacency, params)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(got[:, 3], params.initial_weight)


@settings(max_examples=60, deadline=None)
@given(k_count=st.integers(1, 16), m_count=st.integers(1, 6),
       n_iter=st.integers(1, 25), seed=st.integers(0, 2**32 - 1),
       exponents=st.lists(st.floats(-1.0, 0.6), min_size=1, max_size=4),
       ceiling=st.sampled_from([None, 3.16]),
       beta_set=st.sampled_from(["informative", "all-neighbors"]))
def test_batched_gains_match_single_gain_runs(k_count, m_count, n_iter, seed,
                                              exponents, ceiling, beta_set):
    rng = np.random.default_rng(seed)
    adjacency, mask, p_hat = _random_network(rng, k_count, m_count,
                                             density=rng.uniform(0.05, 0.9),
                                             sensed=rng.uniform(0.2, 1.0))
    y = rng.gamma(0.7, 1 / 0.7, size=(k_count, m_count, n_iter))
    params = DiffusionParams(iterations=n_iter, beta_set=beta_set)
    gains = [10.0 ** e for e in exponents]

    def single(g):
        return run_diffusion(clip_dynamic_range(y * g, ceiling), mask, p_hat,
                             adjacency, params).w

    try:
        w = run_diffusion(y, mask, p_hat, adjacency, params, gains=gains,
                          ceiling=ceiling).w
    except DivergenceError as exc:
        for g in gains[:exc.gain_index]:
            assert np.isfinite(single(g)).all()
        with pytest.raises(DivergenceError):
            single(gains[exc.gain_index])
        return
    assert w.shape == (k_count, len(gains) * m_count)
    for t, g in enumerate(gains):
        block = w[:, t * m_count:(t + 1) * m_count]
        assert np.array_equal(block, single(g))


def _simplex_audit(adjacency, mask, gain_count, record=None):
    """Audit callback asserting the slot-form weights stay on the simplex.

    The table must list exactly each SAP's neighbors, so zero weight on
    padded slots is zero weight off the graph.
    """
    k_count = adjacency.shape[0]
    nbr, valid = neighbor_slots(adjacency)
    assert nbr.shape == valid.shape == (adjacency.sum(axis=1).max(), k_count)
    for k in range(k_count):
        np.testing.assert_array_equal(nbr[valid[:, k], k],
                                      np.flatnonzero(adjacency[k]))
    assert (nbr[~valid] == np.nonzero(~valid)[1]).all()   # padded with self
    unsensed = ~np.tile(mask, gain_count)

    def audit(i, alpha, beta, has_informative):
        assert alpha.shape == beta.shape == nbr.shape + (unsensed.shape[1],)
        assert (alpha >= 0.0).all() and (beta >= 0.0).all()
        np.testing.assert_allclose(alpha.sum(axis=0), 1.0, atol=1e-9)
        # alpha only draws from neighbors
        assert not alpha[~valid].any()
        assert not beta[~valid].any()
        covered = unsensed & has_informative
        np.testing.assert_allclose(beta.sum(axis=0)[covered], 1.0, atol=1e-9)
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
       gain_count=st.integers(1, 3),
       beta_set=st.sampled_from(["informative", "all-neighbors"]))
def test_weights_stay_on_simplex_for_random_graphs(k_count, m_count, n_iter,
                                                   seed, kind, density, sensed,
                                                   gain_count, beta_set):
    rng = np.random.default_rng(seed)
    adjacency, mask, p_hat = _random_network(rng, k_count, m_count, density,
                                             sensed, kind)
    y = rng.uniform(0.05, 3.0, size=(k_count, m_count, n_iter))
    params = DiffusionParams(iterations=n_iter, beta_set=beta_set)
    gains = np.linspace(0.5, 1.0, gain_count)
    audited = []
    run_diffusion(y, mask, p_hat, adjacency, params, gains=gains,
                  audit=_simplex_audit(adjacency, mask, gain_count, audited))
    assert len(audited) == n_iter


# the 1e6 step size diverges on purpose; overflow warnings are expected
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(k_count=st.integers(1, 16), m_count=st.integers(1, 6),
       n_iter=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["symmetric", "one-sided", "eye"]),
       density=st.floats(0.0, 1.0), sensed=st.floats(0.0, 1.0),
       exponents=st.lists(st.floats(-1.0, 0.6), min_size=1, max_size=4),
       step_size=st.sampled_from([0.1, 1e6]),
       ceiling=st.sampled_from([None, 3.16]),
       beta_set=st.sampled_from(["informative", "all-neighbors"]))
def test_slot_kernel_matches_dense_oracle(k_count, m_count, n_iter, seed, kind,
                                          density, sensed, exponents,
                                          step_size, ceiling, beta_set):
    rng = np.random.default_rng(seed)
    adjacency, mask, p_hat = _random_network(rng, k_count, m_count, density,
                                             sensed, kind)
    y = rng.gamma(0.7, 1 / 0.7, size=(k_count, m_count, n_iter))
    params = DiffusionParams(step_size=step_size, iterations=n_iter,
                             beta_set=beta_set)
    gains = [10.0 ** e for e in exponents]
    args = (y, mask, p_hat, adjacency, params, gains, ceiling)
    try:
        want = dense_oracle(*args)
    except DivergenceError as exc:
        with pytest.raises(DivergenceError) as got:
            run_diffusion(*args)
        assert got.value.gain_index == exc.gain_index
        return
    got = run_diffusion(*args).w
    if m_count >= 2:
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12)


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
    trace = []
    run_diffusion(y, mask, p_hat, np.ones((2, 2), dtype=bool), params,
                  trace=trace)
    weights = [w for _, w, _, _ in trace]
    for i in range(1, len(weights)):
        assert weights[i][0, 1] == weights[i - 1][1, 1]
        assert weights[i][1, 0] == weights[i - 1][0, 0]
    # iteration 0 combines the shared initial weight
    assert weights[0][0, 1] == params.initial_weight


def test_freeze_without_informative_neighbor():
    # nobody senses ch1, so it stays at the initial weight forever
    params = DiffusionParams(iterations=25, initial_weight=0.2)
    y = substream(17, "freeze").uniform(0.5, 1.5, size=(2, 2, 25))
    mask = np.array([[True, False], [True, False]])
    p_hat = np.array([[0.0, 1.0], [1.0, 0.0]])
    state = run_diffusion(y, mask, p_hat, np.ones((2, 2), dtype=bool), params)
    np.testing.assert_array_equal(state.w[:, 1], [0.2, 0.2])
    assert (state.w[:, 0] != 0.2).all()


def test_beta_set_all_neighbors_variant():
    # SAP 2 does not sense ch0; the informative rule excludes it while the
    # all-neighbors rule mixes its (frozen) weight in
    mask = np.array([[False, True], [True, True], [False, True]])
    p_hat = np.array([[0.0, 3.0, 1.0],
                      [3.0, 0.0, 1.0],
                      [1.0, 1.0, 0.0]])
    adjacency = np.ones((3, 3), dtype=bool)
    y = substream(19, "bset").uniform(0.5, 1.5, size=(3, 2, 10))

    lone = DiffusionParams(iterations=10)
    both = DiffusionParams(iterations=10, beta_set="all-neighbors")
    t_lone, t_both = [], []
    run_diffusion(y, mask, p_hat, adjacency, lone, trace=t_lone)
    run_diffusion(y, mask, p_hat, adjacency, both, trace=t_both)
    w_lone = [w for _, w, _, _ in t_lone]
    w_both = [w for _, w, _, _ in t_both]
    # informative: SAP 0 ch0 copies SAP 1's previous weight outright
    assert w_lone[3][0, 0] == w_lone[2][1, 0]
    # all-neighbors: 3/4 on SAP 1 plus 1/4 on SAP 2's frozen ch0 weight
    want = 0.75 * w_both[2][1, 0] + 0.25 * w_both[2][2, 0]
    assert w_both[3][0, 0] == pytest.approx(want, rel=1e-12)
    assert w_both[3][0, 0] != w_lone[3][0, 0]


def test_stability_bound_under_step_size_rule():
    # with mu <= 1/y_max^2 the weights never leave [0 - eps, max(1, w0) + 1]
    params = DiffusionParams(step_size=0.1, iterations=150)
    y_max = float(np.sqrt(1.0 / params.step_size))
    rng = substream(23, "stable")
    y = rng.uniform(0.0, y_max, size=(3, 2, 150))
    trace = []
    run_diffusion(y, np.ones((3, 2), dtype=bool),
                  np.where(~np.eye(3, dtype=bool), 1.0, 0.0),
                  np.ones((3, 3), dtype=bool), params, trace=trace)
    for _, w, _, _ in trace:
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
    # a ceiling below the reference level caps the training samples, which
    # drags the calibrated threshold down with it
    params = DiffusionParams(iterations=80)
    mask, p_hat, adjacency = _self_structure(1, 1)
    free = calibrate_threshold(mask, p_hat, adjacency, params,
                               substream(37, "cal"), estimate_shape=None)
    capped = calibrate_threshold(mask, p_hat, adjacency, params,
                                 substream(37, "cal"), estimate_shape=None,
                                 ceiling=0.5)
    assert capped[0, 0] < free[0, 0]

