"""Tests for the comparison schemes and the scheme dispatcher."""

import numpy as np
import pytest

from specsense.baselines import (
    CALIBRATION_STRUCTURE,
    SCHEME_IDS,
    DecisionMap,
    centralized_egc,
    genie,
    noncoop_multiband,
    noncoop_singleband,
    proposed_multiband,
    proposed_singleband,
    run_scheme,
)
from specsense.diffusion import DiffusionParams
from specsense.metrics import (
    correct_decision_pct,
    misdetection_probability,
    utilization_ratio,
)
from specsense.model import ConfigurationError
from specsense.seeding import substream


def test_scheme_registry():
    assert SCHEME_IDS == ("genie", "proposed-multiband", "proposed-singleband",
                          "centralized", "noncoop-multiband",
                          "noncoop-singleband")
    assert set(CALIBRATION_STRUCTURE) == {"proposed-multiband",
                                          "proposed-singleband",
                                          "noncoop-multiband",
                                          "noncoop-singleband"}


def test_decision_map_available():
    busy = np.array([[True, False, False]])
    decided = np.array([[True, True, False]])
    np.testing.assert_array_equal(DecisionMap(busy, decided).available,
                                  [[False, True, False]])


def test_genie_is_perfect():
    truth = substream(1, "truth").uniform(size=(4, 3)) < 0.5
    d = genie(truth)
    assert d.decided.all()
    np.testing.assert_array_equal(d.busy, truth)
    assert utilization_ratio(d, truth) == 1.0
    assert misdetection_probability(d, truth) == 0.0
    assert correct_decision_pct(d, truth) == 100.0


def test_centralized_one_verdict_per_channel():
    y = substream(2, "egc").uniform(0.5, 3.0, size=(5, 4, 6))
    d = centralized_egc(y)
    assert d.decided.all()
    # every SAP shares the channel verdict
    assert (d.busy == d.busy[0]).all()
    want = y.mean(axis=(0, 2)) >= 1.0
    np.testing.assert_array_equal(d.busy[0], want)


def test_centralized_threshold_examples():
    # constant level below the threshold stays available everywhere
    low = np.full((3, 2, 4), 0.6)
    assert not centralized_egc(low).busy.any()
    # two SAPs at {1, 3} average to 2: busy at threshold 2, free at 2.5,
    # each threshold applied as the gain that maps it to 1.0
    y = np.zeros((2, 1, 1))
    y[0, 0, 0], y[1, 0, 0] = 1.0, 3.0
    assert centralized_egc(y / 2.0).busy.all()
    assert not centralized_egc(y / 2.5).busy.any()


def test_centralized_single_hot_sap_flips_channel():
    # equal-gain combining lets one enormous reading mark the channel busy
    # for everyone, which is exactly what costs it utilization
    y = np.full((10, 2, 3), 0.2)
    y[4, 1, :] = 500.0
    d = centralized_egc(y)
    assert d.busy[:, 1].all()
    assert not d.busy[:, 0].any()


def _toy_inputs(k_count=3, m_count=2, n_iter=30, seed=3):
    rng = substream(seed, "toy")
    y = rng.uniform(0.3, 2.0, size=(k_count, m_count, n_iter))
    p_hat = np.where(~np.eye(k_count, dtype=bool),
                     rng.uniform(0.5, 1.5, size=(k_count, k_count)), 0.0)
    adjacency = np.ones((k_count, k_count), dtype=bool)
    lam = np.full((k_count, m_count), 0.8)
    return y, p_hat, adjacency, lam


def test_noncoop_multiband_matches_proposed_on_self_graph():
    # with a self-only graph the cooperative filter degenerates to the
    # standalone one, so the two schemes must agree decision for decision
    y, _, _, lam = _toy_inputs()
    params = DiffusionParams(iterations=30)
    k_count = y.shape[0]
    [nc] = noncoop_multiband(y, params, lam)
    [pm] = proposed_multiband(y, np.zeros((k_count, k_count)),
                              np.eye(k_count, dtype=bool), params, lam)
    assert nc.decided.all() and pm.decided.all()
    np.testing.assert_array_equal(nc.busy, pm.busy)


def test_noncoop_raw_energy_uses_last_window():
    y = np.full((2, 2, 5), 0.1)
    y[0, 0, -1] = 2.0       # only the final reading counts
    y[1, 1, :-1] = 9.0      # earlier readings do not
    [d] = noncoop_multiband(y, DiffusionParams(iterations=5), None,
                            raw_energy=True)
    assert d.decided.all()
    np.testing.assert_array_equal(d.busy, [[True, False], [False, False]])


def test_noncoop_singleband_covers_one_channel_per_sap():
    y, _, _, lam = _toy_inputs(k_count=4, m_count=3)
    picks = np.array([0, 2, 1, 2])
    [d] = noncoop_singleband(y, picks, DiffusionParams(iterations=30), lam)
    want = np.zeros((4, 3), dtype=bool)
    want[np.arange(4), picks] = True
    np.testing.assert_array_equal(d.decided, want)
    assert not d.busy[~want].any()
    # the decided entries agree with the multiband run of the same filter
    [full] = noncoop_multiband(y, DiffusionParams(iterations=30), lam)
    np.testing.assert_array_equal(d.busy[want], full.busy[want])


def test_noncoop_singleband_rejects_bad_picks():
    y, _, _, lam = _toy_inputs()
    params = DiffusionParams(iterations=30)
    with pytest.raises(ConfigurationError):
        noncoop_singleband(y, np.array([0, 1]), params, lam)      # wrong length
    with pytest.raises(ConfigurationError):
        noncoop_singleband(y, np.array([0, 1, 2]), params, lam)   # out of range


def test_proposed_schemes_decide_everywhere():
    y, p_hat, adjacency, lam = _toy_inputs(seed=7)
    params = DiffusionParams(iterations=30)
    [pm] = proposed_multiband(y, p_hat, adjacency, params, lam)
    assert pm.decided.all()
    mask = np.array([[True, False], [False, True], [True, True]])
    [ps] = proposed_singleband(y, mask, p_hat, adjacency, params, lam)
    assert ps.decided.all()
    # where every SAP senses, the assigned variant sees the same data
    np.testing.assert_array_equal(ps.busy[2], pm.busy[2])


def test_run_scheme_dispatch_matches_direct_calls():
    y, p_hat, adjacency, lam = _toy_inputs(seed=9)
    params = DiffusionParams(iterations=30)
    truth = substream(9, "t").uniform(size=y.shape[:2]) < 0.4
    mask = np.ones(y.shape[:2], dtype=bool)
    picks = np.array([0, 1, 0])

    [via] = run_scheme("genie", measurements=y, truth_busy=[truth])
    np.testing.assert_array_equal(via.busy, genie(truth).busy)

    [via] = run_scheme("centralized", measurements=y)
    np.testing.assert_array_equal(via.busy, centralized_egc(y).busy)

    [via] = run_scheme("proposed-multiband", measurements=y,
                       reference_powers=p_hat, adjacency=adjacency,
                       params=params, thresholds=lam)
    [direct] = proposed_multiband(y, p_hat, adjacency, params, lam)
    np.testing.assert_array_equal(via.busy, direct.busy)

    [via] = run_scheme("proposed-singleband", measurements=y,
                       sensing_mask=mask, reference_powers=p_hat,
                       adjacency=adjacency, params=params, thresholds=lam)
    [direct] = proposed_singleband(y, mask, p_hat, adjacency, params, lam)
    np.testing.assert_array_equal(via.busy, direct.busy)

    [via] = run_scheme("noncoop-multiband", measurements=y, params=params,
                       thresholds=lam, raw_energy=True)
    [direct] = noncoop_multiband(y, params, lam, raw_energy=True)
    np.testing.assert_array_equal(via.busy, direct.busy)

    [via] = run_scheme("noncoop-singleband", measurements=y,
                       channel_picks=picks, params=params, thresholds=lam)
    [direct] = noncoop_singleband(y, picks, params, lam)
    np.testing.assert_array_equal(via.busy, direct.busy)


def test_run_scheme_unknown_name():
    with pytest.raises(ConfigurationError):
        run_scheme("majority-vote", measurements=np.ones((1, 1, 2)))
