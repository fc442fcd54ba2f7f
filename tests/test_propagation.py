"""Tests for pathloss, link realization, and measurement generation."""

import math

import numpy as np
import pytest

from specsense.model import (
    Incumbent,
    Scenario,
    build_grid_topology,
    build_spectrum_plan,
)
from specsense.propagation import (
    MeasurementFrame,
    PropagationParams,
    channel_overlap_fraction,
    compute_ground_truth,
    dbm_to_norm,
    generate_measurements,
    generate_reference_powers,
    los_probability,
    noise_floor_dbm,
    norm_to_dbm,
    pathloss_db,
    realize_links,
    received_level,
    threshold_gain,
)


def test_los_pathloss_reference_point():
    # 32.4 + 21*log10(100) + 20*log10(5.43) evaluated by hand
    assert pathloss_db(100.0, 5.43e9, True) == pytest.approx(89.09599659, abs=1e-6)


def test_nlos_pathloss_reference_point():
    # 22.4 + 35.3*log10(100) + 21.3*log10(5.43) - 0.3*(10 - 1.5)
    got = pathloss_db(100.0, 5.43e9, False, ut_height_m=10.0)
    assert got == pytest.approx(106.10123637, abs=1e-6)


def test_nlos_clamped_to_los_at_short_range():
    # at 2 m the raw NLOS value undercuts LOS, which is unphysical
    los = pathloss_db(2.0, 5.43e9, True)
    nlos = pathloss_db(2.0, 5.43e9, False, ut_height_m=10.0)
    assert nlos == pytest.approx(los, abs=1e-12)


def test_pathloss_monotone_in_distance():
    d = np.linspace(5.0, 2000.0, 200)
    for los in (True, False):
        pl = pathloss_db(d, 5.43e9, np.full(d.shape, los), ut_height_m=10.0)
        assert (np.diff(pl) > 0).all()


def test_free_space_pathloss():
    want = 32.45 + 20 * math.log10(100.0) + 20 * math.log10(5.43)
    got = pathloss_db(100.0, 5.43e9, True, model="free-space")
    assert got == pytest.approx(want, abs=1e-9)


def test_pathloss_zero_distance_rejected():
    with pytest.raises(ValueError):
        pathloss_db(0.0, 5.43e9, True)


def test_los_probability_values():
    assert los_probability(10.0) == 1.0
    assert los_probability(18.0) == 1.0
    # 18/100 + exp(-100/36)*(1 - 18/100) evaluated by hand
    assert los_probability(100.0) == pytest.approx(0.230984750, abs=1e-8)
    d = np.linspace(1.0, 3000.0, 500)
    p = los_probability(d)
    assert (np.diff(p) <= 1e-12).all()
    assert los_probability(3000.0) < 0.01


def test_noise_floor():
    # -174 + 10*log10(20e6) + 7
    assert noise_floor_dbm(20e6, 7.0) == pytest.approx(-93.98970004, abs=1e-6)
    assert noise_floor_dbm(180e3, 7.0) == pytest.approx(-114.44727495, abs=1e-6)


def test_dbm_norm_round_trip():
    vals = np.array([-90.0, -62.0, -30.0])
    np.testing.assert_allclose(norm_to_dbm(dbm_to_norm(vals, -62.0), -62.0), vals)
    assert dbm_to_norm(-62.0, -62.0) == 1.0
    assert dbm_to_norm(-52.0, -62.0) == pytest.approx(10.0)


def _plan4():
    return build_spectrum_plan(80e6, 20e6, 1, center_frequency_hz=5.43e9)


def test_channel_overlap_fractions():
    plan = _plan4()
    # aligned with channel 0
    np.testing.assert_allclose(channel_overlap_fraction(plan, 5.40e9, 20e6),
                               [1.0, 0.0, 0.0, 0.0])
    # straddles channels 0 and 1
    np.testing.assert_allclose(channel_overlap_fraction(plan, 5.41e9, 20e6),
                               [0.5, 0.5, 0.0, 0.0])
    # 40 MHz signal covering channels 1 and 2
    np.testing.assert_allclose(channel_overlap_fraction(plan, 5.43e9, 40e6),
                               [0.0, 0.5, 0.5, 0.0])
    # half the signal sits below the sensed band and is lost
    np.testing.assert_allclose(channel_overlap_fraction(plan, 5.39e9, 20e6),
                               [0.5, 0.0, 0.0, 0.0])


def _scenario(prop, seed=9, incumbents=None):
    topo = build_grid_topology(3, 50.0, 75.0, 10.0)
    plan = _plan4().with_quota((3, 2, 2, 2))
    if incumbents is None:
        incumbents = (Incumbent((25.0, 25.0), 1.5, 30.0, 20e6, 5.40e9),)
    return Scenario(topo, plan, incumbents, prop, seed)


def _det_params(**kw):
    # deterministic propagation: no LOS draws, shadowing, fading, or
    # estimation noise unless overridden
    base = dict(model="free-space", shadowing_sigma_los_db=0.0,
                shadowing_sigma_nlos_db=0.0, fading="none",
                estimate_shape=None)
    base.update(kw)
    return PropagationParams(**base)


def _measure(scn, links, iterations, rng_estimate):
    """Frame of one realization, drawn from its ground truth at -62 dBm."""
    truth = compute_ground_truth(scn, links, -62.0)
    return generate_measurements(scn, truth, iterations, rng_estimate)


def test_measurements_match_independent_link_budget():
    # fully deterministic frame recomputed from first principles
    scn = _scenario(_det_params())
    links = realize_links(scn, scn.rng("bands", 0), scn.rng("shadow", 0))
    frame = _measure(scn, links, 5, scn.rng("estimate", 0))
    assert frame.y.shape == (9, 4, 5)

    inc = scn.incumbents[0]
    v = 10.0 ** ((-174.0 + 10 * math.log10(20e6) + 7.0 + 62.0) / 10.0)
    for k in range(9):
        dx = scn.topology.positions[k, 0] - inc.position[0]
        dy = scn.topology.positions[k, 1] - inc.position[1]
        d3 = math.sqrt(max(dx * dx + dy * dy, 1.0) + (10.0 - 1.5) ** 2)
        pl = 32.45 + 20 * math.log10(d3) + 20 * math.log10(5.43)
        rx = 10.0 ** ((30.0 - pl + 62.0) / 10.0)
        np.testing.assert_allclose(frame.y[k, 0, :], v + rx, rtol=1e-12)
        # incumbent sits entirely in channel 0, the rest is noise only
        np.testing.assert_allclose(frame.y[k, 1:, :], v, rtol=1e-12)


def test_measurements_deterministic_per_substream():
    scn = _scenario(PropagationParams())
    links = realize_links(scn, scn.rng("bands", 0), scn.rng("shadow", 0),
                          scn.rng("fading", 0))
    f1 = _measure(scn, links, 20, scn.rng("estimate", 0))
    f2 = _measure(scn, links, 20, scn.rng("estimate", 0))
    assert np.array_equal(f1.y, f2.y)
    f3 = _measure(scn, links, 20, scn.rng("estimate", 1))
    assert not np.array_equal(f1.y, f3.y)
    assert (f1.y > 0).all()


def test_block_fading_static_within_realization():
    # fading is frozen for a whole sensing window; with estimation noise off
    # the frame is constant over iterations but varies across realizations
    inc = (Incumbent((25.0, 25.0), 1.5, 30.0, 20e6, 5.40e9),)
    scn = _scenario(_det_params(fading="rayleigh"), incumbents=inc)
    links0 = realize_links(scn, scn.rng("bands", 0), scn.rng("shadow", 0),
                           scn.rng("fading", 0))
    f0 = _measure(scn, links0, 10, scn.rng("estimate", 0))
    assert np.ptp(f0.y, axis=2).max() == 0.0
    links1 = realize_links(scn, scn.rng("bands", 0), scn.rng("shadow", 0),
                           scn.rng("fading", 1))
    f1 = _measure(scn, links1, 10, scn.rng("estimate", 0))
    assert not np.array_equal(f0.y, f1.y)


def test_fading_unit_mean_across_realizations():
    # Rayleigh power gains are unit mean, so the faded level averaged over
    # many realizations approaches the deterministic mean received power
    inc = (Incumbent((25.0, 25.0), 1.5, 30.0, 20e6, 5.40e9),)
    scn_det = _scenario(_det_params(), incumbents=inc)
    scn_fad = _scenario(_det_params(fading="rayleigh"), incumbents=inc)
    links = realize_links(scn_det, scn_det.rng("bands", 0), scn_det.rng("shadow", 0))
    want = received_level(scn_det, links, -62.0)[:, 0]
    total = np.zeros(9)
    runs = 2500
    for r in range(runs):
        lr = realize_links(scn_fad, scn_fad.rng("bands", 0),
                           scn_fad.rng("shadow", 0), scn_fad.rng("fading", r))
        total += received_level(scn_fad, lr, -62.0)[:, 0]
    np.testing.assert_allclose(total / runs, want, rtol=0.08)


def test_estimation_noise_statistics():
    # per-iteration factors are unit-mean Gamma(shape): check mean and the
    # relative variance 1/shape on a noise-only channel
    scn = _scenario(_det_params(estimate_shape=25.0))
    links = realize_links(scn, scn.rng("bands", 0), scn.rng("shadow", 0))
    frame = _measure(scn, links, 4000, scn.rng("estimate", 0))
    level = received_level(scn, links, -62.0)
    v = dbm_to_norm(noise_floor_dbm(20e6, 7.0), -62.0)
    ratio = frame.y[:, 3, :] / (level[:, 3] + v)[:, None]
    assert ratio.mean() == pytest.approx(1.0, abs=0.02)
    assert ratio.var() == pytest.approx(1.0 / 25.0, rel=0.15)


def test_realized_links_shapes_and_symmetry():
    scn = _scenario(PropagationParams(), seed=31)
    links = realize_links(scn, scn.rng("bands", 0), scn.rng("shadow", 0))
    k = scn.topology.count
    assert links.sap_los.shape == (k, k)
    assert np.array_equal(links.sap_los, links.sap_los.T)
    assert links.sap_los.diagonal().all()
    assert np.allclose(links.sap_gain_db.diagonal(), 0.0)
    assert links.inc_gain_db.shape == (1, k)
    assert (links.inc_gain_db < 0).all()
    # same substreams, same draw
    again = realize_links(scn, scn.rng("bands", 0), scn.rng("shadow", 0))
    assert np.array_equal(links.inc_gain_db, again.inc_gain_db)
    assert np.array_equal(links.sap_gain_db, again.sap_gain_db)


def test_band_draw_uses_channel_grid_for_channel_width_signals():
    incs = tuple(Incumbent((10.0 * i, 5.0), 1.5, 30.0, 20e6, None)
                 for i in range(40))
    scn = _scenario(PropagationParams(), seed=13, incumbents=incs)
    links = realize_links(scn, scn.rng("bands", 0), scn.rng("shadow", 0))
    centers = set(np.round(links.inc_center_hz, 3))
    assert centers <= set(np.round(scn.spectrum.channel_centers_hz, 3))
    assert len(centers) > 1  # not all incumbents picked the same channel


def test_reference_powers_respect_neighborhood():
    scn = _scenario(PropagationParams(), seed=17)
    links = realize_links(scn, scn.rng("bands", 0), scn.rng("shadow", 0))
    p_hat = generate_reference_powers(scn, links.sap_gain_db, -62.0)
    adj = scn.topology.adjacency
    assert (p_hat.diagonal() == 0).all()
    assert (p_hat[~adj] == 0).all()
    off_diag_neighbors = adj & ~np.eye(scn.topology.count, dtype=bool)
    assert (p_hat[off_diag_neighbors] > 0).all()


def test_reference_powers_decay_with_distance_when_deterministic():
    scn = _scenario(_det_params(), seed=17)
    links = realize_links(scn, scn.rng("bands", 0), scn.rng("shadow", 0))
    p_hat = generate_reference_powers(scn, links.sap_gain_db, -62.0)
    # 50 m orthogonal neighbor beats 70.7 m diagonal neighbor from the corner
    assert p_hat[0, 1] > p_hat[0, 4] > 0


def test_ground_truth_thresholding():
    inc = (Incumbent((0.0, 0.0), 1.5, 30.0, 20e6, 5.40e9),)
    scn = _scenario(_det_params(), incumbents=inc)
    links = realize_links(scn, scn.rng("bands", 0), scn.rng("shadow", 0))
    truth = compute_ground_truth(scn, links, -62.0)
    # co-located SAP sees roughly -17 dBm, far channels only noise
    busy = truth.busy_at(-62.0)
    assert busy[0, 0]
    assert not busy[:, 1:].any()
    # raising the threshold can only shrink the busy set
    prev = truth.busy_at(-90.0).sum()
    for t in (-80.0, -70.0, -60.0, -50.0, -40.0, -10.0):
        cur = truth.busy_at(t).sum()
        assert cur <= prev
        prev = cur
    assert truth.busy_at(10.0).sum() == 0


def test_received_level_matches_truth_minus_noise():
    scn = _scenario(_det_params())
    links = realize_links(scn, scn.rng("bands", 0), scn.rng("shadow", 0))
    truth = compute_ground_truth(scn, links, -62.0)
    v = dbm_to_norm(noise_floor_dbm(20e6, 7.0), -62.0)
    np.testing.assert_allclose(received_level(scn, links, -62.0),
                               truth.true_energy - v, rtol=1e-12)


def test_ground_truth_is_the_realized_level():
    # truth is the level actually present this window, impairments included,
    # and the frame is drawn from it, so with noise off it is the truth
    scn = Scenario(build_grid_topology(3, 50.0, 75.0, 10.0),
                   _plan4().with_quota((3, 2, 2, 2)),
                   (Incumbent((25.0, 25.0), 1.5, 30.0, 20e6, 5.40e9),),
                   PropagationParams(estimate_shape=None), 9)
    la = realize_links(scn, scn.rng("bands", 0), scn.rng("shadow", 0),
                       scn.rng("fading", 0))
    lb = realize_links(scn, scn.rng("bands", 0), scn.rng("shadow", 1),
                       scn.rng("fading", 1))
    ta = compute_ground_truth(scn, la, -62.0)
    tb = compute_ground_truth(scn, lb, -62.0)
    # shadowing and fading shift the realized level, hence the truth
    assert not np.array_equal(ta.true_energy, tb.true_energy)
    # with estimation noise off, every window reads exactly the true level
    frame = generate_measurements(scn, ta, 4, scn.rng("estimate", 0))
    expected = np.broadcast_to(ta.true_energy[:, :, None], frame.y.shape)
    assert np.array_equal(frame.y, expected)
    assert frame.ref_dbm == ta.ref_dbm


def test_frame_rescaling():
    # a swept threshold sees the frame times the gain that maps it to 1.0
    frame = MeasurementFrame(np.full((2, 1, 3), 2.0), -62.0)
    assert threshold_gain(frame.ref_dbm, -62.0) == 1.0
    np.testing.assert_allclose(frame.y * threshold_gain(frame.ref_dbm, -72.0),
                               frame.y * 10.0)
    np.testing.assert_allclose(frame.y * threshold_gain(frame.ref_dbm, -52.0),
                               frame.y / 10.0)
