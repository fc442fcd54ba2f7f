"""Tests for pathloss, link realization, and measurement generation."""

import math
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest

from specsense import propagation
from specsense.harness import generate_scenario
from specsense.model import (
    Incumbent,
    Scenario,
    build_grid_topology,
    build_spectrum_plan,
)
from specsense.propagation import (
    REFERENCE_DBM,
    LinkRealization,
    MeasurementFrame,
    PropagationParams,
    _realize_bands,
    channel_overlap_fraction,
    compute_ground_truth,
    dbm_to_norm,
    estimation_noise,
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
from specsense.seeding import substream


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
    # the 802.11 energy-detect level is the one normalized unit
    assert REFERENCE_DBM == -62.0
    vals = np.array([-90.0, -62.0, -30.0])
    np.testing.assert_allclose(norm_to_dbm(dbm_to_norm(vals)), vals)
    assert dbm_to_norm(-62.0) == 1.0
    assert dbm_to_norm(-52.0) == pytest.approx(10.0)


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


def _links(scn, bands=0, shadow=0, fading=0):
    """Links drawn from the given realizations' substreams, one per layer."""
    return realize_links(scn, substream(scn.seed, "bands", bands),
                         substream(scn.seed, "shadow", shadow),
                         substream(scn.seed, "fading", fading))


def _noise(scn, truth, iterations, rng_estimate):
    """Estimation noise for a (K, M, ``iterations``) frame of ``truth``."""
    return estimation_noise(np.empty(truth.true_energy.shape + (iterations,)),
                            scn.propagation.estimate_shape, rng_estimate)


def _measure(scn, links, iterations, rng_estimate):
    """Frame of one realization, drawn from its ground truth."""
    truth = compute_ground_truth(scn, links)
    return generate_measurements(truth, _noise(scn, truth, iterations,
                                               rng_estimate))


def test_measurements_match_independent_link_budget():
    # fully deterministic frame recomputed from first principles
    scn = _scenario(_det_params())
    links = _links(scn)
    frame = _measure(scn, links, 5, substream(scn.seed, "estimate", 0))
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
    links = _links(scn)
    f1 = _measure(scn, links, 20, substream(scn.seed, "estimate", 0))
    f2 = _measure(scn, links, 20, substream(scn.seed, "estimate", 0))
    assert np.array_equal(f1.y, f2.y)
    f3 = _measure(scn, links, 20, substream(scn.seed, "estimate", 1))
    assert not np.array_equal(f1.y, f3.y)
    assert (f1.y > 0).all()


def test_block_fading_static_within_realization():
    # fading is frozen for a whole sensing window; with estimation noise off
    # the frame is constant over iterations but varies across realizations
    inc = (Incumbent((25.0, 25.0), 1.5, 30.0, 20e6, 5.40e9),)
    scn = _scenario(_det_params(fading="rayleigh"), incumbents=inc)
    links0 = _links(scn)
    f0 = _measure(scn, links0, 10, substream(scn.seed, "estimate", 0))
    assert np.ptp(f0.y, axis=2).max() == 0.0
    links1 = _links(scn, fading=1)
    f1 = _measure(scn, links1, 10, substream(scn.seed, "estimate", 0))
    assert not np.array_equal(f0.y, f1.y)


def test_fading_unit_mean_across_realizations():
    # Rayleigh power gains are unit mean, so the faded level averaged over
    # many realizations approaches the deterministic mean received power
    inc = (Incumbent((25.0, 25.0), 1.5, 30.0, 20e6, 5.40e9),)
    scn_det = _scenario(_det_params(), incumbents=inc)
    scn_fad = _scenario(_det_params(fading="rayleigh"), incumbents=inc)
    links = _links(scn_det)
    want = received_level(scn_det, links)[:, 0]
    total = np.zeros(9)
    runs = 2500
    for r in range(runs):
        lr = _links(scn_fad, fading=r)
        total += received_level(scn_fad, lr)[:, 0]
    np.testing.assert_allclose(total / runs, want, rtol=0.08)


def test_estimation_noise_statistics():
    # per-iteration factors are unit-mean Gamma(shape): check mean and the
    # relative variance 1/shape on a noise-only channel
    scn = _scenario(_det_params(estimate_shape=25.0))
    links = _links(scn)
    frame = _measure(scn, links, 4000, substream(scn.seed, "estimate", 0))
    level = received_level(scn, links)
    v = dbm_to_norm(noise_floor_dbm(20e6, 7.0))
    ratio = frame.y[:, 3, :] / (level[:, 3] + v)[:, None]
    assert ratio.mean() == pytest.approx(1.0, abs=0.02)
    assert ratio.var() == pytest.approx(1.0 / 25.0, rel=0.15)


def test_realized_links_shapes_and_symmetry():
    scn = _scenario(PropagationParams(), seed=31)
    links = _links(scn)
    k = scn.topology.count
    assert links.sap_los.shape == (k, k)
    assert np.array_equal(links.sap_los, links.sap_los.T)
    assert links.sap_los.diagonal().all()
    assert np.allclose(links.sap_gain_db.diagonal(), 0.0)
    assert links.inc_gain_db.shape == (1, k)
    assert (links.inc_gain_db < 0).all()
    # same substreams, same draw
    again = _links(scn)
    assert np.array_equal(links.inc_gain_db, again.inc_gain_db)
    assert np.array_equal(links.sap_gain_db, again.sap_gain_db)


def test_band_draw_uses_channel_grid_for_channel_width_signals():
    incs = tuple(Incumbent((10.0 * i, 5.0), 1.5, 30.0, 20e6, None)
                 for i in range(40))
    scn = _scenario(PropagationParams(), seed=13, incumbents=incs)
    links = _links(scn)
    centers = set(np.round(links.inc_center_hz, 3))
    assert centers <= set(np.round(scn.spectrum.channel_centers_hz, 3))
    assert len(centers) > 1  # not all incumbents picked the same channel


def test_reference_powers_respect_neighborhood():
    scn = _scenario(PropagationParams(), seed=17)
    links = _links(scn)
    p_hat = generate_reference_powers(scn, links.sap_gain_db)
    adj = scn.topology.adjacency
    assert (p_hat.diagonal() == 0).all()
    assert (p_hat[~adj] == 0).all()
    off_diag_neighbors = adj & ~np.eye(scn.topology.count, dtype=bool)
    assert (p_hat[off_diag_neighbors] > 0).all()


def test_reference_powers_decay_with_distance_when_deterministic():
    scn = _scenario(_det_params(), seed=17)
    links = _links(scn)
    p_hat = generate_reference_powers(scn, links.sap_gain_db)
    # 50 m orthogonal neighbor beats 70.7 m diagonal neighbor from the corner
    assert p_hat[0, 1] > p_hat[0, 4] > 0


def test_ground_truth_thresholding():
    inc = (Incumbent((0.0, 0.0), 1.5, 30.0, 20e6, 5.40e9),)
    scn = _scenario(_det_params(), incumbents=inc)
    links = _links(scn)
    truth = compute_ground_truth(scn, links)
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
    links = _links(scn)
    truth = compute_ground_truth(scn, links)
    v = dbm_to_norm(noise_floor_dbm(20e6, 7.0))
    np.testing.assert_allclose(received_level(scn, links),
                               truth.true_energy - v, rtol=1e-12)


def test_ground_truth_is_the_realized_level():
    # truth is the level actually present this window, impairments included,
    # and the frame is drawn from it, so with noise off it is the truth
    scn = Scenario(build_grid_topology(3, 50.0, 75.0, 10.0),
                   _plan4().with_quota((3, 2, 2, 2)),
                   (Incumbent((25.0, 25.0), 1.5, 30.0, 20e6, 5.40e9),),
                   PropagationParams(estimate_shape=None), 9)
    la = _links(scn)
    lb = _links(scn, shadow=1, fading=1)
    ta = compute_ground_truth(scn, la)
    tb = compute_ground_truth(scn, lb)
    # shadowing and fading shift the realized level, hence the truth
    assert not np.array_equal(ta.true_energy, tb.true_energy)
    # with estimation noise off, every window reads exactly the true level
    noise = _noise(scn, ta, 4, substream(scn.seed, "estimate", 0))
    frame = generate_measurements(ta, noise)
    expected = np.broadcast_to(ta.true_energy[:, :, None], frame.y.shape)
    assert np.array_equal(frame.y, expected)


def test_frame_rescaling():
    # a swept threshold sees the frame times the gain that maps it to 1.0
    frame = MeasurementFrame(np.full((2, 1, 3), 2.0))
    assert threshold_gain(-62.0) == 1.0
    np.testing.assert_allclose(frame.y * threshold_gain(-72.0), frame.y * 10.0)
    np.testing.assert_allclose(frame.y * threshold_gain(-52.0), frame.y / 10.0)


# ---------------------------------------------------------------------------
# Oracles: the per-incumbent propagation code the vectorized path replaced
# ---------------------------------------------------------------------------

def _scalar_overlap(plan, signal_center_hz, signal_bandwidth_hz):
    """One signal's overlap fractions, shape (M,), in Python-float arithmetic."""
    lo = signal_center_hz - signal_bandwidth_hz / 2.0
    hi = signal_center_hz + signal_bandwidth_hz / 2.0
    m = np.arange(plan.channel_count)
    band_lo = (plan.center_frequency_hz - plan.total_bandwidth_hz / 2.0
               + m * plan.channel_bandwidth_hz)
    band_hi = band_lo + plan.channel_bandwidth_hz
    overlap = np.clip(np.minimum(band_hi, hi) - np.maximum(band_lo, lo), 0.0, None)
    return overlap / signal_bandwidth_hz


def _oracle_realize_links(scenario, rng_bands, rng_shadow, rng_fading):
    """Link realization with one fading draw per incumbent.

    Returns the links and, beside them, the per-incumbent (hit, gains) list.
    """
    topo = scenario.topology
    plan = scenario.spectrum
    prop = scenario.propagation
    carrier = prop.carrier_hz if prop.carrier_hz is not None else plan.center_frequency_hz
    k_count = topo.count
    n_inc = len(scenario.incumbents)
    centers, bandwidths = _realize_bands(scenario, plan, rng_bands)

    inc_pos = np.array([inc.position for inc in scenario.incumbents], dtype=float).reshape(n_inc, 2)
    inc_h = np.array([inc.height_m for inc in scenario.incumbents], dtype=float)
    d2d = np.sqrt(((inc_pos[:, None, :] - topo.positions[None, :, :]) ** 2).sum(axis=2))
    d2d = np.maximum(d2d, 1.0)
    dz = inc_h[:, None] - topo.heights_m[None, :]
    d3d = np.sqrt(d2d ** 2 + dz ** 2)
    if prop.model == "free-space":
        inc_los = np.ones((n_inc, k_count), dtype=bool)
    else:
        inc_los = rng_bands.uniform(size=(n_inc, k_count)) < los_probability(d2d)
    inc_pl = pathloss_db(d3d, carrier, inc_los,
                         ut_height_m=float(topo.heights_m[0]), model=prop.model)
    sigma = np.where(inc_los, prop.shadowing_sigma_los_db, prop.shadowing_sigma_nlos_db)
    shadow = rng_shadow.standard_normal((n_inc, k_count)) * sigma
    inc_gain_db = -(inc_pl + shadow)

    fade_state = (rng_fading.bit_generator.state
                  if prop.fading == "rayleigh" else None)
    fades = []
    for i in range(n_inc):
        frac = _scalar_overlap(plan, centers[i], bandwidths[i])
        hit = np.flatnonzero(frac > 0)
        if prop.fading == "rayleigh":
            gains = rng_fading.exponential(1.0, size=(k_count, hit.size))
        else:
            gains = np.ones((k_count, hit.size))
        fades.append((hit, gains))
    runs = np.array([(hit[0], hit[-1] + 1) if hit.size else (0, 0)
                     for hit, _ in fades], dtype=np.intp).reshape(n_inc, 2)

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
    spl = pathloss_db(sd2d, carrier, sap_los,
                      ut_height_m=float(topo.heights_m[0]), model=prop.model)
    ssigma = np.where(sap_los, prop.shadowing_sigma_los_db, prop.shadowing_sigma_nlos_db)
    sshadow = rng_shadow.standard_normal((k_count, k_count)) * ssigma
    sap_gain_db = -(spl + sshadow)
    np.fill_diagonal(sap_gain_db, 0.0)
    links = LinkRealization(centers, bandwidths, inc_los, inc_gain_db,
                            runs, fade_state, sap_los, sap_gain_db)
    return links, fades


def _oracle_received_level(scenario, links, fades):
    """Per-incumbent overlap and a fancy-index add over its hit channels."""
    plan = scenario.spectrum
    total = np.zeros((scenario.topology.count, plan.channel_count))
    for i, inc in enumerate(scenario.incumbents):
        frac = _scalar_overlap(plan, links.inc_center_hz[i],
                               links.inc_bandwidth_hz[i])
        hit, gains = fades[i]
        if hit.size == 0:
            continue
        rx = dbm_to_norm(inc.tx_power_dbm + links.inc_gain_db[i])
        total[:, hit] += rx[:, None] * frac[hit][None, :] * gains
    return total


def _oracle_scenario(template, fading):
    if template == "small-grid":
        scn = generate_scenario("small-grid", seed=4, side_count=3,
                                incumbent_count=12)
    else:
        scn = generate_scenario("large-synthetic", seed=4, sap_count=8,
                                incumbent_count=20, total_bandwidth_hz=100e6)
        # the top 100 kHz of this band is no channel's: a signal there hits
        # nothing; a fixed narrow one straddles a channel boundary
        plan = scn.spectrum
        top = plan.center_frequency_hz + plan.total_bandwidth_hz / 2.0
        edge = plan.channel_centers_hz[3] + plan.channel_bandwidth_hz / 2.0
        scn = replace(scn, incumbents=scn.incumbents + (
            Incumbent((300.0, 400.0), 10.0, 30.0, 60e3, top - 40e3),
            Incumbent((900.0, 100.0), 10.0, 30.0, 90e3, edge)))
    return replace(scn, propagation=replace(scn.propagation, fading=fading))


def _check_links_and_truth(scn, fading_tag):
    """Assert three realizations' links, level and truth equal the oracle's.

    Returns the last realization's (hit, gains) list.
    """
    def streams(r, tag=fading_tag):
        return [substream(scn.seed, "bands", r), substream(scn.seed, "shadow", r),
                substream(scn.seed, tag, r)]

    for r in range(3):
        links = realize_links(scn, *streams(r))
        want, want_fades = _oracle_realize_links(scn, *streams(r))
        other = realize_links(scn, *streams(r, "estimate"))
        assert np.array_equal(links.inc_gain_db, other.inc_gain_db)
        assert np.array_equal(links.sap_gain_db, other.sap_gain_db)
        assert np.array_equal(links.sap_los, other.sap_los)
        fades = list(links.inc_fade)
        assert len(fades) == len(want_fades)
        for (hit, gains), (want_hit, want_gains) in zip(fades, want_fades):
            assert np.array_equal(hit, want_hit)
            # the slice add in received_level relies on contiguous hits
            if hit.size:
                assert np.array_equal(hit, np.arange(hit[0], hit[-1] + 1))
            assert gains.shape == want_gains.shape
            assert np.array_equal(gains, want_gains)
        assert np.array_equal(links.inc_los, want.inc_los)
        assert np.array_equal(links.inc_gain_db, want.inc_gain_db)
        assert np.array_equal(links.inc_runs, want.inc_runs)
        assert np.array_equal(links.sap_los, want.sap_los)
        assert np.array_equal(links.sap_gain_db, want.sap_gain_db)
        level = received_level(scn, links)
        assert np.array_equal(level,
                              _oracle_received_level(scn, want, want_fades))
        v = dbm_to_norm(noise_floor_dbm(scn.spectrum.channel_bandwidth_hz,
                                        scn.propagation.noise_figure_db))
        assert np.array_equal(compute_ground_truth(scn, links).true_energy,
                              v + level)
    return fades


@pytest.mark.parametrize("own_fading_stream", [True, False])
@pytest.mark.parametrize("fading", ["rayleigh", "none"])
@pytest.mark.parametrize("template", ["small-grid", "large-synthetic"])
def test_links_and_truth_match_per_incumbent_oracle(template, fading,
                                                    own_fading_stream):
    # the gains drawn on demand from the fading snapshot equal the oracle's
    # per-incumbent draws; the fading generator is its own substream or a
    # separate one seeded like the shadowing substream, and in either case
    # touches only the fades
    scn = _oracle_scenario(template, fading)
    fades = _check_links_and_truth(
        scn, "fading" if own_fading_stream else "shadow")
    if template == "large-synthetic":
        assert any(hit.size == 0 for hit, _ in fades)


@pytest.mark.parametrize("fading", ["rayleigh", "none"])
def test_links_and_truth_match_oracle_across_link_blocks(monkeypatch, fading):
    # blocks of three incumbents: every stream draws its rows block by block,
    # and the empty-run incumbent (20) closes a block while the channel-edge
    # straddler (21) opens the next
    scn = _oracle_scenario("large-synthetic", fading)
    m_count, k_count = scn.spectrum.channel_count, scn.topology.count
    assert m_count > 2 * k_count          # the (block, M) overlap is widest
    monkeypatch.setattr(propagation, "LINK_BLOCK_BYTES", 3 * 8 * m_count)
    assert len(scn.incumbents) == 22      # eight blocks, the last of one
    fades = _check_links_and_truth(scn, "fading")
    assert fades[20][0].size == 0
    assert np.array_equal(fades[21][0], [3, 4])


def test_links_and_truth_hold_no_incumbent_by_channel_array():
    # wide-area's shape: one (n_inc, M) float array is 8.9 MB. The links go
    # a block of incumbents at a time and the level sum one incumbent's run
    # at a time, so neither holds such an array (each held 28.1 and 17.5 MiB
    # when they formed the distances and overlap fractions whole)
    scn = generate_scenario("large-synthetic", seed=5, sap_count=100,
                            incumbent_count=2000, total_bandwidth_hz=100e6)
    full = 8 * len(scn.incumbents) * scn.spectrum.channel_count
    assert full > 8.8e6

    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    links, links_peak = traced_peak(_links, scn)
    _, truth_peak = traced_peak(compute_ground_truth, scn, links)
    assert links_peak < full
    assert truth_peak < full


@pytest.mark.parametrize("fading", ["rayleigh", "none"])
def test_fading_gains_are_drawn_on_demand_from_a_snapshot(fading):
    scn = _oracle_scenario("large-synthetic", fading)
    rng_fading = substream(scn.seed, "fading", 0)
    links = realize_links(scn, substream(scn.seed, "bands", 0),
                          substream(scn.seed, "shadow", 0), rng_fading)
    # the caller's stream is snapshotted, not consumed
    assert rng_fading.random() == substream(scn.seed, "fading", 0).random()
    first = list(links.inc_fade)
    rng_fading.standard_exponential(10_000)
    second = list(links.inc_fade)
    assert len(first) == len(second) == len(scn.incumbents)
    for (hit, gains), (again_hit, again) in zip(first, second):
        assert np.array_equal(hit, again_hit)
        assert np.array_equal(gains, again)
        assert gains is not again
        assert gains.shape == (scn.topology.count, hit.size)
    flat = np.concatenate([gains.ravel() for _, gains in first])
    if fading == "none":
        assert np.all(flat == 1.0)
    else:
        # block by block, the stream of one flat draw
        fresh = substream(scn.seed, "fading", 0)
        assert np.array_equal(flat, fresh.standard_exponential(flat.size))
    truth = compute_ground_truth(scn, links).true_energy
    assert np.array_equal(truth, compute_ground_truth(scn, links).true_energy)


def test_ground_truth_never_holds_every_fading_gain():
    # the level sum draws one incumbent's gains at a time: the traced peak
    # of links plus truth stays far below the bytes of all the gains
    scn = generate_scenario("large-synthetic", seed=5, sap_count=50,
                            incumbent_count=800, total_bandwidth_hz=100e6)
    tracemalloc.start()
    try:
        compute_ground_truth(scn, _links(scn))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gain_bytes = sum(gains.nbytes for _, gains in _links(scn).inc_fade)
    assert gain_bytes > 70e6
    assert peak < 0.25 * gain_bytes


def test_ground_truth_holds_one_level_array():
    # the noise floor goes into the level sum's own array, so one call
    # peaks near one (K, M) float64 array; adding it out of place held the
    # level and the truth at once, two arrays
    scn = generate_scenario("large-synthetic", seed=5, sap_count=20,
                            incumbent_count=20)
    links = _links(scn)
    level_bytes = 8 * scn.topology.count * scn.spectrum.channel_count
    assert scn.spectrum.channel_count == 2777
    tracemalloc.start()
    try:
        truth = compute_ground_truth(scn, links)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert truth.true_energy.nbytes == level_bytes
    assert peak < 1.8 * level_bytes


def test_overlap_fraction_rows_equal_scalar_calls():
    plan = build_spectrum_plan(10e6, 180e3, 1, center_frequency_hz=5.43e9)
    rng = np.random.default_rng(7)
    widths = rng.choice([60e3, 180e3, 1e6, 3e6], size=40)
    lo = plan.center_frequency_hz - plan.total_bandwidth_hz / 2.0
    centers = lo + widths / 2.0 + rng.uniform(size=40) * (10e6 - widths)
    rows = channel_overlap_fraction(plan, centers, widths)
    assert rows.shape == (40, plan.channel_count)
    for c, w, row in zip(centers, widths, rows):
        assert np.array_equal(row, _scalar_overlap(plan, float(c), float(w)))
        assert np.array_equal(row, channel_overlap_fraction(plan, c, w))
        run = np.arange(5, 17)
        assert np.array_equal(row[run],
                              channel_overlap_fraction(plan, c, w, run))


@pytest.mark.parametrize("shape", [0.3, 0.7, 1.0, 25.0, None])
def test_frame_is_level_times_noise_from_its_substream(shape):
    scn = _scenario(PropagationParams(estimate_shape=shape))
    links = _links(scn)
    truth = compute_ground_truth(scn, links)
    size = truth.true_energy.shape + (6,)
    # drawn into a caller's buffer, the noise keeps the bits of the one-call
    # unit-mean Gamma draw; None is noiseless
    noise = _noise(scn, truth, 6, substream(scn.seed, "estimate", 2))
    if shape is None:
        assert np.array_equal(noise, np.ones(size))
    else:
        assert np.array_equal(noise, substream(scn.seed, "estimate", 2).gamma(
            shape, 1.0 / shape, size=size))
    want = truth.true_energy[:, :, None] * noise
    frame = generate_measurements(truth, noise)
    assert frame.y is noise                     # scaled in place
    assert np.array_equal(frame.y, want)
    # the realization checksum reads the frame's buffer directly
    assert frame.y.flags.c_contiguous
    assert zlib.crc32(frame.y) == zlib.crc32(frame.y.tobytes())
