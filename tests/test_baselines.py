"""Tests for the comparison schemes and the scheme dispatcher."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsense import baselines
from specsense.baselines import (
    CALIBRATION_STRUCTURE,
    COOPERATIVE,
    SCHEME_IDS,
    DecisionMap,
    centralized_egc,
    genie,
    run_scheme,
    structure_of,
)
from specsense.diffusion import DiffusionParams, DivergenceError, run_diffusion
from specsense.metrics import (
    correct_decision_pct,
    misdetection_probability,
    utilization_ratio,
)
from specsense.model import ConfigurationError
from specsense.propagation import threshold_gain
from specsense.seeding import substream


def test_scheme_registry():
    assert SCHEME_IDS == ("genie", "proposed-multiband", "proposed-singleband",
                          "centralized", "noncoop-multiband",
                          "noncoop-singleband")
    assert CALIBRATION_STRUCTURE == {"proposed-multiband": "coop-full",
                                     "proposed-singleband": "coop-assigned",
                                     "noncoop-multiband": "standalone",
                                     "noncoop-singleband": "standalone"}
    # raw energy takes the non-cooperative schemes off the diffusion
    for name in SCHEME_IDS:
        assert structure_of(name, False) == CALIBRATION_STRUCTURE.get(name)
        assert structure_of(name, True) == (
            None if name.startswith("noncoop")
            else CALIBRATION_STRUCTURE.get(name))


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
    [d] = _slices(centralized_egc(y))
    assert d.decided.all()
    # every SAP shares the channel verdict
    assert (d.busy == d.busy[0]).all()
    want = y.mean(axis=(0, 2)) >= 1.0
    np.testing.assert_array_equal(d.busy[0], want)


def test_centralized_threshold_examples():
    # constant level below the threshold stays available everywhere
    low = np.full((3, 2, 4), 0.6)
    assert not centralized_egc(low).busy[0].any()
    # two SAPs at {1, 3} average to 2: busy at threshold 2, free at 2.5,
    # each threshold applied as the gain that maps it to 1.0
    y = np.zeros((2, 1, 1))
    y[0, 0, 0], y[1, 0, 0] = 1.0, 3.0
    at_2, at_2_5 = _slices(centralized_egc(y, gains=(1 / 2.0, 1 / 2.5)))
    assert at_2.busy.all() and at_2.decided.all()
    assert not at_2_5.busy.any()


def _slices(dm):
    """One (K, M) DecisionMap per slice of a decision stack."""
    return [DecisionMap(busy, dm.decided) for busy in dm.busy]


def _rescaled_oracle(y, gains):
    """The sweep by definition: each channel's mean of the rescaled frame."""
    return [(y * g).mean(axis=(0, 2)) for g in gains]


def test_centralized_sweep_matches_per_gain_copies():
    # far from the threshold the one frame mean decides every gain as the
    # rescaled frames would, and the frame is never touched
    y = substream(4, "egc-sweep").gamma(0.7, 1.0 / 0.7, size=(6, 9, 5))
    frame = y.copy()
    gains = [threshold_gain(t) for t in range(-82, -50, 4)]
    maps = _slices(run_scheme("centralized", measurements=y, gains=gains))
    assert len(maps) == len(gains)
    for dm, stat in zip(maps, _rescaled_oracle(frame, gains)):
        assert np.array_equal(dm.busy, np.tile(stat >= 1.0, (6, 1)))
        assert dm.decided.all()
    assert len({dm.busy.sum() for dm in maps}) > 1
    assert np.array_equal(y, frame)


def test_centralized_boundary_takes_exact_path():
    # the {1, 3} frame averages to 2, which gain 0.5 maps exactly onto the
    # threshold: busy
    y = np.zeros((2, 1, 1))
    y[0, 0, 0], y[1, 0, 0] = 1.0, 3.0
    [dm] = _slices(run_scheme("centralized", measurements=y, gains=(0.5,)))
    assert dm.busy.all() and dm.decided.all()


def test_centralized_rejects_negative_frame():
    y = np.ones((2, 3, 4))
    y[1, 2, 3] = -1e-300
    with pytest.raises(ConfigurationError, match="nonnegative"):
        run_scheme("centralized", measurements=y, gains=(1.0, 2.0))


@pytest.mark.parametrize("nan_at", [(1, 2, 0), slice(None)])
def test_centralized_rejects_nan_frame(nan_at):
    # a NaN mean compares False, which would call its channel available on
    # every SAP; one NaN sample or an all-NaN frame is refused instead
    y = np.ones((2, 3, 4))
    y[nan_at] = np.nan
    with pytest.raises(ConfigurationError, match="nonnegative"):
        run_scheme("centralized", measurements=y, gains=(1.0, 2.0))


@pytest.mark.parametrize("name", ["noncoop-multiband", "noncoop-singleband"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-300, "all-nan"])
def test_raw_energy_rejects_bad_last_window(name, bad):
    # the raw energy detector reads only the last window: a NaN there would
    # become an "available" verdict, so it must be finite and nonnegative
    y = np.ones((2, 3, 4))
    if bad == "all-nan":
        y[:] = np.nan
    else:
        y[1, 2, -1] = bad
    with pytest.raises(ConfigurationError, match="finite nonnegative"):
        run_scheme(name, measurements=y, gains=(1.0, 2.0),
                   channel_picks=np.array([0, 2]), raw_energy=True)
    # earlier windows are not read
    y = np.ones((2, 3, 4))
    y[1, 2, 0] = np.nan
    run_scheme(name, measurements=y, channel_picks=np.array([0, 2]),
               raw_energy=True)


@settings(max_examples=150, deadline=None)
@given(k_count=st.integers(1, 12), m_count=st.integers(1, 5),
       n_iter=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["gamma", "uniform", "sparse", "constant",
                             "non-finite"]),
       exponents=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
       ulps=st.lists(st.integers(-4, 4), min_size=1, max_size=5))
def test_centralized_shortcut_matches_per_gain_oracle(k_count, m_count, n_iter,
                                                      seed, kind, exponents,
                                                      ulps):
    # the one frame mean decides each gain as the rescaled frame would,
    # wherever 1.0 lies outside the rounding band around the statistic
    rng = np.random.default_rng(seed)
    shape = (k_count, m_count, n_iter)
    if kind == "gamma":
        y = rng.gamma(0.7, 1 / 0.7, size=shape) * 10.0 ** rng.uniform(-3, 3)
    elif kind == "uniform":
        y = rng.uniform(0.0, 4.0, size=shape)
    elif kind == "sparse":
        y = np.where(rng.uniform(size=shape) < 0.8, 0.0,
                     rng.exponential(5.0, size=shape))
    elif kind == "constant":
        y = np.full(shape, rng.uniform(0.1, 10.0))
    else:
        y = rng.uniform(0.0, 4.0, size=shape)
        y[rng.integers(k_count), rng.integers(m_count),
          rng.integers(n_iter)] = rng.choice([np.inf, np.nan])
    gains = [10.0 ** e for e in exponents]
    # rescale one channel so that its exact statistic at gain g sits on the
    # threshold, then sweep g a few ulps either way
    g = gains[0]
    m = rng.integers(m_count)
    stat = (y[:, m, :] * g).mean()
    if 0.0 < stat < np.inf:
        y[:, m, :] /= stat
    gains += [g * (1.0 + k * np.finfo(float).eps) for k in ulps]
    frame = y.copy()
    if np.isnan(y).any():
        # run_scheme refuses a NaN frame; the statistic itself is still
        # checked against the oracle below
        with pytest.raises(ConfigurationError, match="nonnegative"):
            run_scheme("centralized", measurements=y, gains=gains)
        maps = _slices(centralized_egc(y, gains))
    else:
        maps = _slices(run_scheme("centralized", measurements=y, gains=gains))
    assert len(maps) == len(gains)
    # For entries y >= 0 and n = K*N, computed mean(y*g) and mean(y)*g
    # carry at most n + 1 roundings per nonnegative term (none subnormal
    # while g < 2**1022), so both lie within γ = (n+1)u/(1 - (n+1)u),
    # u = eps/2, of the real value. Verdicts differ only if 1.0 lies
    # between them, within 2γ/(1 - γ)*stat of stat; (n + 4)*eps*stat
    # bounds that while (n + 1)(n + 4)*eps <= 3 (n <= 1e8). A NaN stat is
    # False both ways and an infinite one True.
    band = (k_count * n_iter + 4) * np.finfo(float).eps
    for dm, stat in zip(maps, _rescaled_oracle(frame, gains)):
        assert dm.decided.all() and (dm.busy == dm.busy[0]).all()
        checked = ~(np.abs(stat - 1.0) <= band * stat) | np.isinf(stat)
        assert np.array_equal(dm.busy[0][checked], stat[checked] >= 1.0)
    assert np.array_equal(y, frame, equal_nan=True)


def test_centralized_single_hot_sap_flips_channel():
    # equal-gain combining lets one enormous reading mark the channel busy
    # for everyone, which is exactly what costs it utilization
    y = np.full((10, 2, 3), 0.2)
    y[4, 1, :] = 500.0
    [d] = _slices(centralized_egc(y))
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
    [nc] = _slices(run_scheme("noncoop-multiband", measurements=y,
                              params=params, thresholds=lam))
    [pm] = _slices(run_scheme("proposed-multiband", measurements=y,
                              reference_powers=np.zeros((k_count, k_count)),
                              adjacency=np.eye(k_count, dtype=bool),
                              params=params, thresholds=lam))
    assert nc.decided.all() and pm.decided.all()
    np.testing.assert_array_equal(nc.busy, pm.busy)


def test_noncoop_raw_energy_uses_last_window():
    y = np.full((2, 2, 5), 0.1)
    y[0, 0, -1] = 2.0       # only the final reading counts
    y[1, 1, :-1] = 9.0      # earlier readings do not
    # at mu = 4 the filter would clamp every reading at 0.5, below the
    # busy level of 1.0
    [d, half] = _slices(run_scheme("noncoop-multiband", measurements=y,
                                   gains=(1.0, 0.5),
                                   params=DiffusionParams(step_size=4.0,
                                                          iterations=5),
                                   raw_energy=True))
    assert d.decided.all() and half.decided.all()
    # the gain scales the reading and the filter's ceiling does not clamp it
    np.testing.assert_array_equal(d.busy, [[True, False], [False, False]])
    np.testing.assert_array_equal(half.busy, d.busy)
    [single] = _slices(run_scheme("noncoop-singleband", measurements=y,
                                  channel_picks=np.array([0, 0]),
                                  raw_energy=True))
    np.testing.assert_array_equal(single.busy, [[True, False], [False, False]])
    np.testing.assert_array_equal(single.decided,
                                  [[True, False], [True, False]])


def test_noncoop_singleband_covers_one_channel_per_sap():
    y, _, _, lam = _toy_inputs(k_count=4, m_count=3)
    picks = np.array([0, 2, 1, 2])
    params = DiffusionParams(iterations=30)
    [d] = _slices(run_scheme("noncoop-singleband", measurements=y,
                             channel_picks=picks, params=params,
                             thresholds=lam))
    want = np.zeros((4, 3), dtype=bool)
    want[np.arange(4), picks] = True
    np.testing.assert_array_equal(d.decided, want)
    assert not d.busy[~want].any()
    # the decided entries agree with the multiband run of the same filter
    [full] = _slices(run_scheme("noncoop-multiband", measurements=y,
                                params=params, thresholds=lam))
    np.testing.assert_array_equal(d.busy[want], full.busy[want])


def test_noncoop_singleband_rejects_bad_picks():
    y, _, _, lam = _toy_inputs()
    params = DiffusionParams(iterations=30)
    for raw_energy in (False, True):
        for picks in ([0, 1],          # wrong length
                      [0, 1, 2],       # out of range
                      [0, -1, 1]):     # negative
            with pytest.raises(ConfigurationError, match="channel pick"):
                run_scheme("noncoop-singleband", measurements=y,
                           channel_picks=np.array(picks), params=params,
                           thresholds=lam, raw_energy=raw_energy)


def test_proposed_schemes_decide_everywhere():
    y, p_hat, adjacency, lam = _toy_inputs(seed=7)
    params = DiffusionParams(iterations=30)
    network = dict(measurements=y, reference_powers=p_hat,
                   adjacency=adjacency, params=params, thresholds=lam)
    [pm] = _slices(run_scheme("proposed-multiband", **network))
    assert pm.decided.all()
    mask = np.array([[True, False], [False, True], [True, True]])
    [ps] = _slices(run_scheme("proposed-singleband", sensing_mask=mask,
                              **network))
    assert ps.decided.all()
    # where every SAP senses, the assigned variant sees the same data
    np.testing.assert_array_equal(ps.busy[2], pm.busy[2])
    # without an assignment every SAP senses every channel
    [unassigned] = _slices(run_scheme("proposed-singleband", **network))
    np.testing.assert_array_equal(unassigned.busy, pm.busy)


def test_run_scheme_dispatch_matches_direct_calls():
    y, _, _, lam = _toy_inputs(seed=9)
    truth = substream(9, "t").uniform(size=y.shape[:2]) < 0.4
    picks = np.array([0, 1, 0])

    [via] = _slices(run_scheme("genie", measurements=y, truth_busy=[truth]))
    np.testing.assert_array_equal(via.busy, genie(truth).busy)

    [via] = _slices(run_scheme("centralized", measurements=y))
    np.testing.assert_array_equal(via.busy, centralized_egc(y).busy[0])

    for name in ("noncoop-multiband", "noncoop-singleband"):
        [via] = _slices(run_scheme(name, measurements=y, thresholds=lam,
                                   channel_picks=picks, raw_energy=True))
        decided = (np.ones(y.shape[:2], dtype=bool)
                   if name == "noncoop-multiband" else
                   np.arange(y.shape[1]) == picks[:, None])
        np.testing.assert_array_equal(via.decided, decided)
        np.testing.assert_array_equal(via.busy, (y[:, :, -1] >= 1.0) & decided)

    # params=None runs the default filter
    short = y[:, :, :DiffusionParams().iterations // 10]
    with pytest.raises(ConfigurationError, match="iterations"):
        run_scheme("noncoop-multiband", measurements=short, thresholds=lam)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(SCHEME_IDS), raw_energy=st.booleans(),
       exponents=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
def test_run_scheme_stack_equals_single_gain_calls(name, raw_energy,
                                                   exponents, seed):
    # one call over T gains returns, slice for slice, the T single-gain
    # calls stacked, bit for bit
    rng = np.random.default_rng(seed)
    k_count, m_count, n_iter = 5, 3, 12
    params = DiffusionParams(iterations=n_iter)
    gains = [10.0 ** e for e in exponents]
    links = rng.uniform(size=(k_count, k_count)) < 0.5
    adjacency = links | links.T | np.eye(k_count, dtype=bool)
    network = dict(
        measurements=rng.gamma(0.7, 1 / 0.7, size=(k_count, m_count, n_iter)),
        sensing_mask=rng.uniform(size=(k_count, m_count)) < 0.6,
        reference_powers=np.where(adjacency & ~np.eye(k_count, dtype=bool),
                                  rng.uniform(0.5, 1.5, (k_count, k_count)),
                                  0.0),
        adjacency=adjacency, params=params,
        thresholds=rng.uniform(0.5, 1.5, size=(k_count, m_count)),
        channel_picks=rng.integers(m_count, size=k_count),
        raw_energy=raw_energy)
    truth = rng.uniform(size=(len(gains), k_count, m_count)) < 0.5
    dm = run_scheme(name, gains=gains, truth_busy=truth, **network)
    singles = [run_scheme(name, gains=(g,), truth_busy=truth[t:t + 1],
                          **network) for t, g in enumerate(gains)]
    assert dm.busy.shape == (len(gains), k_count, m_count)
    assert dm.decided.shape == (k_count, m_count)
    assert np.array_equal(dm.busy, np.concatenate([s.busy for s in singles]))
    for single in singles:
        assert np.array_equal(single.decided, dm.decided)


def test_run_scheme_unknown_name():
    with pytest.raises(ConfigurationError):
        run_scheme("majority-vote", measurements=np.ones((1, 1, 2)))


def _counting_runs():
    """A stand-in for ``baselines.run_diffusion`` and the frame widths it saw."""
    widths = []

    def counted(measurements, *args, **kwargs):
        widths.append(measurements.shape[1])
        return run_diffusion(measurements, *args, **kwargs)
    return counted, widths


@settings(max_examples=60, deadline=None)
@given(k_count=st.integers(1, 8), m_count=st.integers(1, 4),
       exponents=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
       multiband_first=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_packed_cooperative_pair_matches_separate_calls(
        k_count, m_count, exponents, multiband_first, seed):
    # the pair as one call on the frame repeated twice, under both masks,
    # gives each scheme the DecisionMap of its own run_scheme call, bit for
    # bit, whichever scheme comes first
    rng = np.random.default_rng(seed)
    params = DiffusionParams(iterations=12)
    links = rng.uniform(size=(k_count, k_count)) < 0.5
    adjacency = links | links.T | np.eye(k_count, dtype=bool)
    network = dict(
        measurements=rng.gamma(0.7, 1 / 0.7, size=(k_count, m_count, 12)),
        gains=[10.0 ** e for e in exponents],
        sensing_mask=rng.uniform(size=(k_count, m_count)) < 0.6,
        reference_powers=np.where(adjacency & ~np.eye(k_count, dtype=bool),
                                  rng.uniform(0.5, 1.5, (k_count, k_count)),
                                  0.0),
        adjacency=adjacency, params=params)
    lams = {name: rng.uniform(0.5, 1.5, size=(k_count, m_count))
            for name in ("proposed-multiband", "proposed-singleband")}
    order = list(lams) if multiband_first else list(lams)[::-1]
    counted, widths = _counting_runs()
    shared = {}
    with mock.patch.object(baselines, "run_diffusion", counted):
        packed = {name: run_scheme(name, thresholds=lams[name], shared=shared,
                                   pack=COOPERATIVE, **network)
                  for name in order}
    assert widths == [2 * m_count]
    assert set(shared) == set(COOPERATIVE)
    for name in order:
        alone = run_scheme(name, thresholds=lams[name], **network)
        assert np.array_equal(packed[name].busy, alone.busy), name
        assert np.array_equal(packed[name].decided, alone.decided), name


def test_noncoop_schemes_share_one_standalone_run():
    y, _, _, lam = _toy_inputs(k_count=4, m_count=3)
    inputs = dict(measurements=y, gains=(1.0, 0.5),
                  params=DiffusionParams(iterations=30), thresholds=lam,
                  channel_picks=np.array([0, 2, 1, 2]))
    counted, widths = _counting_runs()
    shared = {}
    with mock.patch.object(baselines, "run_diffusion", counted):
        maps = [run_scheme(name, shared=shared, pack=COOPERATIVE, **inputs)
                for name in ("noncoop-multiband", "noncoop-singleband")]
    assert widths == [3] and list(shared) == ["standalone"]
    for name, dm in zip(("noncoop-multiband", "noncoop-singleband"), maps):
        alone = run_scheme(name, **inputs)
        assert np.array_equal(dm.busy, alone.busy), name
        assert np.array_equal(dm.decided, alone.decided), name


def test_packed_divergence_falls_back_to_own_runs():
    # NaN energy wherever some SAP leaves a channel unsensed diverges the
    # assigned network alone: the packed call fails, multiband still gets
    # its own run's map and singleband raises its own run's error
    y, p_hat, adjacency, lam = _toy_inputs(seed=11)
    mask = np.array([[True, False], [False, True], [True, True]])

    def nan_where_assigned(measurements, sensing_mask, *args, **kwargs):
        partial = ~np.asarray(sensing_mask).all(axis=0)
        measurements = np.where(partial[None, :, None], np.nan, measurements)
        return run_diffusion(measurements, sensing_mask, *args, **kwargs)

    inputs = dict(measurements=y, gains=(2.0, 1.0), sensing_mask=mask,
                  reference_powers=p_hat, adjacency=adjacency,
                  params=DiffusionParams(iterations=30), thresholds=lam)
    with mock.patch.object(baselines, "run_diffusion", nan_where_assigned):
        for pack in ((), COOPERATIVE):
            shared = {}
            dm = run_scheme("proposed-multiband", shared=shared, pack=pack,
                            **inputs)
            assert list(shared) == ["coop-full"]
            assert np.array_equal(dm.busy, run_scheme("proposed-multiband",
                                                      **inputs).busy)
            with pytest.raises(DivergenceError) as info:
                run_scheme("proposed-singleband", shared=shared, pack=pack,
                           **inputs)
            assert info.value.gain_index == 0
