"""Tests for campaign orchestration, scenario templates, emission, and the CLI."""

import csv
import json
import logging
import os
import re
import subprocess
import sys
import threading
import time
import warnings
import zlib
from dataclasses import replace
from importlib import metadata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specsense
from specsense import baselines, diffusion, harness, metrics, propagation
from specsense.baselines import run_scheme
from specsense.cli import main
from specsense.diffusion import (DiffusionParams, DivergenceError,
                                 calibrate_threshold, decide, run_diffusion)
from specsense.harness import (
    Campaign,
    calibrate_campaign,
    decide_schemes,
    emit_footprint_snapshot,
    emit_plot_data,
    generate_scenario,
    prepare_realization,
    read_results_csv,
    representative_assignment,
    representative_reference_powers,
    run_campaign,
    write_results_csv,
)
from specsense.model import (ConfigurationError, scenario_from_dict,
                             scenario_to_dict)
from specsense.propagation import threshold_gain
from specsense.seeding import substream


@pytest.fixture(scope="module")
def small_campaign():
    scenario = generate_scenario("small-grid", seed=21, side_count=3,
                                 incumbent_count=3)
    return Campaign(scenario=scenario, thresholds_dbm=(-74.0, -62.0),
                    realizations=2, diffusion=DiffusionParams(iterations=30),
                    calibration_runs=2, device_count=15, scheduler_restarts=2)


@pytest.fixture(scope="module")
def campaign_output(small_campaign, tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    results_path, summary_path = run_campaign(small_campaign, out)
    return results_path, summary_path


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------

def test_small_grid_template_defaults():
    scn = generate_scenario("small-grid", seed=1)
    assert scn.topology.count == 100
    assert scn.spectrum.channel_count == 4
    assert scn.spectrum.subset_count == 4
    assert scn.spectrum.quota == (25, 25, 25, 25)
    assert len(scn.incumbents) == 50
    assert all(i.signal_bandwidth_hz == 20e6 for i in scn.incumbents)
    assert all(i.tx_power_dbm == 30.0 for i in scn.incumbents)
    x0, y0, x1, y1 = scn.topology.bounding_box()
    for inc in scn.incumbents:
        assert x0 <= inc.position[0] <= x1 and y0 <= inc.position[1] <= y1


def test_small_grid_template_overrides():
    scn = generate_scenario("small-grid", seed=2, side_count=4,
                            incumbent_count=7, incumbent_tx_dbm=20.0)
    assert scn.topology.count == 16
    assert len(scn.incumbents) == 7
    assert scn.incumbents[0].tx_power_dbm == 20.0
    with pytest.raises(ConfigurationError):
        generate_scenario("small-grid", seed=2, sap_count=9)
    with pytest.raises(ConfigurationError):
        generate_scenario("dense-urban", seed=2)


def test_large_synthetic_template_channelizations():
    scn = generate_scenario("large-synthetic", seed=3)
    assert scn.topology.count == 500
    assert len(scn.incumbents) == 2000
    # 500 MHz of 180 kHz channels, 20 MHz per SAP
    assert scn.spectrum.channel_bandwidth_hz == 180e3
    assert scn.spectrum.channel_count == 2777
    assert scn.spectrum.channels_per_sap == 111
    assert scn.spectrum.subset_count == 25
    assert scn.incumbents[0].signal_bandwidth_hz == (20e6, 40e6, 80e6)

    ltem = generate_scenario("large-synthetic", seed=3, channelization="lte-m",
                             sap_count=40, incumbent_count=10)
    assert ltem.spectrum.channel_bandwidth_hz == 1.4e6
    assert ltem.spectrum.channel_count == 357
    assert ltem.spectrum.channels_per_sap == 14

    narrow = generate_scenario("large-synthetic", seed=3, sap_count=20,
                               incumbent_count=5, total_bandwidth_hz=20e6,
                               sap_bandwidth_hz=5e6,
                               incumbent_bandwidth_hz=20e6)
    assert narrow.spectrum.channel_count == 111
    assert narrow.spectrum.subset_count == 4
    assert narrow.incumbents[0].signal_bandwidth_hz == 20e6

    with pytest.raises(ConfigurationError):
        generate_scenario("large-synthetic", seed=3, channelization="gsm")


TEMPLATE_OVERRIDES = st.one_of(
    st.fixed_dictionaries({
        "side_count": st.integers(1, 4),
        "incumbent_count": st.integers(0, 5),
        "spacing_m": st.floats(1.0, 500.0),
    }).map(lambda o: ("small-grid", o)),
    st.fixed_dictionaries({
        "sap_count": st.integers(1, 12),
        "incumbent_count": st.integers(0, 5),
        "total_bandwidth_hz": st.just(20e6),
        "sap_bandwidth_hz": st.just(5e6),
        "channelization": st.sampled_from(["nb-iot", "lte-m"]),
    }).map(lambda o: ("large-synthetic", o)),
)


@settings(max_examples=40, deadline=None)
@given(template=TEMPLATE_OVERRIDES, seed=st.integers(0, 2 ** 31))
def test_scenario_dict_round_trips_exactly(template, seed):
    name, overrides = template
    spec = scenario_to_dict(generate_scenario(name, seed=seed, **overrides))
    again = scenario_to_dict(scenario_from_dict(json.loads(json.dumps(spec))))
    assert json.dumps(again, sort_keys=True) == json.dumps(spec, sort_keys=True)


@pytest.mark.parametrize("template, bad", [
    ("small-grid", dict(side_count=2.5)), ("small-grid", dict(side_count=0)),
    ("small-grid", dict(side_count=True)),
    ("small-grid", dict(incumbent_count=2.7)),
    ("small-grid", dict(incumbent_count=-1)),
    ("large-synthetic", dict(sap_count=True)),
    ("large-synthetic", dict(sap_count=0)),
    ("large-synthetic", dict(sap_count=7.0)),
    ("large-synthetic", dict(incumbent_count=2.7)),
    ("large-synthetic", dict(incumbent_count=-1)),
    ("large-synthetic", dict(incumbent_count="5")),
])
def test_generate_scenario_rejects_bad_counts(template, bad):
    # counts were truncated (2.5 -> 2), taken as 1 (True) or left to numpy's
    # "negative dimensions" error. The topology builders check the SAP
    # counts, so sap_count is reported as build_random_topology's count
    (name, _), = bad.items()
    name = {"sap_count": "count"}.get(name, name)
    with pytest.raises(ConfigurationError, match=f"^{name} must be an integer"):
        generate_scenario(template, seed=3, **bad)


def test_generate_scenario_takes_integer_counts():
    grid = generate_scenario("small-grid", seed=3, side_count=np.int64(2),
                             incumbent_count=0)
    assert grid.topology.count == 4 and grid.incumbents == ()
    wide = generate_scenario("large-synthetic", seed=3, sap_count=np.int32(5),
                             incumbent_count=np.uint8(3),
                             total_bandwidth_hz=20e6)
    assert wide.topology.count == 5 and len(wide.incumbents) == 3
    assert generate_scenario("small-grid", seed=np.int64(3),
                             side_count=2).seed == 3
    # a seed of 1.5 drew seed 1's placement but was saved as 1.5, which
    # the scenario loader rejects
    for bad in (1.5, True, "3"):
        with pytest.raises(ConfigurationError,
                           match="^seed must be an integer$"):
            generate_scenario("small-grid", seed=bad, side_count=2)


# ---------------------------------------------------------------------------
# Campaign plumbing
# ---------------------------------------------------------------------------

def test_campaign_validation(tmp_path):
    scn = generate_scenario("small-grid", seed=4, side_count=3,
                            incumbent_count=2)
    with pytest.raises(ConfigurationError):
        Campaign(scenario=scn, realizations=0)
    with pytest.raises(ConfigurationError):
        Campaign(scenario=scn, thresholds_dbm=())
    with pytest.raises(ConfigurationError):
        Campaign(scenario=scn, schemes=("genie", "majority-vote"))
    with pytest.raises(ConfigurationError):
        Campaign(scenario=scn, workers=0)
    # caught up front: each would otherwise write NaN-derived, empty,
    # duplicated or wrong rows, or fail only after the realizations ran
    nan = float("nan")
    for bad in (dict(calibration_runs=0), dict(calibration_runs=-1),
                dict(device_count=-5), dict(device_capacity=0),
                dict(schemes=()), dict(thresholds_dbm=(nan,)),
                dict(thresholds_dbm=(-70.0, float("inf"))),
                dict(thresholds_dbm=(-62.0, -62)),
                dict(schemes=("genie", "centralized", "genie")),
                dict(scheduler_restarts=0),
                # counts are integers: a float would fail only at run time
                dict(realizations=2.5), dict(calibration_runs=1.5),
                dict(device_count=2.0), dict(device_capacity=nan),
                dict(scheduler_restarts=2.0), dict(workers=1.5),
                dict(realizations=True), dict(master_seed=1.5),
                dict(master_seed="9"),
                # a campaign's frames need at least one iteration slice
                dict(diffusion=DiffusionParams(iterations=0))):
        with pytest.raises(ConfigurationError):
            Campaign(scenario=scn, **bad)
    # 10 ** x overflows, or is 0.0: no gain maps these to 1.0
    for t in (-4000.0, 3200.0, 1e300):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"threshold {t!r} dBm")):
            Campaign(scenario=scn, thresholds_dbm=(-62.0, t))
    counts = Campaign(scenario=scn, realizations=np.int64(2),
                      master_seed=np.uint32(9), workers=np.int8(1))
    assert counts.realizations == 2 and counts.seed == 9
    # the reference level is a constant, not a campaign option
    with pytest.raises(TypeError):
        Campaign(scenario=scn, reference_dbm=-62.0)
    out = tmp_path / "footprint.csv"
    with pytest.raises(ConfigurationError, match="realization"):
        emit_footprint_snapshot(Campaign(scenario=scn), out, realization=-1)
    assert not out.exists()
    assert Campaign(scenario=scn).seed == 4
    assert Campaign(scenario=scn, master_seed=9).seed == 9


def test_devices_attached_once_per_realization(small_campaign, monkeypatch,
                                               tmp_path):
    # prepare_realization attaches the devices; every scheme's whole
    # threshold sweep is scheduled on that one attachment
    calls = []

    def counted(module):
        original = module.attach_devices

        def attach(*args, **kwargs):
            calls.append(module.__name__)
            return original(*args, **kwargs)
        return attach

    for module in (harness, metrics):
        monkeypatch.setattr(module, "attach_devices", counted(module))
    run_campaign(small_campaign, tmp_path)
    assert len(small_campaign.schemes) > 1
    assert len(small_campaign.thresholds_dbm) == 2
    assert calls == ["specsense.harness"] * small_campaign.realizations


def test_representative_assignment_deterministic(small_campaign):
    p_rep = representative_reference_powers(small_campaign.scenario)
    a = representative_assignment(small_campaign, p_rep)
    b = representative_assignment(small_campaign, p_rep)
    np.testing.assert_array_equal(a.subset_of_sap, b.subset_of_sap)
    a.validate(small_campaign.scenario.spectrum.quota)


def test_realized_level_computed_once_per_realization(small_campaign,
                                                     monkeypatch):
    # the frame is drawn from the ground truth, so one realization sums the
    # incumbent power once
    calls = []
    original = propagation.received_level

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(propagation, "received_level", counted)
    prepare_realization(small_campaign, 0)
    assert len(calls) == 1


@pytest.mark.parametrize("template, overrides", [
    ("small-grid", dict(side_count=3, incumbent_count=3)),
    ("large-synthetic", dict(sap_count=10, incumbent_count=5,
                             total_bandwidth_hz=20e6, sap_bandwidth_hz=5e6,
                             incumbent_bandwidth_hz=20e6)),
])
def test_frame_is_the_serial_noise_draw_times_truth(template, overrides):
    # the noise in a frame has the bits of one serial Gamma draw
    scn = generate_scenario(template, seed=8, **overrides)
    campaign = Campaign(scenario=scn, realizations=2,
                        diffusion=DiffusionParams(iterations=9),
                        device_count=4)
    k = scn.propagation.estimate_shape
    for r in range(2):
        inputs = prepare_realization(campaign, r)
        noise = substream(campaign.seed, "estimate", r).gamma(
            k, 1.0 / k, size=inputs.truth.true_energy.shape + (9,))
        want = noise * inputs.truth.true_energy[:, :, None]
        assert np.array_equal(inputs.frame.y, want)


class _Boom(RuntimeError):
    pass


def _boom(*_args, **_kwargs):
    raise _Boom("injected")


@pytest.mark.parametrize("name", ["estimation_noise", "realize_links"])
def test_errors_on_either_thread_leave_prepare_realization(small_campaign,
                                                           monkeypatch, name):
    # a direct call draws on demand: a failing noise draw or link draw
    # raises its own exception and leaves no thread behind (the helper
    # thread's failures are run through run_campaign below)
    threads = threading.active_count()
    monkeypatch.setattr(harness, name, _boom)
    with pytest.raises(_Boom, match="injected"):
        prepare_realization(small_campaign, 0)
    assert threading.active_count() == threads


def test_calibration_covers_only_needed_structures(small_campaign,
                                                   monkeypatch):
    scn = small_campaign.scenario
    rep = representative_assignment(small_campaign,
                                    representative_reference_powers(scn))
    # the representative reference powers are built once per calibration
    calls = []
    original = harness.generate_reference_powers

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(harness, "generate_reference_powers", counted)
    lams = calibrate_campaign(small_campaign)
    assert len(calls) == 1
    monkeypatch.undo()
    assert set(lams) == {"coop-full", "coop-assigned", "standalone"}
    k = small_campaign.scenario.topology.count
    m = small_campaign.scenario.spectrum.channel_count
    for lam in lams.values():
        assert lam.shape == (k, m)
        assert np.isfinite(lam).all() and (lam >= 0).all()
    # full-mask structures train every block; the assigned one may freeze
    # blocks nobody in range senses, which calibrate to the initial weight
    assert (lams["coop-full"] > 0).all()
    assert (lams["standalone"] > 0).all()
    assigned = rep.sensing_mask(small_campaign.scenario.spectrum)
    assert (lams["coop-assigned"][assigned] > 0).all()

    bare = replace(small_campaign, schemes=("genie", "centralized"))
    assert calibrate_campaign(bare) == {}
    solo = replace(small_campaign, schemes=("noncoop-multiband",))
    assert set(calibrate_campaign(solo)) == {"standalone"}
    # raw-energy non-cooperative schemes read no calibrated threshold
    raw = replace(small_campaign, noncoop_raw_energy=True)
    assert set(calibrate_campaign(raw)) == {"coop-full", "coop-assigned"}
    assert calibrate_campaign(replace(solo, noncoop_raw_energy=True)) == {}


def test_schemes_and_calibration_share_literal_networks(small_campaign):
    # the three networks written out by hand: every diffusion scheme decides
    # on its network, and its λ was trained on the same network built from
    # the representative inputs. On the grid every neighbor is equally far,
    # so a random layout is needed to tell reference powers apart.
    scattered = generate_scenario(
        "large-synthetic", seed=21, sap_count=12, region_m=400.0,
        radius_m=250.0, incumbent_count=3, channelization="lte-m",
        total_bandwidth_hz=11.2e6, sap_bandwidth_hz=2.8e6,
        incumbent_bandwidth_hz=2.8e6)
    for campaign in (small_campaign,
                     replace(small_campaign, scenario=scattered)):
        _check_literal_networks(campaign)


def _check_literal_networks(campaign):
    scn = campaign.scenario
    k, m = scn.topology.count, scn.spectrum.channel_count
    adjacency = scn.topology.adjacency

    def networks(mask, p_hat):
        full = np.ones((k, m), dtype=bool)
        return {"coop-full": (full, p_hat, adjacency),
                "coop-assigned": (mask, p_hat, adjacency),
                "standalone": (full, np.zeros((k, k)),
                               np.eye(k, dtype=bool))}

    p_rep = representative_reference_powers(scn)
    rep = representative_assignment(campaign, p_rep)
    lams = calibrate_campaign(campaign)
    rep_nets = networks(rep.sensing_mask(scn.spectrum), p_rep)
    assert set(lams) == set(rep_nets)
    for name, network in rep_nets.items():
        want = calibrate_threshold(*network, campaign.diffusion,
                                   _training_runs(campaign, name))
        assert np.array_equal(lams[name], want), name

    inputs = prepare_realization(campaign, 0)
    live_nets = networks(inputs.sensing_mask, inputs.reference_powers)
    gains = [threshold_gain(t) for t in campaign.thresholds_dbm]
    picked = np.arange(m) == inputs.picks[:, None]
    for scheme, structure in (("proposed-multiband", "coop-full"),
                              ("proposed-singleband", "coop-assigned"),
                              ("noncoop-multiband", "standalone"),
                              ("noncoop-singleband", "standalone")):
        dm = run_scheme(scheme, measurements=inputs.frame.y, gains=gains,
                        sensing_mask=inputs.sensing_mask,
                        reference_powers=inputs.reference_powers,
                        adjacency=adjacency, params=campaign.diffusion,
                        thresholds=lams[structure],
                        channel_picks=inputs.picks)
        w = run_diffusion(inputs.frame.y, *live_nets[structure],
                          campaign.diffusion, gains=gains)
        decided = (picked if scheme == "noncoop-singleband"
                   else np.ones((k, m), dtype=bool))
        assert dm.busy.shape == (len(gains), k, m)
        assert np.array_equal(dm.decided, decided), scheme
        for t, busy_t in enumerate(dm.busy):
            busy = decide(w[:, t * m:(t + 1) * m], lams[structure])
            assert np.array_equal(busy_t, busy & decided), scheme


def _training_runs(campaign, name):
    """Structure ``name``'s training runs: serial (K, M, N) draws."""
    shape = harness._frame_shape(campaign)
    rng = substream(campaign.seed, "calibrate", name)
    return [propagation.estimation_noise(
        np.empty(shape), campaign.scenario.propagation.estimate_shape, rng)
        for _ in range(campaign.calibration_runs)]


def _frame_of(rng, seed, realizations):
    """The realization whose frame a fresh ``rng`` draws, else None."""
    state = rng.bit_generator.state
    return next((r for r in range(realizations)
                 if substream(seed, "estimate", r).bit_generator.state
                 == state), None)


def _nan_noise(out, estimate_shape, rng):
    """Estimation noise with one NaN sample, which the receiver clamp passes."""
    propagation.estimation_noise(out, estimate_shape, rng)
    out[(0,) * out.ndim] = np.nan
    return out


def test_non_finite_weights_fail_loud(tmp_path, monkeypatch):
    # a NaN sample in realization 1's frame diverges the first diffusion
    # scheme under every threshold, so the error names the sweep's first
    threads = threading.active_count()
    scenario = generate_scenario("small-grid", seed=5, side_count=5,
                                 incumbent_count=10)
    campaign = Campaign(scenario=scenario, master_seed=3,
                        thresholds_dbm=(-52.0, -82.0), realizations=3,
                        diffusion=DiffusionParams(iterations=30),
                        calibration_runs=2)

    def nan_in_realization_1(out, estimate_shape, rng):
        if _frame_of(rng, campaign.seed, campaign.realizations) == 1:
            return _nan_noise(out, estimate_shape, rng)
        return propagation.estimation_noise(out, estimate_shape, rng)

    monkeypatch.setattr(harness, "estimation_noise", nan_in_realization_1)
    with pytest.raises(ArithmeticError,
                       match=r"^proposed-multiband: diffusion weights went "
                             r"non-finite in realization 1 at threshold "
                             r"-52\.0 dBm$"):
        run_campaign(campaign, tmp_path / "out")
    assert threading.active_count() == threads
    assert not (tmp_path / "out").exists()

    # a NaN second gain makes the frame non-finite under -82 dBm alone
    monkeypatch.undo()
    original = baselines.run_diffusion

    def nan_second_gain(*args, gains, **kwargs):
        return original(*args, gains=np.array([gains[0], np.nan]), **kwargs)

    monkeypatch.setattr(baselines, "run_diffusion", nan_second_gain)
    with pytest.raises(ArithmeticError,
                       match=r"^proposed-multiband: .* realization 0 at "
                             r"threshold -82\.0 dBm$"):
        run_campaign(campaign, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_calibration_divergence_names_structure(tmp_path, monkeypatch):
    # NaN training noise diverges calibration, before any realization runs
    monkeypatch.setattr(harness, "estimation_noise", _nan_noise)
    scenario = generate_scenario("small-grid", seed=5, side_count=3,
                                 incumbent_count=4)
    campaign = Campaign(scenario=scenario, schemes=("proposed-multiband",),
                        realizations=1, calibration_runs=1)
    with pytest.raises(ArithmeticError,
                       match=r"^calibration of structure coop-full: "):
        run_campaign(campaign, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_calibration_divergence_names_one_structure_in_every_process():
    # NaN training noise diverges both cooperative structures; whatever the
    # hash seed, the error names the structure of the first scheme
    code = """if True:
        import numpy as np
        from specsense import harness
        from specsense.harness import Campaign, calibrate_campaign
        from specsense.harness import generate_scenario
        harness.estimation_noise = lambda out, shape, rng: out.fill(np.nan)
        scenario = generate_scenario("small-grid", seed=5, side_count=3,
                                     incumbent_count=4)
        for schemes in (("proposed-multiband", "proposed-singleband"),
                        ("proposed-singleband", "proposed-multiband")):
            try:
                calibrate_campaign(Campaign(
                    scenario=scenario, schemes=schemes, realizations=1,
                    calibration_runs=1))
            except ArithmeticError as exc:
                print(str(exc).partition(":")[0])
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(specsense.__file__)))
    for hash_seed in ("0", "1"):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src))
        assert out.stdout.splitlines() == [
            "calibration of structure coop-full",
            "calibration of structure coop-assigned"], hash_seed


INVARIANCE_THRESHOLDS = (-78.0, -70.0, -62.0, -54.0)
_FULL_RUNS = {}


def _full_campaign_values(raw_energy):
    """Every realization's values from the six-scheme, four-threshold run."""
    if raw_energy not in _FULL_RUNS:
        scenario = generate_scenario("small-grid", seed=9, side_count=4,
                                     incumbent_count=6)
        campaign = Campaign(scenario=scenario,
                            thresholds_dbm=INVARIANCE_THRESHOLDS,
                            realizations=3,
                            diffusion=DiffusionParams(iterations=30),
                            calibration_runs=2, device_count=30,
                            scheduler_restarts=2,
                            noncoop_raw_energy=raw_energy)
        lams = calibrate_campaign(campaign)
        _FULL_RUNS[raw_energy] = (campaign, [
            harness.run_realization(campaign, lams, r)[1]
            for r in range(campaign.realizations)])
    return _FULL_RUNS[raw_energy]


@settings(max_examples=8, deadline=None)
@given(schemes=st.lists(st.sampled_from(baselines.SCHEME_IDS), min_size=1,
                        max_size=3, unique=True),
       thresholds=st.lists(st.sampled_from(INVARIANCE_THRESHOLDS), min_size=1,
                           max_size=2, unique=True),
       raw_energy=st.booleans())
def test_values_do_not_depend_on_the_other_schemes_and_thresholds(
        schemes, thresholds, raw_energy):
    # threshold batching, the cooperative pack and the shared standalone
    # run all rely on this: each (scheme, threshold) value of a realization
    # is the full campaign's, whatever else the campaign runs, in any order
    full, values = _full_campaign_values(raw_energy)
    campaign = replace(full, schemes=tuple(schemes),
                       thresholds_dbm=tuple(thresholds))
    lams = calibrate_campaign(campaign)
    for r, want in enumerate(values):
        _, got = harness.run_realization(campaign, lams, r)
        assert len(got) == len(schemes) * len(thresholds) * 5
        for key, value in got.items():
            assert value == want[key], (r, key)


def test_diffusion_runs_per_realization(small_campaign, monkeypatch):
    # six schemes, three structures: the standalone run is shared by both
    # noncoop schemes and the cooperative pair (2 thresholds x 4 channels
    # each) packs into one call on an 8-channel frame, unless its 16
    # columns are past the width rule; raw energy takes the noncoop schemes
    # off the diffusion
    lams = calibrate_campaign(small_campaign)
    widths = []
    original = baselines.run_diffusion

    def counted(measurements, *args, **kwargs):
        widths.append(measurements.shape[1])
        return original(measurements, *args, **kwargs)

    monkeypatch.setattr(baselines, "run_diffusion", counted)
    for campaign, pack_columns, want in (
            (small_campaign, 128, [8, 4]),
            (small_campaign, 15, [4, 4, 4]),
            (replace(small_campaign, noncoop_raw_energy=True), 128, [8])):
        monkeypatch.setattr(diffusion, "PACK_COLUMNS", pack_columns)
        for r in range(2):
            widths.clear()
            harness.run_realization(campaign, lams, r)
            assert widths == want, (pack_columns, r)


@pytest.mark.parametrize("multiband_first", [True, False])
def test_singleband_divergence_surfaces_at_its_turn(small_campaign,
                                                    monkeypatch,
                                                    multiband_first):
    # NaN energy on the channels some SAP leaves unsensed diverges the
    # assigned network alone. Packed or not, multiband's map is yielded
    # first when it comes first, and singleband's error reads as before
    schemes = ("proposed-multiband", "proposed-singleband")
    campaign = replace(small_campaign, schemes=schemes if multiband_first
                       else schemes[::-1])
    lams = calibrate_campaign(campaign)
    inputs = prepare_realization(campaign, 0)
    original = baselines.run_diffusion

    def nan_where_assigned(measurements, sensing_mask, *args, **kwargs):
        partial = ~np.asarray(sensing_mask).all(axis=0)
        measurements = np.where(partial[None, :, None], np.nan, measurements)
        return original(measurements, sensing_mask, *args, **kwargs)

    monkeypatch.setattr(baselines, "run_diffusion", nan_where_assigned)
    outcomes = []
    for pack_columns in (128, 1):
        monkeypatch.setattr(diffusion, "PACK_COLUMNS", pack_columns)
        yielded = []
        with pytest.raises(ArithmeticError) as info:
            for scheme, dm, _ in decide_schemes(campaign, lams, inputs, 0):
                yielded.append((scheme, dm.busy))
        outcomes.append((yielded, str(info.value)))
    (packed, packed_error), (alone, alone_error) = outcomes
    assert packed_error == alone_error == (
        "proposed-singleband: diffusion weights went non-finite in "
        "realization 0 at threshold -74.0 dBm")
    assert [s for s, _ in packed] == [s for s, _ in alone] == (
        ["proposed-multiband"] if multiband_first else [])
    for (_, a), (_, b) in zip(packed, alone):
        assert np.array_equal(a, b)


def test_out_dir_checked_before_calibration(tmp_path, monkeypatch):
    # an unusable output path fails before any work; a failed campaign
    # keeps a directory it did not make
    def refused(_campaign):
        raise RuntimeError("calibration ran")
    monkeypatch.setattr(harness, "calibrate_campaign", refused)
    scenario = generate_scenario("small-grid", seed=5, side_count=3,
                                 incumbent_count=4)
    campaign = Campaign(scenario=scenario, realizations=1)
    taken = tmp_path / "taken"
    taken.write_text("")
    with pytest.raises(FileExistsError):
        run_campaign(campaign, taken)
    assert taken.read_text() == ""

    kept = tmp_path / "kept"
    kept.mkdir()
    with pytest.raises(RuntimeError, match="^calibration ran$"):
        run_campaign(campaign, kept)
    assert kept.is_dir()


def test_results_row_cardinality(small_campaign, campaign_output):
    rows = read_results_csv(campaign_output[0])
    keys = {(r["scheme"], r["threshold_dbm"], r["metric"]) for r in rows}
    assert len(rows) == len(keys) == 6 * 2 * 5
    for r in rows:
        assert r["realizations"] <= small_campaign.realizations
        if r["mean"] is not None:
            assert np.isfinite(r["mean"])
    # the genie is perfect in every realization
    for r in rows:
        if r["scheme"] == "genie" and r["metric"] == "correct_decision_pct_all":
            assert r["mean"] == 100.0 and r["std"] == 0.0


def test_summary_contents(small_campaign, campaign_output):
    with open(campaign_output[1], "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["realizations"] == 2
    assert len(summary["frame_crc32"]) == 2
    assert summary["master_seed"] == small_campaign.seed
    assert summary["calibration_structures"] == ["coop-assigned", "coop-full",
                                                 "standalone"]
    assert summary["schemes"] == list(small_campaign.schemes)
    assert summary["scenario"]["seed"] == 21
    assert summary["reference_dbm"] == -62.0
    lams = calibrate_campaign(small_campaign)
    assert summary["calibration_thresholds"] == {
        name: {"min": lam.min(), "median": np.median(lam), "max": lam.max()}
        for name, lam in lams.items()}
    assert summary["versions"] == {"specsense": specsense.__version__,
                                   "numpy": np.__version__,
                                   "scipy": metadata.version("scipy")}


def test_rerun_is_byte_identical(small_campaign, campaign_output, tmp_path):
    results_path, summary_path = run_campaign(small_campaign, tmp_path)
    with open(results_path, "rb") as fh, open(campaign_output[0], "rb") as gh:
        assert fh.read() == gh.read()
    with open(summary_path, "rb") as fh, open(campaign_output[1], "rb") as gh:
        assert fh.read() == gh.read()


def test_progress_log_counts_elapsed_and_eta(small_campaign, campaign_output,
                                            tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="specsense"):
        results_path, summary_path = run_campaign(small_campaign, tmp_path)
    progress = [re.fullmatch(r"realization (\d+)/2 frame crc32 ([0-9a-f]{8}): "
                             r"(\d+\.\d) s elapsed, ETA (\d+\.\d) s",
                             rec.getMessage())
                for rec in caplog.records if "crc32" in rec.getMessage()]
    assert all(progress) and len(progress) == 2
    assert [int(m[1]) for m in progress] == [1, 2]
    with open(summary_path, encoding="utf-8") as fh:
        assert [m[2] for m in progress] == json.load(fh)["frame_crc32"]
    assert float(progress[0][3]) <= float(progress[1][3])
    assert float(progress[-1][4]) == 0.0
    # logging leaves the outputs' bytes alone
    for path, ref in zip((results_path, summary_path), campaign_output):
        with open(path, "rb") as fh, open(ref, "rb") as gh:
            assert fh.read() == gh.read()


def test_import_leaves_multiprocessing_unloaded():
    # only a campaign with workers > 1 needs the process pool, so importing
    # the package skips multiprocessing, a tenth of its import time
    src = os.path.dirname(os.path.dirname(os.path.abspath(specsense.__file__)))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, specsense; print('multiprocessing' in sys.modules)"],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split() == ["False"]


def test_workers_match_serial(small_campaign, campaign_output, tmp_path):
    # workers draw each frame on demand; the serial loop draws one ahead.
    # summary.json's frame_crc32 covers every frame's bits
    par = replace(small_campaign, workers=2)
    for path, ref in zip(run_campaign(par, tmp_path), campaign_output):
        with open(path, "rb") as fh, open(ref, "rb") as gh:
            assert fh.read() == gh.read()


def test_serial_frames_match_direct_draws(small_campaign, tmp_path,
                                          monkeypatch):
    # the look-ahead reuses two buffers over four realizations, one draw
    # each, all on the helper thread; a direct prepare_realization draws
    # each frame anew, without a look-ahead
    campaign = replace(small_campaign, realizations=4)
    frames = []

    def counted(out, estimate_shape, rng):
        r = _frame_of(rng, campaign.seed, campaign.realizations)
        if r is not None:
            frames.append((r, threading.current_thread()
                           is threading.main_thread()))
        return propagation.estimation_noise(out, estimate_shape, rng)

    monkeypatch.setattr(harness, "estimation_noise", counted)
    _, summary_path = run_campaign(campaign, tmp_path)
    monkeypatch.undo()
    assert frames == [(r, False) for r in range(4)]
    with open(summary_path, encoding="utf-8") as fh:
        crcs = json.load(fh)["frame_crc32"]
    assert crcs == [f"{zlib.crc32(prepare_realization(campaign, r).frame.y):08x}"
                    for r in range(4)]


def test_divergence_while_a_draw_is_in_flight(small_campaign, tmp_path,
                                              monkeypatch):
    # realization 1 diverges while the helper draws realization 2's noise:
    # the usual one-line error reaches the caller, the helper is joined
    # and the output directory run_campaign made is removed
    campaign = replace(small_campaign, realizations=4)
    threads = threading.active_count()
    draws, calls = [], []
    in_flight = threading.Event()

    def slow_noise(out, estimate_shape, rng):
        r = _frame_of(rng, campaign.seed, campaign.realizations)
        if r is not None:
            draws.append(r)
        if r == 2:
            in_flight.set()
            time.sleep(0.2)
        return propagation.estimation_noise(out, estimate_shape, rng)

    def failing_scheme(scheme, **kwargs):
        calls.append(scheme)
        if len(calls) > len(campaign.schemes):
            assert in_flight.wait(5.0)
            raise DivergenceError(0, 1.0)
        return run_scheme(scheme, **kwargs)

    monkeypatch.setattr(harness, "estimation_noise", slow_noise)
    monkeypatch.setattr(harness, "run_scheme", failing_scheme)
    with pytest.raises(ArithmeticError,
                       match=r"^genie: diffusion weights went non-finite in "
                             r"realization 1 at threshold -74\.0 dBm$"):
        run_campaign(campaign, tmp_path / "out")
    assert draws == [0, 1, 2]
    assert threading.active_count() == threads
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("failing_draw", [1, 2])
def test_noise_error_in_a_look_ahead_draw(small_campaign, tmp_path,
                                          monkeypatch, failing_draw):
    # realization 1's or 2's draw, queued while the realization before it
    # decides, fails on the helper thread: its own exception reaches the
    # caller, the helper is joined and the output directory is removed
    campaign = replace(small_campaign, realizations=4)
    threads = threading.active_count()
    draws = []

    def failing(out, estimate_shape, rng):
        r = _frame_of(rng, campaign.seed, campaign.realizations)
        if r is not None:
            draws.append((r, threading.current_thread()
                          is threading.main_thread()))
        if r == failing_draw:
            raise _Boom("injected")
        return propagation.estimation_noise(out, estimate_shape, rng)

    monkeypatch.setattr(harness, "estimation_noise", failing)
    with pytest.raises(_Boom, match="injected"):
        run_campaign(campaign, tmp_path / "out")
    assert draws == [(r, False) for r in range(failing_draw + 1)]
    assert threading.active_count() == threads
    assert not (tmp_path / "out").exists()


def test_serial_campaign_draws_on_one_helper_thread(small_campaign, tmp_path,
                                                  monkeypatch):
    # one helper thread draws every training group and then every frame,
    # and no other thread runs beside it
    threads = threading.active_count()
    draws = []

    def recorded(out, estimate_shape, rng):
        draws.append((threading.current_thread(), threading.active_count(),
                      _frame_of(rng, small_campaign.seed, 2)))
        return propagation.estimation_noise(out, estimate_shape, rng)

    monkeypatch.setattr(harness, "estimation_noise", recorded)
    run_campaign(small_campaign, tmp_path)
    assert threading.active_count() == threads
    helpers = {thread for thread, _, _ in draws}
    assert len(helpers) == 1 and threading.main_thread() not in helpers
    assert {count for _, count, _ in draws} == {threads + 1}
    # every row of the three structures' training runs, then each frame's
    k = small_campaign.scenario.topology.count
    trained = 3 * small_campaign.calibration_runs * k
    assert len(draws) == trained + 2 * k
    assert draws[trained - 1][2] is None
    assert [r for _, _, r in draws[trained::k]] == [0, 1]


class _SetUpDone(Exception):
    pass


@pytest.mark.parametrize("stop", ["first-training-draw",
                                  "look-ahead-training-draw", "calibration",
                                  "realization", "first-realization"])
def test_helper_is_joined_wherever_the_campaign_stops(small_campaign, tmp_path,
                                                      monkeypatch, stop):
    # a training draw fails on the helper while calibration waits for it or
    # while the group before it diffuses, calibration diverges, realization
    # 0 raises while frame 1 is drawn, or the first run_realization call is
    # cut short, as a set-up timer that stops the campaign there does: the
    # error reaches the caller, the helper thread is joined and the output
    # directory is removed
    threads = threading.active_count()
    rows = small_campaign.calibration_runs * small_campaign.scenario.topology.count
    draws = []

    def failing(out, estimate_shape, rng):
        draws.append(threading.current_thread() is threading.main_thread())
        if len(draws) > (0 if stop == "first-training-draw" else rows):
            raise _Boom("injected")
        return propagation.estimation_noise(out, estimate_shape, rng)

    if stop.endswith("training-draw"):
        # each structure's two runs are one group, drawn row by row
        monkeypatch.setattr(harness, "estimation_noise", failing)
        error = (_Boom, "^injected$")
    elif stop == "calibration":
        monkeypatch.setattr(harness, "estimation_noise", _nan_noise)
        error = (ArithmeticError, "^calibration of structure coop-full: ")
    elif stop == "realization":
        monkeypatch.setattr(harness, "run_scheme", _boom)
        error = (_Boom, "^injected$")
    else:
        def first_realization(*_args):
            raise _SetUpDone
        monkeypatch.setattr(harness, "run_realization", first_realization)
        error = (_SetUpDone, None)
    with pytest.raises(error[0], match=error[1]):
        run_campaign(small_campaign, tmp_path / "out")
    assert threading.active_count() == threads
    assert not (tmp_path / "out").exists()
    assert not any(draws)


@pytest.mark.parametrize("runs", [1, 2, 40])
@pytest.mark.parametrize("schemes, structures", [
    (("proposed-multiband",), 1),
    (("proposed-singleband", "proposed-multiband"), 2),
    (baselines.SCHEME_IDS, 3)])
def test_training_groups_and_frames_are_serial_draws(small_campaign, tmp_path,
                                                     monkeypatch, runs,
                                                     schemes, structures):
    # one to three structures: each structure's training groups, packed by
    # runs_per_call (40 runs of 4 channels: 32, then 8), then each frame,
    # drawn one ahead into reused buffers, keep the bits of serial draws
    campaign = replace(small_campaign, schemes=schemes, realizations=3,
                       calibration_runs=runs)
    handed, frames = [], []
    calibrate = harness.calibrate_threshold
    measure = harness.generate_measurements

    def copied(*args):
        *network, groups = args
        handed.append([u.copy() for u in groups])
        return calibrate(*network, handed[-1])

    def kept(truth, noise):
        frames.append(noise.copy())
        return measure(truth, noise)

    monkeypatch.setattr(harness, "calibrate_threshold", copied)
    monkeypatch.setattr(harness, "generate_measurements", kept)
    run_campaign(campaign, tmp_path)
    names = harness._calibration_structures(campaign)
    assert len(names) == structures
    shape = harness._frame_shape(campaign)
    per_call = diffusion.runs_per_call(shape[1], shape, runs)
    assert per_call == min(runs, 32)
    for name, got in zip(names, handed, strict=True):
        serial = _training_runs(campaign, name)
        want = [np.concatenate(serial[first:first + per_call], axis=1)
                for first in range(0, runs, per_call)]
        assert len(got) == len(want), name
        for a, b in zip(got, want):
            assert np.array_equal(a, b), name
    estimate_shape = campaign.scenario.propagation.estimate_shape
    assert len(frames) == 3
    for r, got in enumerate(frames):
        want = propagation.estimation_noise(
            np.empty(shape), estimate_shape,
            substream(campaign.seed, "estimate", r))
        assert np.array_equal(got, want), r


def test_no_frame_drawn_before_the_first_realization_without_calibration(
        small_campaign, tmp_path, monkeypatch):
    # with nothing to calibrate, realization r's frame is drawn inside
    # run_realization(r), while its links are realized, and a campaign
    # stopped at its first run_realization call has drawn nothing
    campaign = replace(small_campaign, schemes=("genie", "centralized"))
    events = []
    original = harness.run_realization

    def entered(campaign, lams, r):
        events.append(("realization", r))
        return original(campaign, lams, r)

    def drawn(out, estimate_shape, rng):
        r = _frame_of(rng, campaign.seed, 2)     # a frame's first row
        if r is not None:
            events.append(("draw", r))
        return propagation.estimation_noise(out, estimate_shape, rng)

    monkeypatch.setattr(harness, "estimation_noise", drawn)
    monkeypatch.setattr(harness, "run_realization", entered)
    run_campaign(campaign, tmp_path / "full")
    assert events == [("realization", 0), ("draw", 0),
                      ("realization", 1), ("draw", 1)]

    events.clear()

    def first_realization(*_args):
        raise _SetUpDone

    monkeypatch.setattr(harness, "run_realization", first_realization)
    with pytest.raises(_SetUpDone):
        run_campaign(campaign, tmp_path / "setup")
    assert events == []


def test_results_csv_round_trip(campaign_output, tmp_path):
    rows = read_results_csv(campaign_output[0])
    again = tmp_path / "results.csv"
    write_results_csv(rows, again)
    assert read_results_csv(again) == rows
    with open(again, "rb") as fh, open(campaign_output[0], "rb") as gh:
        assert fh.read() == gh.read()


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def test_emit_plot_data_figures(campaign_output, tmp_path):
    rows = read_results_csv(campaign_output[0])

    out = emit_plot_data(rows, "utilization-vs-threshold", tmp_path / "u.csv")
    lines = (tmp_path / "u.csv").read_text().strip().splitlines()
    assert lines[0] == "scheme,variant,threshold_dbm,mean,std,realizations"
    assert len(lines) == 1 + 6 * 2
    assert out == tmp_path / "u.csv"

    emit_plot_data(rows, "correct-vs-threshold", tmp_path / "c.csv")
    lines = (tmp_path / "c.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 6 * 2 * 2          # all plus own-channel variants
    variants = {line.split(",")[1] for line in lines[1:]}
    assert variants == {"all", "own-channel"}

    emit_plot_data(rows, "scheduled-devices", tmp_path / "d.csv")
    assert (tmp_path / "d.csv").exists()

    with pytest.raises(ConfigurationError):
        emit_plot_data(rows, "footprint-snapshot", tmp_path / "x.csv")
    with pytest.raises(ConfigurationError):
        emit_plot_data(rows, "interference-heatmap", tmp_path / "x.csv")
    pruned = [r for r in rows if r["metric"] != "scheduled_devices"]
    with pytest.raises(ConfigurationError):
        emit_plot_data(pruned, "scheduled-devices", tmp_path / "x.csv")


def test_emit_footprint_snapshot(small_campaign, tmp_path):
    path = emit_footprint_snapshot(small_campaign, tmp_path / "f.csv",
                                   threshold_dbm=-62.0)
    lines = path.read_text().strip().splitlines()
    k = small_campaign.scenario.topology.count
    m = small_campaign.scenario.spectrum.channel_count
    assert lines[0] == "scheme,k,x,y,m,energy_dbm,truth_busy,decision"
    assert len(lines) == 1 + 6 * k * m
    verdicts = {}
    for line in lines[1:]:
        scheme, _, _, _, _, _, flag, verdict = line.split(",")
        assert verdict in {"busy", "available", "none"}
        assert flag in {"0", "1"}
        verdicts.setdefault(scheme, set()).add(verdict)
    # single-channel sensing leaves most blocks undecided; full schemes none
    assert "none" in verdicts["noncoop-singleband"]
    assert "none" not in verdicts["genie"]
    assert "none" not in verdicts["centralized"]


@pytest.mark.parametrize("bad", [1.5, True, -1, "0"])
def test_footprint_snapshot_rejects_bad_realization(small_campaign, tmp_path,
                                                    monkeypatch, bad):
    # 1.5 used to run the whole calibration and then fail with a TypeError
    # in the noise draw, and True drew realization 1
    def refused(_campaign):
        raise RuntimeError("calibration ran")
    monkeypatch.setattr(harness, "calibrate_campaign", refused)
    with pytest.raises(ConfigurationError,
                       match="^realization must be an integer >= 0$"):
        emit_footprint_snapshot(small_campaign, tmp_path / "f.csv",
                                realization=bad)
    assert not (tmp_path / "f.csv").exists()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_end_to_end(tmp_path, capsys):
    scenario_path = str(tmp_path / "scenario.json")
    rc = main(["generate-scenario", "--template", "small-grid",
               "--saps", "9", "--incumbents", "3", "--seed", "21",
               "--out", scenario_path])
    assert rc == 0

    out_dir = str(tmp_path / "out")
    rc = main(["simulate", "--scenario", scenario_path, "--out", out_dir,
               "--realizations", "1", "--iterations", "30",
               "--calibration-runs", "2", "--restarts", "2",
               "--thresholds-dbm", "-62",
               "--schemes", "genie,centralized,noncoop-multiband"])
    assert rc == 0
    rows = read_results_csv(tmp_path / "out" / "results.csv")
    assert {r["scheme"] for r in rows} == {"genie", "centralized",
                                           "noncoop-multiband"}

    rc = main(["emit-plot-data", "--figure", "utilization-vs-threshold",
               "--results", str(tmp_path / "out" / "results.csv"),
               "--out", str(tmp_path / "util.csv")])
    assert rc == 0
    assert (tmp_path / "util.csv").exists()

    rc = main(["assign", "--scenario", scenario_path, "--costs", "uniform",
               "--engine", "heuristic", "--restarts", "2",
               "--out", str(tmp_path / "assign.csv")])
    assert rc == 0
    lines = (tmp_path / "assign.csv").read_text().strip().splitlines()
    assert lines[0] == "k,l" and len(lines) == 10

    rc = main(["gap-benchmark", "--sizes", "4,6", "--instances", "2",
               "--subsets", "2", "--seed", "1",
               "--out", str(tmp_path / "gap.csv")])
    assert rc == 0
    lines = (tmp_path / "gap.csv").read_text().strip().splitlines()
    assert lines[0] == "sap_count,mean_gap_pct,std_gap_pct,instances"
    assert len(lines) == 3
    capsys.readouterr()


def test_cli_footprint_snapshot(tmp_path, capsys):
    scenario_path = str(tmp_path / "scenario.json")
    assert main(["generate-scenario", "--template", "small-grid",
                 "--saps", "9", "--incumbents", "2", "--seed", "8",
                 "--out", scenario_path]) == 0
    rc = main(["emit-plot-data", "--figure", "footprint-snapshot",
               "--scenario", scenario_path, "--threshold-dbm", "-64",
               "--out", str(tmp_path / "fp.csv")])
    assert rc == 0
    lines = (tmp_path / "fp.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 6 * 9 * 4
    capsys.readouterr()


def test_cli_rejects_fractional_scenario_count(tmp_path, capsys):
    # a random topology of 4.5 SAPs used to end in a TypeError traceback
    spec = scenario_to_dict(generate_scenario("small-grid", seed=4,
                                              side_count=2, incumbent_count=1))
    spec["topology"] = {"kind": "random", "count": 4.5,
                        "region_m": [400.0, 400.0], "radius_m": 100.0,
                        "height_m": 10.0}
    spec["spectrum"]["quota"] = None
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec))
    rc = main(["simulate", "--scenario", str(path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "error: count must be an integer >= 1\n"
    assert not (tmp_path / "out").exists()


def _malformed(spec, shape):
    """``spec`` (a scenario's JSON form) broken one way."""
    if shape == "root list":
        return [spec]
    spec = json.loads(json.dumps(spec))
    if shape == "no seed":
        del spec["seed"]
    elif shape == "no b_hz":
        del spec["spectrum"]["b_hz"]
    elif shape == "positions number":
        spec["topology"]["positions"] = 5.0
    elif shape == "propagation key":
        spec["propagation"]["loss_exponent"] = 3.0
    return spec


@pytest.mark.parametrize("shape, message", [
    ("no seed", "scenario needs field 'seed'"),
    ("no b_hz", "spectrum needs field 'b_hz'"),
    ("positions number", "topology positions must be [x, y] pairs"),
    ("propagation key", "propagation has unknown field 'loss_exponent'"),
    ("root list", "scenario must be a JSON object"),
])
def test_cli_rejects_malformed_scenario_json(tmp_path, capsys, shape,
                                             message):
    # these ended in a KeyError, IndexError or TypeError traceback
    spec = scenario_to_dict(generate_scenario("small-grid", seed=4,
                                              side_count=2, incumbent_count=1))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_malformed(spec, shape)))
    rc = main(["simulate", "--scenario", str(path),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("column", ["mean", "scheme"])
def test_cli_rejects_results_csv_without_a_column(campaign_output, tmp_path,
                                                  capsys, column):
    # a missing column ended in a KeyError traceback
    with open(campaign_output[0], encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    path = tmp_path / "results.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fields = [f for f in rows[0] if f != column]
        writer = csv.DictWriter(fh, fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    rc = main(["emit-plot-data", "--figure", "utilization-vs-threshold",
               "--results", str(path), "--out", str(tmp_path / "u.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {path} has no {column!r} column\n")
    assert not (tmp_path / "u.csv").exists()


def test_cli_reports_errors(tmp_path, capsys, monkeypatch):
    rc = main(["simulate", "--scenario", str(tmp_path / "missing.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    rc = main(["generate-scenario", "--template", "small-grid", "--saps", "7",
               "--out", str(tmp_path / "s.json")])
    assert rc == 1
    assert "square" in capsys.readouterr().err
    # bad counts: one error line, no numpy message and no file
    for args, field in ((["large-synthetic", "--incumbents", "-1"],
                         "incumbent_count must be an integer >= 0"),
                        (["small-grid", "--incumbents", "-1"],
                         "incumbent_count must be an integer >= 0"),
                        (["large-synthetic", "--saps", "0"],
                         "count must be an integer >= 1"),
                        (["small-grid", "--saps", "0"],
                         "side_count must be an integer >= 1"),
                        (["small-grid", "--saps", "-4"],
                         "--saps must be a square for small-grid"),
                        *((["large-synthetic", "--region-m", region],
                           "region_m must be finite and positive")
                          for region in ("-1", "0", "inf", "nan"))):
        rc = main(["generate-scenario", "--template", *args,
                   "--out", str(tmp_path / "bad.json")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {field}\n"
        assert not (tmp_path / "bad.json").exists()

    rc = main(["emit-plot-data", "--figure", "footprint-snapshot",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "scenario" in capsys.readouterr().err

    scenario_path = str(tmp_path / "scenario.json")
    assert main(["generate-scenario", "--template", "small-grid",
                 "--saps", "9", "--incumbents", "2", "--seed", "4",
                 "--out", scenario_path]) == 0
    capsys.readouterr()
    rc = main(["simulate", "--scenario", scenario_path,
               "--out", str(tmp_path / "out"), "--calibration-runs", "0"])
    assert rc == 1
    assert "calibration_runs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    rc = main(["simulate", "--scenario", scenario_path,
               "--out", str(tmp_path / "out"), "--thresholds-dbm=nan"])
    assert rc == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    rc = main(["simulate", "--scenario", scenario_path,
               "--out", str(tmp_path / "out"), "--thresholds-dbm=-4000"])
    assert rc == 1
    assert capsys.readouterr().err == ("error: threshold -4000.0 dBm has no "
                                       "finite, positive gain\n")
    assert not (tmp_path / "out").exists()
    # no iterations: rejected up front, whichever schemes would have failed
    # first (an IndexError, a zero-size reduction, or calibration)
    for schemes in (["genie,noncoop-multiband", "--noncoop-raw-energy"],
                    ["genie,centralized"], ["proposed-multiband"]):
        rc = main(["simulate", "--scenario", scenario_path,
                   "--out", str(tmp_path / "out"), "--iterations", "0",
                   "--schemes", *schemes])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: diffusion.iterations must be an integer >= 1\n")
        assert not (tmp_path / "out").exists()

    # a NaN sample in the frame diverges the first diffusion scheme: one
    # error line, no traceback and no numpy warning, no output directory
    # and no helper thread left
    threads = threading.active_count()

    def nan_frames(out, estimate_shape, rng):
        if _frame_of(rng, 4, 2) is not None:
            return _nan_noise(out, estimate_shape, rng)
        return propagation.estimation_noise(out, estimate_shape, rng)

    monkeypatch.setattr(harness, "estimation_noise", nan_frames)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["simulate", "--scenario", scenario_path,
                   "--out", str(tmp_path / "diverged"), "--realizations", "2",
                   "--iterations", "30", "--thresholds-dbm=-82,-62",
                   "--calibration-runs", "2"])
    monkeypatch.undo()
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: proposed-multiband: diffusion weights went non-finite in "
        "realization 0 at threshold -82.0 dBm\n")
    assert not (tmp_path / "diverged").exists()
    assert threading.active_count() == threads

    for flags in (["--sizes", "1"], ["--sizes", ""],
                  ["--sizes", "8", "--instances", "0"],
                  ["--sizes", "8", "--subsets", "0"]):
        rc = main(["gap-benchmark", *flags, "--out", str(tmp_path / "g.csv")])
        assert rc == 1
        assert "gap benchmark needs" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()
