"""Tests for topology, spectrum plan, and scenario serialization."""

import math

import numpy as np
import pytest

from specsense.harness import generate_scenario
from specsense.model import (
    ConfigurationError,
    Incumbent,
    Scenario,
    build_grid_topology,
    build_random_topology,
    build_spectrum_plan,
    check_quota_feasible,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    uniform_quota,
)
from specsense.propagation import PropagationParams
from specsense.seeding import substream


def test_grid_topology_neighbor_counts():
    # spacing 50, radius 50: orthogonal neighbors only (diagonal is 70.7 m)
    topo = build_grid_topology(5, 50.0, 50.0, 10.0)
    assert topo.count == 25
    counts = topo.adjacency.sum(axis=1)
    # corner: self + 2, edge: self + 3, interior: self + 4
    assert sorted(np.unique(counts)) == [3, 4, 5]
    corner = np.flatnonzero((topo.positions == 0).all(axis=1))[0]
    assert counts[corner] == 3


def test_grid_radius_boundary_inclusive():
    # neighbors at exactly the radius must count despite fp rounding
    topo = build_grid_topology(3, 50.0, 50.0, 10.0)
    center = 4  # middle of the 3x3 grid
    assert topo.adjacency[center].sum() == 5


def test_adjacency_symmetric_with_self_loops():
    rng = substream(7, "topo")
    topo = build_random_topology(40, (500.0, 500.0), 120.0, 10.0, rng)
    assert np.array_equal(topo.adjacency, topo.adjacency.T)
    assert topo.adjacency.diagonal().all()


def test_random_topology_inside_region_and_deterministic():
    topo_a = build_random_topology(30, (300.0, 200.0), 80.0, 10.0, substream(3, "p"))
    topo_b = build_random_topology(30, (300.0, 200.0), 80.0, 10.0, substream(3, "p"))
    assert np.array_equal(topo_a.positions, topo_b.positions)
    assert (topo_a.positions[:, 0] <= 300.0).all()
    assert (topo_a.positions[:, 1] <= 200.0).all()
    assert (topo_a.positions >= 0.0).all()


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.inf, math.nan])
def test_random_topology_rejects_bad_region(bad):
    # a zero side used to put every SAP on one line, a negative one was
    # taken as a mirrored region, and an infinite one gave NaN positions and
    # an adjacency with a False diagonal, reported only by the first
    # diffusion call
    for region in ((bad, 300.0), (300.0, bad)):
        with pytest.raises(ConfigurationError, match="region_m"):
            build_random_topology(10, region, 80.0, 10.0, substream(3, "p"))
    with pytest.raises(ConfigurationError, match="region_m"):
        generate_scenario("large-synthetic", sap_count=9, incumbent_count=0,
                          region_m=bad)


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.inf, math.nan])
def test_grid_topology_rejects_bad_spacing(bad):
    # a NaN spacing gave NaN positions and an adjacency with a False
    # diagonal, and an infinite one inf and NaN positions with two numpy
    # warnings; either was reported only by the first diffusion call
    with pytest.raises(ConfigurationError, match="spacing_m"):
        build_grid_topology(3, bad, 75.0, 10.0)
    with pytest.raises(ConfigurationError, match="spacing_m"):
        generate_scenario("small-grid", side_count=3, incumbent_count=0,
                          spacing_m=bad, radius_m=75.0)
    spec = scenario_to_dict(_small_scenario())
    spec["topology"] = {"kind": "grid", "side_count": 3, "spacing_m": bad,
                        "radius_m": 75.0, "height_m": 10.0}
    with pytest.raises(ConfigurationError, match="spacing_m"):
        scenario_from_dict(spec)


def test_grid_bounding_box():
    topo = build_grid_topology(5, 50.0, 75.0, 10.0)
    assert topo.bounding_box() == (0.0, 0.0, 200.0, 200.0)


def test_topology_arrays_read_only():
    topo = build_grid_topology(3, 50.0, 75.0, 10.0)
    with pytest.raises(ValueError):
        topo.positions[0, 0] = 1.0
    with pytest.raises(ValueError):
        topo.adjacency[0, 0] = False


def test_nonpositive_height_rejected():
    with pytest.raises(ConfigurationError):
        build_grid_topology(3, 50.0, 75.0, 0.0)


def test_spectrum_plan_channel_and_subset_counts():
    # 500 MHz / 180 kHz channels, 111 channels per SAP
    plan = build_spectrum_plan(500e6, 180e3, 111)
    assert plan.channel_count == 2777
    assert plan.subset_count == 25
    # residual channels fold into the last subset
    assert (plan.subset_of_channel == 24).sum() == 2777 - 24 * 111
    assert (plan.subset_of_channel == 0).sum() == 111
    assert plan.subset_of_channel.max() == 24


def test_spectrum_plan_four_even_channels():
    plan = build_spectrum_plan(80e6, 20e6, 1, center_frequency_hz=5.43e9)
    assert plan.channel_count == 4
    assert plan.subset_count == 4
    np.testing.assert_allclose(plan.channel_centers_hz,
                               [5.40e9, 5.42e9, 5.44e9, 5.46e9])
    # channels are packed from the lower band edge
    assert plan.center_frequency_hz - plan.total_bandwidth_hz / 2.0 == 5.39e9
    assert np.array_equal(plan.subset_of_channel, [0, 1, 2, 3])


def test_uniform_quota_policy():
    assert uniform_quota(4, 100) == (25, 25, 25, 25)
    assert uniform_quota(4, 25) == (7, 6, 6, 6)
    assert uniform_quota(3, 2) == (1, 1, 0)
    assert sum(uniform_quota(7, 61)) == 61


def test_quota_feasibility_check():
    plan = build_spectrum_plan(80e6, 20e6, 1, quota=(7, 6, 6, 6))
    check_quota_feasible(plan, 25)
    with pytest.raises(ConfigurationError):
        check_quota_feasible(plan, 24)
    with pytest.raises(ConfigurationError):
        check_quota_feasible(build_spectrum_plan(80e6, 20e6, 1), 25)


def test_spectrum_plan_validation():
    with pytest.raises(ConfigurationError):
        build_spectrum_plan(20e6, 80e6)
    with pytest.raises(ConfigurationError):
        build_spectrum_plan(80e6, 20e6, 0)
    with pytest.raises(ConfigurationError):
        build_spectrum_plan(80e6, 20e6, 1, quota=(1, 2, 3))
    with pytest.raises(ConfigurationError):
        build_spectrum_plan(80e6, 20e6, 1, quota=(1, 2, 3, -1))
    with pytest.raises(ConfigurationError, match="quota entry"):
        build_spectrum_plan(80e6, 20e6, 1, quota=(3.7, 2.2, 2, 2))


def _small_scenario(seed=11):
    topo = build_grid_topology(3, 50.0, 75.0, 10.0)
    plan = build_spectrum_plan(80e6, 20e6, 1, quota=(3, 2, 2, 2))
    incs = (
        Incumbent((10.0, 20.0), 1.5, 30.0, 20e6, None),
        Incumbent((80.0, 90.0), 1.5, 30.0, (20e6, 40e6), None),
        Incumbent((55.0, 55.0), 1.5, 23.0, 20e6, 5.42e9),
    )
    return Scenario(topo, plan, incs, PropagationParams(), seed)


def test_scenario_json_round_trip(tmp_path):
    scn = _small_scenario()
    path = tmp_path / "scenario.json"
    save_scenario(scn, path)
    back = load_scenario(path)
    assert np.array_equal(back.topology.positions, scn.topology.positions)
    assert np.array_equal(back.topology.adjacency, scn.topology.adjacency)
    assert back.spectrum.quota == scn.spectrum.quota
    assert back.spectrum.channel_count == scn.spectrum.channel_count
    assert np.array_equal(back.spectrum.subset_of_channel,
                          scn.spectrum.subset_of_channel)
    assert back.spectrum.center_frequency_hz == scn.spectrum.center_frequency_hz
    assert back.incumbents == scn.incumbents
    assert back.propagation == scn.propagation
    assert back.seed == scn.seed


def test_scenario_dict_grid_and_random_kinds():
    spec = scenario_to_dict(_small_scenario())
    spec["topology"] = {"kind": "grid", "side_count": 4, "spacing_m": 50.0,
                        "radius_m": 75.0, "height_m": 10.0}
    spec["spectrum"]["quota"] = None
    scn = scenario_from_dict(spec)
    assert scn.topology.count == 16
    assert scn.spectrum.quota == (4, 4, 4, 4)

    spec["topology"] = {"kind": "random", "count": 12, "region_m": [400.0, 400.0],
                        "radius_m": 100.0, "height_m": 10.0}
    scn_a = scenario_from_dict(spec)
    scn_b = scenario_from_dict(spec)
    assert scn_a.topology.count == 12
    # placement comes from the scenario seed, so rebuilds agree
    assert np.array_equal(scn_a.topology.positions, scn_b.topology.positions)


def test_scenario_dict_unknown_kind_rejected():
    spec = scenario_to_dict(_small_scenario())
    spec["topology"]["kind"] = "hexagonal"
    with pytest.raises(ConfigurationError):
        scenario_from_dict(spec)


BAD_WIDTHS = [0.0, -20e6, float("nan"), float("inf"), (), (20e6, 0.0),
              (float("nan"), 40e6)]


@pytest.mark.parametrize("width", BAD_WIDTHS)
def test_incumbent_rejects_bad_signal_bandwidth(width):
    # such an incumbent used to drop silently out of the ground truth
    with pytest.raises(ConfigurationError, match="bandwidth"):
        Incumbent((0.0, 0.0), 1.5, 30.0, width, 5.40e9)


@pytest.mark.parametrize("width", BAD_WIDTHS)
def test_scenario_dict_rejects_bad_signal_bandwidth(width):
    spec = scenario_to_dict(_small_scenario())
    spec["incumbents"][0]["signal_bandwidth_hz"] = (
        list(width) if isinstance(width, tuple) else width)
    with pytest.raises(ConfigurationError, match="bandwidth"):
        scenario_from_dict(spec)


BAD_PLACEMENTS = [
    ((float("nan"), 0.0), 1.5, "position"),
    ((0.0, float("inf")), 1.5, "position"),
    ((0.0,), 1.5, "position"),
    ((0.0, 0.0, 0.0), 1.5, "position"),
    ((0.0, 0.0), float("nan"), "height"),
    ((0.0, 0.0), float("inf"), "height"),
    ((0.0, 0.0), -5.0, "height"),
    ((0.0, 0.0), 0.0, "height"),
]


@pytest.mark.parametrize("position, height, field", BAD_PLACEMENTS)
def test_incumbent_rejects_bad_position_and_height(position, height, field):
    # a NaN coordinate or height made the ground truth NaN, read as free
    with pytest.raises(ConfigurationError, match=field):
        Incumbent(position, height, 30.0, 20e6, 5.40e9)


@pytest.mark.parametrize("position, height, field", BAD_PLACEMENTS)
def test_scenario_dict_rejects_bad_position_and_height(position, height,
                                                       field):
    spec = scenario_to_dict(_small_scenario())
    spec["incumbents"][0]["position"] = list(position)
    spec["incumbents"][0]["height_m"] = height
    with pytest.raises(ConfigurationError, match=field):
        scenario_from_dict(spec)


@pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf])
def test_incumbent_rejects_non_finite_center(center):
    # json.load reads a NaN literal. A NaN center passed the band-edge
    # check, its channel run came out empty, and the incumbent dropped
    # silently out of the ground truth
    with pytest.raises(ConfigurationError,
                       match="incumbent center must be finite or None"):
        Incumbent((0.0, 0.0), 1.5, 30.0, 20e6, center)


BAD_PARAMETERS = [
    ("topology", "radius_m", -1.0, "radius"),
    ("topology", "radius_m", float("nan"), "radius"),
    ("topology", "height_m", float("nan"), "height"),
    ("spectrum", "center_hz", float("nan"), "center"),
    ("spectrum", "B_hz", float("inf"), "B < inf"),
    ("propagation", "model", "cost231", "model"),
    ("propagation", "carrier_hz", -1.0, "carrier"),
    ("propagation", "carrier_hz", float("inf"), "carrier"),
    ("propagation", "noise_figure_db", float("inf"), "noise figure"),
    ("propagation", "sap_ref_tx_power_dbm", float("nan"), "SAP power"),
    ("propagation", "shadowing_sigma_nlos_db", float("nan"), "shadowing"),
    ("propagation", "shadowing_sigma_los_db", float("inf"), "shadowing"),
    ("propagation", "estimate_shape", float("inf"), "estimate_shape"),
    ("propagation", "estimate_shape", float("nan"), "estimate_shape"),
]


@pytest.mark.parametrize("section, key, value, field", BAD_PARAMETERS)
def test_scenario_dict_rejects_bad_parameters(section, key, value, field):
    # each of these used to load: a negative radius gave an adjacency with
    # a False diagonal, a NaN center frequency dropped every incumbent from
    # the truth, non-finite powers wrote plausible rows, a negative
    # carrier surfaced only as a diffusion divergence and an unknown model
    # only at the first pathloss call
    spec = scenario_to_dict(_small_scenario())
    spec[section][key] = value
    with pytest.raises(ConfigurationError, match=field):
        scenario_from_dict(spec)


BAD_INTEGERS = [
    # a 2.5-wide grid was built 3 x 3, a fractional count raised TypeError,
    # a 1.5-channel subset failed as a quota of the wrong length, and a
    # fractional or boolean seed was truncated to seed 1
    ("topology", dict(kind="grid", side_count=2.5, spacing_m=50.0,
                      radius_m=75.0, height_m=10.0), "side_count"),
    ("topology", dict(kind="grid", side_count=True, spacing_m=50.0,
                      radius_m=75.0, height_m=10.0), "side_count"),
    ("topology", dict(kind="random", count=4.5, region_m=[400.0, 400.0],
                      radius_m=100.0, height_m=10.0), "count"),
    ("topology", dict(kind="random", count=0, region_m=[400.0, 400.0],
                      radius_m=100.0, height_m=10.0), "count"),
    ("spectrum", dict(B_hz=80e6, b_hz=20e6, p=1.5), "channels_per_sap"),
    ("spectrum", dict(B_hz=80e6, b_hz=20e6, p=0), "channels_per_sap"),
    ("seed", 1.7, "seed"),
    ("seed", True, "seed"),
    ("seed", "1", "seed"),
]


@pytest.mark.parametrize("section, value, field", BAD_INTEGERS)
def test_scenario_dict_rejects_non_integer_counts(section, value, field):
    spec = scenario_to_dict(_small_scenario())
    spec[section] = value
    with pytest.raises(ConfigurationError,
                       match=f"^{field} must be an integer"):
        scenario_from_dict(spec)


def test_builders_take_integer_counts():
    for bad in (2.5, 2.0, True, "3", 0):
        with pytest.raises(ConfigurationError, match="^side_count must be"):
            build_grid_topology(bad, 50.0, 75.0, 10.0)
        with pytest.raises(ConfigurationError, match="^count must be"):
            build_random_topology(bad, (300.0, 200.0), 80.0, 10.0,
                                  substream(3, "p"))
        with pytest.raises(ConfigurationError,
                           match="^channels_per_sap must be"):
            build_spectrum_plan(80e6, 20e6, bad)
    assert build_grid_topology(np.int64(2), 50.0, 75.0, 10.0).count == 4
    assert build_random_topology(np.int64(3), (300.0, 200.0), 80.0, 10.0,
                                 substream(3, "p")).count == 3
    plan = build_spectrum_plan(80e6, 20e6, np.int64(2))
    assert plan.channels_per_sap == 2 and type(plan.channels_per_sap) is int
    spec = scenario_to_dict(_small_scenario())
    spec["seed"] = -7                   # any integer seeds a substream
    assert scenario_from_dict(spec).seed == -7


def test_substream_independence_and_stability():
    # named substreams are stable across calls and distinct across tags
    a1 = substream(5, "alpha").uniform(size=4)
    a2 = substream(5, "alpha").uniform(size=4)
    b = substream(5, "beta").uniform(size=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    # integer tags participate too (e.g. realization indices)
    r0 = substream(5, "real", 0).uniform()
    r1 = substream(5, "real", 1).uniform()
    assert r0 != r1
