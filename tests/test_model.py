"""Tests for topology, spectrum plan, and scenario serialization."""

import numpy as np
import pytest

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
    with pytest.raises(ConfigurationError):
        build_spectrum_plan(80e6, 20e6, 1, quota=(6, 6, 6, 7),
                            uniform_quota_saps=25)


def _small_scenario(seed=11):
    topo = build_grid_topology(3, 50.0, 75.0, 10.0)
    plan = build_spectrum_plan(80e6, 20e6, 1, uniform_quota_saps=9)
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
    # substreams keyed off the reloaded scenario reproduce exactly
    assert back.rng("x").uniform() == scn.rng("x").uniform()


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
