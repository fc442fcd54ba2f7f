"""Tests for the sensing-assignment cost model, solvers, and heuristic."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specsense.model import ConfigurationError, uniform_quota
from specsense.scheduler import (
    Assignment,
    benchmark_gap,
    build_cost_tensor,
    cluster_saps,
    cost_from_reference_powers,
    heuristic_assign,
    objective_value,
    pick_min_cost_sap,
    solve_exact,
)
from specsense.seeding import substream


# ---------------------------------------------------------------------------
# Independent oracles, kept deliberately naive
# ---------------------------------------------------------------------------

def _objective_slow(cost, a):
    """Worst subset load via explicit loops over members and reporters."""
    worst = 0.0
    for l in range(cost.shape[2]):
        load = 0.0
        for k in range(len(a)):
            if a[k] == l:
                for j in range(cost.shape[0]):
                    load += cost[j, k, l]
        worst = max(worst, load)
    return worst


def _enumerate_assignments(k_count, quota):
    """Every feasible assignment, one numpy label vector at a time."""
    def rec(remaining, l):
        if l == len(quota):
            yield {}
            return
        for combo in itertools.combinations(sorted(remaining), quota[l]):
            for tail in rec(remaining - set(combo), l + 1):
                d = dict(tail)
                for k in combo:
                    d[k] = l
                yield d

    for d in rec(set(range(k_count)), 0):
        yield np.array([d[k] for k in range(k_count)], dtype=int)


def _best_by_enumeration(cost, quota):
    return min(_objective_slow(cost, a)
               for a in _enumerate_assignments(cost.shape[0], quota))


# ---------------------------------------------------------------------------
# Cost construction
# ---------------------------------------------------------------------------

def test_uniform_cost_tensor_range_and_diagonal():
    cost = build_cost_tensor(10, 4, substream(1, "cost"))
    assert cost.shape == (10, 10, 4)
    assert cost.min() >= 0.0 and cost.max() <= 1000.0
    idx = np.arange(10)
    assert (cost[idx, idx, :] == 0.0).all()


def test_uniform_cost_tensor_rejects_bad_range():
    with pytest.raises(ConfigurationError):
        build_cost_tensor(4, 2, substream(1, "cost"), cost_range=(5.0, 1.0))


def test_reference_power_costs_order_and_penalty():
    # SAP 1 hears SAP 0 strongly, SAP 2 weakly, SAP 3 not at all
    p = np.array([
        [0.0, 4.0, 1.0, 0.0],
        [4.0, 0.0, 2.0, 0.0],
        [1.0, 2.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    cost = cost_from_reference_powers(p, 3)
    assert cost.shape == (4, 4, 3)
    # stronger link -> cheaper, and the same for every subset
    assert cost[0, 1, 0] < cost[2, 1, 0]
    np.testing.assert_allclose(cost[:, :, 0], cost[:, :, 2])
    np.testing.assert_allclose(cost[0, 1, :], 1.0 / 4.0)
    # off-neighborhood entries cost orders of magnitude above any real link
    finite_max = 1.0 / p[p > 0].min()
    assert (cost[3, :3, 0] > 1e5 * finite_max).all()
    assert (np.diagonal(cost[:, :, 0]) == 0.0).all()


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def test_objective_zero_costs():
    cost = np.zeros((3, 3, 2))
    assert objective_value(cost, np.array([0, 1, 0])) == 0.0


def test_objective_forced_two_sap_single_subset():
    cost = np.zeros((2, 2, 1))
    cost[0, 1, 0] = 3.0
    cost[1, 0, 0] = 5.0
    # both SAPs must take the only subset; the load is the whole off-diagonal
    assert objective_value(cost, np.array([0, 0])) == pytest.approx(8.0)


def test_objective_matches_slow_evaluation():
    for trial in range(20):
        rng = substream(7, "obj", trial)
        cost = build_cost_tensor(5, 3, rng, (0.0, 10.0))
        a = rng.permutation(np.array([0, 0, 1, 1, 2]))
        assert objective_value(cost, a) == pytest.approx(_objective_slow(cost, a))


def test_objective_accepts_assignment_wrapper():
    cost = build_cost_tensor(4, 2, substream(3, "obj"))
    a = np.array([0, 1, 0, 1])
    assert objective_value(cost, Assignment(a)) == objective_value(cost, a)


# ---------------------------------------------------------------------------
# Exact solvers
# ---------------------------------------------------------------------------

def test_exact_constant_costs_closed_form():
    # every off-diagonal cost c: any feasible assignment loads subset l with
    # q_l * c * (K - 1), so the optimum is c * (K - 1) * max(q)
    k_count, c = 6, 2.5
    cost = np.full((k_count, k_count, 3), c)
    idx = np.arange(k_count)
    cost[idx, idx, :] = 0.0
    _, obj = solve_exact(cost, (3, 2, 1))
    assert obj == pytest.approx(c * (k_count - 1) * 3)


def test_exact_matches_enumeration():
    for trial in range(30):
        rng = substream(11, "exact", trial)
        k_count = int(rng.integers(4, 7))
        quota = tuple(uniform_quota(int(rng.integers(2, 4)), k_count))
        cost = build_cost_tensor(k_count, len(quota), rng, (0.0, 100.0))
        assignment, obj = solve_exact(cost, quota, engine="dfs")
        assignment.validate(quota)
        assert obj == pytest.approx(_best_by_enumeration(cost, quota))


def test_milp_agrees_with_dfs():
    for trial in range(10):
        rng = substream(13, "milp", trial)
        cost = build_cost_tensor(7, 3, rng)
        quota = (3, 2, 2)
        _, dfs_obj = solve_exact(cost, quota, engine="dfs")
        _, milp_obj = solve_exact(cost, quota, engine="milp")
        assert milp_obj == pytest.approx(dfs_obj, rel=1e-9)


def test_exact_single_subset_is_forced():
    cost = build_cost_tensor(5, 1, substream(2, "l1"))
    assignment, obj = solve_exact(cost, (5,))
    np.testing.assert_array_equal(assignment.subset_of_sap, np.zeros(5, dtype=int))
    assert obj == pytest.approx(_objective_slow(cost, assignment.subset_of_sap))


def test_exact_rejects_bad_quota_and_oversize():
    cost = build_cost_tensor(4, 2, substream(4, "bad"))
    with pytest.raises(ConfigurationError):
        solve_exact(cost, (3, 2))
    big = build_cost_tensor(21, 2, substream(4, "big"))
    with pytest.raises(ConfigurationError):
        solve_exact(big, (11, 10), engine="dfs")
    with pytest.raises(ConfigurationError):
        solve_exact(cost, (2, 2), engine="simplex")


# ---------------------------------------------------------------------------
# Per-cluster pick
# ---------------------------------------------------------------------------

def test_pick_min_cost_sap_worked_example():
    # cluster {1, 2, 3}; submatrix column sums are (5, 6, 11), so the first
    # member wins
    cost = np.zeros((4, 4, 1))
    sub = np.array([[0.0, 4.0, 6.0], [2.0, 0.0, 5.0], [3.0, 2.0, 0.0]])
    cost[np.ix_([1, 2, 3], [1, 2, 3])] = sub[:, :, None]
    assert pick_min_cost_sap(cost, [1, 2, 3], 0) == 1


def test_pick_min_cost_sap_singleton_and_tie():
    cost = np.full((5, 5, 2), 7.0)
    idx = np.arange(5)
    cost[idx, idx, :] = 0.0
    assert pick_min_cost_sap(cost, [3], 1) == 3
    # all-equal costs tie; the smallest id wins
    assert pick_min_cost_sap(cost, [4, 2, 3], 0) == 2


def test_pick_min_cost_sap_brute_force():
    for trial in range(50):
        rng = substream(17, "pick", trial)
        k_count = 9
        cost = build_cost_tensor(k_count, 2, rng, (0.0, 50.0))
        size = int(rng.integers(2, 9))
        cluster = rng.choice(k_count, size=size, replace=False)
        l = int(rng.integers(2))
        best = min(sorted(cluster),
                   key=lambda e: (sum(cost[j, e, l] for j in cluster), e))
        assert pick_min_cost_sap(cost, cluster, l) == best


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------

def test_cluster_degenerate_counts():
    pts = substream(5, "pts").uniform(0.0, 100.0, size=(6, 2))
    np.testing.assert_array_equal(cluster_saps(pts, 1, substream(5, "c1")),
                                  np.zeros(6, dtype=int))
    np.testing.assert_array_equal(cluster_saps(pts, 6, substream(5, "c6")),
                                  np.arange(6))
    with pytest.raises(ConfigurationError):
        cluster_saps(pts, 7, substream(5, "c7"))
    with pytest.raises(ConfigurationError):
        cluster_saps(pts, 0, substream(5, "c0"))


def test_cluster_two_separated_blobs():
    rng = substream(19, "blobs")
    blob_a = rng.normal(0.0, 1.0, size=(8, 2))
    blob_b = rng.normal(500.0, 1.0, size=(8, 2))
    labels = cluster_saps(np.vstack([blob_a, blob_b]), 2, substream(19, "km"))
    assert len(set(labels[:8])) == 1
    assert len(set(labels[8:])) == 1
    assert labels[0] != labels[8]


def test_cluster_labels_cover_and_fill():
    for trial in range(10):
        rng = substream(23, "cover", trial)
        pts = rng.uniform(0.0, 200.0, size=(12, 2))
        n = int(rng.integers(2, 6))
        labels = cluster_saps(pts, n, substream(23, "cover-km", trial))
        assert labels.shape == (12,)
        assert set(labels) == set(range(n))
    # with co-located points, stealing a point for one empty cluster can
    # empty another; every cluster must still end non-empty, and no centroid
    # may go NaN (a RuntimeWarning, an error under this suite)
    for pts in (np.zeros((4, 2)), np.array([[0.0, 0.0]] * 3 + [[1.0, 1.0]] * 2)):
        assert set(cluster_saps(pts, 3, substream(1, "colocated"))) == {0, 1, 2}


def test_cluster_deterministic_under_stream():
    pts = substream(29, "pts").uniform(0.0, 100.0, size=(15, 2))
    a = cluster_saps(pts, 4, substream(29, "km"))
    b = cluster_saps(pts, 4, substream(29, "km"))
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Heuristic
# ---------------------------------------------------------------------------

def test_heuristic_single_subset_unique():
    rng = substream(31, "h-l1")
    cost = build_cost_tensor(6, 1, rng)
    positions = rng.uniform(0.0, 100.0, size=(6, 2))
    assignment, obj = heuristic_assign(cost, positions, (6,), substream(31, "h"))
    np.testing.assert_array_equal(assignment.subset_of_sap, np.zeros(6, dtype=int))
    assert obj == pytest.approx(objective_value(cost, assignment))


def test_heuristic_feasible_and_dominated_by_exact():
    for trial in range(10):
        rng = substream(37, "dom", trial)
        k_count = 8
        quota = (3, 3, 2)
        cost = build_cost_tensor(k_count, len(quota), rng)
        positions = rng.uniform(0.0, 500.0, size=(k_count, 2))
        assignment, h_obj = heuristic_assign(cost, positions, quota,
                                             substream(37, "dom-h", trial))
        assignment.validate(quota)
        _, e_obj = solve_exact(cost, quota)
        assert h_obj >= e_obj - 1e-9
        assert h_obj == pytest.approx(_objective_slow(cost, assignment.subset_of_sap))


@settings(max_examples=60, deadline=None)
@given(quota=st.lists(st.integers(0, 4), min_size=1, max_size=4),
       spread_m=st.sampled_from([0.0, 3.0, 500.0]),
       restarts=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
def test_heuristic_always_quota_feasible(quota, spread_m, restarts, seed):
    # any quota, including empty subsets and co-located SAPs
    k_count = sum(quota)
    assume(k_count >= 1)
    rng = substream(seed, "feasible")
    cost = build_cost_tensor(k_count, len(quota), rng)
    positions = rng.uniform(0.0, spread_m, size=(k_count, 2))
    assignment, obj = heuristic_assign(cost, positions, quota,
                                       substream(seed, "feasible-h"), restarts)
    assert assignment.subset_of_sap.shape == (k_count,)
    assert tuple(np.bincount(assignment.subset_of_sap,
                             minlength=len(quota))) == tuple(quota)
    assert obj == pytest.approx(_objective_slow(cost, assignment.subset_of_sap))


def test_heuristic_restart_monotone():
    rng = substream(41, "mono")
    cost = build_cost_tensor(16, 4, rng)
    positions = rng.uniform(0.0, 500.0, size=(16, 2))
    quota = (4, 4, 4, 4)
    objs = [heuristic_assign(cost, positions, quota, substream(41, "mono-h"),
                             restarts=r)[1]
            for r in (1, 2, 4, 8, 16, 32)]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


def test_heuristic_rejects_bad_inputs():
    rng = substream(43, "bad")
    cost = build_cost_tensor(5, 2, rng)
    positions = rng.uniform(0.0, 100.0, size=(5, 2))
    with pytest.raises(ConfigurationError):
        heuristic_assign(cost, positions, (3, 3), substream(43, "h"))
    with pytest.raises(ConfigurationError):
        heuristic_assign(cost, positions, (3, 2, 0), substream(43, "h"))
    with pytest.raises(ConfigurationError):
        heuristic_assign(cost, positions, (3, 2), substream(43, "h"), restarts=0)


def test_assignment_sensing_mask_shape():
    from specsense.model import build_spectrum_plan

    plan = build_spectrum_plan(80e6, 20e6, 2)  # 4 channels, 2 subsets
    mask = Assignment(np.array([0, 1, 1])).sensing_mask(plan)
    np.testing.assert_array_equal(mask, np.array([
        [True, True, False, False],
        [False, False, True, True],
        [False, False, True, True],
    ]))


# ---------------------------------------------------------------------------
# Gap benchmark
# ---------------------------------------------------------------------------

def test_benchmark_gap_schema_and_sign():
    rows = benchmark_gap((6, 8), 2, 4, master_seed=47)
    assert [r["sap_count"] for r in rows] == [6, 8]
    for r in rows:
        assert set(r) == {"sap_count", "mean_gap_pct", "std_gap_pct",
                          "mean_exact", "mean_heuristic", "instances"}
        assert r["instances"] == 4
        # the heuristic can never beat the exact optimum
        assert r["mean_gap_pct"] >= -1e-9
        assert r["mean_heuristic"] >= r["mean_exact"] - 1e-9
