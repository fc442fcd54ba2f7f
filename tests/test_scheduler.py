"""Tests for the sensing-assignment cost model, solvers, and heuristic."""

import hashlib
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
    column_sums,
    cost_from_reference_powers,
    heuristic_assign,
    objective_value,
    pick_min_cost_sap,
    solve_exact,
)
from specsense.scheduler import _greedy_load
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


def _solve_dfs_reference(colsum, quota):
    """The branch and bound that tests every combination of each subset.

    Same visiting order and pruning as ``solve_exact(engine="dfs")``, but
    each size-q combination comes from ``itertools.combinations`` and is
    skipped one by one when its load reaches the incumbent.
    """
    k_count, l_count = colsum.shape
    lbs = []
    all_ids = np.arange(k_count)
    for l in range(l_count):
        if quota[l] == 0:
            lbs.append(0.0)
        else:
            lbs.append(np.sort(colsum[:, l])[:quota[l]].sum())
    subset_order = sorted(range(l_count), key=lambda l: -lbs[l])

    best = {"obj": np.inf, "a": None}

    def lower_bound(pool, depth):
        lb = 0.0
        for l in subset_order[depth:]:
            q = quota[l]
            if q == 0:
                continue
            vals = np.sort(colsum[pool, l])[:q]
            lb = max(lb, vals.sum())
        return lb

    def recurse(pool, depth, cur_max, partial):
        if depth == len(subset_order):
            if cur_max < best["obj"]:
                best["obj"] = cur_max
                best["a"] = dict(partial)
            return
        l = subset_order[depth]
        q = quota[l]
        if q == 0:
            recurse(pool, depth + 1, cur_max, partial)
            return
        order = sorted(pool, key=lambda k: colsum[k, l])
        for combo in itertools.combinations(order, q):
            load = sum(colsum[k, l] for k in combo)
            node_max = max(cur_max, load)
            if node_max >= best["obj"]:
                continue
            rest = [k for k in pool if k not in combo]
            if rest and max(node_max, lower_bound(rest, depth + 1)) >= best["obj"]:
                continue
            for k in combo:
                partial[k] = l
            recurse(rest, depth + 1, node_max, partial)
            for k in combo:
                del partial[k]

    recurse(list(all_ids), 0, 0.0, {})
    a = np.empty(k_count, dtype=int)
    for k, l in best["a"].items():
        a[k] = l
    return a


def _pick_oracle(cost, cluster_ids, l):
    """The cheapest member of one cluster, from its own cost submatrix."""
    ids = np.sort(np.asarray(cluster_ids, dtype=int))
    sub = cost[np.ix_(ids, ids)][:, :, l]
    return int(ids[np.argmin(sub.sum(axis=0))])


def _cluster_oracle(positions, n_clusters, rng, max_iter=100, tol=1e-6):
    """k-means++ then Lloyd, one cluster at a time: per-cluster emptiness
    checks and steals, then masked per-cluster means."""
    pts = np.asarray(positions, dtype=float)
    n = pts.shape[0]
    if n_clusters == 1:
        return np.zeros(n, dtype=int)
    if n_clusters == n:
        return np.arange(n, dtype=int)
    centers = np.empty((n_clusters, 2))
    centers[0] = pts[rng.integers(n)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for c in range(1, n_clusters):
        total = d2.sum()
        if total <= 0:
            centers[c] = pts[rng.integers(n)]
        else:
            centers[c] = pts[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((pts - centers[c]) ** 2).sum(axis=1))

    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        dist = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = dist.argmin(axis=1)
        for c in range(n_clusters):
            if not (labels == c).any():
                spread = dist[np.arange(n), labels]
                labels[spread.argmax()] = c
                dist[spread.argmax(), :] = 0.0
        for c in np.flatnonzero(np.bincount(labels, minlength=n_clusters) == 0):
            largest = np.bincount(labels, minlength=n_clusters).argmax()
            labels[np.flatnonzero(labels == largest)[-1]] = c
        new_centers = np.array([pts[labels == c].mean(axis=0)
                                for c in range(n_clusters)])
        shift = np.abs(new_centers - centers).max()
        centers = new_centers
        if shift < tol:
            break
    return labels


def _heuristic_oracle(cost, positions, quota, rng, restarts):
    """Best of ``restarts`` clustered passes, one cluster pick at a time."""
    best_a, best_obj = None, np.inf
    for child in rng.spawn(restarts):
        order = child.permutation(cost.shape[2])
        a = np.full(cost.shape[0], -1, dtype=int)
        remaining = np.arange(cost.shape[0])
        for l in order:
            if quota[l] == 0:
                continue
            labels = _cluster_oracle(positions[remaining], quota[l], child)
            for c in range(quota[l]):
                a[_pick_oracle(cost, remaining[labels == c], l)] = l
            remaining = remaining[a[remaining] < 0]
        obj = objective_value(cost, a)
        if obj < best_obj:
            best_a, best_obj = a, obj
    return best_a, best_obj


# ---------------------------------------------------------------------------
# Cost construction
# ---------------------------------------------------------------------------

def test_uniform_cost_tensor_range_and_diagonal():
    cost = build_cost_tensor(10, 4, substream(1, "cost"))
    assert cost.shape == (10, 10, 4)
    assert cost.min() >= 0.0 and cost.max() <= 1000.0
    idx = np.arange(10)
    assert (cost[idx, idx, :] == 0.0).all()


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
        cost = build_cost_tensor(5, 3, rng) / 100.0
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
    assignment, obj = solve_exact(cost, (3, 2, 1))
    assert obj == pytest.approx(c * (k_count - 1) * 3)
    # every leaf ties the warm start, which enters a hair above it: the
    # search still returns its own first leaf, not the warm start
    np.testing.assert_array_equal(
        assignment.subset_of_sap,
        _solve_dfs_reference(column_sums(cost), (3, 2, 1)))


def test_exact_matches_enumeration():
    for trial in range(30):
        rng = substream(11, "exact", trial)
        k_count = int(rng.integers(4, 7))
        quota = tuple(uniform_quota(int(rng.integers(2, 4)), k_count))
        cost = build_cost_tensor(k_count, len(quota), rng) / 10.0
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


@pytest.mark.parametrize("engine", ["dfs", "milp"])
@pytest.mark.parametrize("bad", [-1e-12, -100.0, np.nan, np.inf])
def test_exact_rejects_negative_costs(engine, bad):
    cost = build_cost_tensor(6, 2, substream(5, "negative"))
    cost[2, 4, 1] = bad
    with pytest.raises(ConfigurationError, match="nonnegative"):
        solve_exact(cost, (3, 3), engine=engine)


@settings(max_examples=150, deadline=None)
@given(quota=st.one_of(st.lists(st.integers(0, 4), min_size=1, max_size=4),
                       st.lists(st.integers(0, 10), min_size=1, max_size=2),
                       st.sampled_from([(9, 3), (8, 0, 2), (3, 9, 0, 1)])),
       costs=st.sampled_from(["uniform", "integer", "reference-powers",
                              "constant"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dfs_matches_combination_reference(quota, costs, seed):
    # the same assignment, not only the same objective, as the search that
    # tests every combination: integer costs make ties common, reference
    # powers give subset-constant costs, constant costs make every leaf tie
    # the warm start, and a quota of 8 or more sums its bound where numpy's
    # sum switches to pairwise accumulation
    quota = tuple(quota)
    k_count, l_count = sum(quota), len(quota)
    assume(k_count >= 1)
    rng = np.random.default_rng(seed)
    if costs == "uniform":
        cost = build_cost_tensor(k_count, l_count, rng)
    elif costs == "integer":
        cost = rng.integers(0, 4, size=(k_count, k_count, l_count)).astype(float)
        idx = np.arange(k_count)
        cost[idx, idx, :] = 0.0
    elif costs == "reference-powers":
        p = rng.uniform(0.1, 2.0, size=(k_count, k_count))
        p[rng.uniform(size=p.shape) < 0.5] = 0.0
        cost = cost_from_reference_powers(p, l_count)
    else:
        cost = np.full((k_count, k_count, l_count), rng.uniform(0.0, 10.0))
        idx = np.arange(k_count)
        cost[idx, idx, :] = 0.0
    assignment, obj = solve_exact(cost, quota, engine="dfs")
    want = _solve_dfs_reference(column_sums(cost), quota)
    np.testing.assert_array_equal(assignment.subset_of_sap, want)
    assert obj == objective_value(cost, want)
    # the warm start is a feasible assignment's load, so never below the
    # optimum beyond the rounding of another summation order
    assert _greedy_load(column_sums(cost), quota) >= obj * (1 - 1e-12)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dfs_matches_reference_on_twin_subsets(seed):
    # reference-power costs give every subset the same column and the
    # quotas are equal, so all four subsets are twins and mirror pruning
    # cuts most of the tree; the reference tests every combination
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.1, 2.0, size=(12, 12))
    p[rng.uniform(size=p.shape) < 0.5] = 0.0
    cost = cost_from_reference_powers(p, 4)
    assignment, _ = solve_exact(cost, (3, 3, 3, 3), engine="dfs")
    want = _solve_dfs_reference(column_sums(cost), (3, 3, 3, 3))
    np.testing.assert_array_equal(assignment.subset_of_sap, want)


def test_exact_assignments_on_gap_instances_are_pinned():
    # the gap rows record objectives only, so they cannot see a changed
    # tied assignment. The digest hashes every assignment solve_exact
    # returns on benchmark_gap's instances at sizes 8/12/16/20, instance
    # seed 7 and 4 subsets, recorded from the search that re-sorted its
    # pool at every node
    h = hashlib.sha256()
    for k_count, instances in ((8, 30), (12, 30), (16, 60), (20, 30)):
        quota = uniform_quota(4, k_count)
        for i in range(instances):
            cost = build_cost_tensor(k_count, 4, substream(7, "gap", k_count, i))
            assignment, _ = solve_exact(cost, quota)
            h.update(assignment.subset_of_sap.astype("<i8").tobytes())
    assert h.hexdigest() == (
        "192f43a78477000c6a7017e8ce9f7eb2b1222a9574d354d709fae2517fb6ef96")


def test_milp_assignments_are_pinned():
    # every assignment the MILP returns on uniform instances at sizes
    # 8/12/16/24, five each, recorded from the model built one constraint
    # row at a time
    h = hashlib.sha256()
    for k_count in (8, 12, 16, 24):
        for i in range(5):
            cost = build_cost_tensor(k_count, 4, substream(3, "m", k_count, i))
            assignment, _ = solve_exact(cost, uniform_quota(4, k_count),
                                        engine="milp")
            h.update(assignment.subset_of_sap.astype("<i8").tobytes())
    assert h.hexdigest() == (
        "88b1e5913cd86d294192140c08153e5f7dea34ff450b16651d6b69327b0bd074")


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
        cost = build_cost_tensor(k_count, 2, rng) / 20.0
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


@settings(max_examples=80, deadline=None)
@given(quota=st.lists(st.integers(0, 6), min_size=1, max_size=5),
       layout=st.sampled_from(["spread", "grid", "colocated"]),
       costs=st.sampled_from(["uniform", "reference-powers"]),
       restarts=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_heuristic_matches_per_cluster_oracle(quota, layout, costs, restarts,
                                              seed):
    # labels, assignment, objective and the generator state after the call
    # all equal those of the per-cluster loops, bit for bit
    k_count = sum(quota)
    assume(k_count >= 1)
    rng = np.random.default_rng(seed)
    if layout == "spread":
        positions = rng.uniform(0.0, 500.0, size=(k_count, 2))
    elif layout == "grid":                   # few distinct points, shared
        positions = rng.integers(0, 3, size=(k_count, 2)).astype(float)
    else:
        positions = np.zeros((k_count, 2))
    if costs == "uniform":
        cost = build_cost_tensor(k_count, len(quota), rng)
    else:                                    # zero powers: penalty entries
        p = rng.uniform(0.1, 2.0, size=(k_count, k_count))
        p[rng.uniform(size=p.shape) < 0.5] = 0.0
        cost = cost_from_reference_powers(p, len(quota))

    for n_clusters in range(1, k_count + 1):
        got_rng, want_rng = (np.random.default_rng([seed, n_clusters])
                             for _ in range(2))
        np.testing.assert_array_equal(
            cluster_saps(positions, n_clusters, got_rng),
            _cluster_oracle(positions, n_clusters, want_rng))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    got_rng, want_rng = (np.random.default_rng([seed, 0]) for _ in range(2))
    assignment, obj = heuristic_assign(cost, positions, quota, got_rng,
                                       restarts)
    want_a, want_obj = _heuristic_oracle(cost, positions, quota, want_rng,
                                         restarts)
    np.testing.assert_array_equal(assignment.subset_of_sap, want_a)
    assert obj == want_obj
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert (got_rng.bit_generator.seed_seq.n_children_spawned
            == want_rng.bit_generator.seed_seq.n_children_spawned)


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
    # SAP 1 inflicts inf on SAP 0 under every subset: every assignment
    # scores inf, so no pass can beat the starting objective
    cost[0, 1, :] = np.inf
    with pytest.raises(ConfigurationError, match="finite and nonnegative"):
        heuristic_assign(cost, positions, (3, 2), substream(43, "h"))


@pytest.mark.parametrize("restarts", [2.5, True, np.nan])
def test_heuristic_rejects_non_integer_restarts(restarts):
    # Generator.spawn would truncate 2.5 to 2 restarts and read True as 1
    rng = substream(43, "restarts")
    cost = build_cost_tensor(5, 2, rng)
    positions = rng.uniform(0.0, 100.0, size=(5, 2))
    with pytest.raises(ConfigurationError, match="restarts must be an integer"):
        heuristic_assign(cost, positions, (3, 2), substream(43, "h"),
                         restarts=restarts)


def _solve_with(solver, cost, quota, positions=None):
    """Run one of the three solvers; the heuristic gets K spread positions
    unless ``positions`` are given."""
    if solver != "heuristic":
        return solve_exact(cost, quota, engine=solver)
    if positions is None:
        positions = substream(47, "pos").uniform(0.0, 100.0,
                                                 size=(cost.shape[0], 2))
    return heuristic_assign(cost, positions, quota, substream(47, "h"))


SOLVERS = ["heuristic", "dfs", "milp"]


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("shape, quota", [
    ((4, 6, 2), (2, 2)),            # more inflicting than suffering SAPs
    ((6, 4, 2), (3, 3)),            # fewer
    ((4, 4), (2, 2)),               # no subset axis
])
def test_solvers_reject_misshaped_costs(solver, shape, quota):
    cost = substream(47, "shape").uniform(0.0, 1000.0, size=shape)
    with pytest.raises(ConfigurationError, match=r"shaped \(K, K, L\)"):
        _solve_with(solver, cost, quota)


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("quota", [(5, -1), (-1, 5), (3.7, 2.2)])
def test_solvers_reject_bad_quota_entries(solver, quota):
    # the sums (4, 4 and 5.9, truncating to 5) alone would not tell
    k_count = 5 if isinstance(quota[0], float) else 4
    cost = build_cost_tensor(k_count, 2, substream(47, "quota"))
    with pytest.raises(ConfigurationError, match="quota entry"):
        _solve_with(solver, cost, quota)


@pytest.mark.parametrize("rows", [4, 9])
def test_heuristic_rejects_misshaped_positions(rows):
    cost = build_cost_tensor(6, 2, substream(47, "pos-cost"))
    positions = substream(47, "pos-rows").uniform(0.0, 100.0, size=(rows, 2))
    with pytest.raises(ConfigurationError, match="positions"):
        _solve_with("heuristic", cost, (3, 3), positions)


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

@pytest.mark.parametrize("sizes, subsets, instances", [
    ([1], 1, 2), ([0], 1, 2),       # the exact objective is 0
    ([3], 0, 2),                    # no subset to split the SAPs over
    ([8], 4, 0),                    # no instance to average
    ([8, 1], 4, 2),                 # one bad size fails the whole call
    ([], 4, 2),                     # no size: an empty table
])
def test_benchmark_gap_rejects_degenerate_input(sizes, subsets, instances):
    with pytest.raises(ConfigurationError, match="gap benchmark needs"):
        benchmark_gap(sizes, subsets, instances, master_seed=1)


@pytest.mark.parametrize("sizes, subsets, instances", [
    ([8, 2.5], 1, 2), ([8], 2.5, 2), ([8], 1, 2.5), ([8], True, 2),
])
def test_benchmark_gap_rejects_non_integer_counts(sizes, subsets, instances):
    # a non-integer count would fail deep inside the run, or not at all
    with pytest.raises(ConfigurationError, match="must be an integer"):
        benchmark_gap(sizes, subsets, instances, master_seed=1)


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
