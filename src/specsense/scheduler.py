"""Min-max assignment of sensing subsets to SAPs.

``cost[j, k, l]`` is the cost SAP k inflicts on SAP j when k is assigned
subset l; the diagonal j == k is zero. An assignment maps every SAP to one
subset under per-subset quotas. Its objective is the worst per-subset load,
where the load of subset l sums the total inflicted cost of every SAP
assigned to l. The exact solvers minimize that objective; the clustered
heuristic approximates it in polynomial time.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError

DFS_SAP_LIMIT = 20


@dataclass(frozen=True)
class Assignment:
    """Subset choice per SAP: ``subset_of_sap[k]`` is the subset SAP k senses."""

    subset_of_sap: np.ndarray  # (K,) int

    @property
    def sap_count(self):
        return self.subset_of_sap.shape[0]

    def counts(self, subset_count):
        return np.bincount(self.subset_of_sap, minlength=subset_count)

    def sensing_mask(self, plan):
        """Bool (K, M): True where SAP k's subset contains channel m."""
        return (plan.subset_of_channel[None, :]
                == self.subset_of_sap[:, None])

    def validate(self, quota):
        got = tuple(self.counts(len(quota)))
        if got != tuple(quota):
            raise ConfigurationError(f"assignment counts {got} violate quota {tuple(quota)}")


def build_cost_tensor(sap_count, subset_count, rng, cost_range=(0.0, 1000.0)):
    """Random cost tensor with i.i.d. uniform off-diagonal entries."""
    lo, hi = cost_range
    if hi < lo:
        raise ConfigurationError("cost_range upper bound below lower bound")
    cost = rng.uniform(lo, hi, size=(sap_count, sap_count, subset_count))
    idx = np.arange(sap_count)
    cost[idx, idx, :] = 0.0
    return cost


def cost_from_reference_powers(reference_powers, subset_count, penalty_factor=1e6):
    """Cost tensor from neighbor reference powers: weak links cost more.

    Off-neighborhood pairs (zero reference power) get a penalty far above any
    real cost so the heuristic avoids grouping SAPs that cannot hear each
    other. The cost of a pair is the same for every subset.
    """
    p = np.asarray(reference_powers, dtype=float)
    k_count = p.shape[0]
    with np.errstate(divide="ignore"):
        base = np.where(p > 0, 1.0 / p, np.inf)
    finite = base[np.isfinite(base)]
    ceiling = (finite.max() if finite.size else 1.0) * penalty_factor
    base = np.where(np.isfinite(base), base, ceiling)
    np.fill_diagonal(base, 0.0)
    return np.repeat(base[:, :, None], subset_count, axis=2)


def column_sums(cost):
    """Total cost SAP k inflicts on the others under subset l, shape (K, L)."""
    return cost.sum(axis=0)


def objective_value(cost, assignment):
    """Worst per-subset load of an assignment (lower is better)."""
    a = assignment.subset_of_sap if isinstance(assignment, Assignment) else np.asarray(assignment)
    colsum = column_sums(cost)
    loads = np.zeros(cost.shape[2])
    np.add.at(loads, a, colsum[np.arange(a.shape[0]), a])
    return float(loads.max())


def pick_min_cost_sap(cost, cluster_ids, l):
    """The cluster member whose assignment to l costs the cluster least.

    Ties break toward the smallest SAP id.
    """
    ids = np.sort(np.asarray(cluster_ids, dtype=int))
    sub = cost[np.ix_(ids, ids)][:, :, l]
    return int(ids[np.argmin(sub.sum(axis=0))])


# ---------------------------------------------------------------------------
# Clustering for the heuristic
# ---------------------------------------------------------------------------

def cluster_saps(positions, n_clusters, rng, max_iter=100, tol=1e-6):
    """Lloyd k-means with k-means++ seeding; returns a label per position.

    Every cluster ends up non-empty (empty clusters steal the point farthest
    from its current centroid), which the assignment loop depends on.
    """
    pts = np.asarray(positions, dtype=float)
    n = pts.shape[0]
    if n_clusters < 1 or n_clusters > n:
        raise ConfigurationError("need 1 <= n_clusters <= point count")
    if n_clusters == 1:
        return np.zeros(n, dtype=int)
    if n_clusters == n:
        return np.arange(n, dtype=int)

    # k-means++ seeding
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
        # a steal can empty a singleton cluster (co-located points); refill
        # any such cluster from the largest one so no centroid goes NaN
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


# ---------------------------------------------------------------------------
# Clustered assignment heuristic
# ---------------------------------------------------------------------------

def _assign_once(cost, positions, quota, order, rng):
    k_count = cost.shape[0]
    a = np.full(k_count, -1, dtype=int)
    remaining = np.arange(k_count)
    for l in order:
        q = quota[l]
        if q == 0:
            continue
        labels = cluster_saps(positions[remaining], q, rng)
        chosen = []
        for c in range(q):
            cluster = remaining[labels == c]
            chosen.append(pick_min_cost_sap(cost, cluster, l))
        a[chosen] = l
        remaining = remaining[a[remaining] < 0]
    return a


def heuristic_assign(cost, positions, quota, rng, restarts=8):
    """Clustered greedy assignment, best of ``restarts`` randomized passes.

    Each pass visits the subsets in a random order; for each subset it splits
    the still-unassigned SAPs into quota-many spatial clusters and takes the
    cheapest SAP of each cluster. Restart r always consumes the r-th spawned
    stream, so growing ``restarts`` can only improve the returned objective.
    """
    quota = tuple(int(q) for q in quota)
    k_count = cost.shape[0]
    l_count = cost.shape[2]
    if len(quota) != l_count:
        raise ConfigurationError("quota length must match cost subset axis")
    if sum(quota) != k_count:
        raise ConfigurationError("quota must sum to the SAP count")
    if restarts < 1:
        raise ConfigurationError("restarts must be >= 1")
    positions = np.asarray(positions, dtype=float)

    best_a = None
    best_obj = np.inf
    for child in rng.spawn(restarts):
        order = child.permutation(l_count)
        a = _assign_once(cost, positions, quota, order, child)
        obj = objective_value(cost, a)
        if obj < best_obj:
            best_obj = obj
            best_a = a
    assignment = Assignment(best_a)
    assignment.validate(quota)
    return assignment, best_obj


# ---------------------------------------------------------------------------
# Exact solvers
# ---------------------------------------------------------------------------

def _solve_dfs(colsum, quota):
    k_count, l_count = colsum.shape
    # visit subsets in decreasing order of their cheapest possible load so
    # the running max is pinned early and pruning bites
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
    return a, float(best["obj"])


def _solve_milp(colsum, quota):
    from scipy.optimize import Bounds, LinearConstraint, milp

    k_count, l_count = colsum.shape
    n = k_count * l_count + 1  # x[k, l] flattened, then the max-load variable

    c = np.zeros(n)
    c[-1] = 1.0

    rows = []
    for l in range(l_count):
        row = np.zeros(n)
        for k in range(k_count):
            row[k * l_count + l] = colsum[k, l]
        row[-1] = -1.0
        rows.append(LinearConstraint(row, -np.inf, 0.0))
    for k in range(k_count):
        row = np.zeros(n)
        row[k * l_count:(k + 1) * l_count] = 1.0
        rows.append(LinearConstraint(row, 1.0, 1.0))
    for l in range(l_count):
        row = np.zeros(n)
        for k in range(k_count):
            row[k * l_count + l] = 1.0
        rows.append(LinearConstraint(row, quota[l], quota[l]))

    integrality = np.ones(n)
    integrality[-1] = 0
    ub = np.ones(n)
    ub[-1] = np.inf
    res = milp(c, constraints=rows, integrality=integrality,
               bounds=Bounds(0.0, ub),
               options={"mip_rel_gap": 0.0})
    if not res.success:
        raise RuntimeError(f"milp solve failed: {res.message}")
    x = res.x[:-1].reshape(k_count, l_count)
    return x.argmax(axis=1), None


def solve_exact(cost, quota, engine="auto"):
    """Optimal assignment under the min-max objective.

    ``dfs`` is a pure-python branch and bound, practical to K=20;
    ``milp`` hands the standard mixed-integer formulation to scipy/HiGHS.
    ``auto`` picks dfs for small instances and milp beyond.
    """
    quota = tuple(int(q) for q in quota)
    k_count, _, l_count = cost.shape
    if len(quota) != l_count:
        raise ConfigurationError("quota length must match cost subset axis")
    if sum(quota) != k_count:
        raise ConfigurationError("quota must sum to the SAP count")
    colsum = column_sums(cost)

    if engine == "auto":
        engine = "dfs" if k_count <= DFS_SAP_LIMIT else "milp"
    if engine == "dfs":
        if k_count > DFS_SAP_LIMIT:
            raise ConfigurationError(
                f"dfs engine capped at {DFS_SAP_LIMIT} SAPs; use engine='milp'")
        a, obj = _solve_dfs(colsum, quota)
    elif engine == "milp":
        a, _ = _solve_milp(colsum, quota)
    else:
        raise ConfigurationError(f"unknown engine {engine!r}")
    assignment = Assignment(a)
    assignment.validate(quota)
    return assignment, objective_value(cost, assignment)


# ---------------------------------------------------------------------------
# Heuristic-vs-exact benchmark
# ---------------------------------------------------------------------------

def benchmark_gap(sap_counts, subset_count, instances, master_seed,
                  restarts=1, cost_range=(0.0, 1000.0), region_m=500.0):
    """Mean optimality gap of the heuristic per SAP count.

    Defaults to single-pass (restarts=1), which measures the raw clustered
    construction; best-of-N restarts compress the gap much faster on small
    instances and so mask the size trend.

    Returns one row per entry of ``sap_counts``:
    {sap_count, mean_gap_pct, std_gap_pct, mean_exact, mean_heuristic, instances}.
    """
    from .model import uniform_quota
    from .seeding import substream

    rows = []
    for k_count in sap_counts:
        quota = uniform_quota(subset_count, k_count)
        gaps = np.zeros(instances)
        exacts = np.zeros(instances)
        heurs = np.zeros(instances)
        for i in range(instances):
            rng = substream(master_seed, "gap", k_count, i)
            cost = build_cost_tensor(k_count, subset_count, rng, cost_range)
            positions = rng.uniform(0.0, region_m, size=(k_count, 2))
            _, h_obj = heuristic_assign(cost, positions, quota,
                                        substream(master_seed, "gap-restarts", k_count, i),
                                        restarts)
            _, e_obj = solve_exact(cost, quota)
            exacts[i] = e_obj
            heurs[i] = h_obj
            gaps[i] = 100.0 * (h_obj - e_obj) / e_obj
        rows.append({
            "sap_count": int(k_count),
            "mean_gap_pct": float(gaps.mean()),
            "std_gap_pct": float(gaps.std(ddof=1)) if instances > 1 else 0.0,
            "mean_exact": float(exacts.mean()),
            "mean_heuristic": float(heurs.mean()),
            "instances": int(instances),
        })
    return rows
