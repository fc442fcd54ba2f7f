"""Min-max assignment of sensing subsets to SAPs.

``cost[j, k, l]`` is the cost SAP k inflicts on SAP j when k is assigned
subset l; the diagonal j == k is zero. An assignment maps every SAP to one
subset under per-subset quotas. Its objective is the worst per-subset load,
where the load of subset l sums the total inflicted cost of every SAP
assigned to l. The exact solvers minimize that objective; the clustered
heuristic approximates it in polynomial time.
"""

from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, check_integer, uniform_quota
from .seeding import substream

DFS_SAP_LIMIT = 20


@dataclass(frozen=True)
class Assignment:
    """Subset choice per SAP: ``subset_of_sap[k]`` is the subset SAP k senses."""

    subset_of_sap: np.ndarray  # (K,) int

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


def build_cost_tensor(sap_count, subset_count, rng):
    """Random cost tensor with i.i.d. off-diagonal entries uniform on [0, 1000)."""
    cost = rng.uniform(0.0, 1000.0, size=(sap_count, sap_count, subset_count))
    idx = np.arange(sap_count)
    cost[idx, idx, :] = 0.0
    return cost


def cost_from_reference_powers(reference_powers, subset_count):
    """Cost tensor from neighbor reference powers: weak links cost more.

    Off-neighborhood pairs (zero reference power) cost 1e6 times the largest
    real cost, so the heuristic avoids grouping SAPs that cannot hear each
    other. The cost of a pair is the same for every subset.
    """
    p = np.asarray(reference_powers, dtype=float)
    k_count = p.shape[0]
    with np.errstate(divide="ignore"):
        base = np.where(p > 0, 1.0 / p, np.inf)
    finite = base[np.isfinite(base)]
    ceiling = (finite.max() if finite.size else 1.0) * 1e6
    base = np.where(np.isfinite(base), base, ceiling)
    np.fill_diagonal(base, 0.0)
    return np.repeat(base[:, :, None], subset_count, axis=2)


def column_sums(cost):
    """Total cost SAP k inflicts on the others under subset l, shape (K, L)."""
    return cost.sum(axis=0)


def _checked_problem(cost, quota):
    """``(quota as ints, column_sums(cost))``, or ConfigurationError for a
    cost not shaped (K, K, L), a quota entry not an integer >= 0, a quota
    not of length L or not summing to K, or a negative, NaN or infinite
    cost or an overflowing sum (rejected, not warned about)."""
    if cost.ndim != 3 or cost.shape[0] != cost.shape[1]:
        raise ConfigurationError(f"cost must be shaped (K, K, L), not {cost.shape}")
    quota = tuple(check_integer("quota entry", q, 0) for q in quota)
    if len(quota) != cost.shape[2]:
        raise ConfigurationError("quota length must match cost subset axis")
    if sum(quota) != cost.shape[0]:
        raise ConfigurationError("quota must sum to the SAP count")
    with np.errstate(over="ignore"):
        colsum = column_sums(cost)
    if not ((cost >= 0.0).all() and np.isfinite(colsum).all()):
        raise ConfigurationError("costs must be finite and nonnegative")
    return quota, colsum


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
    return int(_pick_per_cluster(cost, ids, np.zeros(ids.size, dtype=int), l)[0])


def _pick_per_cluster(cost, ids, labels, l):
    """``pick_min_cost_sap`` for every cluster at once, (C,) SAP ids.

    ``ids`` are ascending SAP ids and ``labels[i]`` the cluster of
    ``ids[i]``, every label in 0..C-1 used. Non-members add exact zeros to
    a member's column sum, which runs over the ids in ascending order as a
    per-cluster sum does, so the sums are bit-equal. The stable lexsort
    breaks cost ties toward the smallest id.
    """
    same = labels[:, None] == labels
    inflicted = np.where(same, cost[ids[:, None], ids, l], 0.0).sum(axis=0)
    order = np.lexsort((inflicted, labels))
    first = np.searchsorted(labels[order], np.arange(labels[order[-1]] + 1))
    return ids[order[first]]


# ---------------------------------------------------------------------------
# Clustering for the heuristic
# ---------------------------------------------------------------------------

def cluster_saps(positions, n_clusters, rng):
    """Lloyd k-means with k-means++ seeding; returns a label per position.

    Lloyd steps stop once no centroid moves by 1e-6, or after 100 steps.
    Every cluster ends up non-empty (empty clusters steal the point farthest
    from its current centroid), which the assignment loop depends on. A
    Lloyd step takes a fixed number of array calls whatever the cluster
    count; the empty-cluster repair runs only when a cluster is empty.
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
            # rng.choice(n, p=d2 / total)'s own draw, without its checks
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            centers[c] = pts[cdf.searchsorted(rng.random(), side="right")]
        d2 = np.minimum(d2, ((pts - centers[c]) ** 2).sum(axis=1))

    coords = pts.T.copy()                       # (2, n): x row, y row
    labels = np.zeros(n, dtype=int)
    for _ in range(100):
        dist = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = dist.argmin(axis=1)
        counts = np.bincount(labels, minlength=n_clusters)
        if not counts.all():
            for c in range(n_clusters):
                if not (labels == c).any():
                    spread = dist[np.arange(n), labels]
                    labels[spread.argmax()] = c
                    dist[spread.argmax(), :] = 0.0
            # a steal can empty a singleton cluster (co-located points);
            # refill any such cluster from the largest one so no centroid
            # goes NaN
            for c in np.flatnonzero(
                    np.bincount(labels, minlength=n_clusters) == 0):
                largest = np.bincount(labels, minlength=n_clusters).argmax()
                labels[np.flatnonzero(labels == largest)[-1]] = c
            counts = np.bincount(labels, minlength=n_clusters)
        # a weighted bincount adds each cluster's points in index order, as
        # the masked mean(axis=0) does, so the centroids are bit-equal to it
        new_centers = np.array([np.bincount(labels, weights=c,
                                            minlength=n_clusters)
                                for c in coords]).T / counts[:, None]
        shift = np.abs(new_centers - centers).max()
        centers = new_centers
        if shift < 1e-6:
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
        a[_pick_per_cluster(cost, remaining, labels, l)] = l
        remaining = remaining[a[remaining] < 0]
    return a


def heuristic_assign(cost, positions, quota, rng, restarts=8):
    """Clustered greedy assignment, best of ``restarts`` randomized passes.

    Each pass visits the subsets in a random order; for each subset it splits
    the still-unassigned SAPs into quota-many spatial clusters and takes the
    cheapest SAP of each cluster (``pick_min_cost_sap``), all clusters in one
    pass over the unassigned SAPs' cost block. Restart r always consumes the
    r-th spawned stream, so growing ``restarts`` can only improve the
    returned objective. Returns ``(assignment, objective)``. Inputs are
    checked as for ``solve_exact``, and positions must be shaped (K, 2).
    """
    quota, _ = _checked_problem(cost, quota)
    k_count, _, l_count = cost.shape
    restarts = check_integer("restarts", restarts, 1)
    positions = np.asarray(positions, dtype=float)
    if positions.shape != (k_count, 2):
        raise ConfigurationError("positions must be shaped (K, 2)")

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

def _greedy_load(colsum, quota):
    """Objective of a feasible assignment: a greedy one, swap-polished.

    The greedy places the costliest SAP (by its cheapest column) first, each
    on the open subset it loads least. While one exists, the polish then
    takes the swap of a SAP in the most loaded subset with a SAP elsewhere
    that leaves both subsets below the top load, the larger of the two
    least, so the objective never rises. The returned load is re-summed.
    """
    k_count, l_count = colsum.shape
    rows = colsum.tolist()
    load = [0.0] * l_count
    room = list(quota)
    a = [0] * k_count
    for k in sorted(range(k_count), key=lambda k: -min(rows[k])):
        row, least = rows[k], np.inf
        for l in range(l_count):
            if room[l] and load[l] + row[l] < least:
                least, pick = load[l] + row[l], l
        load[pick] = least
        room[pick] -= 1
        a[k] = pick
    for _ in range(k_count * l_count):
        top = load.index(max(load))
        # a SAP y entering ``top`` from subset l leaves l at rest + x's cost
        inside, outside = [], []
        for y, l in enumerate(a):
            if l == top:
                inside.append(y)
            else:
                outside.append((y, l, load[l] - rows[y][l], rows[y][top]))
        least, swap = load[top], None
        for x in inside:
            row = rows[x]
            base = load[top] - row[top]
            for y, l, rest, cost in outside:
                t = base + cost
                if t < least:
                    o = rest + row[l]
                    if o < least:
                        least, swap = (t if t > o else o), (x, y, l, t, o)
        if swap is None:
            break
        x, y, l, load[top], load[l] = swap
        a[x], a[y] = l, top
    load = [0.0] * l_count
    for k, l in enumerate(a):
        load[l] += rows[k][l]
    return max(load)


def _solve_dfs(colsum, quota):
    from itertools import compress
    from math import inf, nextafter

    k_count, l_count = colsum.shape
    # visit subsets in decreasing order of their cheapest possible load so
    # the running max is pinned early and pruning bites
    lbs = [np.sort(colsum[:, l])[:q].sum() if q else 0.0
           for l, q in enumerate(quota)]
    subset_order = [l for l in sorted(range(l_count), key=lambda l: -lbs[l])
                    if quota[l]]
    cols = colsum.T.tolist()
    # Each subset's SAPs are ranked once, by cost with ties to the smaller
    # id, as a stable sort of any ascending pool ranks them; the pool is the
    # ``free`` flags, so a depth's candidates are its ranking filtered.
    ranks = np.argsort(colsum, axis=0, kind="stable").T.tolist()
    free = [True] * k_count
    # Twins (equal columns and quotas) swapping SAP sets leave the loads as
    # they were, and the DFS reaches first the leaf whose earlier twin has
    # the lower-ranked first SAP: a twin draws past its previous twin's.
    keys = [(quota[l], cols[l]) for l in subset_order]
    twin = [max((e for e in range(d) if keys[e] == key), default=-1)
            for d, key in enumerate(keys)]
    first = [0] * len(keys)  # the lowest-ranked SAP each depth chose
    a = [-1] * k_count       # entries go stale as SAPs are freed, but a
    best_a = list(a)         # leaf has chosen every SAP on its path
    # mins[d][k]: SAP k's cheapest column among the subsets from depth d on
    mins = np.minimum.accumulate(colsum.T[subset_order[::-1]]).tolist()[::-1]
    # The warm start enters a hair above its objective and is never
    # returned: the first leaf below it, and then the first minimal leaf in
    # visit order, still replace it under the strict ``<``, and a leaf that
    # ties it is not cut, however its load rounds in another summation order.
    best_obj = nextafter(_greedy_load(colsum, quota) * (1 + 1e-9), inf)

    # The subsets from ``depth`` on must absorb every free SAP, so their
    # max load is at least their mean, which is at least the free SAPs'
    # cheapest columns summed over their count. That sum rounds in another
    # order than any leaf's loads, so it cuts only past the incumbent by a
    # relative 1e-9, far above the rounding of a 20-term sum. With one
    # subset left, ``bound_reached`` already checks its exact load.
    def averaged_out(depth):
        rest = len(subset_order) - depth
        return (rest > 1 and sum(compress(mins[depth], free)) / rest
                >= best_obj * (1 + 1e-9))

    # Loads add left to right from 0.0 (the builtin sum() compensates float
    # sums from Python 3.12 on), so a subset's bound is exactly the load of
    # its q cheapest free SAPs; one bound at the incumbent cuts the node.
    def bound_reached(depth):
        for l in subset_order[depth:]:
            col, q, load = cols[l], quota[l], 0.0
            for k in ranks[l]:
                if free[k]:
                    load += col[k]
                    q -= 1
                    if not q:
                        break
            if load >= best_obj:
                return True
        return False

    def recurse(depth, cur_max):
        nonlocal best_obj, best_a
        if depth == len(subset_order):
            if cur_max < best_obj:    # the first minimal leaf in visit order
                best_obj = cur_max
                best_a = list(a)
            return
        l = subset_order[depth]
        q = quota[l]
        rank = ranks[l]
        if twin[depth] >= 0:
            rank = rank[rank.index(first[twin[depth]]) + 1:]
        order = [k for k in rank if free[k]]
        vals = [cols[l][k] for k in order]
        n = len(order)

        # Size-q combinations of ``order`` in lexicographic order, with
        # prefix load s. Break once max(cur_max, s + vals[i] + ... +
        # vals[i+q-j-1]), the cheapest completion, reaches the incumbent:
        # rounded addition is monotone in each operand and ``vals``
        # ascends, so every later candidate and every combination through
        # this one loads at least as much, and the incumbent only falls.
        def pick(start, j, s):
            for i in range(start, n - q + j + 1):
                load = s
                for t in range(i, i + q - j):
                    load += vals[t]
                node_max = load if load > cur_max else cur_max
                if node_max >= best_obj:
                    break
                k = order[i]
                free[k] = False
                a[k] = l
                if not j:
                    first[depth] = k
                if j + 1 < q:
                    pick(i + 1, j + 1, s + vals[i])
                elif not (averaged_out(depth + 1)
                          or bound_reached(depth + 1)):
                    recurse(depth + 1, node_max)
                free[k] = True

        pick(0, 0, 0.0)

    recurse(0, 0.0)
    return np.array(best_a, dtype=int)


def _solve_milp(colsum, quota):
    """One mixed-integer program over x[k, l] row-major, then the max load t.

    Its one constraint matrix holds the L load rows (load - t <= 0), then
    the K one-subset-per-SAP rows, then the L quota rows."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    k_count, l_count = colsum.shape
    n = k_count * l_count + 1
    eye = np.eye(l_count)
    a = np.zeros((2 * l_count + k_count, n))
    # load row l holds colsum[k, l] at x[k, l] for every k
    a[:l_count, :-1] = (eye[:, None, :] * colsum.T[:, :, None]).reshape(l_count, -1)
    a[:l_count, -1] = -1.0
    a[l_count:l_count + k_count, :-1] = np.repeat(np.eye(k_count), l_count, axis=1)
    a[l_count + k_count:, :-1] = np.tile(eye, k_count)
    lower = np.concatenate([np.full(l_count, -np.inf), np.ones(k_count), quota])
    upper = np.concatenate([np.zeros(l_count), np.ones(k_count), quota])

    res = milp(np.append(np.zeros(n - 1), 1.0),         # minimize t
               constraints=LinearConstraint(a, lower, upper),
               integrality=np.append(np.ones(n - 1), 0),
               bounds=Bounds(0.0, np.append(np.ones(n - 1), np.inf)),
               options={"mip_rel_gap": 0.0})
    if not res.success:
        raise RuntimeError(f"milp solve failed: {res.message}")
    return res.x[:-1].reshape(k_count, l_count).argmax(axis=1)


def solve_exact(cost, quota, engine="auto"):
    """Optimal assignment under the min-max objective.

    ``dfs`` is a pure-python branch and bound, practical to K=20. It ranks
    each subset's SAPs once, keeps the pool as free flags, lets twin subsets
    (equal columns and quotas) take SAP sets in rank order only, and returns
    the first minimal leaf in visit order. It starts from a warm incumbent,
    a greedy assignment (costliest SAP first, to the open subset it loads
    least) polished by load-lowering swaps, entered a hair above its
    objective so that the search's own leaves replace it. Once a subset's
    SAPs are chosen, two bounds can cut the node: a remaining subset's
    cheapest load reaching the incumbent, or (load balancing) the free
    SAPs' cheapest columns, summed and divided by the remaining subsets'
    count, passing it by a relative 1e-9. ``milp`` hands the standard
    mixed-integer formulation to scipy/HiGHS. ``auto`` picks dfs for small
    instances and milp beyond. ``_checked_problem`` validates the problem.
    """
    quota, colsum = _checked_problem(cost, quota)
    k_count = cost.shape[0]

    if engine == "auto":
        engine = "dfs" if k_count <= DFS_SAP_LIMIT else "milp"
    if engine == "dfs":
        if k_count > DFS_SAP_LIMIT:
            raise ConfigurationError(
                f"dfs engine capped at {DFS_SAP_LIMIT} SAPs; use engine='milp'")
        a = _solve_dfs(colsum, quota)
    elif engine == "milp":
        a = _solve_milp(colsum, quota)
    else:
        raise ConfigurationError(f"unknown engine {engine!r}")
    assignment = Assignment(a)
    assignment.validate(quota)
    return assignment, objective_value(cost, assignment)


# ---------------------------------------------------------------------------
# Heuristic-vs-exact benchmark
# ---------------------------------------------------------------------------

def benchmark_gap(sap_counts, subset_count, instances, master_seed,
                  restarts=1):
    """Mean optimality gap of the heuristic per SAP count.

    Each instance draws ``build_cost_tensor`` costs and SAP positions
    uniform on a 500 m square. Defaults to single-pass (restarts=1), which
    measures the raw clustered construction; best-of-N restarts compress
    the gap much faster on small instances and so mask the size trend.

    Returns one row per entry of ``sap_counts``:
    {sap_count, mean_gap_pct, std_gap_pct, mean_exact, mean_heuristic, instances}.
    Empty sizes, a size < 2, or zero subsets or instances: ConfigurationError.
    """
    sap_counts = [check_integer("sap count", k) for k in sap_counts]
    subset_count = check_integer("subset_count", subset_count)
    instances = check_integer("instances", instances)
    if min(sap_counts, default=0) < 2 or subset_count < 1 or instances < 1:
        raise ConfigurationError(
            "gap benchmark needs sizes >= 2, subsets >= 1 and instances >= 1")
    rows = []
    for k_count in sap_counts:
        quota = uniform_quota(subset_count, k_count)
        gaps = np.zeros(instances)
        exacts = np.zeros(instances)
        heurs = np.zeros(instances)
        for i in range(instances):
            rng = substream(master_seed, "gap", k_count, i)
            cost = build_cost_tensor(k_count, subset_count, rng)
            positions = rng.uniform(0.0, 500.0, size=(k_count, 2))
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
