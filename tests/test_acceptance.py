"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The checks are property- and trend-based at desk scale. Stated tolerances:

* objective comparisons allow 1e-9 relative slack for float accumulation;
* Monte-Carlo utilization curves may dip by at most 0.005 between adjacent
  thresholds (sampling noise at 200 realizations);
* ordering checks between schemes allow -1e-9 absolute slack;
* each criterion also enforces its wall-clock budget.
"""

import time
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from specsense.baselines import genie, run_scheme
from specsense.diffusion import DiffusionParams, neighbor_slots, run_diffusion
from specsense.harness import (Campaign, calibrate_campaign, generate_scenario,
                               read_results_csv, run_campaign, run_realization)
from specsense.metrics import (correct_decision_pct, misdetection_probability,
                               utilization_ratio)
from specsense.model import build_grid_topology, uniform_quota
from specsense.propagation import (compute_ground_truth, dbm_to_norm,
                                   estimation_noise, generate_measurements,
                                   noise_floor_dbm, realize_links)
from specsense.scheduler import (benchmark_gap, build_cost_tensor,
                                 heuristic_assign, pick_min_cost_sap,
                                 solve_exact)
from specsense.seeding import substream


def _report(capsys, num, label, ok, detail, t0, budget_s):
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if ok and elapsed < budget_s else "FAIL"
    with capsys.disabled():
        print(f"[{verdict}] criterion {num} ({label}): {detail} "
              f"[{elapsed:.1f}s / budget {budget_s:.0f}s]")
    assert ok, f"criterion {num} ({label}): {detail}"
    assert elapsed < budget_s, f"criterion {num} over budget: {elapsed:.1f}s"


def test_criterion_1_scheduler_matches_oracles(capsys):
    t0 = time.perf_counter()
    # 200 random instances: the heuristic is always feasible and never beats
    # the exact optimum (1e-9 relative slack)
    worst = 0.0
    for i in range(200):
        rng = substream(101, "c1", i)
        k = int(rng.integers(2, 13))
        l = int(rng.integers(1, min(4, k) + 1))
        quota = uniform_quota(l, k)
        cost = build_cost_tensor(k, l, rng)
        positions = rng.uniform(0.0, 500.0, size=(k, 2))
        assignment, h_obj = heuristic_assign(cost, positions, quota, rng)
        assignment.validate(quota)
        _, e_obj = solve_exact(cost, quota)
        slack = 1e-9 * max(1.0, abs(e_obj))
        assert h_obj >= e_obj - slack, f"instance {i}: {h_obj} < {e_obj}"
        worst = max(worst, (e_obj - h_obj) / max(1.0, abs(e_obj)))

    # 1000 random clusters: the greedy pick agrees with exhaustive search
    for i in range(1000):
        rng = substream(101, "c1pick", i)
        cost = build_cost_tensor(12, 4, rng)
        size = int(rng.integers(1, 9))
        ids = sorted(int(x) for x in rng.choice(12, size=size, replace=False))
        l = int(rng.integers(0, 4))
        best, best_total = None, np.inf
        for j in ids:
            total = sum(cost[i2, j, l] for i2 in ids)
            if total < best_total:
                best, best_total = j, total
        assert pick_min_cost_sap(cost, ids, l) == best

    _report(capsys, 1, "scheduler vs oracles", True,
            "200 instances heuristic >= exact, 1000 cluster picks exact, "
            f"worst relative shortfall {worst:.2e}", t0, 60.0)


def test_criterion_2_heuristic_gap_trend(capsys):
    t0 = time.perf_counter()
    rows = benchmark_gap([8, 12, 16, 20], 4, 300, master_seed=7, restarts=1)
    gaps = [r["mean_gap_pct"] for r in rows]
    ok = all(gaps[i + 1] <= gaps[i] + 1e-9 for i in range(len(gaps) - 1))
    detail = ("mean gap % " +
              " -> ".join(f"{g:.2f}" for g in gaps) +
              " over K=8,12,16,20 (300 instances each, single pass)")
    _report(capsys, 2, "gap trend nonincreasing", ok, detail, t0, 60.0)


def test_criterion_3_diffusion_invariants(capsys):
    t0 = time.perf_counter()
    params = DiffusionParams(iterations=120)
    rng = substream(103, "c3")
    k_count, m_count = 6, 4
    adjacency = np.eye(k_count, dtype=bool)
    adjacency |= rng.uniform(size=(k_count, k_count)) < 0.45
    adjacency &= adjacency.T
    mask = rng.uniform(size=(k_count, m_count)) < 0.6
    p_hat = np.where(adjacency & ~np.eye(k_count, dtype=bool),
                     rng.uniform(0.1, 2.0, size=(k_count, k_count)), 0.0)
    y = rng.uniform(0.05, 3.0, size=(k_count, m_count, 120))

    audited = []
    # slot s of SAP k is its s-th neighbor; padded slots hold k itself
    nbr, valid = neighbor_slots(adjacency)
    for k in range(k_count):
        assert list(nbr[valid[:, k], k]) == list(np.flatnonzero(adjacency[k]))
    assert (nbr[~valid] == np.nonzero(~valid)[1]).all()

    def audit(i, alpha, beta, has_informative):
        assert (alpha >= 0.0).all() and (beta >= 0.0).all()
        np.testing.assert_allclose(alpha.sum(axis=0), 1.0, atol=1e-9)
        # no weight off the graph: padded slots carry none
        assert not alpha[~valid].any() and not beta[~valid].any()
        covered = ~mask & has_informative
        np.testing.assert_allclose(beta.sum(axis=0)[covered], 1.0, atol=1e-9)
        audited.append(i)

    run_diffusion(y, mask, p_hat, adjacency, params, audit=audit)
    assert len(audited) == 120

    # locality: a disconnected component never feels the other one
    adj2 = np.zeros((4, 4), dtype=bool)
    adj2[:2, :2] = True
    adj2[2:, 2:] = True
    p2 = np.where(adj2 & ~np.eye(4, dtype=bool), 1.0, 0.0)
    m2 = np.ones((4, 2), dtype=bool)
    y2 = rng.uniform(0.1, 2.0, size=(4, 2, 120))
    y2b = y2.copy()
    y2b[2:] *= 7.0
    w_a = run_diffusion(y2, m2, p2, adj2, params)
    w_b = run_diffusion(y2b, m2, p2, adj2, params)
    assert np.array_equal(w_a[:2], w_b[:2]) and not np.array_equal(w_a[2:],
                                                                   w_b[2:])

    # self-only reduction equals the scalar standalone recursion bit for bit
    y3 = rng.uniform(0.2, 2.5, size=(1, 1, 120))
    got = run_diffusion(y3, np.ones((1, 1), dtype=bool), np.zeros((1, 1)),
                        np.eye(1, dtype=bool), params)[0, 0]
    w = 0.0
    d = y3[0, 0, 0]
    for i in range(params.iterations):
        d = params.smoothing * d + (1.0 - params.smoothing) * y3[0, 0, i]
        w = w + params.step_size * y3[0, 0, i] * (d - y3[0, 0, i] * w)
    assert got == w

    # stability: with mu <= 1/y_max^2 weights stay in a unit-order box
    y_max = float(np.sqrt(1.0 / params.step_size))
    y4 = rng.uniform(0.0, y_max, size=(k_count, m_count, 120))
    # the weights after iteration i are a run on the first i + 1 slices
    bound = 2.0
    for i in range(params.iterations):
        w = run_diffusion(y4[:, :, :i + 1],
                          np.ones((k_count, m_count), dtype=bool), p_hat,
                          adjacency, replace(params, iterations=i + 1))
        assert np.isfinite(w).all() and w.max() <= bound and w.min() >= -1.0

    _report(capsys, 3, "diffusion invariants", True,
            "simplex within 1e-9 each of 120 iterations, locality bit-exact, "
            "self-only reduction exact, weights bounded", t0, 60.0)


def test_criterion_4_filter_discriminability(capsys):
    t0 = time.perf_counter()
    topo = build_grid_topology(3, 50.0, 75.0, 10.0)
    params = DiffusionParams()
    k_count, m_count, n_iter = topo.count, 2, params.iterations
    mask = np.ones((k_count, m_count), dtype=bool)
    p_hat = np.where(topo.adjacency & ~np.eye(k_count, dtype=bool), 0.5, 0.0)
    noise = dbm_to_norm(noise_floor_dbm(20e6, 7.0))
    level = np.array([10.0, noise])     # 10x the reference vs noise only
    hi, lo = [], []
    for run in range(200):
        u = substream(13, "disc", run).gamma(0.7, 1.0 / 0.7,
                                             size=(k_count, m_count, n_iter))
        # run_diffusion clamps the occupied channel's samples at sqrt(1/mu)
        w = run_diffusion(level[None, :, None] * u, mask, p_hat,
                          topo.adjacency, params)
        hi.append(w[:, 0].mean())
        lo.append(w[:, 1].mean())
    hi, lo = np.array(hi), np.array(lo)
    margin = hi.mean() - lo.mean()
    se = np.sqrt(hi.var(ddof=1) / hi.size + lo.var(ddof=1) / lo.size)
    ok = margin > 3.0 * se
    _report(capsys, 4, "occupied vs noise-only weights", ok,
            f"200 runs: mean w {hi.mean():.3f} vs {lo.mean():.5f}, "
            f"margin {margin:.3f} > 3*SE {3 * se:.5f}", t0, 120.0)


@pytest.fixture(scope="module")
def desk_sweep(tmp_path_factory):
    scenario = generate_scenario("small-grid", seed=5, side_count=5,
                                 incumbent_count=10)
    thresholds = tuple(float(t) for t in range(-82, -50, 2))
    campaign = Campaign(scenario=scenario, thresholds_dbm=thresholds,
                        realizations=200, calibration_runs=6,
                        noncoop_raw_energy=True)
    out = tmp_path_factory.mktemp("desk")
    t0 = time.perf_counter()
    results_path, _ = run_campaign(campaign, out)
    elapsed = time.perf_counter() - t0
    rows = read_results_csv(results_path)
    curves = defaultdict(dict)
    for r in rows:
        curves[(r["scheme"], r["metric"])][r["threshold_dbm"]] = r["mean"]
    return campaign, thresholds, curves, elapsed


def test_criterion_5_desk_scale_threshold_sweep(desk_sweep, capsys):
    campaign, thresholds, curves, elapsed = desk_sweep
    t0 = time.perf_counter() - elapsed      # include the shared campaign run

    def curve(scheme, metric):
        by_t = curves[(scheme, metric)]
        return np.array([np.nan if by_t[t] is None else by_t[t]
                         for t in thresholds])

    # (a) utilization nondecreasing in the threshold, dips <= 0.005 allowed
    dips = {}
    for scheme in campaign.schemes:
        u = curve(scheme, "utilization_ratio")
        steps = np.diff(u)
        worst = float(np.nanmin(steps)) if steps.size else 0.0
        dips[scheme] = worst
        assert worst >= -0.005, f"{scheme} utilization dips {worst:.4f}"

    # (b) cooperation never raises missed detections (multiband)
    pm = curve("proposed-multiband", "misdetection_probability")
    nm = curve("noncoop-multiband", "misdetection_probability")
    margins_b = nm - pm
    assert np.all(margins_b >= -1e-9), f"5b margins {np.round(margins_b, 4)}"

    # (c) cooperation never loses utilization (singleband)
    ps = curve("proposed-singleband", "utilization_ratio")
    ns = curve("noncoop-singleband", "utilization_ratio")
    assert np.all(ps - ns >= -1e-9), f"5c margins {np.round(ps - ns, 4)}"

    # (d) equal-gain combining is the most conservative at the lowest threshold
    lows = {s: curve(s, "utilization_ratio")[0] for s in campaign.schemes}
    floor = lows["centralized"]
    assert floor <= min(lows.values()) + 1e-9, f"5d lows {lows}"

    _report(capsys, 5, "desk-scale threshold sweep", True,
            f"200 realizations x 16 thresholds: worst dip "
            f"{min(dips.values()):.4f} (tol -0.005), min coop misdetection "
            f"margin {margins_b.min():.4f}, min coop utilization margin "
            f"{(ps - ns).min():.4f}, centralized lowest at -82 dBm "
            f"({floor:.3f})", t0, 600.0)


def test_criterion_6_centralized_verdict_and_genie(capsys):
    t0 = time.perf_counter()
    scenario = generate_scenario("small-grid", seed=5, side_count=5,
                                 incumbent_count=10)
    iterations = DiffusionParams().iterations
    seed = scenario.seed
    seen_util = seen_misd = 0
    for r in range(20):
        links = realize_links(scenario, substream(seed, "bands", r),
                              substream(seed, "shadow", r),
                              substream(seed, "fading", r))
        truth = compute_ground_truth(scenario, links)
        noise = estimation_noise(
            np.empty(truth.true_energy.shape + (iterations,)),
            scenario.propagation.estimate_shape, substream(seed, "estimate", r))
        frame = generate_measurements(truth, noise)
        busy = truth.busy_at(-62.0)

        dm = run_scheme("centralized", measurements=frame.y)
        assert dm.decided.all() and dm.busy.shape == (1,) + busy.shape
        [verdicts] = dm.busy
        assert (verdicts == verdicts[0]).all()    # one verdict per channel

        g = genie(busy)
        u = utilization_ratio(g, busy)
        md = misdetection_probability(g, busy)
        assert u in (None, 1.0) and md in (None, 0.0)
        assert correct_decision_pct(g, busy) == 100.0
        seen_util += u is not None
        seen_misd += md is not None
    ok = seen_util > 0 and seen_misd > 0
    _report(capsys, 6, "centralized verdict and genie", ok,
            "20 realizations: one shared verdict per channel; genie "
            f"utilization 1.0 ({seen_util} defined), misdetection 0 "
            f"({seen_misd} defined), correct 100%", t0, 60.0)


def test_criterion_7_device_scheduling_ordering(capsys):
    t0 = time.perf_counter()
    scenario = generate_scenario("large-synthetic", seed=5, sap_count=50,
                                 incumbent_count=100, total_bandwidth_hz=20e6,
                                 sap_bandwidth_hz=5e6, channelization="nb-iot",
                                 incumbent_bandwidth_hz=20e6)
    campaign = Campaign(scenario=scenario, realizations=50,
                        thresholds_dbm=(-62.0,),
                        schemes=("genie", "proposed-multiband",
                                 "proposed-singleband", "noncoop-singleband"),
                        device_count=10000, calibration_runs=6,
                        noncoop_raw_energy=True)
    lams = calibrate_campaign(campaign)
    sums = defaultdict(float)
    for r in range(campaign.realizations):
        _, res = run_realization(campaign, lams, r)
        for scheme in campaign.schemes:
            sums[scheme] += res[(scheme, -62.0, "scheduled_devices")]
    means = {s: sums[s] / campaign.realizations for s in campaign.schemes}
    ok = (means["proposed-singleband"] >= means["noncoop-singleband"] - 1e-9
          and means["proposed-multiband"] >= means["proposed-singleband"]
          - 1e-9)
    _report(capsys, 7, "scheduled-device ordering", ok,
            "50 realizations, 10k devices: mean scheduled "
            f"genie {means['genie']:.0f} >= multiband "
            f"{means['proposed-multiband']:.0f} >= assigned "
            f"{means['proposed-singleband']:.0f} >= standalone "
            f"{means['noncoop-singleband']:.0f}", t0, 600.0)


def test_criterion_8_reproducibility(capsys, tmp_path):
    t0 = time.perf_counter()
    scenario = generate_scenario("small-grid", seed=21, side_count=3,
                                 incumbent_count=3)
    campaign = Campaign(scenario=scenario, thresholds_dbm=(-74.0, -62.0),
                        realizations=2, diffusion=DiffusionParams(iterations=30),
                        calibration_runs=2, device_count=15,
                        scheduler_restarts=2)
    first, _ = run_campaign(campaign, tmp_path / "a")
    second, _ = run_campaign(campaign, tmp_path / "b")
    with open(first, "rb") as fa, open(second, "rb") as fb:
        ok = fa.read() == fb.read()
    _report(capsys, 8, "byte-identical reruns", ok,
            "same seed twice: results.csv files byte-identical", t0, 60.0)
