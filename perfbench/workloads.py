"""The benchmark's workloads and one timed, output-checked repetition of each.

Each workload puts a different layer on the critical path (see README.md).
The campaign workloads pin their scenario, as the criteria they come from
do, and take the campaign's Monte-Carlo seed from the benchmark seed modulo
``SEED_SLOTS``, so every run's ``results.csv`` has a recorded digest to match.
``gap-exact`` pins its instance seed, because exact-solver time varies with
the instances far more than any bound the benchmark could hold; the
benchmark seed only permutes the order in which the sizes run.

Set-up time is sampled more often than the full repetitions run: an extra
sample runs ``run_campaign`` up to its first realization (or, for
``gap-exact``, times the library import) in a fresh interpreter.
"""

import csv
import hashlib
import json
import math
import numbers
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from specsense import harness, scheduler
from specsense.harness import Campaign

from spans import patched

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
SEED_SLOTS = 16

RATIO_METRICS = ("utilization_ratio", "misdetection_probability")
PCT_METRICS = ("correct_decision_pct_all", "correct_decision_pct_own")


@dataclass(frozen=True)
class CampaignWorkload:
    name: str
    template: str
    scenario: dict
    campaign: dict
    rep_s: float          # seconds of one repetition, 2-core box, unloaded
    extra_setups: int     # fresh-process set-up samples beyond the reps'

    def make_campaign(self, mc_seed):
        scenario = harness.generate_scenario(self.template, **self.scenario)
        return Campaign(scenario=scenario, master_seed=mc_seed, **self.campaign)


@dataclass(frozen=True)
class GapWorkload:
    name: str
    instances: tuple      # (sap count, instances) per size
    subset_count: int
    instance_seed: int
    restarts: int
    rep_s: float
    extra_setups: int

    def rows(self, sizes):
        """``benchmark_gap`` per size; a size's rows do not depend on others."""
        counts = dict(self.instances)
        return [row for k in sizes for row in scheduler.benchmark_gap(
            [k], self.subset_count, counts[k], self.instance_seed,
            restarts=self.restarts)]


WORKLOADS = {w.name: w for w in (
    # criterion 5: many tiny dense diffusion calls, 32 per realization
    CampaignWorkload(
        "desk", "small-grid",
        dict(seed=5, side_count=5, incumbent_count=10),
        dict(realizations=10, calibration_runs=6, noncoop_raw_energy=True),
        rep_s=4.9, extra_setups=4),
    # criterion 7: few large calls on a sparse graph; calibration dominates
    CampaignWorkload(
        "device", "large-synthetic",
        dict(seed=5, sap_count=50, incumbent_count=100,
             total_bandwidth_hz=20e6, sap_bandwidth_hz=5e6,
             channelization="nb-iot", incumbent_bandwidth_hz=20e6),
        dict(realizations=6, thresholds_dbm=(-62.0,),
             schemes=("genie", "proposed-multiband", "proposed-singleband",
                      "noncoop-singleband"),
             device_count=10000, calibration_runs=6, noncoop_raw_energy=True),
        rep_s=15.0, extra_setups=0),
    # paper-default incumbents, no diffusion: propagation, frame and device
    # attachment dominate, fading gains drive memory
    CampaignWorkload(
        "wide-area", "large-synthetic",
        dict(seed=5, sap_count=100, incumbent_count=2000,
             total_bandwidth_hz=100e6, channelization="nb-iot"),
        dict(realizations=3, thresholds_dbm=tuple(float(t) for t in
                                                  range(-82, -50, 4)),
             schemes=("genie", "centralized"), device_count=10000),
        rep_s=9.5, extra_setups=8),
    # the only workload that runs the exact solvers; twice the instances at
    # K=16 put the median instance inside one size's times rather than in
    # the gap between K=12 and K=16
    GapWorkload("gap-exact", instances=((8, 30), (12, 30), (16, 60), (20, 30)),
                subset_count=4, instance_seed=7, restarts=1, rep_s=7.0,
                extra_setups=3),
)}


@dataclass
class Rep:
    """One repetition: its timings and how many of its items failed."""

    wall_s: float = math.nan
    setup_s: float = math.nan
    loop_s: float = 0.0                  # first item start to last item end
    item_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    problems: list = field(default_factory=list)


def load_digests():
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _finite(x):
    return isinstance(x, numbers.Real) and math.isfinite(x)


def _value_problem(metric, value, device_count):
    """Why one metric value is out of range, or None."""
    if value is None:
        return None
    if not _finite(value):
        return f"{metric} not finite: {value!r}"
    if metric in RATIO_METRICS:
        ok = 0.0 <= value <= 1.0
    elif metric in PCT_METRICS:
        ok = 0.0 <= value <= 100.0
    elif metric == "scheduled_devices":
        ok = 0 <= value <= device_count
    else:
        return f"unexpected metric {metric!r}"
    return None if ok else f"{metric} out of range: {value!r}"


def _value_count(campaign):
    """Metric values per realization, and rows in results.csv."""
    per_cell = len(harness.METRIC_ORDER) - (campaign.device_count == 0)
    return len(campaign.schemes) * len(campaign.thresholds_dbm) * per_cell


def check_realization(campaign, results):
    """Range problems in one realization's (scheme, threshold, metric) map."""
    expected = _value_count(campaign)
    problems = [] if len(results) == expected else [
        f"{len(results)} metric values, expected {expected}"]
    for (_, _, metric), value in results.items():
        problem = _value_problem(metric, value, campaign.device_count)
        if problem:
            problems.append(problem)
    return problems


def check_results_csv(campaign, path):
    """Range and shape problems in a campaign's results.csv."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    expected = _value_count(campaign)
    if len(rows) != expected:
        problems.append(f"results.csv has {len(rows)} rows, expected {expected}")
    for row in rows:
        try:
            count = int(row["realizations"])
            absent = count == 0
            mean = None if absent else float(row["mean"])
            std = None if absent else float(row["std"])
        except (TypeError, ValueError) as exc:
            problems.append(f"unreadable results.csv row {row}: {exc}")
            continue
        if not 0 <= count <= campaign.realizations:
            problems.append(f"bad realization count {count}")
        if absent:
            if row["mean"] or row["std"]:
                problems.append(f"absent metric with a value: {row}")
            continue
        problem = _value_problem(row["metric"], mean, campaign.device_count)
        if problem:
            problems.append(problem)
        if not (_finite(std) and std >= 0.0):
            problems.append(f"bad std {row['std']!r} in {row['metric']}")
    return problems


def run_campaign_rep(workload, seed, out_dir, digests):
    """One full campaign: set-up, every realization, results.csv, checks.

    Tracing off, the only instrumentation is one clock read before and
    after each realization.
    """
    mc_seed = seed % SEED_SLOTS
    rep = Rep(attempted=workload.campaign["realizations"])
    laps = []                                  # (start, end, results)

    def lap(run_realization):
        def timed(campaign, lams, r):
            start = perf_counter()
            out = run_realization(campaign, lams, r)
            laps.append((start, perf_counter(), out[1]))
            return out
        return timed

    t0 = perf_counter()
    try:
        with patched(harness, "run_realization", lap):
            campaign = workload.make_campaign(mc_seed)
            results_path, _ = harness.run_campaign(campaign, out_dir)
        rep.wall_s = perf_counter() - t0
    except Exception:                          # a failed campaign is counted
        rep.problems.append(traceback.format_exc())
        rep.failed = rep.attempted
        return rep

    rep.setup_s = laps[0][0] - t0
    rep.loop_s = laps[-1][1] - laps[0][0]
    rep.item_s = [end - start for start, end, _ in laps]
    bad_items = 0
    for _, _, results in laps:
        problems = check_realization(campaign, results)
        rep.problems += problems
        bad_items += bool(problems)
    file_problems = check_results_csv(campaign, results_path)
    rep.digest = sha256_of(results_path)
    expected = digests[workload.name]["sha256_by_seed_slot"].get(str(mc_seed))
    if rep.digest != expected:
        file_problems.append(f"results.csv sha256 {rep.digest} != recorded "
                             f"{expected} (seed slot {mc_seed})")
    rep.problems += file_problems
    rep.failed = rep.attempted if file_problems else bad_items
    return rep


GAP_FIELDS = ("sap_count", "mean_gap_pct", "std_gap_pct", "mean_exact",
              "mean_heuristic", "instances")


def write_gap_csv(rows, path):
    """Gap rows in size order, floats as repr, so the file is seed-free."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GAP_FIELDS)
        for row in sorted(rows, key=lambda r: r["sap_count"]):
            writer.writerow([repr(row[f]) for f in GAP_FIELDS])


def gap_order(workload, seed):
    sizes = [k for k, _ in workload.instances]
    random.Random(seed).shuffle(sizes)
    return sizes


def _child_seconds(code, src_dir):
    """Run ``code`` in a fresh interpreter and return the seconds it prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, HERE]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1])


def import_seconds(src_dir):
    """Library import time in a fresh interpreter: the gap run's set-up."""
    return _child_seconds(
        "import time; t = time.perf_counter(); import specsense.scheduler;"
        " print(time.perf_counter() - t)", src_dir)


def run_gap_rep(workload, seed, out_dir, digests, src_dir):
    """``benchmark_gap`` for every size, its CSV, and checks.

    Tracing off, each instance is timed from its cost-tensor draw to the
    end of its exact solve, which also captures both objectives to check.
    """
    rep = Rep(attempted=sum(n for _, n in workload.instances))
    starts, ends, heuristic, exact = [], [], [], []

    def mark_start(fn):
        def timed(*args, **kwargs):
            starts.append(perf_counter())
            return fn(*args, **kwargs)
        return timed

    def keep(fn, into):
        def kept(*args, **kwargs):
            out = fn(*args, **kwargs)
            into.append(out[1])
            return out
        return kept

    def mark_end(fn):
        def timed(*args, **kwargs):
            out = fn(*args, **kwargs)
            ends.append(perf_counter())
            exact.append(out[1])
            return out
        return timed

    try:
        rep.setup_s = import_seconds(src_dir)
        path = os.path.join(out_dir, "results.csv")
        os.makedirs(out_dir, exist_ok=True)
        t0 = perf_counter()
        with patched(scheduler, "build_cost_tensor", mark_start), \
                patched(scheduler, "heuristic_assign",
                        lambda fn: keep(fn, heuristic)), \
                patched(scheduler, "solve_exact", mark_end):
            rows = workload.rows(gap_order(workload, seed))
        write_gap_csv(rows, path)
        rep.wall_s = perf_counter() - t0
    except Exception:                          # a failed run is counted
        rep.problems.append(traceback.format_exc())
        rep.failed = rep.attempted
        return rep

    rep.item_s = [e - s for s, e in zip(starts, ends)]
    rep.loop_s = ends[-1] - starts[0]
    bad_items = 0
    for h, e in zip(heuristic, exact):
        ok = _finite(h) and _finite(e) and e > 0 and h >= e - 1e-9 * abs(e)
        if not ok:
            rep.problems.append(f"instance heuristic {h!r} vs exact {e!r}")
        bad_items += not ok
    if len(exact) != rep.attempted or len(heuristic) != rep.attempted:
        rep.problems.append(f"{len(exact)} exact and {len(heuristic)} "
                            f"heuristic solves for {rep.attempted} instances")
        bad_items = rep.attempted
    recorded = digests[workload.name]
    file_problems = []
    for row in rows:
        if not all(_finite(row[f]) for f in GAP_FIELDS):
            file_problems.append(f"non-finite gap row {row}")
        elif row["mean_heuristic"] < row["mean_exact"] - 1e-9 * row["mean_exact"]:
            file_problems.append(f"heuristic beats exact in {row}")
    by_size = sorted(rows, key=lambda r: r["sap_count"])
    if by_size != recorded["rows"]:
        file_problems.append(f"gap rows {by_size} != recorded {recorded['rows']}")
    rep.digest = sha256_of(path)
    if rep.digest != recorded["sha256"]:
        file_problems.append(f"results.csv sha256 {rep.digest} != recorded "
                             f"{recorded['sha256']}")
    rep.problems += file_problems
    rep.failed = rep.attempted if file_problems else bad_items
    return rep


def run_rep(workload, seed, out_dir, digests, src_dir):
    if isinstance(workload, GapWorkload):
        return run_gap_rep(workload, seed, out_dir, digests, src_dir)
    return run_campaign_rep(workload, seed, out_dir, digests)


class _SetUpDone(Exception):
    pass


def campaign_setup_seconds(workload, seed, out_dir):
    """Time ``run_campaign`` up to its first realization, then stop it."""
    def stop(_run_realization):
        def first_realization(*_args):
            raise _SetUpDone
        return first_realization

    t0 = perf_counter()
    try:
        with patched(harness, "run_realization", stop):
            harness.run_campaign(workload.make_campaign(seed % SEED_SLOTS),
                                 out_dir)
    except _SetUpDone:
        return perf_counter() - t0
    raise RuntimeError("run_campaign finished without running a realization")


def setup_sample(workload, seed, out_dir, src_dir):
    """One more set-up time sample, taken in a fresh interpreter.

    Set-up time depends on the process: ``wide-area`` takes about 6 ms in
    some processes and 11 ms in others, whatever the host load. Samples
    from separate processes average that out.
    """
    if isinstance(workload, GapWorkload):
        return import_seconds(src_dir)
    return _child_seconds(
        "from workloads import WORKLOADS, campaign_setup_seconds; print("
        f"campaign_setup_seconds(WORKLOADS[{workload.name!r}], {seed}, "
        f"{str(out_dir)!r}))", src_dir)
