"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

from specsense import harness, scheduler  # noqa: E402
from specsense.diffusion import DiffusionParams  # noqa: E402

import run  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402
from workloads import (WORKLOADS, CampaignWorkload, GapWorkload,  # noqa: E402
                       campaign_setup_seconds, run_rep, setup_sample,
                       sha256_of, write_gap_csv)

TINY = CampaignWorkload(
    "tiny", "small-grid", dict(seed=21, side_count=3, incumbent_count=3),
    dict(realizations=2, thresholds_dbm=(-74.0, -62.0),
         diffusion=DiffusionParams(iterations=30), calibration_runs=2,
         device_count=15, scheduler_restarts=2),
    rep_s=0.1, extra_setups=1)
TINY_GAP = GapWorkload("tiny-gap", instances=((8, 3), (12, 2)), subset_count=4,
                       instance_seed=7, restarts=1, rep_s=0.1, extra_setups=1)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def reference_digests(tmp_path):
    """What the library writes for the tiny workloads with no benchmark code."""
    path, _ = harness.run_campaign(TINY.make_campaign(3), tmp_path / "ref")
    rows = (scheduler.benchmark_gap([8], 4, 3, 7, restarts=1)
            + scheduler.benchmark_gap([12], 4, 2, 7, restarts=1))
    write_gap_csv(rows, tmp_path / "gap.csv")
    return {"tiny": {"sha256_by_seed_slot": {"3": sha256_of(path)}},
            "tiny-gap": {"sha256": sha256_of(tmp_path / "gap.csv"),
                         "rows": rows}}


def test_untraced_reps_pass_checks_and_report_every_metric(tmp_path):
    digests = reference_digests(tmp_path)
    # seed 19 maps to seed slot 3; gap seeds only reorder the sizes
    reps = [run_rep(TINY, 19, tmp_path / "a", digests, SRC),
            run_rep(TINY_GAP, 1, tmp_path / "b", digests, SRC),
            run_rep(TINY_GAP, 2, tmp_path / "c", digests, SRC)]
    for rep in reps:
        assert rep.problems == [] and rep.failed == 0
        assert rep.setup_s > 0 and rep.wall_s > 0
        assert len(rep.item_s) == rep.attempted
    assert campaign_setup_seconds(TINY, 19, tmp_path / "s") > 0
    desk = setup_sample(WORKLOADS["desk"], 1, tmp_path / "desk", SRC)
    metrics = run.end_to_end(reps[1:], [desk, setup_sample(TINY_GAP, 1, None,
                                                           SRC)])
    names = [m["name"] for m in benchmark_json()["end_to_end"]]
    assert list(metrics) == names + ["failed_frac"]
    assert metrics["failed_frac"]["value"] == 0.0
    assert all(metrics[n]["value"] > 0 for n in names)


def test_wrong_digest_fails_every_item(tmp_path):
    digests = reference_digests(tmp_path)
    digests["tiny"]["sha256_by_seed_slot"]["3"] = "0" * 64
    digests["tiny-gap"]["rows"][0]["mean_exact"] += 1.0
    for workload in (TINY, TINY_GAP):
        rep = run_rep(workload, 3, tmp_path / workload.name, digests, SRC)
        assert rep.failed == rep.attempted and rep.problems


def test_traced_rep_reports_every_layer_metric(tmp_path):
    digests = reference_digests(tmp_path)
    untraced = run_rep(TINY, 3, tmp_path / "a", digests, SRC)
    tracer = Tracer()
    with tracer.installed():
        traced = run_rep(TINY, 3, tmp_path / "b", digests, SRC)
    assert harness.run_realization.__module__ == "specsense.harness"
    assert traced.problems == [] and traced.digest == untraced.digest
    values = tracer.layer_metrics(len(traced.item_s), traced.wall_s,
                                  untraced.wall_s)
    assert list(values) == [n for n, _ in PER_LAYER]
    assert [m["name"] for m in benchmark_json()["per_layer"]] == list(values)
    # four diffusion schemes x two thresholds; all three structures read
    assert values["diffusion.run_diffusion.calls_per_item"] == 8
    assert values["diffusion.calibration.used_ratio"] == 1.0
    assert values["metrics.attach_useful_ratio"] == 1 / 12
    layers = sum(v for n, v in values.items() if n.startswith("layer."))
    unattributed = values["trace.unattributed_frac"] * traced.wall_s
    assert abs(layers + unattributed - traced.wall_s) < 1e-6
    assert 0.0 <= values["trace.unattributed_frac"] < 0.5


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(1, 41)) == (30, 75.0)
    assert run.tail(range(1, 13)) == (7, 7 / 12 * 100)


def test_exits_nonzero_without_library_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "{" not in out.stdout
