"""Monte-Carlo campaign orchestration and result emission.

A campaign sweeps decision thresholds over many realizations of one
scenario. Per realization, ``prepare_realization`` computes the ground
truth at a fixed reference level, draws the measurement frame from it and
draws every other scheme input; then one decide step runs each scheme once
over the whole sweep: threshold t is the frame times the gain that maps t
to 1.0 in normalized units. Raw energy detectors (centralized, and the
raw-energy non-cooperative variant) see the rescaled frame as-is;
adaptive-filter schemes see it through the receiver's dynamic-range clamp,
and run all T gains as one diffusion run over T*M channels. Decision
thresholds for the diffusion schemes are calibrated once per campaign per
network structure on a representative assignment; in normalized units one
calibration covers the whole sweep.

All randomness flows through named substreams of the master seed, so reruns
are byte-identical and realizations are order-independent.
"""

import csv
import json
import logging
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import CALIBRATION_STRUCTURE, SCHEME_IDS, run_scheme
from .diffusion import (DiffusionParams, DivergenceError, calibrate_threshold,
                        default_ceiling)
from .metrics import (aggregate, correct_decision_pct, misdetection_probability,
                      schedule_devices, utilization_ratio)
from .model import (ConfigurationError, Incumbent, Scenario,
                    build_grid_topology, build_random_topology,
                    build_spectrum_plan, check_quota_feasible,
                    scenario_to_dict)
from .propagation import (GroundTruth, MeasurementFrame, PropagationParams,
                          generate_measurements, generate_reference_powers,
                          compute_ground_truth, norm_to_dbm, pathloss_db,
                          realize_links, threshold_gain)
from .scheduler import cost_from_reference_powers, heuristic_assign
from .seeding import substream

log = logging.getLogger("specsense")

METRIC_ORDER = (
    "utilization_ratio",
    "misdetection_probability",
    "correct_decision_pct_all",
    "correct_decision_pct_own",
    "scheduled_devices",
)


def configure_logging():
    """Honor the SPECSENSE_LOG env var (DEBUG/INFO/WARNING/...)."""
    level = os.environ.get("SPECSENSE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


@dataclass(frozen=True)
class Campaign:
    scenario: Scenario
    schemes: tuple = SCHEME_IDS
    thresholds_dbm: tuple = tuple(float(t) for t in range(-82, -50, 2))
    realizations: int = 100
    master_seed: int | None = None       # None: reuse the scenario seed
    reference_dbm: float = -62.0
    diffusion: DiffusionParams = field(default_factory=DiffusionParams)
    calibration_runs: int = 10
    limit_dynamic_range: bool = True
    device_count: int = 0
    device_capacity: int = 1
    scheduler_restarts: int = 8
    noncoop_raw_energy: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.realizations < 1:
            raise ConfigurationError("realizations must be >= 1")
        if not self.thresholds_dbm:
            raise ConfigurationError("threshold sweep must be nonempty")
        unknown = set(self.schemes) - set(SCHEME_IDS)
        if unknown:
            raise ConfigurationError(f"unknown schemes {sorted(unknown)}")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.calibration_runs < 1:
            raise ConfigurationError("calibration_runs must be >= 1")
        if self.device_count < 0:
            raise ConfigurationError("device_count must be >= 0")
        if self.device_capacity < 1:
            raise ConfigurationError("device_capacity must be >= 1")

    @property
    def seed(self):
        return self.scenario.seed if self.master_seed is None else self.master_seed


# ---------------------------------------------------------------------------
# Representative assignment and threshold calibration
# ---------------------------------------------------------------------------

def representative_reference_powers(scenario, ref_dbm):
    """Shadow-free line-of-sight reference powers for calibration use."""
    topo = scenario.topology
    prop = scenario.propagation
    carrier = (prop.carrier_hz if prop.carrier_hz is not None
               else scenario.spectrum.center_frequency_hz)
    d = np.sqrt(((topo.positions[:, None, :] - topo.positions[None, :, :]) ** 2)
                .sum(axis=2))
    d = np.maximum(d, 1.0)
    pl = pathloss_db(d, carrier, True, ut_height_m=float(topo.heights_m[0]),
                     model=prop.model)
    return generate_reference_powers(scenario, -pl, ref_dbm)


def representative_assignment(campaign):
    """Deterministic campaign-level assignment used for threshold calibration."""
    scn = campaign.scenario
    check_quota_feasible(scn.spectrum, scn.topology.count)
    p_hat = representative_reference_powers(scn, campaign.reference_dbm)
    cost = cost_from_reference_powers(p_hat, scn.spectrum.subset_count)
    assignment, _ = heuristic_assign(
        cost, scn.topology.positions, scn.spectrum.quota,
        substream(campaign.seed, "rep-assign"), campaign.scheduler_restarts)
    return assignment


def _structure_of(campaign, scheme):
    """Calibrated structure a scheme decides with.

    None for schemes that decide on raw energy (centralized, and the
    non-cooperative schemes under ``noncoop_raw_energy``) or on the truth.
    """
    if campaign.noncoop_raw_energy and scheme.startswith("noncoop"):
        return None
    return CALIBRATION_STRUCTURE.get(scheme)


def _ceiling(campaign):
    """Receiver clamp on adaptive-filter inputs; None when unlimited."""
    return (default_ceiling(campaign.diffusion)
            if campaign.limit_dynamic_range else None)


def _structure_specs(campaign, rep_assignment):
    """Network structures whose thresholds the chosen schemes read."""
    scn = campaign.scenario
    k_count = scn.topology.count
    m_count = scn.spectrum.channel_count
    p_rep = representative_reference_powers(scn, campaign.reference_dbm)
    full_mask = np.ones((k_count, m_count), dtype=bool)
    specs = {
        "coop-full": (full_mask, p_rep, scn.topology.adjacency),
        "coop-assigned": (rep_assignment.sensing_mask(scn.spectrum)
                          if rep_assignment is not None else None,
                          p_rep, scn.topology.adjacency),
        "standalone": (full_mask, np.zeros((k_count, k_count)),
                       np.eye(k_count, dtype=bool)),
    }
    needed = {_structure_of(campaign, s) for s in campaign.schemes} - {None}
    return {name: specs[name] for name in needed}


def calibrate_campaign(campaign, rep_assignment):
    """λ per structure: the once-per-campaign known-energy training pass.

    Raises ArithmeticError naming the structure whose weights diverge.
    """
    prop = campaign.scenario.propagation
    ceiling = _ceiling(campaign)
    lams = {}
    for name, (mask, p_hat, adjacency) in _structure_specs(campaign,
                                                           rep_assignment).items():
        try:
            lams[name] = calibrate_threshold(
                mask, p_hat, adjacency, campaign.diffusion,
                substream(campaign.seed, "calibrate", name),
                calibration_runs=campaign.calibration_runs,
                estimate_shape=prop.estimate_shape, ceiling=ceiling)
        except DivergenceError as exc:
            raise ArithmeticError(
                f"calibration of structure {name}: {exc}") from exc
        log.debug("calibrated structure %s", name)
    return lams


def _calibrate(campaign):
    """Representative assignment (when a scheme needs one), then λ."""
    rep_assignment = None
    if "proposed-singleband" in campaign.schemes:
        rep_assignment = representative_assignment(campaign)
    return calibrate_campaign(campaign, rep_assignment)


# ---------------------------------------------------------------------------
# Per-realization work
# ---------------------------------------------------------------------------

@dataclass
class RealizationInputs:
    """One realization's frame, truth and every scheme's side inputs."""

    frame: MeasurementFrame
    truth: GroundTruth
    reference_powers: np.ndarray        # (K, K) realized neighbor powers
    sensing_mask: np.ndarray | None     # proposed-singleband assignment
    picks: np.ndarray | None            # noncoop-singleband channel per SAP
    devices: np.ndarray | None          # (device_count, 2) positions


def prepare_realization(campaign, r):
    """Draw realization ``r``: propagation state, truth, frame, scheme inputs.

    The frame is the truth times estimation noise, so the realized level is
    computed once.
    """
    scn = campaign.scenario
    seed = campaign.seed
    ref = campaign.reference_dbm
    topo = scn.topology

    links = realize_links(scn, substream(seed, "bands", r),
                          substream(seed, "shadow", r),
                          substream(seed, "fading", r))
    truth = compute_ground_truth(scn, links, ref)
    frame = generate_measurements(scn, truth, campaign.diffusion.iterations,
                                  substream(seed, "estimate", r))
    p_hat = generate_reference_powers(scn, links.sap_gain_db, ref)

    sensing_mask = None
    if "proposed-singleband" in campaign.schemes:
        cost = cost_from_reference_powers(p_hat, scn.spectrum.subset_count)
        assignment, _ = heuristic_assign(
            cost, topo.positions, scn.spectrum.quota,
            substream(seed, "assign", r), campaign.scheduler_restarts)
        sensing_mask = assignment.sensing_mask(scn.spectrum)

    picks = None
    if "noncoop-singleband" in campaign.schemes:
        picks = substream(seed, "pick", r).integers(
            scn.spectrum.channel_count, size=topo.count)

    devices = None
    if campaign.device_count > 0:
        x0, y0, x1, y1 = topo.bounding_box()
        u = substream(seed, "devices", r).uniform(size=(campaign.device_count, 2))
        devices = np.column_stack([x0 + u[:, 0] * (x1 - x0),
                                   y0 + u[:, 1] * (y1 - y0)])
    return RealizationInputs(frame, truth, p_hat, sensing_mask, picks, devices)


def decide_schemes(campaign, lams, inputs, r):
    """Yield (scheme, threshold_dbm, DecisionMap, truth busy map) per block.

    Each scheme runs once over the whole threshold sweep. Diffusion weights
    that go non-finite raise ArithmeticError naming the scheme, the
    realization ``r`` and the first threshold affected.
    """
    thresholds = campaign.thresholds_dbm
    ref = campaign.reference_dbm
    gains = [threshold_gain(ref, t) for t in thresholds]
    truths = [inputs.truth.busy_at(t) for t in thresholds]
    ceiling = _ceiling(campaign)
    for scheme in campaign.schemes:
        structure = _structure_of(campaign, scheme)
        try:
            maps = run_scheme(
                scheme,
                measurements=inputs.frame.y,
                gains=gains,
                ceiling=ceiling,
                truth_busy=truths,
                sensing_mask=inputs.sensing_mask,
                reference_powers=inputs.reference_powers,
                adjacency=campaign.scenario.topology.adjacency,
                params=campaign.diffusion,
                thresholds=lams.get(structure),
                channel_picks=inputs.picks,
                raw_energy=campaign.noncoop_raw_energy,
            )
        except DivergenceError as exc:
            raise ArithmeticError(
                f"{scheme}: diffusion weights went non-finite in realization "
                f"{r} at threshold {thresholds[exc.gain_index]!r} dBm") from exc
        for t, dm, truth_t in zip(thresholds, maps, truths):
            yield scheme, t, dm, truth_t


def run_realization(campaign, lams, r):
    """All schemes, all thresholds, one realization. Returns (crc32, metrics).

    The metrics dict maps (scheme, threshold_dbm, metric) -> value or None.
    """
    inputs = prepare_realization(campaign, r)
    checksum = zlib.crc32(inputs.frame.y.tobytes())
    positions = campaign.scenario.topology.positions
    results = {}
    for scheme, t, dm, truth_t in decide_schemes(campaign, lams, inputs, r):
        # the decided mask itself is noncoop-singleband's own set
        own_scope = {"proposed-singleband": inputs.sensing_mask,
                     "noncoop-singleband": dm.decided}.get(scheme)
        results[(scheme, t, "utilization_ratio")] = utilization_ratio(dm, truth_t)
        results[(scheme, t, "misdetection_probability")] = (
            misdetection_probability(dm, truth_t))
        results[(scheme, t, "correct_decision_pct_all")] = (
            correct_decision_pct(dm, truth_t))
        results[(scheme, t, "correct_decision_pct_own")] = (
            correct_decision_pct(dm, truth_t, own_scope))
        if inputs.devices is not None:
            results[(scheme, t, "scheduled_devices")] = schedule_devices(
                dm, truth_t, inputs.devices, positions,
                campaign.device_capacity)
    return checksum, results


_WORKER_CTX = {}


def _worker_init(campaign, lams):
    _WORKER_CTX["campaign"] = campaign
    _WORKER_CTX["lams"] = lams


def _worker_run(r):
    return r, run_realization(_WORKER_CTX["campaign"], _WORKER_CTX["lams"], r)


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

def run_campaign(campaign, out_dir):
    """Run the full campaign and write results.csv plus summary.json."""
    os.makedirs(out_dir, exist_ok=True)
    scn = campaign.scenario

    lams = _calibrate(campaign)
    log.info("calibrated %d structure/threshold pairs", len(lams))

    per_real = [None] * campaign.realizations
    checksums = [None] * campaign.realizations
    if campaign.workers == 1:
        for r in range(campaign.realizations):
            checksums[r], per_real[r] = run_realization(campaign, lams, r)
            log.info("realization %d frame crc32 %08x", r, checksums[r])
    else:
        # workers receive the campaign itself (pickled under spawn), so
        # every field reaches them unchanged
        with ProcessPoolExecutor(max_workers=campaign.workers,
                                 initializer=_worker_init,
                                 initargs=(replace(campaign, workers=1),
                                           lams)) as pool:
            for r, (crc, res) in pool.map(_worker_run,
                                          range(campaign.realizations)):
                checksums[r], per_real[r] = crc, res
                log.info("realization %d frame crc32 %08x", r, crc)

    rows = []
    for scheme in campaign.schemes:
        for t in campaign.thresholds_dbm:
            for metric in METRIC_ORDER:
                if metric == "scheduled_devices" and campaign.device_count == 0:
                    continue
                values = [per_real[r][(scheme, t, metric)]
                          for r in range(campaign.realizations)]
                mean, std, count = aggregate(values)
                rows.append({
                    "scheme": scheme,
                    "threshold_dbm": float(t),
                    "metric": metric,
                    "mean": mean,
                    "std": std,
                    "realizations": count,
                })

    results_path = os.path.join(out_dir, "results.csv")
    write_results_csv(rows, results_path)

    summary = {
        "scenario": scenario_to_dict(scn),
        "schemes": list(campaign.schemes),
        "thresholds_dbm": [float(t) for t in campaign.thresholds_dbm],
        "realizations": campaign.realizations,
        "master_seed": campaign.seed,
        "reference_dbm": campaign.reference_dbm,
        "frame_crc32": [f"{c:08x}" for c in checksums],
        "calibration_structures": sorted(lams),
    }
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return results_path, summary_path


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_results_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "threshold_dbm", "metric", "mean", "std",
                         "realizations"])
        for row in rows:
            writer.writerow([row["scheme"], _fmt(float(row["threshold_dbm"])),
                             row["metric"], _fmt(row["mean"]), _fmt(row["std"]),
                             row["realizations"]])


def read_results_csv(path):
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append({
                "scheme": rec["scheme"],
                "threshold_dbm": float(rec["threshold_dbm"]),
                "metric": rec["metric"],
                "mean": float(rec["mean"]) if rec["mean"] else None,
                "std": float(rec["std"]) if rec["std"] else None,
                "realizations": int(rec["realizations"]),
            })
    return rows


# ---------------------------------------------------------------------------
# Scenario templates
# ---------------------------------------------------------------------------

def generate_scenario(template, seed=1, **overrides):
    """Build one of the two canonical scenarios.

    ``small-grid``: SAP lattice with four 20 MHz channels and channel-width
    incumbents, for threshold-sweep studies. ``large-synthetic``: random
    wide-area deployment over a 500 MHz band channelized for NB-IoT
    (``channelization="lte-m"`` switches to 1.4 MHz channels), incumbents
    with 20/40/80 MHz signals.
    """
    if template == "small-grid":
        side = int(overrides.pop("side_count", 10))
        spacing = float(overrides.pop("spacing_m", 200.0))
        radius = float(overrides.pop("radius_m", spacing))
        incumbents = int(overrides.pop("incumbent_count", 50))
        tx_dbm = float(overrides.pop("incumbent_tx_dbm", 30.0))
        height = float(overrides.pop("height_m", 10.0))
        if overrides:
            raise ConfigurationError(f"unknown overrides {sorted(overrides)}")
        topo = build_grid_topology(side, spacing, radius, height)
        plan = build_spectrum_plan(80e6, 20e6, 1,
                                   uniform_quota_saps=topo.count)
        x0, y0, x1, y1 = topo.bounding_box()
        rng = substream(seed, "incumbent-placement")
        incs = tuple(
            Incumbent((float(x0 + u * (x1 - x0)), float(y0 + v * (y1 - y0))),
                      height, tx_dbm, 20e6, None)
            for u, v in rng.uniform(size=(incumbents, 2)))
        return Scenario(topo, plan, incs, PropagationParams(), seed)

    if template == "large-synthetic":
        count = int(overrides.pop("sap_count", 500))
        region = float(overrides.pop("region_m", 2000.0))
        radius = float(overrides.pop("radius_m", 200.0))
        incumbents = int(overrides.pop("incumbent_count", 2000))
        tx_dbm = float(overrides.pop("incumbent_tx_dbm", 30.0))
        height = float(overrides.pop("height_m", 10.0))
        channelization = overrides.pop("channelization", "nb-iot")
        total_bw = float(overrides.pop("total_bandwidth_hz", 500e6))
        sap_bw = float(overrides.pop("sap_bandwidth_hz", 20e6))
        inc_bw = overrides.pop("incumbent_bandwidth_hz", (20e6, 40e6, 80e6))
        if overrides:
            raise ConfigurationError(f"unknown overrides {sorted(overrides)}")
        if channelization == "nb-iot":
            b = 180e3
        elif channelization == "lte-m":
            b = 1.4e6
        else:
            raise ConfigurationError(f"unknown channelization {channelization!r}")
        topo = build_random_topology(count, (region, region), radius, height,
                                     substream(seed, "sap-placement"))
        plan = build_spectrum_plan(total_bw, b, max(1, int(sap_bw // b)),
                                   uniform_quota_saps=count)
        rng = substream(seed, "incumbent-placement")
        incs = tuple(
            Incumbent((float(u * region), float(v * region)), height, tx_dbm,
                      inc_bw, None)
            for u, v in rng.uniform(size=(incumbents, 2)))
        return Scenario(topo, plan, incs, PropagationParams(), seed)

    raise ConfigurationError(f"unknown template {template!r}")


# ---------------------------------------------------------------------------
# Plot-data emission
# ---------------------------------------------------------------------------

PLOT_FIGURES = {
    "utilization-vs-threshold": "utilization_ratio",
    "misdetection-vs-threshold": "misdetection_probability",
    "correct-vs-threshold": "correct_decision_pct_all",
    "scheduled-devices": "scheduled_devices",
}


def emit_plot_data(results_rows, figure, out_path):
    """Tidy per-figure CSV from aggregated campaign rows."""
    if figure == "footprint-snapshot":
        raise ConfigurationError(
            "footprint-snapshot needs a scenario; use emit_footprint_snapshot")
    metric = PLOT_FIGURES.get(figure)
    if metric is None:
        raise ConfigurationError(f"unknown figure {figure!r}")
    subset = [r for r in results_rows if r["metric"] == metric]
    if figure == "correct-vs-threshold":
        subset += [r for r in results_rows
                   if r["metric"] == "correct_decision_pct_own"]
    if not subset:
        raise ConfigurationError(f"no rows for figure {figure!r}")
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "variant", "threshold_dbm", "mean", "std",
                         "realizations"])
        for r in subset:
            variant = ("own-channel" if r["metric"].endswith("_own") else "all")
            writer.writerow([r["scheme"], variant, _fmt(r["threshold_dbm"]),
                             _fmt(r["mean"]), _fmt(r["std"]),
                             r["realizations"]])
    return out_path


def emit_footprint_snapshot(campaign, out_path, realization=0,
                            threshold_dbm=-62.0):
    """One realization's spatial energy footprint and per-scheme decisions.

    Rows: scheme, k, x, y, m, energy_dbm (iteration-mean), truth_busy,
    decision (busy/available/none).
    """
    campaign = replace(campaign, thresholds_dbm=(float(threshold_dbm),))
    topo = campaign.scenario.topology
    lams = _calibrate(campaign)
    inputs = prepare_realization(campaign, realization)
    mean_energy_dbm = norm_to_dbm(inputs.frame.y.mean(axis=2),
                                  campaign.reference_dbm)

    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "k", "x", "y", "m", "energy_dbm",
                         "truth_busy", "decision"])
        for scheme, _, dm, truth_t in decide_schemes(campaign, lams, inputs,
                                                     realization):
            for k in range(topo.count):
                x, y = topo.positions[k]
                for m in range(campaign.scenario.spectrum.channel_count):
                    if not dm.decided[k, m]:
                        verdict = "none"
                    elif dm.busy[k, m]:
                        verdict = "busy"
                    else:
                        verdict = "available"
                    writer.writerow([scheme, k, _fmt(float(x)), _fmt(float(y)),
                                     m, _fmt(float(mean_energy_dbm[k, m])),
                                     int(truth_t[k, m]), verdict])
    return out_path
