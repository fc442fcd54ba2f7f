"""Monte-Carlo campaign orchestration and result emission.

A campaign sweeps decision thresholds over many realizations of one
scenario. Per realization, ``prepare_realization`` computes the ground
truth, normalized to ``propagation.REFERENCE_DBM``, and draws every other
scheme input; the frame is the truth times estimation noise. Then one
decide step runs each scheme once over the whole sweep: threshold t is the
frame times the gain that maps t to 1.0 in normalized units. Raw energy
detectors (centralized, and the raw-energy non-cooperative variant) see
the rescaled frame as-is; adaptive-filter schemes see it through the
receiver's dynamic-range clamp, and run all T gains as one diffusion run
over T*M channels. Each structure runs once per realization: both
non-cooperative schemes decide on one standalone run, and the two
cooperative structures run side by side as one call of 2*T*M channels
when ``diffusion.runs_per_call`` packs two runs that wide. Each scheme
returns one (T, K, M) decision stack, scored once against the truth stack;
the realization's devices are attached to their SAPs once, in
``prepare_realization``, and every scheme schedules them on that attachment.
Decision thresholds for the diffusion schemes are calibrated once per
campaign per network structure, on the network
``baselines.structure_network`` builds from representative inputs
(line-of-sight reference powers and a representative assignment); in
normalized units one calibration covers the whole sweep.

Calibration holds its own group buffers of training noise. Once it has
returned, the serial loop allocates its (K, M, N) noise frames: a pair
when a calibrated structure has two or more runs, and a campaign-long
helper thread draws realization r+1's noise into one while realization r
is decided and scored in the other; else one, drawn while each
realization's links are realized. Worker processes,
``emit_footprint_snapshot`` and direct ``prepare_realization`` calls draw
each frame on demand, on the calling thread.

All randomness flows through named substreams of the master seed, so reruns
are byte-identical and realizations are order-independent.
"""

import contextlib
import contextvars
import csv
import json
import logging
import os
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .baselines import (COOPERATIVE, SCHEME_IDS, run_scheme,
                        structure_network, structure_of)
from .diffusion import (DiffusionParams, DivergenceError, calibrate_threshold,
                        default_ceiling, runs_per_call)
from .metrics import (aggregate, attach_devices, correct_decision_pct,
                      misdetection_probability, schedule_devices,
                      utilization_ratio)
from .model import (ConfigurationError, Incumbent, Scenario,
                    build_grid_topology, build_random_topology,
                    build_spectrum_plan, check_integer, check_quota_feasible,
                    scenario_to_dict, uniform_quota)
from .propagation import (REFERENCE_DBM, GroundTruth, MeasurementFrame,
                          PropagationParams, estimation_noise,
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
    diffusion: DiffusionParams = field(default_factory=DiffusionParams)
    calibration_runs: int = 10
    limit_dynamic_range: bool = True
    device_count: int = 0
    device_capacity: int = 1
    scheduler_restarts: int = 8
    noncoop_raw_energy: bool = False
    workers: int = 1

    def __post_init__(self):
        for name, minimum in (("realizations", 1), ("workers", 1),
                              ("calibration_runs", 1), ("device_count", 0),
                              ("device_capacity", 1),
                              ("scheduler_restarts", 1)):
            check_integer(name, getattr(self, name), minimum)
        # a frame needs a slice; DiffusionParams allows 0, the initial state
        check_integer("diffusion.iterations", self.diffusion.iterations, 1)
        if self.master_seed is not None:
            check_integer("master_seed", self.master_seed)
        if not self.thresholds_dbm:
            raise ConfigurationError("threshold sweep must be nonempty")
        if not np.isfinite(self.thresholds_dbm).all():
            raise ConfigurationError("thresholds must be finite")
        for t in map(float, self.thresholds_dbm):
            # 10 ** x overflows below about -3145 dBm and is 0.0 above
            # about +3171 dBm; either would decide every block one way
            try:
                gain = threshold_gain(t)
            except OverflowError:
                gain = np.inf
            if not 0.0 < gain < np.inf:
                raise ConfigurationError(
                    f"threshold {t!r} dBm has no finite, positive gain")
        if not self.schemes:
            raise ConfigurationError("need at least one scheme")
        unknown = set(self.schemes) - set(SCHEME_IDS)
        if unknown:
            raise ConfigurationError(f"unknown schemes {sorted(unknown)}")
        for name, values in (("schemes", self.schemes),
                             ("thresholds_dbm", self.thresholds_dbm)):
            if len(set(values)) != len(values):
                raise ConfigurationError(f"{name} has duplicates")

    @property
    def seed(self):
        return self.scenario.seed if self.master_seed is None else self.master_seed


# ---------------------------------------------------------------------------
# Representative assignment and threshold calibration
# ---------------------------------------------------------------------------

def representative_reference_powers(scenario):
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
    return generate_reference_powers(scenario, -pl)


def representative_assignment(campaign, reference_powers):
    """Calibration's assignment over the representative reference powers."""
    scn = campaign.scenario
    check_quota_feasible(scn.spectrum, scn.topology.count)
    cost = cost_from_reference_powers(reference_powers,
                                      scn.spectrum.subset_count)
    assignment, _ = heuristic_assign(
        cost, scn.topology.positions, scn.spectrum.quota,
        substream(campaign.seed, "rep-assign"), campaign.scheduler_restarts)
    return assignment


def _ceiling(campaign):
    """Receiver clamp on adaptive-filter inputs; None when unlimited."""
    return (default_ceiling(campaign.diffusion)
            if campaign.limit_dynamic_range else None)


def _calibration_structures(campaign):
    """The diffusion network structures the campaign's schemes decide on.

    In the order of the schemes' first use, so calibration runs them, and
    names a diverging one, the same way in every process.
    """
    structures = (structure_of(s, campaign.noncoop_raw_energy)
                  for s in campaign.schemes)
    return tuple(dict.fromkeys(s for s in structures if s is not None))


def calibrate_campaign(campaign):
    """λ per structure: the once-per-campaign known-energy training pass.

    Networks are built from line-of-sight reference powers, plus the
    representative assignment when ``proposed-singleband`` runs. Each
    structure draws its training noise into buffers of its own (see
    ``diffusion.calibrate_threshold``). Raises ArithmeticError naming the
    structure whose weights diverge.
    """
    scn = campaign.scenario
    p_rep = representative_reference_powers(scn)
    mask = np.ones((scn.topology.count, scn.spectrum.channel_count), bool)
    if "proposed-singleband" in campaign.schemes:
        mask = representative_assignment(campaign, p_rep).sensing_mask(
            scn.spectrum)
    ceiling = _ceiling(campaign)
    lams = {}
    for name in _calibration_structures(campaign):
        network = structure_network(name, mask, p_rep, scn.topology.adjacency)
        try:
            lams[name] = calibrate_threshold(
                *network, campaign.diffusion,
                substream(campaign.seed, "calibrate", name),
                calibration_runs=campaign.calibration_runs,
                estimate_shape=scn.propagation.estimate_shape,
                ceiling=ceiling)
        except DivergenceError as exc:
            raise ArithmeticError(
                f"calibration of structure {name}: {exc}") from exc
        log.debug("calibrated structure %s", name)
    return lams


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
    device_home: np.ndarray | None      # each device's nearest SAP


def _frame_shape(campaign):
    scn = campaign.scenario
    return (scn.topology.count, scn.spectrum.channel_count,
            campaign.diffusion.iterations)


class _NoiseDraws:
    """Estimation noise for one campaign's realizations, in reused frames.

    Realization r's noise is drawn into ``frames[r % len(frames)]`` from its
    own ``"estimate"`` substream, so no draw depends on when it runs. With a
    ``helper`` (a one-worker executor), ``start`` puts a draw in flight and
    ``take`` waits for it; with two frames, ``take`` then queues r+1's draw
    into the other frame while r is decided, so realizations must come in
    order. Without a helper, ``take`` draws on the calling thread.
    """

    def __init__(self, campaign, frames, helper=None):
        self.campaign = campaign
        self.frames = frames
        self.helper = helper
        self._queued = None                  # the next realization's draw

    def _args(self, r):
        return (self.frames[r % len(self.frames)],
                self.campaign.scenario.propagation.estimate_shape,
                substream(self.campaign.seed, "estimate", r))

    def start(self, r):
        if self.helper is not None and self._queued is None:
            self._queued = self.helper.submit(estimation_noise, *self._args(r))

    def take(self, r):
        if self.helper is None:
            return estimation_noise(*self._args(r))
        self.start(r)
        noise, self._queued = self._queued.result(), None
        if len(self.frames) > 1 and r + 1 < self.campaign.realizations:
            self.start(r + 1)
        return noise


# The serial campaign loop's draws. run_campaign calls run_realization with
# just (campaign, lams, r), the call perfbench times, so prepare_realization
# finds them here; any other caller draws on demand.
_LOOKAHEAD = contextvars.ContextVar("specsense_noise_draws", default=None)


def prepare_realization(campaign, r):
    """Draw realization ``r``: propagation state, truth, frame, scheme inputs.

    The frame is the truth times estimation noise, so the realized level is
    computed once. The noise depends on nothing else. Inside
    ``run_campaign``'s serial loop a campaign-long helper thread draws it
    (numpy releases the GIL) into one of the campaign's reused frames, while
    this thread realizes the links; with two frames, realization r+1's draw
    is queued as soon as r's frame is ready. Called any other way, this
    draws the noise on the calling thread into a new frame. Either way the
    frame keeps the bits of a serial draw. The devices are attached to
    their nearest SAPs here, once for every scheme that schedules them.
    """
    scn = campaign.scenario
    seed = campaign.seed
    topo = scn.topology
    draws = _LOOKAHEAD.get()
    if draws is None or draws.campaign is not campaign:
        draws = _NoiseDraws(campaign, [np.empty(_frame_shape(campaign))])
    draws.start(r)
    links = realize_links(scn, substream(seed, "bands", r),
                          substream(seed, "shadow", r),
                          substream(seed, "fading", r))
    truth = compute_ground_truth(scn, links)
    p_hat = generate_reference_powers(scn, links.sap_gain_db)
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
    devices = home = None
    if campaign.device_count > 0:
        x0, y0, x1, y1 = topo.bounding_box()
        u = substream(seed, "devices", r).uniform(
            size=(campaign.device_count, 2))
        devices = np.column_stack([x0 + u[:, 0] * (x1 - x0),
                                   y0 + u[:, 1] * (y1 - y0)])
        home = attach_devices(devices, topo.positions)
    frame = generate_measurements(truth, draws.take(r))
    return RealizationInputs(frame, truth, p_hat, sensing_mask, picks, devices,
                             home)


def _cooperative_pack(campaign):
    """The cooperative pair when the campaign decides on both structures
    and ``runs_per_call`` packs two of their T*M-column runs; else ()."""
    shape = _frame_shape(campaign)
    columns = len(campaign.thresholds_dbm) * shape[1]
    if (set(COOPERATIVE) <= set(_calibration_structures(campaign))
            and runs_per_call(columns, shape, 2) == 2):
        return COOPERATIVE
    return ()


def decide_schemes(campaign, lams, inputs, r):
    """Yield (scheme, DecisionMap, truth stack) once per scheme.

    Slice t of both (T, K, M) stacks is threshold t of the sweep. Each
    diffusion structure runs once: the two noncoop schemes share the
    standalone run, and the cooperative pair runs as one call when it fits
    (``_cooperative_pack``). Diffusion weights that go non-finite raise
    ArithmeticError at the diverging scheme's turn, naming the scheme, the
    realization ``r`` and the first threshold affected.
    """
    thresholds = campaign.thresholds_dbm
    gains = [threshold_gain(t) for t in thresholds]
    truth = np.array([inputs.truth.busy_at(t) for t in thresholds])
    ceiling = _ceiling(campaign)
    pack = _cooperative_pack(campaign)
    shared = {}                          # weight stacks by structure
    for scheme in campaign.schemes:
        structure = structure_of(scheme, campaign.noncoop_raw_energy)
        try:
            dm = run_scheme(
                scheme,
                measurements=inputs.frame.y,
                gains=gains,
                ceiling=ceiling,
                truth_busy=truth,
                sensing_mask=inputs.sensing_mask,
                reference_powers=inputs.reference_powers,
                adjacency=campaign.scenario.topology.adjacency,
                params=campaign.diffusion,
                thresholds=lams.get(structure),
                channel_picks=inputs.picks,
                raw_energy=campaign.noncoop_raw_energy,
                shared=shared,
                pack=pack,
            )
        except DivergenceError as exc:
            raise ArithmeticError(
                f"{scheme}: diffusion weights went non-finite in realization "
                f"{r} at threshold {thresholds[exc.gain_index]!r} dBm") from exc
        yield scheme, dm, truth


def run_realization(campaign, lams, r):
    """All schemes, all thresholds, one realization. Returns (crc32, metrics).

    The metrics dict maps (scheme, threshold_dbm, metric) -> value or None.
    Each scheme is scored once over its whole decision stack.
    """
    inputs = prepare_realization(campaign, r)
    checksum = zlib.crc32(inputs.frame.y)
    positions = campaign.scenario.topology.positions
    results = {}
    for scheme, dm, truth in decide_schemes(campaign, lams, inputs, r):
        # the decided mask itself is noncoop-singleband's own set
        own_scope = {"proposed-singleband": inputs.sensing_mask,
                     "noncoop-singleband": dm.decided}.get(scheme)
        values = [utilization_ratio(dm, truth),
                  misdetection_probability(dm, truth),
                  correct_decision_pct(dm, truth),
                  correct_decision_pct(dm, truth, own_scope)]
        if inputs.devices is not None:
            values.append(schedule_devices(
                dm, truth, inputs.devices, positions, campaign.device_capacity,
                home=inputs.device_home))
        for i, t in enumerate(campaign.thresholds_dbm):
            for metric, per_threshold in zip(METRIC_ORDER, values):
                results[(scheme, t, metric)] = per_threshold[i]
    return checksum, results


_WORKER_CTX = {}


def _worker_init(campaign, lams):
    _WORKER_CTX["campaign"] = campaign
    _WORKER_CTX["lams"] = lams


def _worker_run(r):
    return run_realization(_WORKER_CTX["campaign"], _WORKER_CTX["lams"], r)


# ---------------------------------------------------------------------------
# Campaign driver
# ---------------------------------------------------------------------------

def run_campaign(campaign, out_dir):
    """Run the full campaign and write results.csv plus summary.json.

    ``out_dir`` is made before any work, so an unusable path fails at once.
    If the campaign then raises, ``out_dir`` is removed again when this call
    made it and nothing was written into it.
    """
    made = not os.path.exists(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    try:
        return _run_and_write(campaign, out_dir)
    except BaseException:
        if made and not os.listdir(out_dir):
            os.rmdir(out_dir)
        raise


def _run_and_write(campaign, out_dir):
    scn = campaign.scenario

    lams = calibrate_campaign(campaign)
    log.info("calibrated %d structure/threshold pairs", len(lams))

    total = campaign.realizations
    per_real, checksums = [], []
    start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        if campaign.workers > 1:
            # imported here: multiprocessing is a tenth of the package's
            # import time, and serial runs never need it
            from concurrent.futures import ProcessPoolExecutor

            # workers receive the campaign itself (pickled under spawn), so
            # every field reaches them unchanged; map yields in order
            pool = stack.enter_context(ProcessPoolExecutor(
                max_workers=campaign.workers, initializer=_worker_init,
                initargs=(replace(campaign, workers=1), lams)))
            outcomes = pool.map(_worker_run, range(total))
        else:
            # two frames only where calibration's group buffers held two
            # frames of noise, so the loop's frames never outweigh them
            count = min(2, campaign.calibration_runs) if lams else 1
            frames = [np.empty(_frame_shape(campaign)) for _ in range(count)]
            # the helper starts with realization 0's draw, inside
            # run_realization(0), and is joined before this block exits
            helper = stack.enter_context(ThreadPoolExecutor(max_workers=1))
            token = _LOOKAHEAD.set(_NoiseDraws(campaign, frames, helper))
            stack.callback(_LOOKAHEAD.reset, token)
            outcomes = (run_realization(campaign, lams, r)
                        for r in range(total))
        for done, (crc, res) in enumerate(outcomes, 1):
            checksums.append(crc)
            per_real.append(res)
            elapsed = time.perf_counter() - start
            log.info("realization %d/%d frame crc32 %08x: %.1f s elapsed, "
                     "ETA %.1f s", done, total, crc, elapsed,
                     elapsed / done * (total - done))

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
        "reference_dbm": REFERENCE_DBM,
        "frame_crc32": [f"{c:08x}" for c in checksums],
        "calibration_structures": sorted(lams),
        "calibration_thresholds": {name: _spread(lam)
                                   for name, lam in lams.items()},
        "versions": {"specsense": __version__, "numpy": np.__version__,
                     "scipy": _installed_version("scipy")},
    }
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return results_path, summary_path


def _spread(values):
    """Min, median and max; np.median would import numpy.ma, at the heap
    cost ``_installed_version`` describes."""
    s = np.sort(values, axis=None)
    return {"min": float(s[0]), "max": float(s[-1]),
            "median": float((s[(s.size - 1) // 2] + s[s.size // 2]) / 2)}


def _installed_version(name):
    """``importlib.metadata.version(name)`` without leaving modules or caches.

    Made after the realizations, long-lived objects (the email modules
    ``version`` parses with, the lookup's directory caches) split freed
    frame memory and cost later campaigns up to a frame of peak RSS.
    importlib.metadata is imported here, off the library's import time.
    """
    from importlib import invalidate_caches, metadata
    text = metadata.distribution(name).read_text("METADATA")
    invalidate_caches()
    return next(line.partition(":")[2].strip() for line in text.splitlines()
                if line.startswith("Version:"))


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
        side = check_integer("side_count", overrides.pop("side_count", 10), 1)
        spacing = float(overrides.pop("spacing_m", 200.0))
        radius = float(overrides.pop("radius_m", spacing))
        incumbents = check_integer(
            "incumbent_count", overrides.pop("incumbent_count", 50), 0)
        tx_dbm = float(overrides.pop("incumbent_tx_dbm", 30.0))
        height = float(overrides.pop("height_m", 10.0))
        if overrides:
            raise ConfigurationError(f"unknown overrides {sorted(overrides)}")
        topo = build_grid_topology(side, spacing, radius, height)
        plan = build_spectrum_plan(80e6, 20e6, 1)
        plan = plan.with_quota(uniform_quota(plan.subset_count, topo.count))
        x0, y0, x1, y1 = topo.bounding_box()
        rng = substream(seed, "incumbent-placement")
        incs = tuple(
            Incumbent((float(x0 + u * (x1 - x0)), float(y0 + v * (y1 - y0))),
                      height, tx_dbm, 20e6, None)
            for u, v in rng.uniform(size=(incumbents, 2)))
        return Scenario(topo, plan, incs, PropagationParams(), seed)

    if template == "large-synthetic":
        count = check_integer("sap_count", overrides.pop("sap_count", 500), 1)
        region = float(overrides.pop("region_m", 2000.0))
        radius = float(overrides.pop("radius_m", 200.0))
        incumbents = check_integer(
            "incumbent_count", overrides.pop("incumbent_count", 2000), 0)
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
        plan = build_spectrum_plan(total_bw, b, max(1, int(sap_bw // b)))
        plan = plan.with_quota(uniform_quota(plan.subset_count, count))
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
    if realization < 0:
        raise ConfigurationError("realization must be >= 0")
    campaign = replace(campaign, thresholds_dbm=(float(threshold_dbm),))
    topo = campaign.scenario.topology
    lams = calibrate_campaign(campaign)
    inputs = prepare_realization(campaign, realization)
    mean_energy_dbm = norm_to_dbm(inputs.frame.y.mean(axis=2))

    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "k", "x", "y", "m", "energy_dbm",
                         "truth_busy", "decision"])
        for scheme, dm, truth in decide_schemes(campaign, lams, inputs,
                                                realization):
            for k in range(topo.count):
                x, y = topo.positions[k]
                for m in range(campaign.scenario.spectrum.channel_count):
                    if not dm.decided[k, m]:
                        verdict = "none"
                    elif dm.busy[0, k, m]:
                        verdict = "busy"
                    else:
                        verdict = "available"
                    writer.writerow([scheme, k, _fmt(float(x)), _fmt(float(y)),
                                     m, _fmt(float(mean_energy_dbm[k, m])),
                                     int(truth[0, k, m]), verdict])
    return out_path
