"""Command-line entry points for scenario generation, assignment, and campaigns."""

import argparse
import csv
import sys

from .diffusion import DiffusionParams
from .harness import (Campaign, configure_logging, emit_footprint_snapshot,
                      emit_plot_data, generate_scenario, read_results_csv,
                      representative_reference_powers, run_campaign)
from .model import ConfigurationError, load_scenario, save_scenario
from .scheduler import (benchmark_gap, build_cost_tensor,
                        cost_from_reference_powers, heuristic_assign,
                        solve_exact)
from .seeding import substream


def _parse_floats(text):
    return tuple(float(x) for x in text.split(",") if x)


def _parse_ints(text):
    return tuple(int(x) for x in text.split(",") if x)


def _add_generate(sub):
    p = sub.add_parser("generate-scenario", help="write a scenario JSON file")
    p.add_argument("--template", required=True,
                   choices=["small-grid", "large-synthetic"])
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--saps", type=int, help="SAP count (side^2 for the grid)")
    p.add_argument("--incumbents", type=int)
    p.add_argument("--channelization", choices=["nb-iot", "lte-m"])
    p.add_argument("--region-m", type=float)
    p.add_argument("--radius-m", type=float)


def _cmd_generate(args):
    overrides = {}
    if args.saps is not None:
        if args.template == "small-grid":
            side = int(round(max(args.saps, 0) ** 0.5))
            if side * side != args.saps:
                raise ConfigurationError("--saps must be a square for small-grid")
            overrides["side_count"] = side
        else:
            overrides["sap_count"] = args.saps
    if args.incumbents is not None:
        overrides["incumbent_count"] = args.incumbents
    if args.channelization is not None:
        overrides["channelization"] = args.channelization
    if args.region_m is not None:
        if args.template == "small-grid":
            raise ConfigurationError("--region-m applies to large-synthetic")
        overrides["region_m"] = args.region_m
    if args.radius_m is not None:
        overrides["radius_m"] = args.radius_m
    scenario = generate_scenario(args.template, seed=args.seed, **overrides)
    save_scenario(scenario, args.out)
    print(f"wrote {args.out}")
    return 0


def _add_assign(sub):
    p = sub.add_parser("assign", help="compute a sensing assignment")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True, help="CSV of (k, l) rows")
    p.add_argument("--costs", choices=["reference", "uniform"],
                   default="reference")
    p.add_argument("--engine", choices=["heuristic", "auto", "dfs", "milp"],
                   default="heuristic")
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--seed", type=int, help="override the scenario seed")


def _cmd_assign(args):
    scenario = load_scenario(args.scenario)
    seed = scenario.seed if args.seed is None else args.seed
    k_count = scenario.topology.count
    l_count = scenario.spectrum.subset_count
    if args.costs == "reference":
        p_hat = representative_reference_powers(scenario)
        cost = cost_from_reference_powers(p_hat, l_count)
    else:
        cost = build_cost_tensor(k_count, l_count, substream(seed, "cost"))
    if args.engine == "heuristic":
        assignment, objective = heuristic_assign(
            cost, scenario.topology.positions, scenario.spectrum.quota,
            substream(seed, "assign"), args.restarts)
    else:
        assignment, objective = solve_exact(cost, scenario.spectrum.quota,
                                            engine=args.engine)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "l"])
        for k, l in enumerate(assignment.subset_of_sap):
            writer.writerow([k, int(l)])
    print(f"objective {objective!r}")
    print(f"wrote {args.out}")
    return 0


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="run a Monte-Carlo campaign")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--realizations", type=int, default=100)
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--schemes", type=str,
                   default="genie,proposed-multiband,proposed-singleband,"
                           "centralized,noncoop-multiband,noncoop-singleband")
    p.add_argument("--thresholds-dbm", type=str,
                   default=",".join(str(t) for t in range(-82, -50, 2)))
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--devices", type=int, default=0)
    p.add_argument("--capacity", type=int, default=1)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--calibration-runs", type=int, default=10)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--noncoop-raw-energy", action="store_true")


def _cmd_simulate(args):
    scenario = load_scenario(args.scenario)
    campaign = Campaign(
        scenario=scenario,
        schemes=tuple(s.strip() for s in args.schemes.split(",") if s.strip()),
        thresholds_dbm=_parse_floats(args.thresholds_dbm),
        realizations=args.realizations,
        master_seed=args.seed,
        diffusion=DiffusionParams(iterations=args.iterations),
        calibration_runs=args.calibration_runs,
        device_count=args.devices,
        device_capacity=args.capacity,
        scheduler_restarts=args.restarts,
        noncoop_raw_energy=args.noncoop_raw_energy,
        workers=args.workers,
    )
    results_path, summary_path = run_campaign(campaign, args.out)
    print(f"wrote {results_path}")
    print(f"wrote {summary_path}")
    return 0


def _add_gap(sub):
    p = sub.add_parser("gap-benchmark",
                       help="heuristic vs exact scheduling objective")
    p.add_argument("--sizes", type=str, default="8,12,16,20")
    p.add_argument("--instances", type=int, default=50)
    p.add_argument("--subsets", type=int, default=4)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--out", required=True)


def _cmd_gap(args):
    rows = benchmark_gap(_parse_ints(args.sizes), args.subsets,
                         args.instances, args.seed, restarts=args.restarts)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sap_count", "mean_gap_pct", "std_gap_pct",
                         "instances"])
        for r in rows:
            writer.writerow([r["sap_count"], repr(r["mean_gap_pct"]),
                             repr(r["std_gap_pct"]), r["instances"]])
    for r in rows:
        print(f"K={r['sap_count']}: mean gap {r['mean_gap_pct']:.2f}%")
    print(f"wrote {args.out}")
    return 0


def _add_plot(sub):
    p = sub.add_parser("emit-plot-data", help="tidy CSVs for plotting")
    p.add_argument("--figure", required=True,
                   choices=["utilization-vs-threshold",
                            "misdetection-vs-threshold",
                            "correct-vs-threshold",
                            "scheduled-devices",
                            "footprint-snapshot"])
    p.add_argument("--out", required=True)
    p.add_argument("--results", help="results.csv from simulate")
    p.add_argument("--scenario", help="scenario JSON (footprint-snapshot)")
    p.add_argument("--seed", type=int)
    p.add_argument("--threshold-dbm", type=float, default=-62.0)
    p.add_argument("--realization", type=int, default=0)


def _cmd_plot(args):
    if args.figure == "footprint-snapshot":
        if not args.scenario:
            raise ConfigurationError("footprint-snapshot requires --scenario")
        scenario = load_scenario(args.scenario)
        campaign = Campaign(scenario=scenario, master_seed=args.seed,
                            thresholds_dbm=(args.threshold_dbm,),
                            realizations=1)
        emit_footprint_snapshot(campaign, args.out,
                                realization=args.realization,
                                threshold_dbm=args.threshold_dbm)
    else:
        if not args.results:
            raise ConfigurationError(f"{args.figure} requires --results")
        emit_plot_data(read_results_csv(args.results), args.figure, args.out)
    print(f"wrote {args.out}")
    return 0


def main(argv=None):
    configure_logging()
    parser = argparse.ArgumentParser(
        prog="specsense",
        description="Distributed spatio-spectral sensing simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_assign(sub)
    _add_simulate(sub)
    _add_gap(sub)
    _add_plot(sub)
    args = parser.parse_args(argv)
    handlers = {
        "generate-scenario": _cmd_generate,
        "assign": _cmd_assign,
        "simulate": _cmd_simulate,
        "gap-benchmark": _cmd_gap,
        "emit-plot-data": _cmd_plot,
    }
    try:
        return handlers[args.command](args)
    except (ArithmeticError, ConfigurationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
