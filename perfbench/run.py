"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 18 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
With ``--trace 0`` the workload repeats for about ``--seconds`` seconds with
tracing off and the end-to-end metrics are reported. With ``--trace 1`` it
runs once untraced and once traced, and the per-layer metrics are reported.
Every metric is printed by name with its unit, a ``BENCH_<label>.json``
record (and, traced, the spans) is written under ``.perfbench_out/``, and the
last line of standard output is the JSON result. Exits 2 without a result
when the checkout holds no library source.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# name -> unit, in BENCHMARK.json order
END_TO_END = {"wall_s": "s", "setup_s": "s", "items_per_s": "1/s",
              "item_p50_s": "s", "item_tail_s": "s", "peak_rss_mb": "MB"}


def tail(values):
    """(value, percentile): the highest percentile with >= 10 samples above.

    Never below the median; with fewer than 22 samples it is the upper median.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 11, n // 2)
    return ordered[rank], 100.0 * (rank + 1) / n


def end_to_end(reps, extra_setups=()):
    """End-to-end metrics over repetitions of the same inputs.

    Other tenants of a shared host only ever add time, so each item (a
    realization, or a gap instance) counts with its fastest repetition and
    the run with its fastest repetition's wall and item-loop times. Set-up
    is the mean of every set-up sample, ``extra_setups`` included: its
    two-mode spread across processes would make a median jump.
    Repetitions that raised have no timings and count only in failed_frac.
    """
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    reps = [rep for rep in reps if rep.item_s]
    if not reps:
        return {}
    items = [min(times) for times in zip(*(rep.item_s for rep in reps))]
    setups = [rep.setup_s for rep in reps] + list(extra_setups)
    tail_s, tail_pct = tail(items)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": min(rep.wall_s for rep in reps),
        "setup_s": statistics.fmean(setups),
        "items_per_s": len(items) / min(rep.loop_s for rep in reps),
        "item_p50_s": statistics.median(items),
        "item_tail_s": tail_s,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    samples = {"wall_s": len(reps), "setup_s": len(setups),
               "items_per_s": len(reps), "item_p50_s": len(items),
               "item_tail_s": len(items), "peak_rss_mb": 1}
    metrics = {name: {"value": values[name], "unit": unit,
                      "samples": samples[name], "kind": "measured"}
               for name, unit in END_TO_END.items()}
    metrics["item_tail_s"]["percentile"] = tail_pct
    metrics["failed_frac"] = {"value": failed / attempted, "unit": "ratio",
                              "samples": attempted, "kind": "measured"}
    return metrics


def git_rev():
    """HEAD of the checkout's own .git, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy
    return {
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "specsense", "__init__.py")):
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from spans import PER_LAYER, COMPUTED, Tracer
    from workloads import WORKLOADS, load_digests, run_rep, setup_sample

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    digests = load_digests()
    label = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    run_dir = os.path.join(OUT, label)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    def rep_dir(i):
        return os.path.join(run_dir, f"rep{i}")

    setup_problems = []
    if args.trace:
        untraced = run_rep(workload, args.seed, rep_dir(0), digests, SRC)
        tracer = Tracer()
        with tracer.installed():
            traced = run_rep(workload, args.seed, rep_dir(1), digests, SRC)
        reps = [untraced, traced]
        values = tracer.layer_metrics(len(traced.item_s), traced.wall_s,
                                      untraced.wall_s)
        metrics = {name: {"value": values[name], "unit": unit,
                          "kind": "computed" if name in COMPUTED else "measured"}
                   for name, unit in PER_LAYER}
        tracer.write(os.path.join(OUT, f"spans_{label}.json"))
    else:
        extra = []
        try:
            extra = [setup_sample(workload, args.seed,
                                  os.path.join(run_dir, f"setup{i}"), SRC)
                     for i in range(workload.extra_setups)]
        except Exception:                      # reported, and the run fails
            setup_problems.append(traceback.format_exc())
        count = max(2, round(args.seconds / workload.rep_s))
        reps = [run_rep(workload, args.seed, rep_dir(i), digests, SRC)
                for i in range(count)]
        metrics = end_to_end(reps, extra)

    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    problems = setup_problems + [p for rep in reps for p in rep.problems]
    digests_seen = sorted({rep.digest for rep in reps})
    correct = failed == 0 and not problems and len(digests_seen) == 1

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} repetitions, {attempted} items, {failed} failed")
    print(f"results.csv sha256 {' '.join(digests_seen)}")
    for name, m in metrics.items():
        extra = ""
        if "percentile" in m:
            extra = f"  (p{m['percentile']:.1f} of {m['samples']} samples)"
        elif "samples" in m:
            extra = f"  ({m['samples']} samples)"
        print(f"  {name:<48} {fmt(m['value']):>14} {m['unit']}{extra}")

    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "correct": correct, "attempted": attempted, "failed": failed,
              "results_sha256": digests_seen, "metrics": metrics,
              "environment": environment()}
    with open(os.path.join(OUT, f"BENCH_{label}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                          for name, m in metrics.items()
                          if args.trace or name in END_TO_END}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
