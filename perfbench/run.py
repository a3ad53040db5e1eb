"""lka-seg benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload infer-64 --seed 1 --seconds 35 --trace 0

Run from the repository root; the package is imported from ./src. With
`--trace 0` the last line of stdout carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run. The lines
before it record the environment and the sample counts. Workloads,
predictions and the baseline are described in perfbench/baseline.json.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import envinfo

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("infer-64", "eval-256", "train-64"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def import_seconds():
    """Time to import the package and the workloads in a fresh interpreter."""
    code = ("import sys, time; t0 = time.perf_counter(); "
            f"sys.path[:0] = [{SRC!r}, {HERE!r}]; import lka_seg, workloads; "
            "print(time.perf_counter() - t0)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def end_to_end(wl, args, import_s):
    """Untraced run. Set-up runs once before the timed loop and twice after
    it, each time with an import (in a fresh interpreter after the loop):
    the host's speed drifts over seconds, and the median of set-ups taken
    at two moments is steadier than three taken back to back."""
    from workloads import metric, percentile_ms, run_units, throughput

    setups = [import_s + timed(wl.setup, args.seed)]
    checks = {"probe": wl.probe_ok()}
    units, start = run_units(wl, args.seconds)
    checks["val_miou"] = wl.miou_ok()
    metrics = {
        "latency_p50_ms": metric(percentile_ms(units, 50), "ms"),
        "latency_p90_ms": metric(percentile_ms(units, 90), "ms"),
        "img_per_s": metric(throughput(units, start), "img/s"),
        "val_miou": metric(wl.val_miou(), "ratio"),
        "peak_rss_mib": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ok_share": metric(sum(u.ok for u in units) / len(units), "ratio"),
    }
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(import_seconds() + timed(wl.setup, args.seed))
    metrics = {"setup_s": metric(statistics.median(setups), "s"), **metrics}
    samples = {"units": len(units), "elapsed_s": units[-1].end - start,
               "setup_samples_s": setups}
    return units, checks, metrics, samples


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lka_seg", "__init__.py")):
        print(f"lka_seg sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    envinfo.pin_blas_threads()
    load_start = os.getloadavg()
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import lka_seg
    import workloads as W

    import_s = time.perf_counter() - t0

    if os.path.dirname(os.path.abspath(lka_seg.__file__)) != os.path.join(SRC, "lka_seg"):
        print(f"imported lka_seg from {lka_seg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    wl = W.WORKLOADS[args.workload](W.load_reference(), workdir)
    try:
        if args.trace:
            import traced

            units, checks, metrics, samples = traced.per_layer(wl, args)
        else:
            units, checks, metrics, samples = end_to_end(wl, args, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it

    env = envinfo.describe(load_start)
    checks["blas_pinned"] = envinfo.threads_pinned(env)
    failed = sum(not u.ok for u in units)
    print(json.dumps({"env": env}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "checks": checks, "samples": samples}))
    print(json.dumps({"correct": all(checks.values()) and failed == 0,
                      "attempted": len(units), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
