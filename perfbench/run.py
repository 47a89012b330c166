#!/usr/bin/env python3
"""difftf benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload wh_pem --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Builds nothing: it imports difftf from the checkout's `src/`. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`. Lines before it record the machine and environment and a
readable report that adds the raw wall-time step metrics, the reference
kernel time, `final_loss` and `failed_ratio`. A traced run also
writes its spans to `.perfbench/spans-<workload>-seed<seed>.jsonl`.
`--workload all` runs every workload in its own process (peak RSS is per
process) and prints one table of the end-to-end metrics and the checks.

BLAS threads are fixed before numpy is imported; see BLAS_THREADS.
"""

import os

# one client, one process: a single BLAS thread keeps step times steady on a
# small shared machine and keeps the measured work single-core
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("wh_pem", "pwh_quantized", "pwh_simulate")


def _cache_sizes():
    """{level: bytes} of the unified/data caches of CPU 0 (empty if unknown)."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
            mult = {"K": 1024, "M": 1024 ** 2}.get(text[-1], 1)
            sizes[level] = int(text.rstrip("KM")) * mult
    except (OSError, ValueError):
        pass
    return sizes


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _cache_sizes()
    l2 = caches.get(2)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_bytes": l2,
        "l3_bytes": caches.get(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "hidden_array_bytes": workload.hidden_bytes,
        "hidden_arrays_per_step": workload.hidden_nets,
        "hidden_array_over_l2": workload.hidden_bytes / l2 if l2 else None,
    }


def _metric_block(pairs):
    return {name: {"value": value, "unit": unit} for name, (value, unit) in pairs.items()}


def run_one(args):
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    try:
        run = workloads.Run(workload, args.seed, args.seconds, args.trace, work_dir)
        run.execute()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = run.end_to_end(peak_rss_mb)
    print("env " + json.dumps(environment(workload)))
    for name, (ok, detail) in run.checks.items():
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    report = _metric_block({**e2e, **run.raw()})
    if not workload.simulate:
        report["final_loss"] = {"value": run.final_loss, "unit": "loss"}
    report["failed_ratio"] = {"value": run.failed / run.attempted, "unit": "ratio"}
    report["step_samples"] = {"value": len(run.untraced.step_s), "unit": "count"}
    print("report " + json.dumps({"workload": workload.name, "seed": args.seed, **report}))
    if args.trace:
        spans = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        run.tracer.write(spans)
        print(f"spans {len(run.tracer.spans)} written to {spans.relative_to(ROOT)}")
    metrics = run.per_layer() if args.trace else e2e
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": _metric_block(metrics),
    }))
    return 0


def run_all(args):
    """Each workload in its own process; one table of results and checks."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exited with {proc.returncode}")
            return proc.returncode
        lines = proc.stdout.splitlines()
        report = json.loads(next(ln for ln in lines if ln.startswith("report "))[7:])
        result = json.loads(lines[-1])
        checks = [ln[6:] for ln in lines if ln.startswith("check ")]
        env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
        rows.append((name, report, result, checks, env))
    print("machine " + json.dumps({k: v for k, v in rows[0][4].items() if not k.startswith("hidden")}))
    for name, report, result, checks, env in rows:
        print(f"{name} (seed {args.seed}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        print(f"  hidden array   {env['hidden_array_bytes']} B x {env['hidden_arrays_per_step']}"
              f" per step, {env['hidden_array_over_l2']:.3g} x L2")
        for metric in ("setup_s", "norm_step_ms_mean", "norm_samples_per_s", "peak_rss_mb",
                       "final_loss", "failed_ratio", "step_ms_p50", "step_ms_p90",
                       "step_ms_mean", "samples_per_s", "reference_ms"):
            m = report.get(metric)
            text = f"{m['value']:.6g} {m['unit']}" if m else "n/a (no training)"
            print(f"  {metric:<18} {text}")
        for check in checks:
            print(f"  check {check}")
    return 0 if all(r[2]["correct"] for r in rows) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "difftf" / "__init__.py").is_file():
        print(f"perfbench: no difftf sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
