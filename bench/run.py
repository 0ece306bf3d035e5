"""becircle benchmark: time to a checked result, per workload, and a traced
per-layer run.

    python3 bench/run.py --workload spectral --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory.  The workload's ops run in passes, one after another in
this single process, until ``--seconds`` have elapsed (at least one pass).

--trace 0  end-to-end metrics: wall_s and slowest_op_s (medians over the
           passes), setup_s (median of fresh interpreters that import the
           package and draw the inputs), peak_rss_mb, and fail_frac.
--trace 1  per-layer metrics from passes run under the span tracer, each
           paired with an untraced pass for the overhead and the digest check.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md next to
this file for the workloads, the metrics and what each should move.
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:            # must precede the first numpy import
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("spectral", "arc-sweeps", "thin-layer")
SETUP_PROBES = 5

UNITS = {"wall_s": "s", "slowest_op_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _canonical(obj):
    """Results at 17 significant digits, in a form json can hash."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if hasattr(obj, "tolist"):                      # numpy arrays and scalars
        return _canonical(obj.tolist())
    if isinstance(obj, float):
        return format(obj, ".17g")
    return obj


def run_pass(ops, context):
    """Every op once, with its checks; a raise or a failed check never aborts."""
    results, failures, times = [], [], []
    record_bytes = 0
    start = perf_counter()
    for name, fn in ops:
        ctx = context()
        t0 = perf_counter()
        try:
            values = fn(ctx)
        except Exception as exc:     # an op that raises is counted, not fatal
            values = f"raised {type(exc).__name__}: {exc}"
            ctx.failed_checks.append(values)
        times.append(perf_counter() - t0)
        record_bytes += ctx.record_bytes
        results.append([name, _canonical(values)])
        if ctx.failed_checks:
            failures.append((name, ctx.failed_checks))
    wall = perf_counter() - start
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()[:16]
    slowest = max(range(len(ops)), key=times.__getitem__)
    return {"wall_s": wall, "slowest_op_s": times[slowest],
            "slowest_op": ops[slowest][0], "op_s": times, "failures": failures,
            "digest": digest, "record_bytes": record_bytes, "ops": len(ops)}


def setup_times(args):
    """Fresh interpreters that import becircle and draw the inputs, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=120, check=False)
        out.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return out


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def environment(args):
    import mpmath
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": platform.platform(),
        "cpu": platform.processor() or platform.machine(), "host": platform.node(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "git_sha": git_sha(), "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def report_pass(label, p):
    print(f"{label}: wall_s={p['wall_s']:.4f} s  slowest_op={p['slowest_op']}  "
          f"op_s={' '.join(f'{t:.4f}' for t in p['op_s'])}  digest={p['digest']}")
    for name, checks in p["failures"]:
        print(f"  FAIL {name}: " + "; ".join(checks))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "becircle" / "__init__.py").is_file():
        print(f"error: no becircle package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import becircle
    if Path(becircle.__file__).resolve().parent != (SRC / "becircle").resolve():
        print(f"error: imported becircle from {becircle.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracing import UNITS as UNITS_PER_LAYER, Tracer
    ops = workloads.build(args.workload, args.seed)
    if args.setup_only:
        return 0

    print("env " + json.dumps(environment(args), sort_keys=True))
    print("ops " + " ".join(name for name, _ in ops))
    setup = [] if args.trace else setup_times(args)

    plain, traced, layers = [], [], []
    start = perf_counter()
    while not plain or perf_counter() - start < args.seconds:
        plain.append(run_pass(ops, workloads.Context))
        report_pass(f"pass {len(plain)}", plain[-1])
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                traced.append(run_pass(ops, workloads.Context))
            report_pass(f"traced pass {len(traced)}", traced[-1])
            layers.append(tracer.layer_metrics(traced[-1]["wall_s"]))
            del tracer

    passes = plain + traced
    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    digests = sorted({p["digest"] for p in passes})
    print(f"result digest: {' '.join(digests)}"
          + ("" if len(digests) == 1 else "  (MISMATCH between passes)"))

    if args.trace:
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        metrics["experiments_cli.record_bytes"] = statistics.median(
            p["record_bytes"] for p in traced)
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in plain) - 1.0)
        units = UNITS_PER_LAYER
        print("no wait metric: one thread in one process, so no layer waits on another")
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "slowest_op_s": statistics.median(p["slowest_op_s"] for p in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = UNITS
        print(f"setup probes (s): {' '.join(f'{t:.4f}' for t in setup)}")
        print(f"fail_frac = {failed / attempted:.6g} ratio")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")

    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
