"""orbitdist benchmark: run one workload with one seed and report.

    python3 bench/run.py --workload {pairs,search,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from its
``src/`` directory and nowhere else.  ``--trace 0`` measures the
end-to-end metrics for ``--seconds`` seconds.  ``--trace 1`` runs a fixed
pass untraced and again traced and reports the per-layer metrics.

Standard output ends with two JSON lines: a detail object (environment,
every measured value by name with its unit, failures), then the result
object ``{"correct", "attempted", "failed", "metrics"}``.  Both, and the
spans of a traced run, are also written under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# One BLAS/OpenMP thread (at most nproc): one client, tiny matrices, and a
# machine shared with other jobs.  Set before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def steady_percentile(n: int) -> float | None:
    """Highest percentile of the ladder with at least ten of ``n`` samples
    beyond it, or None when even the median has fewer."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def end_to_end_metrics(setup_s, latencies_ns, peak_rss_mb) -> dict[str, tuple[float, str]]:
    lat_us = sorted(x / 1e3 for x in latencies_ns)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(lat_us) / (sum(lat_us) / 1e6), "1/s"),
        "op_p50_us": (percentile(lat_us, 50.0), "us"),
        "op_p90_us": (percentile(lat_us, 90.0), "us"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer_metrics(spans: dict) -> dict[str, tuple[float, str]]:
    from tracing import QUERY_SPAN, TRACED, aggregate, count_under

    agg = aggregate(spans)
    metrics = {}
    for name in TRACED:
        calls, self_s = agg.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    queries, evals = count_under(spans, QUERY_SPAN, "metrics.orbit_distance")
    metrics["search.exact_evals_per_query"] = (evals / queries if queries else 0.0, "count")
    return metrics


def environment(cpu: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "machine": platform.machine(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["pairs", "search", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orbitdist" / "__init__.py").is_file():
        print(f"error: no orbitdist sources at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import orbitdist
    import speed
    import workloads

    if Path(orbitdist.__file__).resolve().parent != SRC / "orbitdist":
        print(f"error: orbitdist was imported from {orbitdist.__file__}", file=sys.stderr)
        return 2

    cpu = speed.pin_to_one_cpu()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = outcome.tally
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = per_layer_metrics(outcome.tracer.to_dict())
        named = dict(outcome.extra)
        outcome.tracer.write(f"{stem}-spans.json.gz")
    else:
        scaled = tally.scaled_ns()
        metrics = end_to_end_metrics(outcome.setup_s, scaled, outcome.peak_rss_mb)
        raw = end_to_end_metrics(outcome.raw_setup_s, tally.latencies_ns, outcome.peak_rss_mb)
        named = {**metrics, **outcome.extra}
        named.update((f"raw_{k}", v) for k, v in raw.items() if k != "peak_rss_mb")
        p = steady_percentile(len(scaled))
        if p is not None:
            named[f"op_p{p:g}_us"] = (percentile(sorted(x / 1e3 for x in scaled), p), "us")
    named["failed_frac"] = (tally.failed / tally.attempted, "1")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(tally.latencies_ns),
        "setup_samples_s": outcome.setup_s,
        "named": _as_json(named),
        "errors": tally.errors,
        "env": environment(cpu),
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": _as_json(metrics),
    }
    stem.with_suffix(".json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
