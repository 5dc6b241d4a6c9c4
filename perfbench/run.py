"""Benchmark of spinrep, run from the root of a source checkout:

    python3 perfbench/run.py --workload lift-stream --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
rounds once untraced and once under the span tracer and reports per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object; the full record of the run goes to ``perfbench/out/``.  See
README.md for the workloads and every metric.
"""

import os

# One BLAS thread, here and in every child process: the figures should
# measure the program, not the scheduler.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_RUNS = 5


@dataclass
class Pass:
    """What one pass over whole rounds of a workload did."""

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    unexpected: int = 0  # failures of operations not marked known_fault
    fault_passed: int = 0  # known_fault operations that passed
    op_s: float = 0.0  # summed time of the operations, checks excluded
    passed_times: list = field(default_factory=list)
    reasons: Counter = field(default_factory=Counter)
    peak_rss_mb: float = 0.0  # largest child process, CLI workloads only
    suite_s: Counter = field(default_factory=Counter)
    reports: int = 0


def run_rounds(wl, execute, seconds=None, rounds=None) -> Pass:
    """Run whole rounds until ``seconds`` have passed or ``rounds`` are done."""
    p = Pass()
    start = time.perf_counter()
    while True:
        for op in wl.round(p.rounds):
            t0 = time.perf_counter()
            try:
                out, error = execute(op), None
            except Exception as exc:  # a fault in the program fails this operation only
                out, error = None, type(exc).__name__
            dt = time.perf_counter() - t0
            if error is None:
                try:
                    error = None if wl.check(op, out) else "check"
                except Exception as exc:  # e.g. a singular matrix handed to the oracle
                    error = f"check:{type(exc).__name__}"
            p.attempted += 1
            p.op_s += dt
            if error is None:
                p.passed_times.append(dt)
                p.fault_passed += op.known_fault
            else:
                p.failed += 1
                p.unexpected += not op.known_fault
                p.reasons[f"{op.kind}:{error}"] += 1
            p.peak_rss_mb = max(p.peak_rss_mb, getattr(out, "peak_rss_mb", 0.0))
            report = getattr(out, "report", None)
            if report:
                p.reports += 1
                for check in report["checks"]:
                    p.suite_s[check["suite"]] += check["elapsed"]
        p.rounds += 1
        if rounds is not None and p.rounds >= rounds:
            return p
        if rounds is None and time.perf_counter() - start >= seconds:
            return p


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import spinrep and build the
    workload's fixed inputs, then exit."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=HERE.parent)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(wl, p: Pass, setup: list[float]) -> tuple[dict, dict]:
    """The bounded metrics, and the median and throughput, which are kept
    in the record only: on a host whose speed switches between two modes
    they measure the mix of modes more than the program (README.md)."""
    import numpy as np

    times_ms = np.array(p.passed_times or [0.0]) * 1e3
    if p.peak_rss_mb:
        rss = p.peak_rss_mb
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bounded = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p10_ms": (float(np.percentile(times_ms, 10)), "ms"),
        "op_tail_ms": (float(np.percentile(times_ms, wl.tail_percentile)), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    unbounded = {
        "ops_per_s": (p.attempted - p.failed) / p.op_s,
        "op_p50_ms": float(np.median(times_ms)),
        "op_percentiles_ms": {str(q): float(np.percentile(times_ms, q))
                              for q in (5, 10, 25, 50, 75, 90, 95, 99, 100)},
    }
    return bounded, unbounded


def traced(wl, seconds: float):
    """Untraced pass for half the time, then the same rounds traced."""
    import tracer

    run_rounds(wl, wl.run_in_process, rounds=1)  # warm-up, not counted
    if not wl.warm:
        tracer.clear_caches()
    plain = run_rounds(wl, wl.run_in_process, seconds=seconds / 2)
    if not wl.warm:
        tracer.clear_caches()
    t = tracer.Tracer()
    t.install()
    try:
        spanned = run_rounds(wl, wl.run_in_process, rounds=plain.rounds)
    finally:
        t.uninstall()
    return plain, spanned, t


def per_layer(summary: dict, caches: dict, plain: Pass, spanned: Pass) -> dict:
    """Costs are per call; counts and self times are per operation."""
    n = spanned.attempted

    def calls(name):
        return summary.get(name, {}).get("calls", 0) / n

    def cost(name, scale):
        s = summary.get(name)
        return s["total_s"] / s["calls"] * scale if s else 0.0

    def self_s(module):
        return sum(v["self_s"] for k, v in summary.items() if k.startswith(module + ".")) / n

    m = {}
    for mod, (hits, misses) in caches.items():
        m[f"{mod}.cache_hits"] = (hits / n, "1/op")
        m[f"{mod}.cache_misses"] = (misses / n, "1/op")
    m.update({
        "clifford.structure_build_ms": (cost("clifford._structure_cached.build", 1e3), "ms"),
        "clifford.geometric_product_us": (cost("clifford.geometric_product", 1e6), "us"),
        "clifford.self_s": (self_s("clifford"), "s/op"),
        "grassmann.gamma_ops_build_ms": (cost("grassmann._gamma_ops_cached.build", 1e3), "ms"),
        "grassmann.hodge_build_ms": (cost("grassmann._hodge_matrix_cached.build", 1e3), "ms"),
        "grassmann.self_s": (self_s("grassmann"), "s/op"),
        "kernels.mul16_calls": (calls("_kernels.mul16"), "1/op"),
        "kernels.mul16_us": (cost("_kernels.mul16", 1e6), "us"),
        "kernels.wedge16_calls": (calls("_kernels.wedge16"), "1/op"),
        "kernels.wedge16_us": (cost("_kernels.wedge16", 1e6), "us"),
        "kernels.self_s": (self_s("_kernels"), "s/op"),
        "transforms.pushforward_ms": (cost("transforms.exterior_pushforward", 1e3), "ms"),
        "transforms.pushforward_calls": (calls("transforms.exterior_pushforward"), "1/op"),
        "transforms.spin_lift_ms": (cost("transforms.spin_lift", 1e3), "ms"),
        "transforms.spin_lift_calls": (calls("transforms.spin_lift"), "1/op"),
        "transforms.conjugation_svd_ms": (cost("svd-under-spin_lift", 1e3), "ms"),
        "transforms.gl4_action_us": (cost("transforms.GL4Action.__call__", 1e6), "us"),
        "transforms.random_lorentz_us": (cost("transforms.random_lorentz", 1e6), "us"),
        "transforms.self_s": (self_s("transforms"), "s/op"),
        "isomorphisms.dirac_matrices_us": (cost("isomorphisms.dirac_matrices", 1e6), "us"),
        "isomorphisms.matrix_basis_build_us": (cost("isomorphisms._matrix_basis_cached.build", 1e6), "us"),
        "isomorphisms.matrix_to_clifford_us": (cost("isomorphisms.matrix_to_clifford", 1e6), "us"),
        "isomorphisms.self_s": (self_s("isomorphisms"), "s/op"),
        "dirac.plane_wave_solutions_us": (cost("dirac.plane_wave_solutions", 1e6), "us"),
        "dirac.entanglement_probe_us": (cost("dirac.entanglement_probe", 1e6), "us"),
        "dirac.self_s": (self_s("dirac"), "s/op"),
    })
    from workloads import ALL_SUITES

    for suite in sorted(ALL_SUITES):
        m[f"suites.{suite}_s"] = (plain.suite_s[suite] / plain.reports if plain.reports else 0.0, "s")
    m["trace.untraced_s"] = (plain.op_s, "s")
    m["trace.traced_s"] = (spanned.op_s, "s")
    m["trace.overhead_ratio"] = (spanned.op_s / plain.op_s, "ratio")
    return m


def provenance() -> dict:
    import numpy
    import scipy

    import spinrep

    return {
        "spinrep": spinrep.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": spinrep.backend_name(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "spinrep" / "__init__.py").is_file():
        print(f"error: no spinrep sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        return 0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        import tracer

        plain, spanned, t = traced(wl, args.seconds)
        summary = t.summary()
        metrics = per_layer(summary, t.cache_counts(summary), plain, spanned)
        record["cache_info"] = tracer.cache_info()
        t.dump(OUT / f"{stem}-spans.jsonl.gz")
        passes = [plain, spanned]
    else:
        setup = record["setup_runs_s"] = measure_setup(args.workload, args.seed)
        p = run_rounds(wl, wl.run, seconds=args.seconds)
        metrics, record["unbounded"] = end_to_end(wl, p, setup)
        passes = [p]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = all(p.unexpected == 0 and len(p.passed_times) > 0 for p in passes)
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    record.update({
        "correct": correct, "attempted": attempted, "failed": failed,
        "rounds": [p.rounds for p in passes],
        "unexpected_failures": sum(p.unexpected for p in passes),
        "known_fault_passed": sum(p.fault_passed for p in passes),
        "failures": dict(sum((p.reasons for p in passes), Counter())),
        "tail_percentile": wl.tail_percentile,
        "metrics": metrics,
        "provenance": provenance(),
    })
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
