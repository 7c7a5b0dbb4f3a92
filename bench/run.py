"""Benchmark of the omegals library: one workload per process.

    python3 bench/run.py --workload figure1 --seed 1 --seconds 20 --trace 0

Runs the named workload for --seconds of whole iterations, checks every
iteration's outputs, and prints one JSON object as the last line of standard
output: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 untraced and
traced iterations alternate and the metrics are the per-layer ones (see
tracer.py) plus the tracing overhead. See README.md for the workloads.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_ROOT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("figure1", "large-grid", "verify", "structure")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 7

# Run in a fresh interpreter: prints the seconds the library import takes.
IMPORT_PROBE = """
import time
start = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import omegals
print(time.perf_counter() - start)
"""

# Run in a fresh interpreter: pickles the workload's reference values to a file.
REFERENCE_CHILD = """
import pickle
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
ref = workloads.compute_reference(sys.argv[3], int(sys.argv[4]))
with open(sys.argv[5], "wb") as f:
    pickle.dump(ref, f)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", type=int, default=None,
                        help="BLAS threads (default: the CPUs this process may use)")
    return parser.parse_args(argv)


def blas_info():
    """OpenBLAS thread count and build string as NumPy's own copy reports them."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            get_threads = getattr(lib, f"{prefix}_get_num_threads64_", None)
            get_config = getattr(lib, f"{prefix}_get_config64_", None)
            if get_threads is not None and get_config is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                return get_threads(), get_config().decode()
    return None, None


def import_seconds() -> float:
    """Library import time, measured in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def compute_reference(name: str, seed: int, out_dir: Path):
    """The workload's reference values, computed in a child process so that
    the reference computation's memory stays out of the measured peak RSS.
    The child is waited for, so no process outlives the run."""
    path = out_dir / "reference.pickle"
    subprocess.run([sys.executable, "-c", REFERENCE_CHILD, str(Path(__file__).resolve().parent),
                    str(ROOT / "src"), name, str(seed), str(path)], check=True, timeout=150)
    with path.open("rb") as f:
        return pickle.load(f)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(times, setup_s, peak_mb):
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "iter_s.p50": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def per_layer_metrics(tracer, traced_iters, plain_times, traced_times):
    from omegals.verify import SUITES
    from workloads import VERIFY_TRIALS

    k = float(traced_iters)
    totals, calls, counters = tracer.total, tracer.calls, tracer.counters
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for key in ("linalg.hermitian_eig", "linalg.orthonormalize", "linalg.solve_hermitian",
                "subspaces.reach", "decomposition.tridiagonal_block_decomposition",
                "decomposition.shifted_blocks", "solver.solve_weighted",
                "solver.solution_map", "io.write_csv"):
        put(f"{key}.s", totals[key] / k, "s")
        put(f"{key}.calls", calls[key] / k, "count")
    for key in ("subspaces.krylov", "subspaces.eigenspace_split", "solver.ProblemInstance.create",
                "solver.difference_via_blocks", "solver.limit_difference_via_blocks",
                "analysis.sweep_solutions", "analysis.estimate_span_dim",
                "analysis.constant_kernel", "analysis.difference_subspace",
                "analysis.condition_report", "experiments.poisson_2d",
                "experiments.krylov_sum_subspace", "experiments.sweep_files"):
        put(f"{key}.s", totals[key] / k, "s")
    for name in ("linalg.hermitian_eig.order_n.calls", "analysis.sweep_solutions.shifts",
                 "analysis.sweep_solutions.failed_shifts",
                 "experiments.krylov_sum_subspace.attempts"):
        put(name, counters[name] / k, "count")
    put("io.bytes_written", counters["io.bytes_written"] / k, "B")
    for suite in VERIFY_TRIALS:
        key = f"verify.{SUITES[suite].__name__}"
        put(f"verify.{suite}.s", totals[key] / k, "s")
        put(f"verify.{suite}.checks", counters[f"{key}.checks"] / k, "count")
    from tracer import LAYERS

    for layer in LAYERS:
        put(f"{layer}.self_s", tracer.layer_self(layer) / k, "s")
    plain = statistics.median(plain_times)
    traced = statistics.median(traced_times)
    put("trace.iter_s.p50", traced, "s")
    put("trace.overhead_pct", 100.0 * (traced - plain) / plain, "%")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = args.blas_threads or len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    if not (ROOT / "src" / "omegals" / "__init__.py").is_file():
        print(f"error: library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import scipy

    import omegals  # noqa: F401
    from tracer import Tracer
    from workloads import WORKLOADS, Ledger, Ops

    start_s = time.perf_counter() - START
    blas_threads, blas_config = blas_info()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"numpy {np.__version__}, scipy {scipy.__version__}, {blas_config}; "
          f"BLAS threads {blas_threads} (pinned {threads}), nproc {os.cpu_count()}, "
          f"usable CPUs {len(os.sched_getaffinity(0))}")

    OUT_ROOT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    try:
        workload = WORKLOADS[args.workload](args.seed, out_dir)
        import_times, prepare_times = [], []
        for _ in range(SETUP_REPEATS):
            import_times.append(import_seconds())
            t0 = time.perf_counter()
            workload.prepare()
            prepare_times.append(time.perf_counter() - t0)
        setup_s = statistics.median(i + p for i, p in zip(import_times, prepare_times))
        ref = compute_reference(args.workload, args.seed, out_dir)

        ops, ledger, tracer = Ops(), Ledger(), Tracer()
        plain_times, traced_times = [], []
        # Peak RSS is read once the first iteration has returned: the
        # allocator's heap keeps growing over later iterations, so a peak read
        # at the end would depend on how many iterations fit in the run.
        peak_mb = None
        loop_start = time.perf_counter()
        while True:
            traced = args.trace == 1 and len(plain_times) > len(traced_times)
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = workload.iterate(ops)
            finally:
                elapsed = time.perf_counter() - t0
                tracer.uninstall()
            (traced_times if traced else plain_times).append(elapsed)
            if peak_mb is None:
                peak_mb = peak_rss_mb()
            try:
                workload.check(out, ref, ledger)
            except Exception as err:  # a check that cannot run is a failed check
                ledger.equal(f"check raised {type(err).__name__}: {err}", False, True)
            done = time.perf_counter() - loop_start >= args.seconds
            if done and (args.trace == 0 or traced_times):
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    iterations = len(plain_times) + len(traced_times)
    print(f"peak RSS {peak_mb:.1f} MB after the first iteration, {peak_rss_mb():.1f} MB at the end")
    print(f"iterations {iterations} ({len(traced_times)} traced); "
          f"operations attempted {ops.attempted}, failed {ops.failed}")
    for message, count in ops.errors.items():
        print(f"  failed x{count}: {message}")
    print(f"setup: this process started in {start_s:.4f} s; library import "
          f"{[round(t, 4) for t in import_times]} s, prepare {[round(t, 4) for t in prepare_times]} s; "
          f"median sum {setup_s:.4f} s")
    for line in ledger.lines():
        print(line)

    if args.trace:
        metrics = per_layer_metrics(tracer, len(traced_times), plain_times, traced_times)
    else:
        metrics = end_to_end_metrics(plain_times, setup_s, peak_mb)
    result = {"correct": ledger.ok, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, blas_threads=blas_threads, blas_config=blas_config,
                  iteration_s=plain_times, traced_iteration_s=traced_times,
                  import_s=import_times, prepare_s=prepare_times, start_s=start_s,
                  peak_rss_end_mb=peak_rss_mb(),
                  checks={name: [str(w), t, ok] for name, (w, t, ok) in ledger.rows.items()},
                  measured={name: [w, t] for name, (w, t) in ledger.measured.items()})
    if args.trace:
        record["trace"] = tracer.table()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_ROOT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
